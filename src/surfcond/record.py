"""Base classes of the engine's record types: plain classes with __slots__,
not standard-library data classes (the cli module docstring says why)."""


class Record:
    """Mutable record: equal to a record of its own type with equal fields,
    unhashable (it defines __eq__ alone), and shown as Name(field=value, ...).
    Its fields are its __slots__, or its _fields where it keeps a __dict__."""

    __slots__ = ()
    _fields = property(lambda self: self.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """Immutable record: __init__ sets the fields with object.__setattr__
    (or _set), and the hash is that of the tuple of the fields, as a frozen
    data class had it, so set order stays the same."""

    __slots__ = ()

    def _refuse(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __setattr__ = __delattr__ = _refuse

    def __hash__(self) -> int:
        return hash(self._values())

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def replace(self, **changes):
        """A copy with the named fields changed, checked again by __init__."""
        return type(self)(**{name: getattr(self, name) for name in self.__slots__} | changes)
