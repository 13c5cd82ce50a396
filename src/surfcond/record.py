"""The base class of the engine's records: plain classes with __slots__, not
standard-library data classes (the cli module docstring says why).

A subclass names its fields once, in __slots__ (or in _fields where it
keeps a __dict__), and gets one getter over them, _values: a C-level
operator.attrgetter returning the tuple of the fields.  Equality, the hash,
repr, as_dict and replace read the fields through it, so they cost what
hand-written methods did."""

from operator import attrgetter


class Frozen:
    """Immutable record: equal to a record of its own type with equal fields,
    hashed as the tuple of its fields (as a frozen data class was, so set
    order stays the same) and shown as Name(field=value, ...).  __init__
    sets the fields with _set; assignment and deletion raise AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__dict__.get("__slots__") or cls.__dict__.get("_fields")
        if fields:  # a subclass that names no fields keeps its base's getter
            cls._fields = fields = tuple(fields)
            get = attrgetter(*fields)  # of one name: the value, not a 1-tuple
            cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def _refuse(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __setattr__ = __delattr__ = _refuse

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        """The fields by name, in the order the class declares them."""
        return dict(zip(self._fields, self._values(self)))

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def replace(self, **changes):
        """A copy with the named fields changed, checked again by __init__."""
        return type(self)(**self.as_dict() | changes)
