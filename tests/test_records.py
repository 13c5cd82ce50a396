"""The engine's record types behave as the frozen data classes they
replace: every record refuses assignment, `replace` validates again,
equality is per type and field, and a value hashes as the tuple of its
fields, so set order, and every output built from it, is unchanged.  Each
reads its fields through the one getter that `record.Frozen` builds."""

import importlib
import pkgutil

import pytest

import surfcond
from surfcond.abelian import FinAbGroup, GroupExpr
from surfcond.acceptance import CheckResult
from surfcond.ahss import TotalDegreeReport, assemble_e2, run_ahss
from surfcond.coefficients import CoeffOverrides, circle_row, spectrum
from surfcond.condense import SkeletalCategory, Verdict
from surfcond.em_cohomology import EmAlgebra, EmSpace, Generator
from surfcond.gf2 import Gf2Matrix
from surfcond.record import Frozen
from surfcond.steenrod import SteenrodMonomial, SteenrodWord

Z2 = FinAbGroup((2,))

# each builds a fresh instance with the same value on every call
VALUES = {
    "FinAbGroup": lambda: FinAbGroup((2, 4)),
    "GroupExpr": lambda: GroupExpr(Z2, 1, ("SW2", "SW")),
    "Gf2Matrix": lambda: Gf2Matrix((1, 6), 3),
    "SteenrodMonomial": lambda: SteenrodMonomial((4, 2), 3),
    "SteenrodWord": lambda: SteenrodWord.sq(2, 2) + SteenrodWord.sq(3, 1),
    "EmSpace": lambda: EmSpace.single(4, 2),
    "Generator": lambda: Generator(1, SteenrodMonomial((2,)), 2),
    "SpectrumTable": lambda: spectrum("SW"),
    "SkeletalCategory": lambda: SkeletalCategory("braided", "bosonic", "2Vec", FinAbGroup((3,))),
    "TotalDegreeReport": lambda: TotalDegreeReport(
        2, ((0, 2, "Z/2"),), "Z/2", GroupExpr.of(Z2), (), ("a note",)),
    "Page": lambda: assemble_e2(Z2, 2, "SW", 3),
    "CircleRow": lambda: circle_row(Z2, 2),
    "Verdict": lambda: Verdict("braided/bosonic", "obstructed", None, ["a note"]),
    "CheckResult": lambda: CheckResult("check", True, "detail", 0.5),
}
# a read-only mapping or a list among their fields: equal, but unhashable
UNHASHABLE = {"Page", "CircleRow", "Verdict"}
# compared and hashed by identity: a loaded file keys a cache, and classes
# compare their algebras with `is`
BY_IDENTITY = {
    "CoeffOverrides": CoeffOverrides,
    "EmAlgebra": lambda: EmAlgebra(EmSpace.single(2, 2), 4),
}
FROZEN = {**VALUES, **BY_IDENTITY}


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("name", FROZEN)
def test_fields_refuse_assignment_and_deletion(name):
    record = FROZEN[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record, changes, message", [
    (SkeletalCategory("braided", "bosonic", "2Vec"), {"level": "modular"}, "unknown level"),
    (GroupExpr(), {"opaque": ("SW3",)}, "unknown opaque symbol"),
    (FinAbGroup((2, 4)), {"invariant_factors": (4, 6)}, "divisibility chain"),
])
def test_replace_validates_again(record, changes, message):
    with pytest.raises(ValueError, match=message):
        record.replace(**changes)


def test_replace_changes_only_what_it_names():
    page = run_ahss(Z2, 2, "SW", 5)[0]
    turned = page.replace(number=4)
    assert turned.number == 4 and page.number == 3
    assert fields(turned)[1:] == fields(page)[1:]


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_as_their_field_tuple(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b) == hash(fields(a))


@pytest.mark.parametrize("name", FROZEN)
def test_one_getter_per_class_returns_the_field_tuple(name):
    record = FROZEN[name]()
    assert record._values(record) == fields(record)
    # a subclass that names no fields reads them through its base's getter
    assert type("Twin", (type(record),), {})._values is type(record)._values


@pytest.mark.parametrize("name", VALUES)
def test_no_record_equals_a_tuple_or_another_type(name):
    record = VALUES[name]()
    twin = type("Twin", (type(record),), {})(*fields(record))
    assert fields(twin) == fields(record)
    for other in (fields(record), list(fields(record)), twin):
        assert record != other and other != record


def test_overrides_compare_and_hash_by_identity():
    a, b = CoeffOverrides(), CoeffOverrides()
    assert a != b and a == a
    assert hash(a) == object.__hash__(a)


def _records():
    for info in pkgutil.iter_modules(surfcond.__path__):
        importlib.import_module(f"surfcond.{info.name}")
    found, stack = [], [Frozen]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("surfcond."):
                found.append(cls)
                stack.append(cls)
    return found


def test_records_take_equality_and_hash_from_the_base():
    records = {cls.__name__: cls for cls in _records()}
    assert set(records) == set(FROZEN)
    for name, cls in records.items():
        own = {"__eq__", "__hash__"} & set(vars(cls))
        if name in BY_IDENTITY:
            assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__)
        else:
            assert not own, f"{name} defines {sorted(own)}"


def test_verdict_keeps_its_fields_in_a_dict():
    verdict = Verdict("braided/bosonic", "obstructed", "Z/2")
    assert vars(verdict) == {"branch": "braided/bosonic", "verdict": "obstructed",
                             "group": "Z/2", "provenance": [], "details": {}}
    assert Verdict(**vars(verdict)) == verdict
    assert repr(verdict) == ("Verdict(branch='braided/bosonic', verdict='obstructed', "
                             "group='Z/2', provenance=[], details={})")
