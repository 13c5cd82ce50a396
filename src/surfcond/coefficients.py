"""Coefficient spectra and circle-group cohomology rows for the spectral
sequence engine.

These are configurable known-value tables: the circle rows are imported
data evaluated through the group functors of :mod:`surfcond.abelian`, not
computed from cochains.  Every entry carries a provenance note, and access
outside the supported range raises instead of fabricating a value.  Each
read-only table is built once per key, however `spectrum` or `circle_row`
is called; a build that raises is not kept.
"""

from __future__ import annotations

import json
from functools import lru_cache
from types import MappingProxyType

from .abelian import (
    CIRCLE,
    FinAbGroup,
    GroupExpr,
    UnsupportedRangeError,
    dual,
    even_count,
    ext_group,
    parse_expr,
    parse_group,
    quad_group,
    quotient_by_subgroup_image,
    two_part,
    two_torsion,
)
from .em_cohomology import EmSpace, algebra_for
from .gf2 import Gf2Matrix
from .record import Frozen

DEFAULT_CAP = 12  # the mod-2 degree range of the tables and their overrides
_CIRCLE_N = (2, 4)  # the space degrees n with a circle row


class SpectrumTable(Frozen):
    """Point coefficients h^j(pt) by degree j, with provenance per entry."""

    __slots__ = ("name", "entries", "provenance", "notes")

    def __init__(self, name: str, entries: tuple[GroupExpr, ...], provenance: tuple[str, ...],
                 notes: tuple[str, ...] = ()):  # overrides applied to this table
        self._set(name, entries, provenance, notes)

    def entry(self, j: int) -> GroupExpr:
        if j < 0:
            return GroupExpr.zero()
        if j >= len(self.entries):
            raise UnsupportedRangeError(
                f"{self.name} spectrum only tabulated up to degree {len(self.entries) - 1}"
            )
        return self.entries[j]

    @property
    def max_degree(self) -> int:
        return len(self.entries) - 1


_Z2 = GroupExpr.of(FinAbGroup((2,)))
_CX = GroupExpr(circle_rank=1)
_0 = GroupExpr.zero()
_SW = GroupExpr.symbol("SW")
_SW2 = GroupExpr.symbol("SW2")


_SPECTRA = {
    "SH": (_CX, _Z2, _Z2, _0, _0, _0, _0, _0, _0),
    "SW": (_CX, _Z2, _Z2, _0, _SW, _0, _0, _0, _0),
    "Spin": (_CX, _Z2, _Z2, _0, _CX, _0, _0, _0),
}


def spectrum(name: str, overrides: "CoeffOverrides | None" = None) -> SpectrumTable:
    """Built-in coefficient spectra.

    SH has layers C^x, Z2, Z2 in degrees 0..2 and nothing above.  SW agrees
    with SH below degree 4 and has the opaque Witt-group entry SW in degree
    4.  Spin carries C^x in degree 4 instead.  The fermion-parity twist is
    not a table: it changes SW's d2, not its point coefficients, so a
    twisted run reads the SW table (ahss.assemble_e2's twisted flag).
    Built once per key.
    """
    return _spectrum(name, overrides)


@lru_cache(maxsize=None)  # keyed by positional arguments, as ahss._run_ahss is
def _spectrum(name, overrides):
    if name not in _SPECTRA:
        raise UnsupportedRangeError(f"unknown spectrum {name!r}")
    entries = list(_SPECTRA[name])
    provenance = [f"{name}^{j}(pt) = {e} [known value]" for j, e in enumerate(entries)]
    table = overrides.spectrum_overrides.get(name, {}) if overrides else {}
    for j, expr in table.items():
        entries[j] = expr
        provenance[j] = f"{name}^{j}(pt) = {expr} [override]"
    notes = tuple(f"override: spectrum {name} degree {j} -> {e}" for j, e in table.items())
    return SpectrumTable(name, tuple(entries), tuple(provenance), notes)


# ---------------------------------------------------------------------------
# Circle rows


class CircleRow(Frozen):
    """H^i(K(E, n); C^x) by degree i, with declared comparison-map data.

    comparison[i] maps basis-monomial names of H^i(K(E,n); Z2) to elements
    of the degree-i entry's finite part (None meaning a declared zero
    image).  A class whose monomials are not all covered raises.  Its
    mappings are read-only views, down to each image table: runs share it.
    """

    __slots__ = ("E", "n", "entries", "provenance", "comparison", "notes")

    def __init__(self, E: FinAbGroup, n: int, entries: dict[int, GroupExpr],
                 provenance: dict[int, str],
                 comparison: dict[int, dict[str, tuple[int, ...] | None]],
                 notes: tuple[str, ...] = ()):  # overrides applied to this row
        self._set(E, n, MappingProxyType(entries), MappingProxyType(provenance),
                  _read_only(comparison), notes)

    def entry(self, i: int) -> GroupExpr:
        if i < 0:
            return GroupExpr.zero()
        if i not in self.entries:
            raise UnsupportedRangeError(
                f"H^{i}(K({self.E},{self.n}); C^x) is outside the supported table"
            )
        return self.entries[i]

    def entry_modulo(self, i: int, d2: Gf2Matrix | None) -> GroupExpr:
        """The degree-i entry modulo the image of a d2 into it, whose rows
        name order-2 elements in the coordinates of comparison_matrix: bit
        pos is half the pos-th invariant factor.  None is a zero d2."""
        expr = self.entry(i)
        factors = expr.finite.invariant_factors
        return quotient_by_subgroup_image(expr, [
            tuple(d // 2 if (row >> pos) & 1 else 0 for pos, d in enumerate(factors))
            for row in (d2.rows if d2 else ())
        ])

    def comparison_matrix(self, algebra, i: int, source: Gf2Matrix) -> Gf2Matrix:
        """X -> (-1)^X from H^i(K(E,n); Z2) onto the order-2 coordinates of
        the degree-i entry, one bit per invariant factor.

        Only monomials that some row of source reaches are looked up; the
        others stay zero rows.  A zero source needs neither the declared data
        nor the entry, and the entry is read only for a nonzero declared
        image (without it the matrix has no columns).
        """
        used = 0
        for row in source.rows:
            used |= row
        rows = [0] * source.ncols
        if not used:
            return Gf2Matrix.from_rows(rows, 0)
        data = self.comparison.get(i)
        if data is None:
            raise UnsupportedRangeError(
                f"no comparison data into H^{i}(K({self.E},{self.n}); C^x)"
            )
        group = None
        for pos, mono in enumerate(algebra.basis(i)):
            if not (used >> pos) & 1:
                continue
            name = algebra.format_monomial(mono)
            if name not in data:
                raise UnsupportedRangeError(
                    f"comparison image of {name} in degree {i} not declared"
                )
            if data[name] is not None:
                group = group or self.entry(i).finite
                rows[pos] = _order2_bits(group, data[name])
        return Gf2Matrix.from_rows(rows, len(group.invariant_factors) if group else 0)


def _read_only(tables: dict) -> MappingProxyType:
    """A read-only view of a mapping of tables, each table read-only too."""
    return MappingProxyType({key: MappingProxyType(t) for key, t in tables.items()})


def _order2_bits(group: FinAbGroup, elt) -> int:
    if len(elt) != len(group.invariant_factors):
        raise ValueError(
            f"comparison image {tuple(elt)} does not have one coordinate per"
            f" invariant factor of {group}"
        )
    bits = 0
    for pos, (c, d) in enumerate(zip(elt, group.invariant_factors)):
        if c == 0:
            continue
        if d % 2 or c != d // 2:
            raise ValueError(f"comparison image {tuple(elt)} is not 2-torsion in {group}")
        bits |= 1 << pos
    return bits


def _order2_element(G: FinAbGroup) -> tuple[int, ...]:
    """The order-2 element of the last (largest) cyclic factor."""
    coords = [0] * len(G.invariant_factors)
    coords[-1] = G.invariant_factors[-1] // 2
    return tuple(coords)


def _monomial_names(E: FinAbGroup, n: int, degree: int) -> list[str]:
    """Names of the basis of H^degree(K(E, n); Z2), from the smallest algebra
    that has that degree: the names do not depend on the cap."""
    alg = algebra_for(EmSpace.from_group(E, n), max(degree, n))
    return [alg.format_monomial(m) for m in alg.basis(degree)]


def circle_row(
    E: FinAbGroup, n: int, overrides: "CoeffOverrides | None" = None
) -> CircleRow:
    """Known circle-coefficient cohomology of K(E, n) for n in {2, 4}.

    The n = 2 row is [C^x, 0, dual(E), 0, Quad(E, C^x), ...]; the n = 4 row
    has dual(two_torsion(E)) in degree 7.  For trivial E, K(E, n) is a
    point, and every untabulated degree through DEFAULT_CAP is 0.  Entries
    beyond the tabulated range raise on access.  Built once per key.
    """
    return _circle_row(E, n, overrides)


@lru_cache(maxsize=None)
def _circle_row(E, n, overrides):
    if n not in _CIRCLE_N:
        raise UnsupportedRangeError(
            f"circle rows only tabulated for n in {set(_CIRCLE_N)}, not {n}")
    cyclic = len(E.invariant_factors) <= 1
    d = E.invariant_factors[0] if E.invariant_factors else 1
    k, _odd = two_part(d) if cyclic else (0, 0)

    entries: dict[int, GroupExpr] = {}
    prov: dict[int, str] = {}
    comparison: dict[int, dict[str, tuple[int, ...] | None]] = {}

    def put(i, expr, note):
        entries[i] = expr
        prov[i] = note

    if n == 2:
        put(0, _CX, "unit of the spectrum")
        put(1, _0, "simply connected base")
        put(2, GroupExpr.of(dual(E)), "dual(E)")
        put(3, _0, "known value")
        put(4, GroupExpr.of(quad_group(E, CIRCLE)), "Quad(E, C^x)")
        if cyclic:
            # degree 5 carries a single Z2 for even cyclic E; the displayed
            # general-E composite Ext(E, dual(E)) overstates it for k >= 2
            put(5, _Z2 if k else _0, "known value (cyclic)")
        else:
            put(
                5,
                GroupExpr.of(ext_group(E, dual(E))),
                "composite functor as displayed; flagged ambiguous",
            )
        if cyclic and d == 2:
            put(6, _Z2, "tabulated value for E = Z/2")
            put(7, _Z2, "tabulated value for E = Z/2")
            put(8, _Z2, "tabulated value for E = Z/2")
        if even_count(E.invariant_factors) == 1:
            # a cyclic 2-part; its degree-2 class is i2' after an odd factor
            (i2,) = _monomial_names(E, 2, 2)
            comparison[2] = {i2: _order2_element(dual(E))}
            comparison[4] = {f"{i2}^2": _order2_element(quad_group(E, CIRCLE))}
        if cyclic and k:
            names5 = _monomial_names(E, 2, 5)
            comparison[5] = {name: (1,) for name in names5}
            if k == 1:
                # Sq1(i2)^2 = Sq1(i2*Sq1(i2)) lies in the image of Sq1, where rho vanishes
                comparison[6] = {"Sq1(i2)^2": None}
            if d == 2:
                comparison[6]["i2^3"] = (1,)
                comparison[7] = {"i2*Sq2 Sq1(i2)": (1,), "i2^2*Sq1(i2)": None}
                # Sq1(i2)*Sq2 Sq1(i2) stays undeclared: its Sq1 is
                # Sq1(i2)^3 != 0, so its image is not zero
                comparison[8] = {"i2*Sq1(i2)^2": (1,), "i2^4": None}
    else:  # n == 4
        put(0, _CX, "unit of the spectrum")
        for i in (1, 2, 3):
            put(i, _0, "connectivity of K(E,4)")
        put(4, GroupExpr.of(dual(E)), "dual(E)")
        put(5, _0, "known value")
        put(7, GroupExpr.of(dual(two_torsion(E))), "dual of the 2-torsion subgroup")
        if cyclic and k:
            put(6, _Z2, "known value (cyclic 2-group)")
            comparison[4] = {"i4": _order2_element(dual(E))}
            comparison[6] = {"Sq2(i4)": (1,)}
            g5 = "Sq1(i4)" if k == 1 else f"b{k}(i4)"
            comparison[7] = {f"Sq2 {g5}": (1,), "Sq3(i4)": None}
            comparison[8] = {name: None for name in _monomial_names(E, 4, 8)}
            if k == 1:
                # undeclared: Browder's beta_2(i4^2) = i4*Sq1(i4) + Sq4 Sq1(i4)
                # is nonzero, so the image of i4^2 is not zero
                del comparison[8]["i4^2"]
        elif cyclic and not E.is_trivial:
            put(6, _0, "odd torsion: no even classes")

    if E.is_trivial:
        for i in range(1, DEFAULT_CAP + 1):
            if i not in entries:
                put(i, _0, "K(0, n) is a point")

    notes = []
    if overrides:
        for i, expr in overrides.circle_overrides.get((str(E), n), {}).items():
            put(i, expr, f"H^{i}(K({E},{n}); C^x) = {expr} [override]")
            notes.append(f"override: circle row ({E}, {n}) degree {i} -> {expr}")
        for (g, nn, i), table in overrides.comparison_overrides.items():
            if (g, nn) == (str(E), n):
                comparison.setdefault(i, {}).update(table)
                notes.append(f"override: comparison data ({E}, {n}) degree {i}")
    return CircleRow(E, n, entries, prov, comparison, tuple(notes))


# ---------------------------------------------------------------------------
# Overrides


class CoeffOverrides(Frozen):
    """Optional replacements for spectrum or circle-row table entries.

    JSON schema (all sections optional)::

        {
          "spectrum":   {"SW": {"4": "Z/2"}},
          "circle_row": {"Z/2|2": {"5": "0"}},
          "comparison": {"Z/2|2|5": {"Sq2 Sq1(i2)": [1], "i2*Sq1(i2)": null}}
        }

    Group values are literals of abelian.parse_expr (the --group grammar
    with C^x, SW and SW2 as factors, a dangling separator refused);
    comparison images are coordinate lists in the entry's invariant factors
    (null = zero image).
    An unknown section, a spectrum name other than SH, SW and Spin (an SW
    override reaches twisted runs too), or a file of another shape (a
    section or table that is not an object, a key not of the form above, a
    degree key that is not an integer) raises ValueError naming the section
    and the key.  So does a degree outside the table it overrides: above the
    built-in spectrum's top degree, or above the mod-2 algebra cap
    DEFAULT_CAP for circle rows and comparison data, or negative; a
    comparison monomial name outside the basis of its degree; and a
    circle_row or comparison key that no query reads: one whose n has no
    circle row, or whose group has two or more even factors (the product
    split reads only its cyclic factors' rows), a circle_row degree 0 (H^0
    of a connected K(E, n) is h^0(pt), the spectrum table's entry), or a
    comparison degree below 2 (a d2 into the circle row lands in degree 2
    or above).  The tables built from an override carry a note for each
    value it replaced (SpectrumTable.notes, CircleRow.notes), and the E2
    page logs those notes once each.
    Instances compare and hash by identity, so a loaded file can key a
    cache (ahss.run_ahss); their tables are read-only views, so no edit can
    leave such a cache stale.
    """

    __slots__ = ("spectrum_overrides", "circle_overrides", "comparison_overrides")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, spectrum_overrides=None, circle_overrides=None, comparison_overrides=None):
        tables = (spectrum_overrides, circle_overrides, comparison_overrides)
        self._set(*(_read_only(t or {}) for t in tables))

    @staticmethod
    def load(path: str) -> "CoeffOverrides":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"overrides in {path} must be a JSON object")
        unknown = sorted(set(raw) - set(_SECTIONS))
        if unknown:
            raise ValueError(f"unknown override sections in {path}: {', '.join(unknown)}")
        sections = {name: _section(raw, name) for name in _SECTIONS}
        unknown = sorted(set(sections["spectrum"]) - set(_SPECTRA))
        if unknown:
            raise ValueError(f"unknown spectra in {path}: {', '.join(unknown)}")
        spectra, rows, images = {}, {}, {}
        for name, table in sections["spectrum"].items():
            top = len(_SPECTRA[name]) - 1
            spectra[name] = _expr_table("spectrum", name, table, 0, top)
        for key, table in sections["circle_row"].items():
            group, n = _key("circle_row", key, "group|n")
            rows[(str(group), n)] = _expr_table("circle_row", key, table, 1, DEFAULT_CAP)
        for key, table in sections["comparison"].items():
            group, n, i = _key("comparison", key, "group|n|degree")
            if not 2 <= i <= DEFAULT_CAP:
                raise ValueError(
                    f"override comparison key {key!r}: degree {i} is outside 2..{DEFAULT_CAP}"
                )
            images[(str(group), n, i)] = _image_table(key, table)
            unknown = sorted(set(table) - set(_monomial_names(group, n, i)))
            if unknown:
                raise ValueError(
                    f"override comparison[{key!r}]: no basis monomial of "
                    f"H^{i}(K({group},{n}); Z2) is named {', '.join(unknown)}"
                )
        return CoeffOverrides(spectra, rows, images)


_SECTIONS = ("spectrum", "circle_row", "comparison")


def _section(raw: dict, name: str) -> dict[str, dict]:
    """The tables of one override section, each checked to be a JSON object."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"override section {name!r} must be a JSON object")
    for key, table in section.items():
        if not isinstance(table, dict):
            raise ValueError(f"override {name}[{key!r}] must be a JSON object")
    return section


def _key(section: str, key: str, shape: str) -> tuple:
    """Split a `group|n` or `group|n|degree` key into (group, n[, degree]),
    refusing one that no query reads."""
    parts = key.rsplit("|", shape.count("|"))
    if len(parts) != shape.count("|") + 1:
        raise ValueError(f"override {section} key {key!r} is not of the form {shape}")
    try:
        group, n, *degree = parse_group(parts[0]), *(int(p) for p in parts[1:])
    except ValueError as exc:
        raise ValueError(
            f"override {section} key {key!r} is not of the form {shape}: {exc}"
        ) from None
    if n not in _CIRCLE_N:
        raise ValueError(f"override {section} key {key!r}: circle rows are tabulated "
                         f"for n in {set(_CIRCLE_N)}, not {n}")
    if even_count(group.invariant_factors) > 1:
        raise ValueError(f"override {section} key {key!r}: {group} has two or more even "
                         "factors, and the product split reads only its cyclic factors' rows")
    return (group, n, *degree)


def _image_table(key: str, table: dict) -> dict[str, tuple[int, ...] | None]:
    out = {}
    for name, v in table.items():
        if v is not None and not (isinstance(v, list) and all(type(c) is int for c in v)):
            raise ValueError(
                f"override comparison[{key!r}][{name!r}]: image must be a list of "
                f"integers or null, got {v!r}"
            )
        out[name] = None if v is None else tuple(v)
    return out


def _expr_table(section: str, key: str, table: dict, low: int, top: int) -> dict[int, GroupExpr]:
    out = {}
    for j, v in table.items():
        if not isinstance(v, str):
            raise ValueError(
                f"override {section}[{key!r}][{j!r}]: value must be a group literal "
                f"string, got {v!r}"
            )
        try:
            degree = int(j)
        except ValueError:
            raise ValueError(
                f"override {section}[{key!r}]: degree key {j!r} is not an integer"
            ) from None
        if not low <= degree <= top:
            raise ValueError(f"override {section}[{key!r}]: degree {degree} is outside {low}..{top}")
        try:
            out[degree] = parse_expr(v)
        except ValueError as exc:
            raise ValueError(f"override {section}[{key!r}][{j!r}]: {exc}") from None
    return out

