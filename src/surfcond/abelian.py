"""Exact arithmetic on finite abelian groups.

Groups are kept in invariant-factor form (d_1 | d_2 | ... | d_r), which makes
isomorphism testing a list comparison.  The circle group C^x is never
enumerated; it only enters through the closed-form rules hom(Z_n, C^x) = Z_n
and Ext(-, C^x) = 0.  The symbols SW and SW2 are opaque: the only thing we
ever do with them is carry them around.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

from .record import Frozen


class UnsupportedRangeError(ValueError):
    """A table, functor or algebra was queried outside its supported range:
    a degree above an algebra's cap, an undeclared comparison image, an
    untabulated entry.  The CLI maps it to exit 3."""


OPAQUE_SYMBOLS = ("SW", "SW2")


class FinAbGroup(Frozen):
    """Finite abelian group ``Z_{d_1} + ... + Z_{d_r}`` with d_i | d_{i+1}."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...] = ()):
        for d in invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")
        object.__setattr__(self, "invariant_factors", invariant_factors)

    @staticmethod
    def from_factors(factors) -> "FinAbGroup":
        """Normalize a list of cyclic orders, in any order, to invariant factors.

        Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), applied to each pair i < j in
        turn, leaves every order dividing each later one; the 1s drop out.
        """
        orders = []
        for n in factors:
            n = int(n)
            if n < 1:
                raise ValueError(f"cyclic order {n} < 1")
            orders.append(n)
        for i, a in enumerate(orders):
            for j in range(i + 1, len(orders)):
                b = orders[j]
                g = math.gcd(a, b)
                orders[j] = a // g * b
                a = g
            orders[i] = a
        return FinAbGroup(tuple(d for d in orders if d > 1))

    @staticmethod
    def cyclic(n: int) -> "FinAbGroup":
        return FinAbGroup.from_factors([n])

    @staticmethod
    def trivial() -> "FinAbGroup":
        return FinAbGroup(())

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def elements(self):
        """Iterate over all elements as coordinate tuples."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    def element_order(self, x) -> int:
        return math.lcm(1, *(d // math.gcd(a, d) for a, d in zip(x, self.invariant_factors)))

    def contains(self, x) -> bool:
        return (
            len(x) == len(self.invariant_factors)
            and all(0 <= a < d for a, d in zip(x, self.invariant_factors))
        )

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def groups_up_to(max_order: int):
    """Every finite abelian group of order <= max_order, once each, the
    trivial group first: one per divisibility chain d_1 | d_2 | ...."""

    def chains(limit: int, least: int):
        yield ()
        for d in range(max(least, 2), limit + 1, least):
            for rest in chains(limit // d, d):
                yield (d,) + rest

    for chain in chains(max_order, 1):
        yield FinAbGroup(chain)


class GroupExpr(Frozen):
    """Entry of a spectral-sequence table.

    Componentwise combination of a finite abelian group, copies of the circle
    group, and opaque symbols (SW, SW2) on which no arithmetic is permitted.
    """

    __slots__ = ("finite", "circle_rank", "opaque")

    def __init__(self, finite: FinAbGroup = FinAbGroup(), circle_rank: int = 0,
                 opaque: tuple[str, ...] = ()):
        for s in opaque:
            if s not in OPAQUE_SYMBOLS:
                raise ValueError(f"unknown opaque symbol {s!r}")
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "circle_rank", circle_rank)
        object.__setattr__(self, "opaque", tuple(sorted(opaque)))

    @staticmethod
    def zero() -> "GroupExpr":
        return GroupExpr()

    @staticmethod
    def of(group: FinAbGroup) -> "GroupExpr":
        return GroupExpr(finite=group)

    @staticmethod
    def symbol(name: str) -> "GroupExpr":
        return GroupExpr(opaque=(name,))

    @property
    def is_zero(self) -> bool:
        return self.finite.is_trivial and self.circle_rank == 0 and not self.opaque

    @property
    def is_opaque(self) -> bool:
        return bool(self.opaque)

    def __str__(self) -> str:
        parts = []
        if not self.finite.is_trivial:
            parts.append(str(self.finite))
        parts.extend(["C^x"] * self.circle_rank)
        parts.extend(self.opaque)
        return " x ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(relation_matrix) -> FinAbGroup:
    """Cokernel of an integer relation matrix, in invariant-factor form.

    Rows are relations among the columns' generators: the result is
    Z^cols / (row lattice).  The presentation must bound every column j
    with a row d * e_j (d != 0), as those of quad_group_brute,
    quotient_by_subgroup_image and the Ext oracle of acceptance do; one
    that leaves a column unbounded raises ValueError.

    The elimination runs modulo a D with D * Z^cols inside the row lattice,
    so every entry stays in [0, D) and none can grow (Domich-Kannan-Trotter
    modulo-determinant arithmetic).  D is the lcm over the columns j of the
    gcd of the rows d * e_j.  relation_matrix is read twice, so it must be
    a sequence of rows.

    The rows are put in echelon form over Z/D (_echelon); while some row
    has more than one entry, so is their transpose, as column operations
    are row operations on the transpose (Cohen, Algorithm 2.4.14).  This
    ends.  Sorted by pivot column, the first row's pivot, the corner, is
    the only entry of its column, and the next pass reduces that column
    first: Euclid over the corner row leaves its gcd as the new corner, a
    divisor of the old one.  So either the corner strictly decreases, or
    it divided its row, which is then cleared: its row and column are
    clean, and stay clean.  Then the same holds for the next corner.  Each
    diagonal entry d gives Z/gcd(d, D), and each column without one Z/D.
    """
    ncols = len(relation_matrix[0]) if relation_matrix else 0
    D = _modulus(relation_matrix, ncols)
    if ncols == 0 or D == 1:
        return FinAbGroup.trivial()
    columns = range(ncols)
    rows = _echelon(
        [{j: v for j in itertools.compress(columns, r) if (v := int(r[j]) % D)}
         for r in relation_matrix], D)
    while any(len(row) > 1 for row in rows):
        rows = _echelon([{i: row[j] for i, row in enumerate(rows) if j in row} for j in columns], D)
    diagonal = [math.gcd(x, D) for row in rows for x in row.values()]
    return FinAbGroup.from_factors(diagonal + [D] * (ncols - len(rows)))


def _modulus(rows, ncols: int) -> int:
    """The lcm D over the columns j of the gcd of the rows d * e_j, so that
    D * Z^ncols lies inside the row lattice.

    Raises ValueError on ragged rows and on a column without such a row.
    """
    axis = [0] * ncols  # gcd of the rows d * e_j on column j
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged relation matrix")
        support = list(itertools.compress(range(ncols), r))
        if len(support) == 1:
            j = support[0]
            axis[j] = math.gcd(axis[j], int(r[j]))
    if not all(axis):
        raise ValueError(f"no relation d * e_j bounds column {axis.index(0)}")
    return math.lcm(*axis)


def _subtract(row: dict[int, int], q: int, b: dict[int, int], D: int) -> None:
    """row -= q * b over Z/D, in place."""
    for j, x in b.items():
        y = (row.get(j, 0) - q * x) % D
        if y:
            row[j] = y
        else:
            row.pop(j, None)


def _echelon(rows, D: int) -> list[dict[int, int]]:
    """Echelon form over Z/D of sparse rows, reduced in place and sorted by
    pivot column (a row's smallest).  Two rows with the same pivot run
    Euclid, which leaves the gcd of their pivot entries; no step moves the
    lattice spanned with D * Z^n."""
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            b = basis.get(c)
            if b is None:
                basis[c] = row
                break
            while c in row:
                _subtract(row, row[c] // b[c], b, D)
                if c in row:
                    b, row = row, b
            basis[c] = b
    return [basis[c] for c in sorted(basis)]


# ---------------------------------------------------------------------------
# Group functors


def hom_group(A: FinAbGroup, B: FinAbGroup) -> FinAbGroup:
    """hom(Z_m, Z_n) = Z_gcd(m,n), extended biadditively."""
    return FinAbGroup.from_factors(
        [math.gcd(a, b) for a in A.invariant_factors for b in B.invariant_factors]
    )


def ext_group(A: FinAbGroup, B: FinAbGroup) -> FinAbGroup:
    """Ext(Z_m, Z_n) = Z_gcd(m,n), extended biadditively.

    Ext into the circle group vanishes (divisible coefficients); callers that
    need that rule go through GroupExpr-level tables instead.
    """
    return hom_group(A, B)


def dual(A: FinAbGroup) -> FinAbGroup:
    """Pontryagin dual hom(A, C^x); isomorphic to A for finite A."""
    return FinAbGroup(A.invariant_factors)


def two_part(order: int) -> tuple[int, int]:
    """Split a cyclic order into (2-adic valuation, odd part)."""
    k = 0
    while order % 2 == 0:
        order //= 2
        k += 1
    return k, order


def even_count(orders) -> int:
    """How many cyclic orders are even (for E: the 2-primary factors of K(E, n))."""
    return sum(1 for d in orders if d % 2 == 0)


def two_torsion(A: FinAbGroup) -> FinAbGroup:
    """Subgroup of elements of order <= 2: one Z/2 per even invariant factor."""
    return FinAbGroup((2,) * even_count(A.invariant_factors))


# ---------------------------------------------------------------------------
# Quadratic forms

CIRCLE = "circle"
Z2_TARGET = "Z2"


def quad_group(E: FinAbGroup, target: str) -> FinAbGroup:
    """Group of quadratic functions q: E -> target under pointwise addition.

    A quadratic function satisfies q(0) = 0, q(x) = q(-x), and the defect
    b(x, y) = q(x+y) - q(x) - q(y) is biadditive.  Circle-valued quadratic
    functions take values in the (2 * exponent)-th roots of unity, so the
    circle target is modelled exactly by Z/(2e).

    Quad splits over E = Z/d_1 + ... + Z/d_r (Eilenberg-MacLane): q is its
    restrictions to the factors plus the pairing b on each pair of them.  So
    Quad(E, C^x) is Quad(Z/d_i, C^x) (Z/2d for even d, Z/d for odd d) per
    factor plus hom(Z/d_i (x) Z/d_j, C^x) = Z/gcd(d_i, d_j) per pair i < j,
    and Quad(E, Z/2) is Z/gcd(d_i, 2) per factor plus Z/gcd(d_i, d_j, 2) per
    pair.  quad_group_brute, which solves the axioms element by element, is
    the independent oracle for this splitting.
    """
    if target not in (CIRCLE, Z2_TARGET):
        raise ValueError(f"unknown quad target {target!r}")
    factors = []
    for d in E.invariant_factors:
        if target == CIRCLE:
            factors.append(2 * d if d % 2 == 0 else d)
        else:
            factors.append(math.gcd(d, 2))
    for a, b in itertools.combinations(E.invariant_factors, 2):
        g = math.gcd(a, b)
        factors.append(g if target == CIRCLE else math.gcd(g, 2))
    return FinAbGroup.from_factors(factors)


def quad_group_brute(E: FinAbGroup, target: str) -> FinAbGroup:
    """Independent enumeration: solve the linearized axioms element by element.

    Values live in Z/m with m = 2*exponent(E) (circle) or m = 2.  The axioms
    are Z/m-linear conditions on the values q(x), x != 0; the solution group
    is the cokernel of the stacked relations together with m * identity.

    The axiom q(-x) = q(x) is solved by construction: x and -x share one
    unknown, so there is one column per pair {x, -x} of nonzero elements.
    Eliminating q(-x) by the unit-pivot row q(x) - q(-x) is a unimodular
    step, so this leaves the cokernel as it is.

    Biadditivity is imposed on the generators of E only.  The cubic
    difference q(x+y+z) - q(x+y) - q(x+z) - q(y+z) + q(x) + q(y) + q(z) is
    b(x+y, z) - b(x, z) - b(y, z).  The set S of x for which it vanishes for
    all y, z contains 0 (q(0) = 0), and x, x' in S gives x + x' in S
    (expand b(x + (x'+y), z) twice), so S is a subgroup of the finite group
    E and equals E once it holds the invariant-factor generators
    e_1..e_r.  So the relations are the cubic difference for x = e_i and
    nonzero y <= z (r * n(n+1)/2 of them for the n = |E| - 1 nonzero
    elements, against the C(n+2, 3) triples x <= y <= z), and m * identity
    (one row per column, which sets the modulus).

    The enumeration does not depend on the target, so both targets share
    one memoised list of distinct integer rows (`_quad_relations`); only
    the reduction mod m is per target.  Reduced mod m, the relations repeat
    a lot: each distinct nonzero one is passed once, and that set is the
    same whether the integer rows were deduplicated first or not.  For the
    18 Quad groups of selftest that leaves 481 of the 3352 cubic
    differences, beside the 140 rows of m * identity.
    """
    if E.is_trivial:
        return FinAbGroup.trivial()
    m = 2 * E.exponent if target == CIRCLE else 2
    n, integer_rows = _quad_relations(E)
    # each relation reduced mod m, kept once: the rows m * e_i below span
    # m * Z^n, so neither step moves the row lattice
    relations: dict[tuple[int, ...], None] = {}
    for row in integer_rows:
        row = tuple([v % m for v in row])
        if any(row):
            relations[row] = None
    rows = list(relations)
    for i in range(n):
        row = [0] * n
        row[i] = m
        rows.append(row)
    return smith_normal_form(rows)


@lru_cache(maxsize=None)
def _quad_relations(E: FinAbGroup) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The column count n and the distinct integer cubic differences of
    quad_group_brute, for a nontrivial E."""
    # elements by index, 0 the zero element
    elems = list(E.elements())
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[E.add(x, y)] for y in elems] for x in elems]
    # col[i] is the column of q(x) for element i, shared by x and -x; the
    # zero element gets the extra column n, which each row drops (q(0) = 0)
    col = [0] * len(elems)
    n = 0
    for i, e in enumerate(elems[1:], 1):
        j = index[E.neg(e)]
        if j < i:
            col[i] = col[j]
        else:
            col[i] = n
            n += 1
    col[0] = n

    relations: dict[tuple[int, ...], None] = {}
    r = len(E.invariant_factors)
    generators = [index[tuple(int(j == i) for j in range(r))] for i in range(r)]
    for x in generators:
        for y, z in itertools.combinations_with_replacement(range(1, len(elems)), 2):
            xy = add[x][y]
            row = [0] * (n + 1)
            for c in (col[add[xy][z]], col[x], col[y], col[z]):
                row[c] += 1
            for c in (col[xy], col[add[x][z]], col[add[y][z]]):
                row[c] -= 1
            relations[tuple(row[:n])] = None
    return n, tuple(relations)


def quotient_by_subgroup_image(expr: GroupExpr, generators) -> GroupExpr:
    """Cokernel of the subgroup of expr.finite generated by the given elements.

    Only the finite part is touched; circle rank and opaque symbols pass
    through unchanged.
    """
    A = expr.finite
    gens = [tuple(int(c) for c in g) for g in generators]
    for g in gens:
        if not A.contains(g):
            raise ValueError(f"generator {g} is not an element of {A}")
    gens = [g for g in gens if any(g)]
    if not gens:
        return expr
    rows = []
    for i, d in enumerate(A.invariant_factors):
        row = [0] * len(A.invariant_factors)
        row[i] = d
        rows.append(row)
    rows.extend(list(g) for g in gens)
    return GroupExpr(
        finite=smith_normal_form(rows),
        circle_rank=expr.circle_rank,
        opaque=expr.opaque,
    )


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"^z/?(\d+)$")
# "x", "×" or "⊕" between factors; the x of the circle token C^x is not one
_SEPARATOR_RE = re.compile(r"(?<!C\^)[x×⊕]")


def parse_expr(text: str) -> GroupExpr:
    """Parse table-entry literals: a group literal as parse_group reads it,
    whose factors may also be the circle C^x and the symbols SW and SW2.

    An empty factor, as a dangling separator in "Z/2 x" leaves, is refused."""
    s = text.strip()
    tokens = [tok.strip() for tok in _SEPARATOR_RE.split(s)] if s else []
    factors = []
    for tok in tokens:
        if tok not in ("C^x", "0", "1", *OPAQUE_SYMBOLS):
            mt = _TOKEN_RE.match(tok.lower())
            if not mt:
                raise ValueError(f"cannot parse group factor {tok.lower()!r} in {text!r}")
            factors.append(int(mt.group(1)))
    return GroupExpr(FinAbGroup.from_factors(factors), tokens.count("C^x"),
                     tuple(tok for tok in tokens if tok in OPAQUE_SYMBOLS))


def parse_group(text: str) -> FinAbGroup:
    """Parse group literals like "Z/2 x Z/4" (also "Z2", unicode direct sums)."""
    expr = parse_expr(text)
    if expr.circle_rank or expr.opaque:
        raise ValueError(f"{text!r} is not a finite group: C^x, SW and SW2 are table entries")
    return expr.finite
