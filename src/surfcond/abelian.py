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
from dataclasses import dataclass, field


class UnsupportedRangeError(ValueError):
    """A table or functor was queried outside its supported range.

    `CapExceededError` and `UnspecifiedComparisonError` subclass it, so the
    CLI maps one family to exit 3."""


OPAQUE_SYMBOLS = ("SW", "SW2")


def _invariant_factors_from_prime_powers(prime_powers: dict[int, list[int]]) -> tuple[int, ...]:
    """Recombine prime-power exponents into a divisibility chain via CRT."""
    if not prime_powers:
        return ()
    length = max(len(v) for v in prime_powers.values())
    factors = []
    for i in range(1, length + 1):
        d = 1
        for p, exps in prime_powers.items():
            if len(exps) >= i:
                # largest factors pair up first
                d *= p ** sorted(exps, reverse=True)[i - 1]
        factors.append(d)
    factors.reverse()
    return tuple(f for f in factors if f > 1)


@dataclass(frozen=True, order=True)
class FinAbGroup:
    """Finite abelian group ``Z_{d_1} + ... + Z_{d_r}`` with d_i | d_{i+1}."""

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")

    @staticmethod
    def from_factors(factors) -> "FinAbGroup":
        """Normalize an arbitrary list of cyclic orders (order of input irrelevant)."""
        prime_powers: dict[int, list[int]] = {}
        for n in factors:
            n = int(n)
            if n == 1:
                continue
            if n < 1:
                raise ValueError(f"cyclic order {n} < 1")
            for p, e in _factorize(n).items():
                prime_powers.setdefault(p, []).append(e)
        return FinAbGroup(_invariant_factors_from_prime_powers(prime_powers))

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

    def zero(self):
        return (0,) * len(self.invariant_factors)

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


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class GroupExpr:
    """Entry of a spectral-sequence table.

    Componentwise combination of a finite abelian group, copies of the circle
    group, and opaque symbols (SW, SW2) on which no arithmetic is permitted.
    """

    finite: FinAbGroup = field(default_factory=FinAbGroup)
    circle_rank: int = 0
    opaque: tuple[str, ...] = ()

    def __post_init__(self):
        for s in self.opaque:
            if s not in OPAQUE_SYMBOLS:
                raise ValueError(f"unknown opaque symbol {s!r}")
        object.__setattr__(self, "opaque", tuple(sorted(self.opaque)))

    @staticmethod
    def zero() -> "GroupExpr":
        return GroupExpr()

    @staticmethod
    def of(group: FinAbGroup) -> "GroupExpr":
        return GroupExpr(finite=group)

    @staticmethod
    def circle(rank: int = 1) -> "GroupExpr":
        return GroupExpr(circle_rank=rank)

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
    Z^cols / (row lattice).  Presentations with infinite cokernel are
    rejected; this artifact handles finite groups only.

    The elimination runs modulo a D with D * Z^cols inside the row lattice,
    so every entry stays in [0, D) and none can grow (Domich-Kannan-Trotter
    modulo-determinant arithmetic).  D is the lcm over the columns j of the
    gcd of the rows d * e_j, when such rows cover every column, as they do
    for every caller in this package; otherwise D is |det| of a maximal
    independent set of rows.  The rows are streamed one at a time into an
    echelon basis over Z/D of at most cols rows, whose Smith form over Z/D
    gives the invariant factors gcd(d_i, D).  relation_matrix is read twice,
    so it must be a sequence of rows.
    """
    ncols = len(relation_matrix[0]) if relation_matrix else 0
    D = _modulus(relation_matrix, ncols)
    if ncols == 0 or D == 1:
        return FinAbGroup.trivial()
    basis: dict[int, dict[int, int]] = {}
    units: set[int] = set()
    columns = range(ncols)
    for r in relation_matrix:
        row = {j: v for j in itertools.compress(columns, r) if (v := int(r[j]) % D)}
        if row:
            _insert(basis, units, row, D)
    return FinAbGroup.from_factors(_diagonal(list(basis.values()), ncols, D))


def _modulus(rows, ncols: int) -> int:
    """A positive D with D * Z^ncols inside the row lattice.

    Raises ValueError on ragged rows and when the rank is below ncols.
    """
    axis = [0] * ncols  # gcd of the rows d * e_j on column j
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged relation matrix")
        support = list(itertools.compress(range(ncols), r))
        if len(support) == 1:
            j = support[0]
            axis[j] = math.gcd(axis[j], int(r[j]))
    if all(axis):
        return math.lcm(*axis)
    # Fraction-free (Bareiss) elimination with row pivoting: after step k the
    # pivot is the (k+1)-th leading minor of the chosen rows, so the last one
    # is the determinant of ncols independent rows.  This path holds a copy
    # of the rows; no caller in the package takes it.
    a = [[int(x) for x in r] for r in rows]
    prev = 1
    for k in range(ncols):
        i = next((i for i in range(k, len(a)) if a[i][k]), None)
        if i is None:
            raise ValueError(
                "presentation has infinite cokernel; only finite groups are supported"
            )
        a[k], a[i] = a[i], a[k]
        pivot = a[k]
        for r in a[k + 1 :]:
            f = r[k]
            for j in range(k + 1, ncols):
                r[j] = (r[j] * pivot[k] - f * pivot[j]) // prev
        prev = pivot[k]
    return abs(prev)


def _subtract(row: dict[int, int], q: int, b: dict[int, int], D: int) -> None:
    """row -= q * b over Z/D, in place."""
    for j, x in b.items():
        y = (row.get(j, 0) - q * x) % D
        if y:
            row[j] = y
        else:
            row.pop(j, None)


def _insert(
    basis: dict[int, dict[int, int]], units: set[int], row: dict[int, int], D: int
) -> None:
    """Reduce one sparse row into the echelon basis over Z/D (keyed by pivot column).

    A basis row whose pivot is a unit mod D is scaled to pivot 1 and cleared
    from every other basis row; its column is then in ``units``, and a row
    is reduced at all of those columns in one pass.  At any other pivot the
    two rows run Euclid's algorithm, which leaves the gcd of their entries
    as the pivot.  Each step keeps the lattice spanned with D * Z^n
    unchanged.
    """
    for c in [c for c in row if c in units]:
        _subtract(row, row[c], basis[c], D)
    while row:
        c = min(row)
        b = basis.get(c)
        if b is None:
            if math.gcd(row[c], D) == 1:
                u = pow(row[c], -1, D)
                row = {j: x * u % D for j, x in row.items()}
                for other in basis.values():
                    if c in other:
                        _subtract(other, other[c], row, D)
                units.add(c)
            basis[c] = row
            return
        while c in row:
            _subtract(row, row[c] // b[c], b, D)
            if c in row:
                b, row = row, b
        basis[c] = b


def _diagonal(rows: list[dict[int, int]], ncols: int, D: int) -> list[int]:
    """Cokernel factors of the rows together with D * Z^ncols.

    Smith form over Z/D by row and column operations: the smallest entry
    reduces its column and its row, and a nonzero remainder becomes the
    next, smaller, pivot.  Each finished pivot d contributes gcd(d, D), and
    each column left without a pivot Z/D.
    """
    m = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    factors = []
    while m:
        p, i, j = min((x, i, j) for i, r in enumerate(m) for j, x in enumerate(r) if x)
        piv = m[i]
        done = True
        for k, r in enumerate(m):
            if k != i and r[j]:
                q = r[j] // p
                m[k] = r = [(x - q * y) % D for x, y in zip(r, piv)]
                done = done and not r[j]
        for k in range(ncols):
            if k != j and piv[k]:
                q = piv[k] // p
                for r in m:
                    r[k] = (r[k] - q * r[j]) % D
                done = done and not piv[k]
        if done:
            factors.append(math.gcd(p, D))
            del m[i]
            for r in m:
                del r[j]
            ncols -= 1
        m = [r for r in m if any(r)]
    return factors + [D] * ncols


# ---------------------------------------------------------------------------
# Group functors


def _biadditive(A: FinAbGroup, B: FinAbGroup) -> FinAbGroup:
    factors = [
        math.gcd(a, b) for a in A.invariant_factors for b in B.invariant_factors
    ]
    return FinAbGroup.from_factors(factors)


def hom_group(A: FinAbGroup, B: FinAbGroup) -> FinAbGroup:
    """hom(Z_m, Z_n) = Z_gcd(m,n), extended biadditively."""
    return _biadditive(A, B)


def ext_group(A: FinAbGroup, B: FinAbGroup) -> FinAbGroup:
    """Ext(Z_m, Z_n) = Z_gcd(m,n), extended biadditively.

    Ext into the circle group vanishes (divisible coefficients); callers that
    need that rule go through GroupExpr-level tables instead.
    """
    return _biadditive(A, B)


def dual(A: FinAbGroup) -> FinAbGroup:
    """Pontryagin dual hom(A, C^x); isomorphic to A for finite A."""
    return FinAbGroup(A.invariant_factors)


def two_torsion(A: FinAbGroup) -> FinAbGroup:
    """Subgroup of elements of order <= 2: one Z/2 per even invariant factor."""
    s = sum(1 for d in A.invariant_factors if d % 2 == 0)
    return FinAbGroup((2,) * s)


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
    are Z/m-linear conditions on the value vector (q(x))_{x != 0}; the
    solution group is the cokernel of the stacked relations together with
    m * identity.

    Biadditivity is imposed on the generators of E only.  The cubic
    difference q(x+y+z) - q(x+y) - q(x+z) - q(y+z) + q(x) + q(y) + q(z) is
    b(x+y, z) - b(x, z) - b(y, z).  The set S of x for which it vanishes for
    all y, z contains 0 (q(0) = 0), and x, x' in S gives x + x' in S
    (expand b(x + (x'+y), z) twice), so S is a subgroup of the finite group
    E and equals E once it holds the invariant-factor generators
    e_1..e_r.  So the relations are q(-x) = q(x), the cubic difference for
    x = e_i and nonzero y <= z (r * n(n+1)/2 of them for the n = |E| - 1
    nonzero elements, against the C(n+2, 3) triples x <= y <= z), and
    m * identity.  Reduced mod m, the relations repeat a lot: each distinct
    nonzero one is passed once.  For the 18 Quad groups of selftest that
    leaves 1462 of the 3360 relation rows, beside the 192 rows of
    m * identity.
    """
    if E.is_trivial:
        return FinAbGroup.trivial()
    m = 2 * E.exponent if target == CIRCLE else 2
    # elements by index, 0 the zero element; q(x) of element i is column i - 1
    elems = list(E.elements())
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[E.add(x, y)] for y in elems] for x in elems]
    n = len(elems) - 1

    # each relation reduced mod m, kept once: the rows m * e_i below span
    # m * Z^n, so neither step moves the row lattice
    relations: dict[tuple[int, ...], None] = {}

    def relate(*terms):
        row = [0] * n
        for sign, i in terms:
            if i:
                row[i - 1] += sign
        row = tuple([v % m for v in row])
        if any(row):
            relations[row] = None

    for i, e in enumerate(elems[1:], 1):
        relate((1, i), (-1, index[E.neg(e)]))
    r = len(E.invariant_factors)
    generators = [index[tuple(int(j == i) for j in range(r))] for i in range(r)]
    for x in generators:
        for y, z in itertools.combinations_with_replacement(range(1, n + 1), 2):
            xy = add[x][y]
            relate(
                (1, add[xy][z]),
                (-1, xy),
                (-1, add[x][z]),
                (-1, add[y][z]),
                (1, x),
                (1, y),
                (1, z),
            )
    rows = list(relations)
    for i in range(n):
        row = [0] * n
        row[i] = m
        rows.append(row)
    return smith_normal_form(rows)


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


def parse_group(text: str) -> FinAbGroup:
    """Parse group literals like "Z/2 x Z/4" (also "Z2", unicode direct sums)."""
    s = text.strip().replace("⊕", "x").replace("×", "x")
    if s in ("0", "1", ""):
        return FinAbGroup.trivial()
    factors = []
    for tok in s.split("x"):
        tok = tok.strip().lower()
        if tok in ("0", "1"):
            continue
        mt = _TOKEN_RE.match(tok)
        if not mt:
            raise ValueError(f"cannot parse group factor {tok!r} in {text!r}")
        factors.append(int(mt.group(1)))
    return FinAbGroup.from_factors(factors)
