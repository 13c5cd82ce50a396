"""Mod-2 cohomology of Eilenberg-MacLane spaces K(Z_{2^k}, n) and finite
products thereof, presented as truncated polynomial algebras on admissible
Steenrod words applied to the fundamental classes (excess below n).

Odd-cyclic factors are carried along but contribute the unit algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import FinAbGroup, UnsupportedRangeError
from .gf2 import Gf2Matrix
from .steenrod import (
    SteenrodMonomial,
    SteenrodWord,
    adem_normalize,
    excess,
)

DEFAULT_CAP = 12


class CapExceededError(ValueError):
    """A product or Steenrod image landed above the algebra's degree cap."""


def _two_part(modulus: int) -> tuple[int, int]:
    """Split a cyclic order into (2-adic valuation, odd part)."""
    k = 0
    while modulus % 2 == 0:
        modulus //= 2
        k += 1
    return k, modulus


@dataclass(frozen=True)
class EmSpace:
    """Finite product of Eilenberg-MacLane spaces, one factor per cyclic group."""

    factors: tuple[tuple[int, int], ...]  # (modulus, degree)

    def __post_init__(self):
        for modulus, degree in self.factors:
            if modulus < 2:
                raise ValueError(f"cyclic order {modulus} < 2")
            if degree < 1:
                raise ValueError(f"space degree {degree} < 1")

    @staticmethod
    def single(modulus: int, degree: int) -> "EmSpace":
        return EmSpace(((modulus, degree),))

    @staticmethod
    def from_group(E: FinAbGroup, degree: int) -> "EmSpace":
        """K(E, n) as the product over cyclic pieces, 2-part split off."""
        factors = []
        for d in E.invariant_factors:
            k, odd = _two_part(d)
            if k:
                factors.append((2**k, degree))
            if odd > 1:
                factors.append((odd, degree))
        return EmSpace(tuple(factors))

    def product(self, other: "EmSpace") -> "EmSpace":
        return EmSpace(self.factors + other.factors)

    def __str__(self) -> str:
        return " x ".join(f"K(Z/{m},{n})" for m, n in self.factors)


@dataclass(frozen=True)
class Generator:
    """Serre generator: an admissible word applied to a fundamental class."""

    factor: int
    word: SteenrodMonomial
    space_degree: int

    @property
    def degree(self) -> int:
        return self.space_degree + self.word.degree

    def name(self, suffix: str) -> str:
        iota = f"i{self.space_degree}{suffix}"
        if self.word.is_identity:
            return iota
        return f"{self.word}({iota})"


def _admissible_sequences(max_sum: int, min_last: int):
    """Admissible sequences (i_1 >= 2 i_2 >= ...) with sum <= max_sum and
    last index >= min_last.  Yields the empty sequence too."""
    yield ()
    stack = [(last,) for last in range(min_last, max_sum + 1)]
    while stack:
        seq = stack.pop()
        yield seq
        head = seq[0]
        for nxt in range(2 * head, max_sum - sum(seq) + 1):
            stack.append((nxt,) + seq)


def serre_generators(modulus: int, n: int, cap: int) -> list[tuple[SteenrodMonomial, int]]:
    """All polynomial generators of H*(K(Z_{2^k}, n); Z2) up to degree cap.

    Plain words Sq^I iota with excess(I) < n; for k >= 2 sequences ending in
    Sq1 are dropped and replaced by the power-Bockstein family Sq^J b_k iota.
    Odd moduli contribute nothing.
    """
    if cap < n:
        raise ValueError("cap below the space degree")
    k, _odd = _two_part(modulus)
    if k == 0:
        return []
    if k >= 2 and n == 1:
        raise UnsupportedRangeError(
            "K(Z_{2^k}, 1) with k >= 2 is not a polynomial algebra; unsupported"
        )
    out = []
    for seq in _admissible_sequences(cap - n, 1):
        if k >= 2 and seq and seq[-1] == 1:
            continue
        mono = SteenrodMonomial(seq)
        if seq and excess(mono) >= n:
            continue
        out.append((mono, n + mono.degree))
    if k >= 2:
        for seq in _admissible_sequences(cap - n - 1, 2):
            mono = SteenrodMonomial(seq, bockstein=k)
            if excess(mono) >= n:
                continue
            out.append((mono, n + mono.degree))
    out.sort(key=lambda gd: (gd[1], gd[0].squares, gd[0].bockstein))
    return out


# monomial = tuple of (generator index, exponent), sorted by index
Monomial = tuple[tuple[int, int], ...]


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[int, int] = dict(a)
    for gi, e in b:
        exps[gi] = exps.get(gi, 0) + e
    return tuple(sorted(exps.items()))


@dataclass(frozen=True, eq=False)
class PolyClass:
    """Homogeneous F2-sum of basis monomials of an EmAlgebra."""

    algebra: "EmAlgebra"
    degree: int
    monomials: frozenset[Monomial]

    def __eq__(self, other):
        return (
            isinstance(other, PolyClass)
            and self.algebra is other.algebra
            and self.degree == other.degree
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return hash((id(self.algebra), self.degree, self.monomials))

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def __add__(self, other: "PolyClass") -> "PolyClass":
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("inhomogeneous sum")
        return PolyClass(self.algebra, self.degree, self.monomials ^ other.monomials)

    def __mul__(self, other: "PolyClass") -> "PolyClass":
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")
        degree = self.degree + other.degree
        if self.is_zero or other.is_zero:
            return self.algebra.zero_class(degree)
        if degree > self.algebra.cap:
            raise CapExceededError(f"product degree {degree} above cap {self.algebra.cap}")
        out: set[Monomial] = set()
        for a in self.monomials:
            for b in other.monomials:
                out.symmetric_difference_update({_mul_monomials(a, b)})
        return PolyClass(self.algebra, degree, frozenset(out))

    def __str__(self) -> str:
        return self.algebra.format_class(self)


class EmAlgebra:
    """Truncated polynomial algebra on the Serre generators of an EmSpace.

    Immutable after construction; memo tables are per-instance.
    """

    def __init__(self, space: EmSpace, cap: int = DEFAULT_CAP):
        self.space = space
        self.cap = cap
        self.generators: list[Generator] = []
        for fi, (modulus, n) in enumerate(space.factors):
            for word, _deg in serre_generators(modulus, n, cap):
                self.generators.append(Generator(fi, word, n))
        self.generators.sort(
            key=lambda g: (g.degree, g.factor, g.word.squares, g.word.bockstein)
        )
        self._gen_index = {
            (g.factor, g.word): i for i, g in enumerate(self.generators)
        }
        self._gen_degrees: tuple[int, ...] = tuple(g.degree for g in self.generators)
        self._basis: dict[int, tuple[Monomial, ...]] = self._build_basis()
        self._basis_pos = {
            (d, m): i for d, ms in self._basis.items() for i, m in enumerate(ms)
        }
        self._sq_gen_cache: dict[tuple[int, int], frozenset[Monomial]] = {}
        self._sq_mono_cache: dict[tuple[int, Monomial], frozenset[Monomial]] = {}
        self._sq_pow_cache: dict[tuple[int, int, int], frozenset[Monomial]] = {}
        self._sq_matrix_cache: dict[tuple[int, int], Gf2Matrix] = {}

    # -- construction -------------------------------------------------

    def _build_basis(self) -> dict[int, tuple[Monomial, ...]]:
        by_degree: dict[int, list[Monomial]] = {d: [] for d in range(self.cap + 1)}
        by_degree[0].append(())

        degrees = self._gen_degrees

        def extend(partial: Monomial, deg: int, start: int):
            for gi in range(start, len(degrees)):
                gdeg = degrees[gi]
                e = 1
                while deg + e * gdeg <= self.cap:
                    mono = partial + ((gi, e),)
                    by_degree[deg + e * gdeg].append(mono)
                    extend(mono, deg + e * gdeg, gi + 1)
                    e += 1

        extend((), 0, 0)
        return {d: tuple(sorted(ms)) for d, ms in by_degree.items()}

    # -- basic queries ------------------------------------------------

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        if degree < 0:
            return ()
        if degree > self.cap:
            raise CapExceededError(f"degree {degree} above cap {self.cap}")
        return self._basis[degree]

    def dimension(self, degree: int) -> int:
        return len(self.basis(degree))

    def zero_class(self, degree: int) -> PolyClass:
        return PolyClass(self, degree, frozenset())

    def monomial_class(self, mono: Monomial) -> PolyClass:
        return PolyClass(self, self.monomial_degree(mono), frozenset({mono}))

    def monomial_degree(self, mono: Monomial) -> int:
        degrees = self._gen_degrees
        return sum(degrees[gi] * e for gi, e in mono)

    def generator_class(self, gi: int) -> PolyClass:
        return self.monomial_class(((gi, 1),))

    def fundamental_class(self, factor: int = 0) -> PolyClass:
        gi = self._gen_index.get((factor, SteenrodMonomial()))
        if gi is None:
            raise UnsupportedRangeError(
                f"factor {factor} has no mod-2 fundamental class (odd torsion)"
            )
        return self.generator_class(gi)

    def coordinates(self, cls: PolyClass) -> int:
        """Bitmask of cls in the canonical basis of its degree."""
        out = 0
        for m in cls.monomials:
            out |= 1 << self._basis_pos[(cls.degree, m)]
        return out

    def mul_matrix(self, cls: PolyClass, degree: int) -> Gf2Matrix:
        """Multiplication by cls, from degree to degree + cls.degree."""
        rows = [self.coordinates(cls * self.monomial_class(m)) for m in self.basis(degree)]
        return Gf2Matrix.from_rows(rows, self.dimension(degree + cls.degree))

    # -- Steenrod action ----------------------------------------------

    def sq_matrix(self, i: int, degree: int) -> Gf2Matrix:
        """Sq^i from degree to degree + i in the monomial bases, cached."""
        key = (i, degree)
        mat = self._sq_matrix_cache.get(key)
        if mat is None:
            rows = [
                self.coordinates(self.sq(i, self.monomial_class(m))) for m in self.basis(degree)
            ]
            mat = Gf2Matrix.from_rows(rows, self.dimension(degree + i))
            self._sq_matrix_cache[key] = mat
        return mat

    def sq(self, i: int, cls: PolyClass) -> PolyClass:
        """Sq^i on a homogeneous class: instability on generators, Cartan
        formula on products, Adem normalization for compositions."""
        if i < 0:
            raise ValueError("negative Steenrod index")
        if i == 0:
            return cls
        degree = cls.degree + i
        if degree > self.cap:
            raise CapExceededError(f"Sq{i} image degree {degree} above cap {self.cap}")
        out: set[Monomial] = set()
        for mono in cls.monomials:
            out.symmetric_difference_update(self._sq_monomial(i, mono))
        return PolyClass(self, degree, frozenset(out))

    def _sq_monomial(self, i: int, mono: Monomial) -> frozenset[Monomial]:
        if not mono:
            return frozenset() if i else frozenset({()})
        if i == 0:
            return frozenset({mono})
        (gi, e), rest = mono[0], mono[1:]
        if not rest:
            return self._sq_genpower(i, gi, e)
        key = (i, mono)
        cached = self._sq_mono_cache.get(key)
        if cached is not None:
            return cached
        head_deg = self._gen_degrees[gi] * e
        rest_deg = self.monomial_degree(rest)
        out: set[Monomial] = set()
        for j in range(max(0, i - rest_deg), min(i, head_deg) + 1):
            for a in self._sq_genpower(j, gi, e):
                for b in self._sq_monomial(i - j, rest):
                    out.symmetric_difference_update({_mul_monomials(a, b)})
        result = frozenset(out)
        self._sq_mono_cache[key] = result
        return result

    def _sq_genpower(self, i: int, gi: int, e: int) -> frozenset[Monomial]:
        key = (i, gi, e)
        cached = self._sq_pow_cache.get(key)
        if cached is not None:
            return cached
        gdeg = self._gen_degrees[gi]
        if i == 0:
            result: frozenset[Monomial] = frozenset({((gi, e),)})
        elif i > gdeg * e:
            result = frozenset()
        elif e == 1:
            result = self._sq_generator(i, gi)
        else:
            out: set[Monomial] = set()
            for j in range(max(0, i - gdeg * (e - 1)), min(i, gdeg) + 1):
                for a in self._sq_genpower(j, gi, 1):
                    for b in self._sq_genpower(i - j, gi, e - 1):
                        out.symmetric_difference_update({_mul_monomials(a, b)})
            result = frozenset(out)
        self._sq_pow_cache[key] = result
        return result

    def _sq_generator(self, i: int, gi: int) -> frozenset[Monomial]:
        key = (i, gi)
        cached = self._sq_gen_cache.get(key)
        if cached is not None:
            return cached
        gen = self.generators[gi]
        d = self._gen_degrees[gi]
        if i > d:
            result: frozenset[Monomial] = frozenset()
        elif i == d:
            result = frozenset({((gi, 2),)})
        else:
            composed = adem_normalize(
                SteenrodWord.of(
                    SteenrodMonomial((i,) + gen.word.squares, gen.word.bockstein)
                )
            )
            out: set[Monomial] = set()
            for word in composed.monomials:
                resolved = self._resolve_on_iota(word, gen.factor)
                if resolved is not None:
                    out.symmetric_difference_update({resolved})
            result = frozenset(out)
        self._sq_gen_cache[key] = result
        return result

    def _resolve_on_iota(self, word: SteenrodMonomial, factor: int):
        """Admissible word applied to a fundamental class, as a basis monomial.

        Excess below the space degree names a generator; excess equal to it
        is the square of the tail (iterated); above it the class vanishes.
        A trailing Sq1 on a Z_{2^k} class with k >= 2 vanishes (the mod-2
        Bockstein of such a class is zero).
        """
        modulus, n = self.space.factors[factor]
        k, _ = _two_part(modulus)
        if k >= 2 and not word.bockstein and word.squares and word.squares[-1] == 1:
            return None
        e = excess(word)
        if word.is_identity or e < n:
            gi = self._gen_index.get((factor, word))
            if gi is None:
                raise CapExceededError(f"generator {word}(iota_{n}) above cap {self.cap}")
            return ((gi, 1),)
        if e > n:
            return None
        tail = SteenrodMonomial(word.squares[1:], word.bockstein)
        inner = self._resolve_on_iota(tail, factor)
        if inner is None:
            return None
        return tuple((gi, 2 * exp) for gi, exp in inner)

    # -- formatting ----------------------------------------------------

    def _factor_suffix(self, factor: int) -> str:
        same_degree = [
            fi for fi, (_m, n) in enumerate(self.space.factors)
            if n == self.space.factors[factor][1]
        ]
        return "'" * same_degree.index(factor) if len(same_degree) > 1 else ""

    def generator_name(self, gi: int) -> str:
        gen = self.generators[gi]
        return gen.name(self._factor_suffix(gen.factor))

    def format_monomial(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        parts = []
        for gi, e in mono:
            name = self.generator_name(gi)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def format_class(self, cls: PolyClass) -> str:
        if cls.is_zero:
            return "0"
        return " + ".join(self.format_monomial(m) for m in sorted(cls.monomials))


@lru_cache(maxsize=None)
def algebra_for(space: EmSpace, cap: int = DEFAULT_CAP) -> EmAlgebra:
    return EmAlgebra(space, cap)


# ---------------------------------------------------------------------------
# Series and smash decompositions


def poincare_series(space: EmSpace, cap: int) -> list[int]:
    """dim H^d(space; Z2) for 0 <= d <= cap."""
    alg = algebra_for(space, cap)
    return [alg.dimension(d) for d in range(cap + 1)]


def _side_degrees(alg: EmAlgebra, mono: Monomial, split: int) -> tuple[int, int]:
    degrees, gens = alg._gen_degrees, alg.generators
    left = sum(degrees[gi] * e for gi, e in mono if gens[gi].factor < split)
    return left, alg.monomial_degree(mono) - left


def reduced_smash_basis(X: EmSpace, Y: EmSpace, degree: int, cap: int = DEFAULT_CAP):
    """Basis of reduced H^degree(X smash Y; Z2): Kunneth tensors with positive
    degree on both sides, inside the product algebra of X x Y."""
    space = X.product(Y)
    alg = algebra_for(space, cap)
    split = len(X.factors)
    out = []
    for mono in alg.basis(degree):
        dl, dr = _side_degrees(alg, mono, split)
        if dl > 0 and dr > 0:
            out.append(alg.monomial_class(mono))
    return out
