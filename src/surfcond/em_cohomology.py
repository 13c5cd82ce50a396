"""Mod-2 cohomology of Eilenberg-MacLane spaces K(Z_{2^k}, n) and finite
products thereof, presented as truncated polynomial algebras on admissible
Steenrod words applied to the fundamental classes (excess below n).

The cohomology of a single factor K(Z_{2^k}, n) is built from its Serre
generators, and Sq acts on it through instability, the Cartan formula and
Adem normalization.  A product with two or more even factors is the tensor
product H (x) T of its first factor's algebra and the algebra of the rest
(Kunneth); its basis is listed in that tensor order, and its Sq action is
assembled from their Sq matrices by Kronecker blocks (see `EmAlgebra`).

Odd-cyclic factors are carried along but contribute the unit algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .abelian import FinAbGroup, UnsupportedRangeError, even_count, two_part
from .gf2 import Gf2Matrix, bits
from .record import Frozen
from .steenrod import (
    SteenrodMonomial,
    SteenrodWord,
    adem_normalize,
    excess,
)


class EmSpace(Frozen):
    """Finite product of Eilenberg-MacLane spaces, one factor per cyclic group."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]):  # (modulus, degree) each
        for modulus, degree in factors:
            if modulus < 2:
                raise ValueError(f"cyclic order {modulus} < 2")
            if degree < 1:
                raise ValueError(f"space degree {degree} < 1")
        object.__setattr__(self, "factors", factors)

    @staticmethod
    def single(modulus: int, degree: int) -> "EmSpace":
        return EmSpace(((modulus, degree),))

    @staticmethod
    def from_group(E: FinAbGroup, degree: int) -> "EmSpace":
        """K(E, n) as the product over cyclic pieces, 2-part split off."""
        factors = []
        for d in E.invariant_factors:
            k, odd = two_part(d)
            if k:
                factors.append((2**k, degree))
            if odd > 1:
                factors.append((odd, degree))
        return EmSpace(tuple(factors))

    def product(self, other: "EmSpace") -> "EmSpace":
        return EmSpace(self.factors + other.factors)

    def __str__(self) -> str:
        return " x ".join(f"K(Z/{m},{n})" for m, n in self.factors)


class Generator(Frozen):
    """Serre generator: an admissible word applied to a fundamental class."""

    __slots__ = ("factor", "word", "space_degree")

    def __init__(self, factor: int, word: SteenrodMonomial, space_degree: int):
        self._set(factor, word, space_degree)

    @property
    def degree(self) -> int:
        return self.space_degree + self.word.degree


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


def serre_generators(modulus: int, n: int, cap: int) -> list[SteenrodMonomial]:
    """All polynomial generators of H*(K(Z_{2^k}, n); Z2) up to degree cap,
    as the words applied to iota (a word of degree d gives degree n + d).

    Words Sq^I iota with excess(I) < n; for k >= 2 a trailing Sq1 is read as
    the power-Bockstein marker, Sq^J Sq1 as Sq^J b_k (excess counts the
    marker as a trailing 1).  Odd moduli contribute nothing.
    """
    if cap < n:
        raise ValueError("cap below the space degree")
    k, _odd = two_part(modulus)
    if k == 0:
        return []
    if k >= 2 and n == 1:
        raise UnsupportedRangeError(
            "K(Z_{2^k}, 1) with k >= 2 is not a polynomial algebra; unsupported"
        )
    out = []
    for seq in _admissible_sequences(cap - n, 1):
        mono = (SteenrodMonomial(seq[:-1], bockstein=k) if k >= 2 and seq and seq[-1] == 1
                else SteenrodMonomial(seq))
        if not seq or excess(mono) < n:
            out.append(mono)
    return out


def _generator_names(space: EmSpace, generators) -> tuple[str, ...]:
    """Each generator's word on its fundamental class i<n>, primed once per
    earlier factor of the same degree n."""
    degrees = [n for _m, n in space.factors]
    suffix = ["'" * degrees[:fi].count(n) for fi, n in enumerate(degrees)]
    names = []
    for g in generators:
        iota = f"i{g.space_degree}{suffix[g.factor]}"
        names.append(iota if g.word.is_identity else f"{g.word}({iota})")
    return tuple(names)


# monomial = tuple of (generator index, exponent), sorted by index
Monomial = tuple[tuple[int, int], ...]


def _spread(vec: int, width: int) -> int:
    """vec with bit b moved to bit b * width.  Multiplying a row of fewer
    than `width` bits by the result places one copy of the row per set bit
    of vec, without carries: the Kronecker product of two rows."""
    out = 0
    for b in bits(vec):
        out |= 1 << (b * width)
    return out


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[int, int] = dict(a)
    for gi, e in b:
        exps[gi] = exps.get(gi, 0) + e
    return tuple(sorted(exps.items()))


class PolyClass:
    """Homogeneous F2-sum of basis monomials of an EmAlgebra: vec is its
    bitmask in the coordinates of algebra.basis(degree)."""

    __slots__ = ("algebra", "degree", "vec")

    def __init__(self, algebra: "EmAlgebra", degree: int, vec: int):
        self.algebra = algebra
        self.degree = degree
        self.vec = vec

    @property
    def monomials(self) -> tuple[Monomial, ...]:
        """The basis monomials at the set bits of vec, in basis order."""
        if not self.vec:
            return ()
        basis = self.algebra.basis(self.degree)
        return tuple(basis[b] for b in bits(self.vec))

    def __eq__(self, other):
        return (
            isinstance(other, PolyClass)
            and self.algebra is other.algebra
            and self.degree == other.degree
            and self.vec == other.vec
        )

    @property
    def is_zero(self) -> bool:
        return not self.vec

    def __mul__(self, other: "PolyClass") -> "PolyClass":
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")
        degree = self.degree + other.degree
        if self.is_zero or other.is_zero:
            return self.algebra.zero_class(degree)
        if degree > self.algebra.cap:
            raise UnsupportedRangeError(f"product degree {degree} above cap {self.algebra.cap}")
        vec = self.algebra._product(self.degree, self.vec, other.degree, other.vec)
        return PolyClass(self.algebra, degree, vec)

    def __str__(self) -> str:
        return self.algebra.format_class(self)

    def __repr__(self) -> str:
        return f"<{self} in degree {self.degree}>"


class EmAlgebra(Frozen):
    """Truncated polynomial algebra on the Serre generators of an EmSpace.

    A space with at most one factor of even order is the base case (an odd
    factor contributes the unit algebra): its basis in each degree is the
    sorted list of monomials, and Sq acts through instability and Adem
    normalization on generators, and on products by the Cartan formula,
    each row XORed from rows of lower Sq matrices through the multiplication
    tables.  A space with two or more even factors is the tensor
    product H (x) T of two algebras (Kunneth): the head H of its first
    factor and the tail T of the rest, each from `algebra_for`, so equal
    factors share one.  Its basis in degree D is listed in tensor order, by
    the head's degree a, then head position, then tail position, and Sq
    acts by the Kronecker sum Sq^i(h (x) t) = sum_j Sq^j h (x) Sq^(i-j) t of
    the two algebras' Sq matrices.

    A class is its bitmask in the basis of its degree (`PolyClass.vec`),
    on which Sq^i acts by `sq_matrix`, and two classes multiply through the
    table of products of basis monomials for their pair of degrees.
    Read-only, as `algebra_for` shares it: only its memos fill, with Sq
    matrices by (i, degree) and multiplication tables by degree pair.  It
    equals only itself, as classes compare their algebras with `is`.
    """

    _fields = ("space", "cap")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, space: EmSpace, cap: int):
        self._set(space, cap)
        head = tail = None
        if even_count(modulus for modulus, _n in space.factors) > 1:
            head = algebra_for(EmSpace(space.factors[:1]), cap)
            tail = algebra_for(EmSpace(space.factors[1:]), cap)
            generators = head.generators + tuple(
                Generator(g.factor + 1, g.word, g.space_degree) for g in tail.generators
            )
        else:
            generators = [Generator(fi, word, n) for fi, (modulus, n) in enumerate(space.factors)
                          for word in serre_generators(modulus, n, cap)]
        generators = tuple(sorted(
            generators, key=lambda g: (g.degree, g.factor, g.word.squares, g.word.bockstein)
        ))
        # set here once, past the refusing __setattr__
        attrs = vars(self)
        attrs.update(_head=head, _tail=tail, generators=generators,
                     _gen_index={(g.factor, g.word): i for i, g in enumerate(generators)},
                     _gen_degrees=tuple(g.degree for g in generators),
                     _gen_names=_generator_names(space, generators))
        if head is None:
            attrs["_basis"] = self._build_basis()
        else:
            attrs["_basis"], attrs["_offsets"] = self._build_tensor_basis()
        # a monomial's position in the basis of its own degree, and that degree
        attrs["_basis_pos"], attrs["_basis_degree"] = pos, degree = {}, {}
        for d, ms in self._basis.items():
            for i, m in enumerate(ms):
                pos[m], degree[m] = i, d
        attrs["_sq_matrix_cache"] = {}
        attrs["_mul_table_cache"] = {}

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

    def _build_tensor_basis(self) -> tuple[dict[int, tuple[Monomial, ...]], list[list[int]]]:
        """Bases of H (x) T in tensor order, renumbered to this algebra's
        generators, and `_offsets[D][a]`, the position in degree D where the
        block H^a (x) T^(D-a) starts."""

        def embedded(alg: EmAlgebra, shift: int) -> list[list[Monomial]]:
            index = [self._gen_index[(g.factor + shift, g.word)] for g in alg.generators]
            return [
                [tuple((index[gi], e) for gi, e in m) for m in alg.basis(d)]
                for d in range(self.cap + 1)
            ]

        heads, tails = embedded(self._head, 0), embedded(self._tail, 1)
        all_offsets: list[list[int]] = []
        basis = {}
        for D in range(self.cap + 1):
            out: list[Monomial] = []
            offsets = []
            for a in range(D + 1):
                offsets.append(len(out))
                out += [tuple(sorted(h + t)) for h in heads[a] for t in tails[D - a]]
            all_offsets.append(offsets)
            basis[D] = tuple(out)
        return basis, all_offsets

    # -- basic queries ------------------------------------------------

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        if degree < 0:
            return ()
        if degree > self.cap:
            raise UnsupportedRangeError(f"degree {degree} above cap {self.cap}")
        return self._basis[degree]

    def dimension(self, degree: int) -> int:
        return len(self.basis(degree))

    def zero_class(self, degree: int) -> PolyClass:
        return PolyClass(self, degree, 0)

    def monomial_class(self, mono: Monomial) -> PolyClass:
        pos = self._basis_pos.get(mono)
        if pos is None:
            raise ValueError(
                f"{mono!r} is not a basis monomial of {self.space} at cap {self.cap}"
            )
        return PolyClass(self, self._basis_degree[mono], 1 << pos)

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
        """Bitmask of cls in the basis of its degree."""
        if cls.algebra is not self:
            raise ValueError(
                f"{cls} is a class of another algebra than {self.space} at cap {self.cap}"
            )
        return cls.vec

    def mul_matrix(self, cls: PolyClass, degree: int) -> Gf2Matrix:
        """Multiplication by cls, from degree to degree + cls.degree."""
        self.coordinates(cls)
        rows = [(cls * PolyClass(self, degree, 1 << j)).vec for j in range(self.dimension(degree))]
        return Gf2Matrix.from_rows(rows, self.dimension(degree + cls.degree))

    def _mul_table(self, da: int, db: int) -> tuple[tuple[int, ...], ...]:
        """Products of basis monomials, cached: entry [i][j] is the bit of
        basis(da)[i] * basis(db)[j] in the basis of degree da + db."""
        key = (da, db)
        table = self._mul_table_cache.get(key)
        if table is None:
            pos, right = self._basis_pos, self.basis(db)
            table = tuple(
                tuple(1 << pos[_mul_monomials(a, b)] for b in right) for a in self.basis(da)
            )
            self._mul_table_cache[key] = table
        return table

    def _product(self, da: int, u: int, db: int, v: int) -> int:
        """Vector of the product of u in degree da and v in degree db, XORed
        from the entries of their multiplication table."""
        table = self._mul_table(da, db)
        right = bits(v)
        vec = 0
        for i in bits(u):
            row = table[i]
            for j in right:
                vec ^= row[j]
        return vec

    # -- Steenrod action ----------------------------------------------

    def sq_matrix(self, i: int, degree: int) -> Gf2Matrix:
        """Sq^i from degree to degree + i in the bases of `basis`, cached."""
        key = (i, degree)
        mat = self._sq_matrix_cache.get(key)
        if mat is None:
            if i < 0:
                raise ValueError("negative Steenrod index")
            target = degree + i
            if target > self.cap:
                raise UnsupportedRangeError(f"Sq{i} image degree {target} above cap {self.cap}")
            if i == 0:
                rows = [1 << p for p in range(self.dimension(degree))]
            elif self._head is None:
                rows = [self._cartan_row(i, mono) for mono in self.basis(degree)]
            else:
                rows = self._kronecker_sq(i, degree)
            mat = Gf2Matrix(tuple(rows), self.dimension(target))
            self._sq_matrix_cache[key] = mat
        return mat

    def sq(self, i: int, cls: PolyClass) -> PolyClass:
        """Sq^i on a homogeneous class: its vector through `sq_matrix`."""
        if cls.algebra is not self:
            self.coordinates(cls)  # raises: a class of another algebra
        if i == 0:
            return cls
        mat = self._sq_matrix_cache.get((i, cls.degree)) or self.sq_matrix(i, cls.degree)
        return PolyClass(self, cls.degree + i, mat.apply(cls.vec))

    def _kronecker_sq(self, i: int, degree: int) -> list[int]:
        """Rows of Sq^i on H (x) T in `degree`, from the Sq matrices of H and T.

        For each bidegree block (a, degree - a), the row of h (x) t is the
        sum over j of Sq^j h (x) Sq^(i-j) t: the tail row is shifted into
        place once for each set bit of the head row, which is one integer
        product with the head row spread to the tail's width and moved to
        the target block's offset."""
        head, tail = self._head, self._tail
        head_sq, tail_sq = head._sq_matrix_cache, tail._sq_matrix_cache
        head_basis, tail_basis = head._basis, tail._basis
        target_offsets = self._offsets[degree + i]
        out: list[int] = []
        for a in range(degree + 1):
            b = degree - a
            head_dim, tail_dim = len(head_basis[a]), len(tail_basis[b])
            if not head_dim or not tail_dim:
                continue
            parts = [
                ((head_sq.get((j, a)) or head.sq_matrix(j, a)).rows,
                 (tail_sq.get((i - j, b)) or tail.sq_matrix(i - j, b)).rows,
                 target_offsets[a + j], len(tail_basis[b + i - j]))
                for j in range(max(0, i - b), min(i, a) + 1)
            ]
            for h in range(head_dim):
                spread = [
                    (tail_rows, _spread(head_rows[h], width) << offset)
                    for head_rows, tail_rows, offset, width in parts
                    if head_rows[h]
                ]
                for t in range(tail_dim):
                    row = 0
                    for tail_rows, mask in spread:
                        row ^= tail_rows[t] * mask
                    out.append(row)
        return out

    def _cartan_row(self, i: int, mono: Monomial) -> int:
        """Row of a basis monomial in Sq^i (i > 0) by the Cartan formula on
        one generator g: Sq^i(g r) = sum_j Sq^j(g) Sq^(i-j)(r), each factor a
        row of a lower Sq matrix, each product XORed from a multiplication table."""
        if not mono:
            return 0
        (gi, e), rest = mono[0], mono[1:]
        if e == 1 and not rest:
            return self._sq_generator(i, gi)
        if e > 1:
            rest = ((gi, e - 1),) + rest
        cache, pos = self._sq_matrix_cache, self._basis_pos
        dg, dr = self._gen_degrees[gi], self._basis_degree[rest]
        g, r = pos[((gi, 1),)], pos[rest]
        row = 0
        for j in range(max(0, i - dr), min(i, dg) + 1):
            left = (cache.get((j, dg)) or self.sq_matrix(j, dg)).rows[g]
            right = (cache.get((i - j, dr)) or self.sq_matrix(i - j, dr)).rows[r]
            if left and right:
                row ^= self._product(dg + j, left, dr + i - j, right)
        return row

    def _sq_generator(self, i: int, gi: int) -> int:
        """Row of one generator in Sq^i (i > 0): instability, else Adem
        normalization of the composed word, each term resolved on the
        fundamental class."""
        gen = self.generators[gi]
        d = self._gen_degrees[gi]
        if i > d:
            return 0
        if i == d:
            return 1 << self._basis_pos[((gi, 2),)]
        composed = adem_normalize(
            SteenrodWord.of(SteenrodMonomial((i,) + gen.word.squares, gen.word.bockstein))
        )
        row = 0
        for word in composed.monomials:
            resolved = self._resolve_on_iota(word, gen.factor)
            if resolved is not None:
                row ^= 1 << self._basis_pos[resolved]
        return row

    def _resolve_on_iota(self, word: SteenrodMonomial, factor: int):
        """Admissible word applied to a fundamental class, as a basis monomial.

        Excess below the space degree names a generator; excess equal to it
        is the square of the tail (iterated); above it the class vanishes.
        A trailing Sq1 on a Z_{2^k} class with k >= 2 vanishes (the mod-2
        Bockstein of such a class is zero).
        """
        modulus, n = self.space.factors[factor]
        k, _ = two_part(modulus)
        if k >= 2 and not word.bockstein and word.squares and word.squares[-1] == 1:
            return None
        e = excess(word)
        if word.is_identity or e < n:  # a generator: sq_matrix keeps its degree within the cap
            return ((self._gen_index[(factor, word)], 1),)
        if e > n:
            return None
        tail = SteenrodMonomial(word.squares[1:], word.bockstein)
        # excess(tail) <= n as s1 >= 2 s2, and it ends as the word does: never None
        return tuple((gi, 2 * exp) for gi, exp in self._resolve_on_iota(tail, factor))

    # -- formatting ----------------------------------------------------

    def generator_name(self, gi: int) -> str:
        return self._gen_names[gi]

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
def algebra_for(space: EmSpace, cap: int, /) -> EmAlgebra:
    """The shared EmAlgebra of space through degree cap.  Both arguments are
    positional and required, so one (space, cap) is one cache entry and
    never two instances that reject each other's classes."""
    return EmAlgebra(space, cap)


# ---------------------------------------------------------------------------
# Series


def poincare_series(space: EmSpace, cap: int) -> list[int]:
    """dim H^d(space; Z2) for 0 <= d <= cap."""
    alg = algebra_for(space, cap)
    return [alg.dimension(d) for d in range(cap + 1)]
