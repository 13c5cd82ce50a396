import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcond.abelian import Z2_TARGET, FinAbGroup, UnsupportedRangeError, groups_up_to, quad_group
from surfcond.ahss import run_ahss, smash_freeness_check
from surfcond.em_cohomology import (
    EmAlgebra,
    EmSpace,
    PolyClass,
    algebra_for,
    poincare_series,
    serre_generators,
)
from surfcond.gf2 import Gf2Matrix, bits
from surfcond.steenrod import SteenrodMonomial, adem_expand


class TestSerreGenerators:
    def test_k_z2_2(self):
        gens = serre_generators(2, 2, 7)
        names = [(g.squares, g.bockstein, 2 + g.degree) for g in gens]
        assert ((), 0, 2) in names  # iota
        assert ((1,), 0, 3) in names  # Sq1 iota
        assert ((2, 1), 0, 5) in names  # Sq2 Sq1 iota
        assert ((3, 1), 0, 6) not in names  # excess 2: squares, not a generator
        # excess-2 words square instead of generating
        assert all(not g.squares or g.squares[0] < sum(g.squares[1:]) + 2 for g in gens)

    def test_k_z4_2_replaces_sq1_by_marker(self):
        gens = serre_generators(4, 2, 7)
        assert all(not (g.squares and g.squares[-1] == 1) for g in gens)
        assert any(g.bockstein == 2 and not g.squares for g in gens)
        assert any(g.bockstein == 2 and g.squares == (2,) for g in gens)

    def test_k_z2k_1_unsupported(self):
        with pytest.raises(UnsupportedRangeError):
            serre_generators(4, 1, 6)

    def test_odd_modulus_contributes_nothing(self):
        assert serre_generators(3, 2, 8) == []

    def test_cap_below_the_space_degree_refused(self):
        with pytest.raises(ValueError, match="^cap below the space degree$"):
            serre_generators(2, 3, 2)


class TestPoincareSeries:
    def test_k_z2_2(self):
        assert poincare_series(EmSpace.single(2, 2), 7) == [1, 0, 1, 1, 1, 2, 2, 2]

    def test_k_z2_1_is_polynomial_on_one_generator(self):
        assert poincare_series(EmSpace.single(2, 1), 8) == [1] * 9

    def test_odd_factor_is_unit_algebra(self):
        assert poincare_series(EmSpace.single(3, 2), 6) == [1, 0, 0, 0, 0, 0, 0]

    def test_kunneth_convolution(self):
        cap = 8
        a = poincare_series(EmSpace.single(2, 2), cap)
        b = poincare_series(EmSpace.single(4, 2), cap)
        prod = poincare_series(EmSpace.single(2, 2).product(EmSpace.single(4, 2)), cap)
        conv = [sum(a[k] * b[d - k] for k in range(d + 1)) for d in range(cap + 1)]
        assert prod == conv

    def test_degree4_is_quad_into_z2(self):
        # universal coefficients with H_3(K(E,2)) = 0 and H_4 = Gamma(E):
        # H^4(K(E,2); F2) = Hom(Gamma(E), Z/2) = Quad(E, Z/2), whose order
        # comes from abelian's closed form, not from the basis
        for E in groups_up_to(64):
            alg = algebra_for(EmSpace.from_group(E, 2), 4)
            assert quad_group(E, Z2_TARGET).order == 2 ** alg.dimension(4), E


class TestSteenrodAction:
    def test_instability_top_square(self):
        alg = algebra_for(EmSpace.single(2, 2), 6)
        iota = alg.fundamental_class()
        assert alg.sq(2, iota) == iota * iota
        assert alg.sq(3, iota).is_zero
        assert alg.sq(0, iota) == iota

    def test_sq1_vanishes_on_z4_class(self):
        alg = algebra_for(EmSpace.single(4, 2), 6)
        iota = alg.fundamental_class()
        assert alg.sq(1, iota).is_zero

    def test_marked_generator_action(self):
        alg = algebra_for(EmSpace.single(4, 2), 8)
        iota = alg.fundamental_class()
        b2 = next(
            gi for gi, g in enumerate(alg.generators)
            if g.word == SteenrodMonomial((), bockstein=2)
        )
        marked = alg.generator_class(b2)
        assert alg.sq(1, marked).is_zero  # Sq1 b2 = 0
        assert not alg.sq(2, marked).is_zero

    def test_relation_in_k_z2_2_degree_six(self):
        # Sq1(iota * Sq1 iota) = Sq1 iota * Sq1 iota and Sq1 Sq2 Sq1 iota
        # equals the same square, so the sum is a cocycle.
        alg = algebra_for(EmSpace.single(2, 2), 8)
        iota = alg.fundamental_class()
        x3 = alg.sq(1, iota)
        x5 = alg.sq(2, x3)
        assert alg.sq(1, PolyClass(alg, 5, (iota * x3).vec ^ x5.vec)).is_zero

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60)
    def test_cartan_formula(self, i, da, db):
        alg = algebra_for(EmSpace.single(2, 2).product(EmSpace.single(2, 2)), 12)
        basis_a = alg.basis(da + 2)
        basis_b = alg.basis(db + 2)
        if not basis_a or not basis_b:
            return
        x = alg.monomial_class(basis_a[0])
        y = alg.monomial_class(basis_b[-1])
        if x.degree + y.degree + i > alg.cap:
            return
        lhs = alg.sq(i, x * y)
        rhs = alg.zero_class(lhs.degree)
        for j in range(i + 1):
            rhs = PolyClass(alg, rhs.degree, rhs.vec ^ (alg.sq(j, x) * alg.sq(i - j, y)).vec)
        assert lhs == rhs

    def test_cap_enforced(self):
        alg = algebra_for(EmSpace.single(2, 2), 5)
        iota = alg.fundamental_class()
        with pytest.raises(UnsupportedRangeError, match="Sq2 image degree 6 above cap 5"):
            alg.sq(2, iota * iota)
        with pytest.raises(UnsupportedRangeError, match="product degree 8 above cap 5"):
            _ = (iota * iota) * (iota * iota)


class TestProductAlgebraAction:
    """Sq on K(Z/2,2)^3, where most images go through the Cartan sub-products."""

    SPACE = EmSpace(((2, 2),) * 3)

    def test_adem_relations_as_matrices(self):
        alg = EmAlgebra(self.SPACE, 14)
        sq = alg.sq_matrix
        nonzero = 0
        for d in range(alg.cap - 1):
            assert sq(1, d).then(sq(1, d + 1)).is_zero  # Sq1 Sq1 = 0
            if d + 3 <= alg.cap:  # Sq1 Sq2 = Sq3
                assert sq(2, d).then(sq(1, d + 2)) == sq(3, d)
            if d + 4 <= alg.cap:  # Sq2 Sq2 = Sq3 Sq1
                lhs = sq(2, d).then(sq(2, d + 2))
                assert lhs == sq(1, d).then(sq(3, d + 1))
                nonzero += not lhs.is_zero
        assert nonzero >= 5

    def test_images_do_not_depend_on_the_memo(self):
        warm = EmAlgebra(self.SPACE, 14)
        table = {
            (i, m): warm.sq(i, warm.monomial_class(m)).monomials
            for d in range(warm.cap + 1)
            for m in warm.basis(d)
            for i in range(1, warm.cap - d + 1)
        }
        keys = sorted(table)
        for i, m in keys[:: len(keys) // 40]:
            fresh = EmAlgebra(self.SPACE, 14)
            assert fresh.sq(i, fresh.monomial_class(m)).monomials == table[(i, m)]


VECTOR_ALGEBRAS = {
    "z2_2-squared": (EmSpace(((2, 2), (2, 2))), 12),
    "z4_2-z2_4": (EmSpace(((4, 2), (2, 4))), 12),
}


class TestClassesAsVectors:
    """A class is its bitmask in the basis of its degree, and the
    operations on classes are the operations on those bitmasks."""

    @given(st.sampled_from(sorted(VECTOR_ALGEBRAS)), st.data())
    @settings(max_examples=60)
    def test_operations_agree_with_the_vectors(self, name, data):
        alg = algebra_for(*VECTOR_ALGEBRAS[name])
        d = data.draw(st.sampled_from([d for d in range(alg.cap + 1) if alg.dimension(d)]))
        basis = alg.basis(d)

        def plus(x, y):
            return PolyClass(alg, x.degree, x.vec ^ y.vec)

        def draw_class():
            vec = data.draw(st.integers(min_value=0, max_value=2 ** len(basis) - 1))
            cls = alg.zero_class(d)
            for b in bits(vec):
                cls = plus(cls, alg.monomial_class(basis[b]))
            assert cls.degree == d and cls.vec == vec
            assert cls.monomials == tuple(m for b, m in enumerate(basis) if vec >> b & 1)
            return cls

        u, v, w = draw_class(), draw_class(), draw_class()
        for i in range(alg.cap - d + 1):
            assert alg.sq(i, plus(u, v)) == plus(alg.sq(i, u), alg.sq(i, v))
        if 2 * d <= alg.cap:
            assert u * plus(v, w) == plus(u * v, u * w)


class TestAlgebraCache:
    """One (space, cap) is one cached algebra: cap is positional and required."""

    def test_one_entry_per_space_and_cap(self):
        space = EmSpace.single(2, 2)
        with pytest.raises(TypeError):
            algebra_for(space)
        with pytest.raises(TypeError):
            algebra_for(space, cap=12)
        assert algebra_for(space, 12) is algebra_for(space, 12)

    def test_generators_of_a_shared_algebra_are_a_tuple(self):
        alg = algebra_for(EmSpace.single(2, 2), 12)
        count = len(alg.generators)
        with pytest.raises(AttributeError):
            alg.generators.append(alg.generators[0])
        assert len(algebra_for(EmSpace.single(2, 2), 12).generators) == count

    def test_no_default_cap(self):
        X = EmSpace.single(2, 2)
        with pytest.raises(TypeError):
            EmAlgebra(X)

    def test_shared_algebra_is_read_only(self):
        # an edited cap would poison every later run that shares the algebra
        alg = algebra_for(EmSpace.single(2, 2), 7)
        for name in ("cap", "space", "generators", "_basis_pos", "_basis_degree", "fresh"):
            with pytest.raises(AttributeError):
                setattr(alg, name, 3)
        for name in ("cap", "_sq_matrix_cache", "_mul_table_cache"):
            with pytest.raises(AttributeError):
                delattr(alg, name)
        assert alg.cap == 7
        report = run_ahss(FinAbGroup((2,)), 2, "SW", 5)[1]
        assert report.verdict == "0"

    def test_equal_and_hashed_by_identity(self):
        space = EmSpace.single(2, 2)
        fresh = EmAlgebra(space, 7)
        assert fresh != algebra_for(space, 7) and fresh == fresh
        assert len({fresh, algebra_for(space, 7)}) == 2


class TestForeignClasses:
    """A class is read only by the algebra whose basis its vector is in."""

    @pytest.mark.parametrize("other", [
        (EmSpace.single(4, 2), 8),  # the same monomial names Sq1(i2) = 0
        (EmSpace.single(2, 2), 10),  # the same space at another cap
    ])
    def test_another_algebras_class_is_rejected(self, other):
        alg = algebra_for(EmSpace.single(2, 2), 8)
        foreign = algebra_for(*other).fundamental_class()
        for i in (0, 1, 2):  # Sq0 too, although it returns its class unread
            with pytest.raises(ValueError, match="i2 is a class of another algebra than"):
                alg.sq(i, foreign)
        with pytest.raises(ValueError, match="class of another algebra"):
            alg.coordinates(foreign)
        with pytest.raises(ValueError, match="class of another algebra"):
            alg.mul_matrix(foreign, 1)  # degree 1 has an empty basis
        with pytest.raises(ValueError, match="^classes live in different algebras$"):
            _ = alg.fundamental_class() * foreign

    @pytest.mark.parametrize("mono", [
        ((0, 1), (0, 1)),  # a repeated generator
        ((2, 1), (0, 1)),  # unsorted
        ((99, 1),),  # no such generator
        ((0, 5),),  # degree 10, above the cap
    ])
    def test_monomial_outside_the_basis_is_rejected(self, mono):
        alg = algebra_for(EmSpace.single(2, 2), 8)
        with pytest.raises(ValueError, match="not a basis monomial"):
            alg.monomial_class(mono)


class TestRangeGuards:
    """What the basic queries return, or refuse, at the edges of their range."""

    def test_space_with_a_trivial_factor_refused(self):
        with pytest.raises(ValueError, match="^cyclic order 1 < 2$"):
            EmSpace(((1, 2),))

    def test_basis_is_empty_below_degree_zero_and_refused_above_the_cap(self):
        alg = algebra_for(EmSpace.single(2, 2), 8)
        assert alg.basis(-1) == ()
        with pytest.raises(UnsupportedRangeError, match="^degree 9 above cap 8$"):
            alg.basis(9)

    def test_odd_factor_has_no_fundamental_class(self):
        alg = algebra_for(EmSpace(((2, 2), (3, 2))), 6)
        assert str(alg.fundamental_class(0)) == "i2"
        with pytest.raises(UnsupportedRangeError, match="^factor 1 has no mod-2 fundamental"):
            alg.fundamental_class(1)

    def test_negative_steenrod_index_refused(self):
        with pytest.raises(ValueError, match="^negative Steenrod index$"):
            algebra_for(EmSpace.single(2, 2), 8).sq_matrix(-1, 2)

    def test_repr_names_the_class_and_its_degree(self):
        iota = algebra_for(EmSpace.single(2, 2), 8).fundamental_class()
        assert repr(iota * iota) == "<i2^2 in degree 4>"


# The sha256 of every Sq matrix and of every Sq image of a basis monomial on
# these spaces, taken when classes were frozensets of monomials with a memo
# of their own: the bitmask classes and Cartan rows give the same action.
SQ_LOCK_SPACES = [
    (EmSpace(factors), caps)
    for factors, caps in [
        (((2, 2),), (10, 16)),
        (((4, 2),), (10, 16)),
        (((8, 2),), (10, 16)),
        (((2, 4),), (10, 16)),
        (((4, 4),), (10, 16)),
        (((2, 2), (3, 2)), (10, 16)),
        (((3, 2), (2, 2)), (10, 16)),
        (((2, 2), (2, 2)), (10, 16)),
        (((2, 2), (4, 2)), (10, 16)),
        (((4, 2), (8, 2)), (10, 16)),
        (((2, 2),) * 3, (10,)),
        (((2, 4), (2, 4)), (10, 16)),
        (((2, 2), (2, 4)), (10, 16)),
    ]
]
SQ_MATRIX_DIGEST = "0a4d0c51a3eae28012c934c2dda24c7bf80cef78141f3aed09b098d1062d5137"
SQ_IMAGE_DIGEST = "1cc0826e4cef4c0550a67109da007cd51be52725a5db171d8e8131732fde81fa"


def test_sq_action_matches_its_locked_digests():
    matrices, images, count = hashlib.sha256(), hashlib.sha256(), 0
    for space, caps in SQ_LOCK_SPACES:
        for cap in caps:
            alg = EmAlgebra(space, cap)
            for d in range(cap + 1):
                for i in range(cap - d + 1):
                    m = alg.sq_matrix(i, d)
                    matrices.update(repr((str(space), cap, i, d, m.rows, m.ncols)).encode())
                    count += 1
                    for mono in alg.basis(d):
                        image = alg.sq(i, alg.monomial_class(mono))
                        images.update(
                            f"{space} {cap} Sq{i}({alg.format_monomial(mono)}) = {image}\n".encode()
                        )
    assert count == 2694
    assert matrices.hexdigest() == SQ_MATRIX_DIGEST
    assert images.hexdigest() == SQ_IMAGE_DIGEST


CARTAN_ROW_ALGEBRAS = {  # (space, cap): the number of Cartan rows
    "z2_2": ((EmSpace.single(2, 2), 14), 131),
    "z4_2": ((EmSpace.single(4, 2), 12), 71),  # power-Bockstein generators
    "z2_3": ((EmSpace.single(2, 3), 12), 40),
}


@pytest.mark.parametrize("case", sorted(CARTAN_ROW_ALGEBRAS))
def test_cartan_rows_are_the_sums_of_class_products(case):
    """Each row of Sq^i on a product g r (g the monomial's first generator)
    is read from Sq matrix rows and a multiplication table; here it is the
    class-level sum over every j of Sq^j(g) * Sq^(i-j)(r)."""
    space_cap, count = CARTAN_ROW_ALGEBRAS[case]
    alg = EmAlgebra(*space_cap)
    rows = 0
    for d in range(alg.cap + 1):
        for p, mono in enumerate(alg.basis(d)):
            if not mono or mono == ((mono[0][0], 1),):
                continue  # the unit and single generators have no Cartan row
            (gi, e), rest = mono[0], mono[1:]
            if e > 1:
                rest = ((gi, e - 1),) + rest
            g, r = alg.generator_class(gi), alg.monomial_class(rest)
            for i in range(1, alg.cap - d + 1):
                expected = 0
                for j in range(i + 1):
                    expected ^= (alg.sq(j, g) * alg.sq(i - j, r)).vec
                assert alg.sq_matrix(i, d).rows[p] == expected, (case, i, mono)
                rows += 1
    assert rows == count


KRONECKER_CASES = {
    # power-Bockstein generators on unequal factors: an offset or ordering
    # slip between blocks of different sizes shows here
    "z4_2-z2_3-z8_4": (EmSpace(((4, 2), (2, 3), (8, 4))), 16),
    "z2_2-cubed": (EmSpace(((2, 2),) * 3), 12),
}


@pytest.fixture(scope="module", params=sorted(KRONECKER_CASES))
def product_algebra(request):
    return EmAlgebra(*KRONECKER_CASES[request.param])


class TestKroneckerProducts:
    """Identities the product's Sq action must satisfy whatever way it is
    built from the factors' Sq matrices."""

    def test_every_adem_relation_as_matrices(self, product_algebra):
        alg = product_algebra
        sq = alg.sq_matrix

        def word(squares, d):  # Sq^{s_1} ... Sq^{s_k} from degree d, Sq^{s_k} first
            *rest, last = squares
            mat, d = sq(last, d), d + last
            for s in reversed(rest):
                mat, d = mat.then(sq(s, d)), d + s
            return mat

        relations = 0
        for b in range(1, alg.cap + 1):
            for a in range(1, min(2 * b, alg.cap - b + 1)):
                for d in range(alg.cap - a - b + 1):
                    rhs = Gf2Matrix.from_rows([0] * alg.dimension(d), alg.dimension(d + a + b))
                    for term in adem_expand(a, b):
                        rhs = rhs + word(term, d)
                    assert word((a, b), d) == rhs, (a, b, d)
                    relations += not rhs.is_zero
        assert relations > 25  # 31 on K(Z/2,2)^3, 88 on the unequal factors

    def test_instability_on_every_monomial(self, product_algebra):
        alg = product_algebra
        for d in range(1, alg.cap + 1):
            for mono in alg.basis(d):
                x = alg.monomial_class(mono)
                if 2 * d <= alg.cap:
                    assert alg.sq(d, x) == x * x
                for i in range(d + 1, alg.cap - d + 1):
                    assert alg.sq(i, x).is_zero

    def test_basis_is_every_exponent_vector(self, product_algebra):
        alg = product_algebra
        by_degree = {0: [()]}
        for gi, gen in enumerate(alg.generators):
            grown = {d: list(ms) for d, ms in by_degree.items()}
            for d, ms in by_degree.items():
                for e in range(1, (alg.cap - d) // gen.degree + 1):
                    grown.setdefault(d + e * gen.degree, []).extend(m + ((gi, e),) for m in ms)
            by_degree = grown
        for d in range(alg.cap + 1):
            basis = alg.basis(d)
            assert len(set(basis)) == len(basis)
            assert sorted(basis) == sorted(by_degree.get(d, []))


MULTIPLICATION_CASES = {
    "z2_2": (EmSpace.single(2, 2), 12),  # base case: one sorted monomial list
    "z2_2-squared": (EmSpace(((2, 2), (2, 2))), 10),  # tensor order
    "z4_2-z2_3": (EmSpace(((4, 2), (2, 3))), 10),  # tensor order, unequal factors
}


def _reference_product(alg, a, b):
    """The bit of a * b in the basis of its degree: the sum of the two
    exponent vectors, looked up in the basis as a monomial."""
    exponents = [0] * len(alg.generators)
    for gi, e in a + b:
        exponents[gi] += e
    mono = tuple((gi, e) for gi, e in enumerate(exponents) if e)
    degree = sum(alg.generators[gi].degree * e for gi, e in mono)
    return 1 << alg.basis(degree).index(mono)


@pytest.mark.parametrize("case", sorted(MULTIPLICATION_CASES))
def test_products_of_basis_monomials_add_their_exponents(case):
    # every pair within the cap, through PolyClass.__mul__ and mul_matrix,
    # both of which read the algebra's cached multiplication tables
    alg = algebra_for(*MULTIPLICATION_CASES[case])
    pairs = 0
    for da in range(alg.cap + 1):
        for db in range(alg.cap - da + 1):
            right = [alg.monomial_class(b) for b in alg.basis(db)]
            for a in alg.basis(da):
                u = alg.monomial_class(a)
                rows = alg.mul_matrix(u, db).rows
                for j, b in enumerate(alg.basis(db)):
                    expected = _reference_product(alg, a, b)
                    assert (u * right[j]).vec == expected, (a, b)
                    assert rows[j] == expected, (a, b)
                    pairs += 1
    assert pairs > 100


EVEN_OR_ODD_FACTOR = st.tuples(st.sampled_from([2, 4, 8, 3]), st.sampled_from([2, 3, 4]))


@given(
    st.lists(EVEN_OR_ODD_FACTOR, min_size=2, max_size=3).filter(
        lambda fs: sum(m % 2 == 0 for m, _n in fs) >= 2
    ),
    st.integers(min_value=4, max_value=10),
)
@settings(max_examples=30)
def test_product_sq_is_the_cartan_sum_over_single_factors(factors, cap):
    """Sq^i of every basis monomial of a product equals the sum over
    j_1 + ... + j_r = i of the products of its factor parts' images, each
    computed in that factor's own algebra and embedded by (factor, word)."""
    alg = EmAlgebra(EmSpace(tuple(factors)), cap)
    index = {(g.factor, g.word): gi for gi, g in enumerate(alg.generators)}
    singles = [algebra_for(EmSpace((f,)), cap) for f in factors]
    local = [{g.word: gi for gi, g in enumerate(s.generators)} for s in singles]

    def part(mono, f):
        gens = alg.generators
        return tuple(sorted((local[f][gens[gi].word], e) for gi, e in mono if gens[gi].factor == f))

    def images(f, mono, i):  # Sq^i of a factor part, embedded in the product
        single = singles[f]
        cls = single.monomial_class(mono)
        if cls.degree + i > cap:
            return set()
        img = single.sq(i, cls)
        return {tuple((index[(f, single.generators[gi].word)], e) for gi, e in m)
                for m in img.monomials}

    def cartan_sum(parts, i):
        if not parts:
            return {()} if i == 0 else set()
        (f, mono), rest = parts[0], parts[1:]
        out: set = set()
        for j in range(i + 1):
            for a in images(f, mono, j):
                for b in cartan_sum(rest, i - j):
                    out ^= {tuple(sorted(a + b))}
        return out

    for d in range(cap + 1):
        for mono in alg.basis(d):
            parts = [(f, part(mono, f)) for f in range(len(factors))]
            for i in range(1, cap - d + 1):
                assert set(alg.sq(i, alg.monomial_class(mono)).monomials) == cartan_sum(parts, i)


class TestSmash:
    """The reduced smash classes that smash_freeness_check certifies."""

    @staticmethod
    def classes(X, Y, degree, cap):
        check = smash_freeness_check(X, Y, degree, (degree - 1, cap))
        assert check["dimension"] == len(check["classes"])
        return [c["class"] for c in check["classes"]]

    def test_classes_in_sorted_monomial_order(self):
        # the certificate order, whatever order the product algebra lists
        # its basis in
        X, Y = EmSpace.single(2, 2), EmSpace.single(4, 2)
        names = {
            5: ["i2*b2(i2')", "i2'*Sq1(i2)"],
            6: ["i2*i2'^2", "i2^2*i2'", "Sq1(i2)*b2(i2')"],
            7: ["i2*i2'*Sq1(i2)", "i2*i2'*b2(i2')", "i2*Sq2 b2(i2')", "i2^2*b2(i2')",
                "i2'*Sq2 Sq1(i2)", "i2'^2*Sq1(i2)"],
        }
        alg = algebra_for(X.product(Y), 12)
        for degree, expected in names.items():
            assert self.classes(X, Y, degree, 12) == expected
            monos = [m for m in alg.basis(degree) if alg.format_monomial(m) in expected]
            assert [alg.format_monomial(m) for m in sorted(monos)] == expected

    def test_reduced_smash_degree_five(self):
        X = EmSpace.single(2, 2)
        assert self.classes(X, X, 5, 9) == ["i2*Sq1(i2')", "i2'*Sq1(i2)"]

    def test_reduced_smash_degree_four(self):
        X = EmSpace.single(2, 2)
        assert self.classes(X, X, 4, 9) == ["i2*i2'"]

    def test_nothing_below_connectivity(self):
        X = EmSpace.single(2, 2)
        assert self.classes(X, X, 3, 9) == []


class TestFormatting:
    def test_generator_names(self):
        alg = algebra_for(EmSpace.single(2, 2), 6)
        names = {alg.generator_name(gi) for gi in range(len(alg.generators))}
        assert {"i2", "Sq1(i2)", "Sq2 Sq1(i2)"} <= names

    def test_product_factors_get_primes(self):
        alg = algebra_for(EmSpace.single(2, 2).product(EmSpace.single(2, 2)), 4)
        names = {alg.generator_name(gi) for gi in range(len(alg.generators))}
        assert {"i2", "i2'"} <= names

    def test_from_group_splits_two_part(self):
        space = EmSpace.from_group(FinAbGroup.from_factors([12]), 2)
        assert set(space.factors) == {(4, 2), (3, 2)}
