import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcond import acceptance
from surfcond.acceptance import _SqOnPolynomials
from surfcond.em_cohomology import EmAlgebra, EmSpace
from surfcond.gf2 import Echelon, Gf2Matrix
from surfcond.steenrod import (
    SteenrodMonomial,
    SteenrodWord,
    adem_normalize,
    excess,
    margolis_homology,
    parse_word,
)

# ---------------------------------------------------------------------------
# Independent oracle: the action on F2[x, y] determines words of low degree
# faithfully enough to cross-check Adem normalization.  Monomials are
# (a, b) -> x^a y^b exponent dicts with F2 coefficients.


def _sq_poly(i, poly):
    out = {}
    for (a, b), c in poly.items():
        for j in range(i + 1):
            # binomials of their own, not the engine's binom_mod2 that adem_expand uses
            if math.comb(a, j) % 2 and math.comb(b, i - j) % 2:
                key = (a + j, b + i - j)
                out[key] = out.get(key, 0) ^ c
    return {k: v for k, v in out.items() if v}


def _act(word: SteenrodWord, poly):
    total = {}
    for mono in word.monomials:
        term = poly
        for i in reversed(mono.squares):
            term = _sq_poly(i, term)
        for k, v in term.items():
            total[k] = total.get(k, 0) ^ v
    return {k: v for k, v in total.items() if v}


def _words_agree(u: SteenrodWord, v: SteenrodWord) -> bool:
    for a in range(6):
        for b in range(6):
            if _act(u, {(a, b): 1}) != _act(v, {(a, b): 1}):
                return False
    return True


class TestAdem:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("Sq1 Sq1", "0"),
            ("Sq1 Sq2", "Sq3"),
            ("Sq2 Sq2", "Sq3 Sq1"),
            ("Sq3 Sq2", "0"),
            ("Sq2 Sq3", "Sq4 Sq1 + Sq5"),
            ("Sq1 Sq3", "0"),
            ("Sq3 Sq3", "Sq5 Sq1"),
            ("Sq2 Sq2 + Sq3 Sq1", "0"),
            ("Sq2 Sq3 + Sq5", "Sq4 Sq1"),
        ],
    )
    def test_known_relations(self, word, expected):
        assert str(adem_normalize(parse_word(word))) == expected

    @given(st.integers(min_value=1, max_value=13), st.integers(min_value=1, max_value=10))
    @settings(max_examples=120)
    def test_normalization_properties(self, a, b):
        word = SteenrodWord.sq(a, b)
        normal = adem_normalize(word)
        assert all(m.is_admissible for m in normal.monomials)
        assert normal.is_zero or normal.degree == a + b
        assert adem_normalize(normal) == normal
        assert _words_agree(word, normal)


    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=4))
    @settings(max_examples=100)
    def test_long_words_agree_under_evaluation(self, indices):
        normal = adem_normalize(SteenrodWord.sq(*indices))
        assert all(m.is_admissible and m.degree == sum(indices) for m in normal.monomials)
        oracle = _SqOnPolynomials(10 + sum(indices))
        for a in range(6):
            for b in range(6):
                rhs = 0
                for m in normal.monomials:
                    rhs ^= oracle.act(m.squares, a + b, 1 << a)
                assert oracle.act(tuple(indices), a + b, 1 << a) == rhs


    @given(
        st.lists(st.integers(min_value=1, max_value=9), max_size=3),
        st.lists(st.integers(min_value=1, max_value=9), max_size=3),
    )
    @settings(max_examples=80)
    def test_normalization_is_additive(self, u, v):
        u, v = SteenrodWord.sq(*u), SteenrodWord.sq(*v)
        assert adem_normalize(u + v) == adem_normalize(u) + adem_normalize(v)


class TestPolynomialOracle:
    """The acceptance check's evaluation on F2[x, y] against this file's own."""

    @given(
        st.lists(st.integers(min_value=1, max_value=12), max_size=3),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=150)
    def test_act_word_matches_the_power_rule(self, indices, a, b):
        expected = {(a, b): 1}
        for i in reversed(indices):
            expected = _sq_poly(i, expected)
        n = a + b + sum(indices)
        image = _SqOnPolynomials(n).act(indices, a + b, 1 << a)
        assert {(e1, n - e1): 1 for e1 in range(n + 1) if image >> e1 & 1} == expected

    def test_pascal_table_of_the_check(self, monkeypatch):
        built = []

        class Recording(acceptance._SqOnPolynomials):
            def __init__(self, top):
                super().__init__(top)
                built.append(self)

        monkeypatch.setattr(acceptance, "_SqOnPolynomials", Recording)
        assert acceptance.check_adem_oracle()[0]
        (oracle,) = built
        assert oracle.pascal
        for n, row in enumerate(oracle.pascal):
            assert row == [math.comb(n, k) % 2 for k in range(n + 1)]


class TestMonomialValidation:
    @pytest.mark.parametrize(
        "squares,bockstein,message",
        [
            ((0,), 0, "Sq indices must be positive"),
            ((3, 2, -1), 0, "Sq indices must be positive"),
            ((2,), 1, "beta_1 is Sq1"),
            ((), -2, "bockstein marker must be >= 2"),
        ],
    )
    def test_rejected(self, squares, bockstein, message):
        with pytest.raises(ValueError, match=message):
            SteenrodMonomial(squares, bockstein)


class TestBocksteinMarkers:
    def test_sq1_kills_marked_words(self):
        assert adem_normalize(SteenrodWord.of(SteenrodMonomial((1,), bockstein=2))).is_zero
        assert adem_normalize(SteenrodWord.of(SteenrodMonomial((2, 1), bockstein=3))).is_zero
        sq2_marked = SteenrodWord.of(SteenrodMonomial((2,), bockstein=2))
        assert adem_normalize(sq2_marked) == sq2_marked

    @given(
        st.lists(st.integers(min_value=1, max_value=9), max_size=4),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=100)
    def test_marked_words_lose_exactly_their_sq1_terms(self, squares, k):
        plain = adem_normalize(SteenrodWord.sq(*squares))
        marked = adem_normalize(SteenrodWord.of(SteenrodMonomial(tuple(squares), k)))
        assert marked.monomials == {
            SteenrodMonomial(m.squares, k) for m in plain.monomials if m.squares[-1:] != (1,)
        }

    def test_marker_is_innermost_in_syntax(self):
        word = parse_word("Sq2 b_3")
        (mono,) = word.monomials
        assert mono.squares == (3,) or mono.squares == (2,)
        assert mono.bockstein == 3
        with pytest.raises(ValueError):
            parse_word("b_2 Sq2")

    def test_b1_is_sq1(self):
        assert parse_word("Sq2 b_1") == parse_word("Sq2 Sq1")

    def test_marker_counts_as_trailing_one_for_admissibility(self):
        assert SteenrodMonomial((2,), bockstein=2).is_admissible
        assert not SteenrodMonomial((1,), bockstein=2).is_admissible
        assert excess(SteenrodMonomial((3,), bockstein=2)) == 2


class TestExcess:
    def test_examples(self):
        assert excess(SteenrodMonomial((2, 1))) == 1
        assert excess(SteenrodMonomial((4, 2, 1))) == 1
        assert excess(SteenrodMonomial((5,))) == 5
        assert excess(SteenrodMonomial()) == 0

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            excess(SteenrodMonomial((1, 2)))


class TestParse:
    def test_sum_and_case_insensitivity(self):
        assert parse_word("sq2 sq1 + SQ3") == parse_word("Sq3 + Sq2 Sq1")

    def test_duplicate_terms_cancel(self):
        assert parse_word("Sq2 + Sq2").is_zero

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_word("Sq2 Qx1")

    @pytest.mark.parametrize("word", ["b0", "Sq2 b0", "Sq2 b_0", "Sq1 + b0"])
    def test_marker_b0_rejected(self, word):
        # b0 used to read as "no marker", so "Sq2 b0" parsed as Sq2
        with pytest.raises(ValueError, match="markers start at b1"):
            parse_word(word)


def _toy_sq(dims, maps):
    """sq(i, d) of a toy module in its own basis: maps[(i, d)], zero if absent."""
    return lambda i, d: maps.get(
        (i, d), Gf2Matrix.from_rows([0] * dims.get(d, 0), dims.get(d + i, 0))
    )


def _whole(dims):
    """Each degree's whole basis as seeds, and the window of those degrees."""
    return {d: [1 << k for k in range(n)] for d, n in dims.items()}, (min(dims), max(dims))


def _words_module(sq, degree, seed, top):
    """Span per degree of the seed's images under every word in Sq1 and Sq2
    that ends at or below top, each word applied in full."""
    spans, layer = {}, [(degree, seed)]
    while layer:
        for d, vec in layer:
            spans.setdefault(d, Echelon()).add(vec)
        layer = [(d + k, sq(k, d).apply(vec)) for d, vec in layer for k in (1, 2) if d + k <= top]
    return spans


class TestMargolis:
    def test_zero_module(self):
        dims = {4: 2, 5: 2, 6: 1}
        assert margolis_homology(_toy_sq(dims, {}), *_whole(dims)) == ({4: 2, 5: 2}, {})

    def test_exact_two_step_complex(self):
        # 0 -> F2 -> F2 -> 0 with the identity Sq1: acyclic for Q0
        dims = {0: 1, 1: 1}
        sq = _toy_sq(dims, {(1, 0): Gf2Matrix.from_rows([1], 1)})
        assert margolis_homology(sq, *_whole(dims)) == ({0: 0}, {})
        assert margolis_homology(sq, {0: [1]}, (0, 1)) == ({0: 0}, {})

    def test_q0_squared_nonzero_raises(self):
        ident = Gf2Matrix.from_rows([1], 1)
        dims = {0: 1, 1: 1, 2: 1}
        sq = _toy_sq(dims, {(1, 0): ident, (1, 1): ident})
        with pytest.raises(ValueError, match="Q0 squared is nonzero"):
            margolis_homology(sq, {0: [1]}, (0, 2))

    def test_redundant_spanning_vectors_change_nothing(self):
        dims = {0: 1, 1: 2, 2: 1}
        sq = _toy_sq(dims, {(1, 0): Gf2Matrix.from_rows([0b01], 2)})
        # zero vectors, repeats, a degree seeded by zero alone and the
        # image 0b01 of the degree-0 seed given again
        seeds = {0: [1, 1, 0], 1: [0b01, 0b10, 0b11], 2: [0, 1], 3: [0]}
        assert margolis_homology(sq, seeds, (0, 3)) == margolis_homology(sq, *_whole(dims))
        assert margolis_homology(sq, seeds, (0, 3)) == ({0: 0, 1: 1}, {})

    def test_module_takes_in_the_images_of_its_seeds(self):
        # Sq1 and Sq2 send the degree-0 seed to the first basis vector of
        # degrees 1 and 2, so the seed alone generates the module that the
        # seed and both images span, and its Q0 maps degree 0 onto degree 1
        dims = {0: 1, 1: 2, 2: 2}
        to_first = Gf2Matrix.from_rows([0b01], 2)
        sq = _toy_sq(dims, {(1, 0): to_first, (2, 0): to_first})
        assert margolis_homology(sq, {0: [1]}, (0, 2)) == ({0: 0, 1: 0}, {})
        assert margolis_homology(sq, {0: [1], 1: [0b01], 2: [0b01]}, (0, 2)) == ({0: 0, 1: 0}, {})

    def test_seed_below_the_window_is_dropped_but_its_images_kept(self):
        ident = Gf2Matrix.from_rows([1], 1)
        dims = {0: 1, 1: 1, 2: 1}
        sq = _toy_sq(dims, {(1, 0): ident, (2, 0): ident})
        assert margolis_homology(sq, {0: [1]}, (0, 2)) == ({0: 0, 1: 0}, {})
        # without the degree-0 seed nothing hits degree 1, whose class is
        # then a Q0 cycle that no boundary kills; a seed above the top goes too
        assert margolis_homology(sq, {0: [1], 3: [1]}, (1, 2)) == ({1: 1}, {})
        assert margolis_homology(sq, {0: [1]}, (1, 2)) == margolis_homology(sq, *_whole({1: 1, 2: 1}))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_seed_matches_the_span_of_its_words(self, seed):
        # the two degree-5 classes of K(Z/2,2) x K(Z/2,2) with a generator
        # on each side; their homology is read off an independent span of
        # the images of every word in Sq1 and Sq2
        alg = EmAlgebra(EmSpace.single(2, 2).product(EmSpace.single(2, 2)), 9)
        vec = [1 << k for k, mono in enumerate(alg.basis(5))
               if len({alg.generators[gi].factor for gi, _e in mono}) == 2][seed]
        module = {d: span for d, span in _words_module(alg.sq_matrix, 5, vec, 9).items()
                  if d >= 4 and span.dim}
        # free over A(1): dimensions 1, 1, 1, 2, 1 from the class up to degree 9
        assert {d: span.dim for d, span in module.items()} == {5: 1, 6: 1, 7: 1, 8: 2, 9: 1}
        q = {1: lambda d, v: alg.sq_matrix(1, d).apply(v),
             3: lambda d, v: (alg.sq_matrix(1, d + 2).apply(alg.sq_matrix(2, d).apply(v))
                              ^ alg.sq_matrix(2, d + 1).apply(alg.sq_matrix(1, d).apply(v)))}
        expected = []
        for shift in (1, 3):
            rank = {d: Echelon(q[shift](d, v) for v in module[d].vectors).dim
                    for d in range(5, 10 - shift)}
            expected.append({d: module[d].dim - rank[d] - rank.get(d - shift, 0) for d in rank})
        assert margolis_homology(alg.sq_matrix, {5: [vec]}, (4, 9)) == tuple(expected)
        assert expected == [{5: 0, 6: 0, 7: 0, 8: 0}, {5: 0, 6: 0}]

    def test_polynomial_algebra_on_one_class(self):
        # H*(K(Z/2,1)) = F2[x]: Q0 x^n = n x^(n+1) and Q1 x^n = n x^(n+3),
        # so Q0 homology is 1 and Q1 homology is {1, x^2}
        alg = EmAlgebra(EmSpace.single(2, 1), 12)
        seeds = {d: [1] for d in range(13)}
        q0, q1 = margolis_homology(alg.sq_matrix, seeds, (0, 12))
        assert q0 == {d: int(d == 0) for d in range(12)}
        assert q1 == {
            d: int(d in (0, 2)) for d in range(10)
        }
