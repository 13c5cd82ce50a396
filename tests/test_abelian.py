import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcond.abelian import (
    CIRCLE,
    Z2_TARGET,
    FinAbGroup,
    GroupExpr,
    dual,
    ext_group,
    groups_up_to,
    hom_group,
    parse_expr,
    parse_group,
    quad_group,
    quad_group_brute,
    quotient_by_subgroup_image,
    smith_normal_form,
    two_torsion,
)

small_groups = st.lists(st.sampled_from([2, 3, 4, 5, 8, 9]), max_size=3).map(
    FinAbGroup.from_factors
)


class TestFinAbGroup:
    def test_invariant_factor_normalization(self):
        assert FinAbGroup.from_factors([2, 3]) == FinAbGroup((6,))
        assert FinAbGroup.from_factors([2, 2]) == FinAbGroup((2, 2))
        assert FinAbGroup.from_factors([4, 6]) == FinAbGroup((2, 12))
        assert FinAbGroup.from_factors([1, 1]).is_trivial

    @given(st.lists(st.integers(1, 48), max_size=5))
    def test_from_factors_is_a_chain_that_kills_what_its_input_kills(self, orders):
        # d kills prod gcd(d, n) elements of a sum of cyclic groups Z/n: an
        # oracle that shares no code with the normal form
        factors = FinAbGroup.from_factors(orders).invariant_factors
        assert all(d > 1 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        lcm = math.lcm(1, *orders)
        small = [d for d in range(1, math.isqrt(lcm) + 1) if lcm % d == 0]
        for d in small + [lcm // d for d in small]:
            killed = math.prod(math.gcd(d, n) for n in orders)
            assert killed == math.prod(math.gcd(d, f) for f in factors)

    @pytest.mark.parametrize("orders, bad", [([0], 0), ([4, 1, -3], -3)])
    def test_from_factors_refuses_orders_below_one(self, orders, bad):
        with pytest.raises(ValueError, match=rf"^cyclic order {bad} < 1$"):
            FinAbGroup.from_factors(orders)

    def test_from_factors_reads_each_order_as_an_int(self):
        assert FinAbGroup.from_factors(["4", 6.0]) == FinAbGroup((2, 12))

    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            FinAbGroup((4, 2))

    def test_invariant_factors_below_two_refused(self):
        with pytest.raises(ValueError, match="^invariant factor 1 < 2$"):
            FinAbGroup((1,))

    def test_element_arithmetic(self):
        G = FinAbGroup((2, 4))
        assert G.add((1, 3), (1, 2)) == (0, 1)
        assert G.neg((1, 3)) == (1, 1)
        assert G.element_order((0, 2)) == 2
        assert G.element_order((1, 1)) == 4
        assert len(list(G.elements())) == 8

    @given(small_groups)
    def test_order_is_product_of_factors(self, G):
        assert G.order == len(list(G.elements()))


class TestSmithNormalForm:
    def test_cyclic_presentation(self):
        assert smith_normal_form([[6]]) == FinAbGroup((6,))
        assert smith_normal_form([[2, 0], [0, 3]]) == FinAbGroup((6,))

    def test_trivial(self):
        assert smith_normal_form([[1]]).is_trivial

    def test_infinite_cokernel_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[0, 2]])

    def test_coefficient_explosion_regression(self):
        # determinantal divisors 1, 1, 1, 1, 3; unbounded integer elimination
        # grows past 1500-bit entries on the first six rows, and the rows
        # 3 * e_j, which the cokernel Z/3 already satisfies, bound every column
        rows = [
            [-6, 4, 2, -5, 9],
            [-7, -8, 0, 8, 1],
            [4, 0, 1, 2, -1],
            [1, 7, 7, -9, 7],
            [-6, -5, 1, 1, 1],
            [9, -7, 5, -1, 6],
        ] + [[3 * (c == r) for c in range(5)] for r in range(5)]
        assert smith_normal_form(rows) == FinAbGroup((3,))

    def test_modulus_without_axis_rows(self):
        # the cokernel is Z/2, but no row d * e_j bounds either column
        with pytest.raises(ValueError, match="bounds column 0"):
            smith_normal_form([[1, 1], [1, -1]])

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 1], [2, 2]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="^ragged relation matrix$"):
            smith_normal_form([[2, 0], [3]])

    @pytest.mark.parametrize("rows, expected", [
        # the corner 2 does not divide its row [2, 1]: two column passes
        ([[2, 1], [0, 2], [4, 0], [0, 4]], (4,)),
        ([[4, 6], [12, 0], [0, 12]], (2, 12)),
        # the corners shrink over several passes between rows and columns
        ([[16, 0, 0, 0, 0], [0, 8, 0, 0, 0], [0, 0, 36, 0, 0], [0, 0, 0, 16, 0],
          [0, 0, 0, 0, 12], [22, 13, 0, 22, 4], [28, 18, 29, 38, 9]], (4, 8, 16)),
    ])
    def test_row_and_column_passes(self, rows, expected):
        assert smith_normal_form(rows) == FinAbGroup(expected)

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=ncols, max_size=ncols),
                min_size=1,
                max_size=5,
            )
        )
    )
    @settings(max_examples=150)
    def test_matches_determinantal_divisors(self, rows):
        # the k-th invariant factor is d_k / d_(k-1), with d_k the gcd of the
        # k x k minors; the rows 12 * e_j bound every column
        ncols = len(rows[0])
        rows = rows + [[12 * (c == r) for c in range(ncols)] for r in range(ncols)]
        divisors = [1]
        for k in range(1, ncols + 1):
            divisors.append(
                math.gcd(
                    *(
                        _det([[rows[i][j] for j in cs] for i in rs])
                        for rs in itertools.combinations(range(len(rows)), k)
                        for cs in itertools.combinations(range(ncols), k)
                    )
                )
            )
        expected = FinAbGroup.from_factors(
            [divisors[k] // divisors[k - 1] for k in range(1, ncols + 1)]
        )
        assert smith_normal_form(rows) == expected

    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
            min_size=3,
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_divisibility_chain_holds(self, rows):
        # pad with a diagonal so the cokernel is finite
        rows = rows + [[12 if c == r else 0 for c in range(3)] for r in range(3)]
        G = smith_normal_form(rows)
        for a, b in zip(G.invariant_factors, G.invariant_factors[1:]):
            assert b % a == 0


def _det(m):
    """Leibniz expansion, independent of the elimination under test."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


class TestFunctors:
    @given(small_groups)
    def test_dual_is_involutive_and_isomorphic(self, A):
        assert dual(dual(A)) == A
        assert dual(A).invariant_factors == A.invariant_factors

    @given(small_groups, small_groups)
    @settings(max_examples=40)
    def test_hom_order_matches_enumeration(self, A, B):
        if A.order * B.order > 72:
            return
        count = 0
        for images in itertools.product(list(B.elements()), repeat=len(A.invariant_factors)):
            if all(
                d % B.element_order(img) == 0
                for img, d in zip(images, A.invariant_factors)
            ):
                count += 1
        assert count == hom_group(A, B).order

    @given(small_groups, small_groups)
    @settings(max_examples=40)
    def test_ext_matches_quotient_presentation(self, A, B):
        # Ext(Z_d, B) = B / dB, computed through an independent presentation
        factors = []
        for d in A.invariant_factors:
            rank = len(B.invariant_factors)
            rows = [[B.invariant_factors[r] if c == r else 0 for c in range(rank)] for r in range(rank)]
            rows += [[d if c == r else 0 for c in range(rank)] for r in range(rank)]
            if rows:
                factors.extend(smith_normal_form(rows).invariant_factors)
        assert FinAbGroup.from_factors(factors) == ext_group(A, B)

    @given(small_groups)
    def test_two_torsion_by_enumeration(self, A):
        count = sum(1 for x in A.elements() if A.element_order(x) <= 2)
        assert two_torsion(A).order == count


def _factorizations(order, least=2):
    """Every way to write order as a product of factors >= least, in
    ascending order."""
    if order == 1:
        yield ()
    for d in range(least, order + 1):
        if order % d == 0:
            for rest in _factorizations(order // d, d):
                yield (d,) + rest


def test_groups_up_to_is_every_group_once():
    # Z/a x Z/b x ... for every factorization, normalized and deduplicated
    expected = {
        FinAbGroup.from_factors(parts)
        for order in range(1, 65)
        for parts in _factorizations(order)
    }
    groups = list(groups_up_to(64))
    assert len(groups) == len(set(groups))
    assert set(groups) == expected
    assert groups[0].is_trivial and list(groups_up_to(1)) == [FinAbGroup.trivial()]


# invariant factors of every non-cyclic abelian group of order <= 32
NON_CYCLIC_UP_TO_32 = [
    G.invariant_factors for G in groups_up_to(32) if len(G.invariant_factors) >= 2
]


def _quad_full_axioms(E, target):
    """Quad(E, target) from every cubic difference x <= y <= z, not just x = e_i.

    The reference for the generator lemma in quad_group_brute, and for its
    one column per pair {x, -x}: this solver keeps one column per nonzero
    element, states q(x) = q(-x) as rows, and imposes biadditivity on all
    of E.
    """
    m = 2 * E.exponent if target == CIRCLE else 2
    elems = list(E.elements())
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems) - 1

    def row(*terms):
        r = [0] * n
        for sign, e in terms:
            if index[e]:
                r[index[e] - 1] += sign
        return r

    rows = [row((1, x), (-1, E.neg(x))) for x in elems[1:]]
    for x, y, z in itertools.combinations_with_replacement(elems[1:], 3):
        xy = E.add(x, y)
        rows.append(
            row((1, E.add(xy, z)), (-1, xy), (-1, E.add(x, z)), (-1, E.add(y, z)),
                (1, x), (1, y), (1, z))
        )
    rows += [[m if j == i else 0 for j in range(n)] for i in range(n)]
    return smith_normal_form([r for r in rows if any(r)])


class TestQuadraticForms:
    def test_cyclic_closed_forms(self):
        assert quad_group(FinAbGroup((2,)), CIRCLE) == FinAbGroup((4,))
        assert quad_group(FinAbGroup((4,)), CIRCLE) == FinAbGroup((8,))
        assert quad_group(FinAbGroup((3,)), CIRCLE) == FinAbGroup((3,))
        assert quad_group(FinAbGroup((2,)), Z2_TARGET) == FinAbGroup((2,))
        assert quad_group(FinAbGroup((3,)), Z2_TARGET).is_trivial

    def test_brute_force_on_the_trivial_group(self):
        for target in (CIRCLE, Z2_TARGET):
            assert quad_group_brute(FinAbGroup.trivial(), target).is_trivial

    @pytest.mark.parametrize("factors", NON_CYCLIC_UP_TO_32)
    def test_brute_force_agrees_with_closed_form(self, factors):
        E = FinAbGroup(factors)
        for target in (CIRCLE, Z2_TARGET):
            assert quad_group_brute(E, target) == quad_group(E, target)

    @pytest.mark.parametrize("factors", [(2, 2), (2, 4), (4, 4), (2, 2, 2)])
    def test_brute_force_passes_each_reduced_relation_once(self, factors, monkeypatch):
        from surfcond import abelian

        E, seen = FinAbGroup(factors), []
        monkeypatch.setattr(abelian, "smith_normal_form",
                            lambda rows: seen.append(rows) or smith_normal_form(rows))
        for target, m in ((CIRCLE, 2 * E.exponent), (Z2_TARGET, 2)):
            q = quad_group_brute(E, target)
            assert q == quad_group(E, target)
            # one column per pair {x, -x} of nonzero elements
            pairs = {frozenset((x, E.neg(x))) for x in E.elements() if any(x)}
            rows, n = [tuple(r) for r in seen.pop()], len(pairs)
            identity = {tuple(m * (j == i) for j in range(n)) for i in range(n)}
            relations = [r for r in rows if r not in identity]
            assert identity <= set(rows)
            assert len(relations) == len(set(relations))
            assert all(any(r) and all(0 <= v < m for v in r) for r in relations)

    def test_generators_suffice_for_biadditivity(self):
        # every divisibility chain d_1 | ... | d_r with r >= 2 and product <= 16
        groups = {G for G in groups_up_to(16) if len(G.invariant_factors) >= 2}
        assert len(groups) == 9
        # and two of odd order, where -x != x for every nonzero x: x and -x
        # share a column in quad_group_brute but not in _quad_full_axioms,
        # which states q(x) = q(-x) as rows
        groups |= {FinAbGroup((5, 5)), FinAbGroup((3, 9))}
        for E in groups:
            for target in (CIRCLE, Z2_TARGET):
                assert quad_group_brute(E, target) == _quad_full_axioms(E, target), (E, target)

    def test_rank_three_splitting_by_hand(self):
        # Z/8, Z/8, Z/16 from the factors 4, 4, 8 and Z/4 from each of the
        # pairs gcd(4, 4), gcd(4, 8), gcd(4, 8)
        assert quad_group(FinAbGroup((4, 4, 8)), CIRCLE) == FinAbGroup((4, 4, 4, 8, 8, 16))

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            quad_group(FinAbGroup((2,)), "Z3")


class TestQuotients:
    def test_cyclic_quotient(self):
        q = quotient_by_subgroup_image(GroupExpr.of(FinAbGroup((4,))), [(2,)])
        assert q.finite == FinAbGroup((2,))

    def test_diagonal_quotient(self):
        q = quotient_by_subgroup_image(GroupExpr.of(FinAbGroup((2, 2))), [(1, 1)])
        assert q.finite == FinAbGroup((2,))

    def test_opaque_and_circle_parts_pass_through(self):
        expr = GroupExpr(finite=FinAbGroup((4,)), circle_rank=1, opaque=("SW",))
        q = quotient_by_subgroup_image(expr, [(2,)])
        assert q.circle_rank == 1 and q.opaque == ("SW",)

    def test_generator_outside_group_rejected(self):
        with pytest.raises(ValueError):
            quotient_by_subgroup_image(GroupExpr.of(FinAbGroup((2,))), [(3,)])


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Z/2", (2,)),
            ("Z2", (2,)),
            ("Z/2 x Z/4", (2, 4)),
            ("Z/2 ⊕ Z/4", (2, 4)),
            ("Z/2 x Z/3", (6,)),
            ("0", ()),
            ("1", ()),
        ],
    )
    def test_literals(self, text, expected):
        assert parse_group(text) == FinAbGroup(expected)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_group("Z/x")

    @pytest.mark.parametrize("text", ["Z/2 x", "x Z/2", "Z/2 x x Z/4", "Z/2 ⊕", "× Z/2", "x"])
    def test_dangling_separator_rejected(self, text):
        for parse in (parse_group, parse_expr):
            with pytest.raises(ValueError, match="cannot parse group factor ''"):
                parse(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("C^x", GroupExpr(circle_rank=1)),
            ("C^x × Z/2", GroupExpr(FinAbGroup((2,)), 1)),
            ("Z/2 x C^x x C^x", GroupExpr(FinAbGroup((2,)), 2)),
            ("SW2 ⊕ SW x Z2", GroupExpr(FinAbGroup((2,)), 0, ("SW", "SW2"))),
            ("Z/2 × Z/4", GroupExpr.of(FinAbGroup((2, 4)))),
            ("0", GroupExpr.zero()),
        ],
    )
    def test_table_entry_literals(self, text, expected):
        assert parse_expr(text) == expected

    @pytest.mark.parametrize("text", ["C^x", "Z/2 x C^x", "SW", "Z/4 x SW2"])
    def test_group_refuses_table_entry_factors(self, text):
        with pytest.raises(ValueError, match="is not a finite group"):
            parse_group(text)

    @given(st.lists(st.integers(1, 64), max_size=4).map(FinAbGroup.from_factors))
    def test_group_round_trip(self, G):
        assert parse_group(str(G)) == G

    @given(
        st.lists(st.integers(1, 64), max_size=3).map(FinAbGroup.from_factors),
        st.integers(0, 2),
        st.lists(st.sampled_from(["SW", "SW2"]), max_size=2),
    )
    def test_table_entry_round_trip(self, G, circle_rank, opaque):
        expr = GroupExpr(G, circle_rank, tuple(opaque))
        assert parse_expr(str(expr)) == expr
