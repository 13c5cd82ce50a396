"""The register of known wrong outputs: one test per defect.

Each test asserts the right value, and its docstring derives that value
without the code under test.  An open defect carries
``xfail(strict=True, raises=AssertionError, reason="ROADMAP item k")``, so
the tier-1 summary counts the open ones as "xfailed", and a fix turns into an
XPASS, which strict mode fails: the change that fixes a defect removes its
marker, so the entry runs as an ordinary test from then on.

``python -m pytest -q -rx tests/test_defects.py`` lists the open defects with
their reasons.

Homology facts used below, each from the universal coefficient theorem: with
c_q the number of p-primary cyclic summands of H_q(X; Z) for a space whose
rational homology vanishes above degree 0, dim H^q(X; F_p) = c_q + c_(q-1),
and for p = 2 the number of Z/2 summands of H_q is rank(Sq1: H^q -> H^(q+1)).

- K(Z/2, 2): H^*(F2) = F2[i2, Sq1 i2, Sq2 Sq1 i2, ...] (Serre) has dimensions
  1, 0, 1, 1, 1, 2, 2, 2, 3, 4 in degrees 0..9, so c_2..c_8 = 1, 0, 1, 1, 1,
  1, 2, and Sq1 has rank 1, 0, 0, 1, 1, 1, 1 on H^2..H^8.  So H_2..H_5 =
  Z/2, 0, Z/4 (= Gamma(Z/2), one summand, not Z/2), Z/2.
- K(Z/3, 2): H^*(F3) = F3[i2] (x) Lambda(beta i2) below degree 7 has
  dimension 1 in degrees 2..6, so H_2..H_5 = Z/3, 0, Z/3, 0; its mod-2
  cohomology is that of a point (Serre), so there is no 2-torsion.

C^x is divisible, so H^q(X; C^x) = Hom(H_q(X; Z), C^x), the dual of H_q.
"""

import json
import re

import pytest

from surfcond import abelian, acceptance, ahss, coefficients, condense
from surfcond.abelian import FinAbGroup, parse_group
from surfcond.ahss import product_split
from surfcond.cli import main
from surfcond.coefficients import _order2_bits, circle_row
from surfcond.condense import obstruction_verdict
from surfcond.em_cohomology import EmSpace, algebra_for
from surfcond.gf2 import Gf2Matrix


def _smash_rows(a, b, N):
    """(dim M^N, rank of Sq2 Sq2 Sq2 on M^N) for the reduced smash module M
    of K(Z/a, 2) and K(Z/b, 2): the basis monomials with generators from
    both factors, which Sq^i keeps among themselves."""
    X, Y = EmSpace.single(a, 2), EmSpace.single(b, 2)
    alg = algebra_for(X.product(Y), N + 6)
    on_x = [g.factor < len(X.factors) for g in alg.generators]
    top = alg.sq_matrix(2, N).then(alg.sq_matrix(2, N + 2)).then(alg.sq_matrix(2, N + 4))
    rows = [row for row, mono in zip(top.rows, alg.basis(N))
            if len({on_x[gi] for gi, _e in mono}) == 2]
    return len(rows), Gf2Matrix.from_rows(rows, top.ncols).rank()


@pytest.mark.parametrize("a, b, counts", [
    (2, 2, [(1, 1), (2, 1), (3, 1), (6, 2)]),
    (2, 4, [(1, 1), (2, 1), (3, 0), (6, 1)]),
    (4, 4, [(1, 0), (2, 0), (3, 0), (6, 0)]),
])
def test_top_element_ranks_on_the_smash(a, b, counts):
    """The input of the free-rank entries below, in degrees 4..7.

    A(1) is a Frobenius algebra whose socle is spanned by its top element
    Sq5 Sq1 = Sq2 Sq2 Sq2.  A class x with Sq2 Sq2 Sq2 x != 0 generates a
    copy of A(1) (every nonzero left ideal contains the socle), which is
    injective and so splits off; on a module with no free summand the top
    element acts as zero.  So the free summands generated in degree N number
    rank(Sq2 Sq2 Sq2: M^N -> M^(N+6)).
    """
    assert [_smash_rows(a, b, N) for N in range(4, 8)] == counts


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_two_even_factors_verdict_agrees_with_its_split():
    """Z/2 x Z/4, braided/fermionic: the verdict may claim obstructed
    classes only when the SW^5 split that it carries says "nonzero".

    The branch's only computation is that split.  When the split is
    "inconclusive" (its smash summand "unknown"), a verdict that asserts
    obstructed classes says more than the computation behind it.
    """
    v = obstruction_verdict(parse_group("Z/2 x Z/4"), "fermionic", "braided")
    split = v.details["split"]["verdict"]
    assert v.verdict.startswith("obstructed") == (split == "nonzero"), (v.verdict, split)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_no_free_a1_classes_claimed_for_z4_x_z4():
    """Z/4 x Z/4, braided/fermionic: no free A(1) class to claim.

    Sq2 Sq2 Sq2 has rank 0 on the smash of two K(Z/4, 2) in degrees 4..7
    (test_top_element_ranks_on_the_smash), so no free A(1) summand is
    generated there, in degree 5 or in any degree up to 7.
    """
    v = obstruction_verdict(parse_group("Z/4 x Z/4"), "fermionic", "braided")
    assert "free A(1)" not in v.verdict, v.verdict


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_free_rank_of_the_z2_smash_in_degree_5_is_one():
    """SW over Z/2 x Z/2 at n = 2, N = 5: one free A(1) class, not two.

    The smash of two K(Z/2, 2) has two degree-5 classes, Sq1 i2 * i2' and
    i2 * Sq1 i2'.  Their sum is Sq1(i2 * i2'), which lies in the free
    summand generated by i2 * i2' in degree 4, and there Sq2 Sq2 Sq2 Sq1 =
    Sq5 Sq1 Sq1 = 0.  So the top element has rank 1 on degree 5
    (test_top_element_ranks_on_the_smash): one free summand is generated in
    degree 5.
    """
    ps = product_split(parse_group("Z/2 x Z/2"), "SW", 2, 5)
    (smash,) = [s for s in ps["summands"] if s["summand"].startswith("smash")]
    assert re.match(r"1 free A\(1\) class\b", smash.get("note", "")), smash


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 1 and 11")
def test_triple_smash_of_three_factors_is_listed():
    """SH over (Z/2)^3 at n = 2, N = 6: eight stable summands.

    The suspension spectrum of (X x Y x Z)_+ splits as the wedge, over the
    subsets S of {X, Y, Z}, of the smash over S: the point, three factors,
    three pair smashes and one triple smash.  The triple smash has its
    bottom class i2 * i2' * i2'' in degree 6, so it belongs at N = 6.
    """
    ps = product_split(parse_group("Z/2 x Z/2 x Z/2"), "SH", 2, 6)
    assert len(ps["summands"]) == 8, [s["summand"] for s in ps["summands"]]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 1 and 11")
def test_summand_labels_are_distinct():
    """SH over (Z/2)^3 at n = 2, N = 6: each summand is one subset of the
    factors, so a label that names its subset names one summand.  The
    three pair smashes are three different subsets."""
    labels = [s["summand"] for s in product_split(parse_group("Z/2 x Z/2 x Z/2"), "SH", 2, 6)
              ["summands"]]
    assert len(set(labels)) == len(labels), labels


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_degree5_circle_group_of_z2_x_z2():
    """H^5(K(Z/2 x Z/2, 2); C^x) = (Z/2)^3.

    Kunneth over Z: H_5(X x X) is the sum of H_i (x) H_j over i + j = 5 and
    Tor(H_i, H_j) over i + j = 4.  With H_0..H_5 = Z, 0, Z/2, 0, Z/4, Z/2
    for X = K(Z/2, 2) that is Z/2 (0,5), Z/2 (5,0) and Tor(Z/2, Z/2) = Z/2
    (2,2); every other term has a zero side or a free side under Tor.
    """
    assert circle_row(parse_group("Z/2 x Z/2"), 2).entry(5).finite == FinAbGroup((2, 2, 2))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_degree8_circle_group_of_z2():
    """H^8(K(Z/2, 2); C^x) = Z/2 x Z/8, the dual of H_8(K(Z/2, 2); Z).

    The module docstring gives c_8 = 2 cyclic summands, of which
    rank(Sq1 on H^8) = 1 is Z/2: two summands, so the table's single Z/2 is
    wrong whatever the orders.  The other summand is Z/8, the divided power
    gamma_4(i2) of Eilenberg-MacLane's bar construction ("On the groups
    H(Pi, n), II", Ann. of Math. 60, 1954); a third-order Bockstein
    decides it.
    """
    assert circle_row(FinAbGroup((2,)), 2).entry(8).finite == FinAbGroup((2, 8))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_z3_x_z3_braided_fermionic_group_is_z3():
    """Braided/fermionic over Z/3 x Z/3 reports H^5(K(E, 2); C^x) = Z/3.

    Kunneth with H_0..H_5 = Z, 0, Z/3, 0, Z/3, 0 for K(Z/3, 2): no tensor
    term of degree 5 survives, and Tor(H_2, H_2) = Tor(Z/3, Z/3) = Z/3 is
    the only Tor term of degree 4.  So H_5 = Z/3 and its dual is Z/3, not
    (Z/3)^4.
    """
    v = obstruction_verdict(parse_group("Z/3 x Z/3"), "fermionic", "braided")
    assert v.group == "Z/3", v.group


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_z3_x_z6_is_not_vacuum_condensable():
    """Braided/fermionic over Z/3 x Z/6 = Z/3 x Z/3 x Z/2: reduced SW^5 is
    Z/3, so vacuum condensation is obstructed.

    The smash K(Z/3, 2) ^ K(Z/3, 2) is 3-connected and F2-acyclic, so on it
    the mod-2 rows vanish and the SW row first meets total degree 8.  Its
    circle row has H^5 = Z/3 (the Z/3 x Z/3 entry above, all of it the
    cross term), and nothing reaches (5, 0) or leaves it.  The other
    summands give 0 in degree 5: SW^5(K(Z/2, 2)) = 0 (selftest), H_5(K(Z/3,
    2)) = 0, the smash with the Z/2 factor has H_5 = Z/2 (x) 0 + 0 (x) Z/3 +
    Tor(Z/2, Z/3) = 0 and no mod-2 cohomology, and the triple smash starts
    in degree 6.
    """
    v = obstruction_verdict(parse_group("Z/3 x Z/6"), "fermionic", "braided")
    assert "vacuum-condensable" not in v.verdict and v.group == "Z/3", (v.verdict, v.group)


def test_z6_answers_superwitt_degree_5(capsys):
    """`ahss --spectrum SW --group Z/6 --space-degree 2 --total-degree 5`
    answers 0, as Z/2 does.

    K(Z/6, 2) = K(Z/2, 2) x K(Z/3, 2) stably splits into the point,
    K(Z/2, 2), K(Z/3, 2) and their smash.  The last two have no mod-2
    cohomology, and their degree-5 homology is H_5(K(Z/3, 2)) = 0 and
    Z/2 (x) 0 + 0 (x) Z/3 + Tor(Z/2, Z/3) = 0.  So SW^5 of K(Z/6, 2) is that
    of K(Z/2, 2), which is 0; the one comparison image the run reads
    beyond Z/2's degree-5 data, rho(Sq1(i2)^2), vanishes because
    Sq1(i2)^2 = Sq1(i2 Sq1 i2) is in the image of Sq1.
    """
    code = main(["ahss", "--spectrum", "SW", "--group", "Z/6", "--space-degree", "2",
                 "--total-degree", "5", "--json"])
    out = capsys.readouterr().out
    assert code == 0, code
    assert json.loads(out)["result"]["verdict"] == "0"


@pytest.mark.parametrize("factors, image", [((2, 8), (1,)), ((2,), (1, 0, 5))])
def test_order2_bits_refuses_an_image_of_the_wrong_length(factors, image):
    """A comparison image names an element of the entry's group: one
    coordinate per invariant factor.  (1,) on Z/2 x Z/8 and (1, 0, 5) on
    Z/2 are not elements of those groups; zip against the invariant factors
    used to read both as bit 0 (ROADMAP item 15)."""
    with pytest.raises(ValueError, match="one coordinate per invariant factor"):
        _order2_bits(FinAbGroup(factors), image)


def test_symmetric_bosonic_verdict_moves_with_its_split(monkeypatch):
    """Symmetric/bosonic over Z/2: the sentence "fibre 2-functor to 2SVec
    unobstructed" is drawn from the SH^7(E[4]) split that the branch
    computes.  Were that split Z/7, the sentence names it instead, so the
    verdict moves (ROADMAP item 9)."""
    E = parse_group("Z/2")
    before = obstruction_verdict(E, "bosonic", "symmetric")
    real = condense.product_split
    monkeypatch.setattr(condense, "product_split",
                        lambda *a, **k: {**real(*a, **k), "verdict": "Z/7"})
    after = obstruction_verdict(E, "bosonic", "symmetric")
    assert (after.verdict, after.group) != (before.verdict, before.group)


@pytest.fixture
def fresh_circle_rows():
    """Empty the memos that hold circle rows before and after a test that
    patches what they are built from."""
    coefficients._circle_row.cache_clear()
    ahss._run_ahss.cache_clear()
    yield
    coefficients._circle_row.cache_clear()
    ahss._run_ahss.cache_clear()


def test_bosonic_symmetric_check_fails_under_a_wrong_two_torsion(monkeypatch, fresh_circle_rows):
    """The elements of order <= 2 in Z/2 x Z/4 are (a, 2b), four of them:
    the 2-torsion subgroup is Z/2 x Z/2, so the degree-7 group there is
    (Z/2)^2.  A check that still passes when the helper says Z/2 compares
    the table with the formula it was typed from."""
    real, bad = abelian.two_torsion, parse_group("Z/2 x Z/4")

    def wrong(A):
        return FinAbGroup((2,)) if A == bad else real(A)

    monkeypatch.setattr(coefficients, "two_torsion", wrong)
    ok, detail = acceptance.check_bosonic_symmetric_obstruction()
    assert not ok, detail
