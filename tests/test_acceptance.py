"""Acceptance gate: one test per end-to-end criterion, printing one
PASS/FAIL line each so the run log doubles as a checklist."""

from hypothesis import given
from hypothesis import strategies as st

from surfcond import abelian, acceptance, ahss
from surfcond.abelian import FinAbGroup, GroupExpr, parse_group
from surfcond.acceptance import CHECKS, _check
from surfcond.em_cohomology import EmSpace, algebra_for
from surfcond.gf2 import Gf2Matrix
from surfcond.steenrod import SteenrodMonomial, SteenrodWord

CHECK_MAP = dict(CHECKS)


def _run(name):
    result = _check(name, CHECK_MAP[name])
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.ok, result.detail
    return result


def test_degree5_superwitt_vanishing_cyclic():
    _run("degree-5 super-Witt vanishing, cyclic 2-groups")


def test_twisted_degree5_point():
    _run("twisted degree-5 run over the fermion-parity base")


def test_degree7_supercohomology_and_product_split():
    _run("degree-7 supercohomology vanishing and product split")


def test_bosonic_symmetric_obstruction_groups():
    _run("bosonic symmetric obstruction groups")


def test_smash_degree5_margolis_certificates():
    _run("smash degree-5 Margolis certificates")


def test_condensation_component_bookkeeping():
    _run("condensation component bookkeeping")


def test_property_suites():
    _run("property suites")


def test_property_suites_keep_their_coverage():
    # a speed-up that shrinks an oracle changes these counts
    ok, detail = acceptance.check_property_suites()
    assert ok, detail
    for count in (
        "adem oracle: ok (100 inadmissible pairs verified",
        "cartan: ok (676 Cartan instances checked)",
        "d2 squared: ok (6 composable d2 chains asserted zero across 6 runs)",
        "functor brute force: ok (283 hom/Ext pairs cross-checked and 18 Quad groups",
        "poincare convolution: ok (4 product series",
    ):
        assert count in detail


def test_every_criterion_is_covered():
    tested = {
        "degree-5 super-Witt vanishing, cyclic 2-groups",
        "twisted degree-5 run over the fermion-parity base",
        "degree-7 supercohomology vanishing and product split",
        "bosonic symmetric obstruction groups",
        "smash degree-5 Margolis certificates",
        "condensation component bookkeeping",
        "property suites",
    }
    assert tested == set(CHECK_MAP)


def test_selftest_runs_each_query_once(monkeypatch):
    # 9 distinct spectral-sequence queries, some asked under several spellings
    # (twist=False spelled out or left to its default) and by several checks
    ahss._run_ahss.cache_clear()
    real, calls = ahss.assemble_e2, []
    monkeypatch.setattr(ahss, "assemble_e2", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert all(result.ok for result in acceptance.run_all())
    assert len(calls) == 9


# ---------------------------------------------------------------------------
# The arguments that let the oracles skip work


def _swap(poly, n):
    """x <-> y on a degree-n polynomial of _SqOnPolynomials: bit p to bit n - p."""
    return sum(1 << (n - p) for p in range(n + 1) if poly >> p & 1)


@given(
    st.lists(st.integers(0, 8), max_size=3),
    st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n + 1) - 1))),
)
def test_polynomial_squares_commute_with_the_swap(indices, poly_of_degree):
    # check_adem_oracle evaluates x^e1 y^e2 with e1 <= e2 only
    n, poly = poly_of_degree
    oracle = acceptance._SqOnPolynomials(12 + 3 * 8)
    out = oracle.act(indices, n, poly)
    assert oracle.act(indices, n, _swap(poly, n)) == _swap(out, n + sum(indices))


def test_functor_check_enumerates_each_quad_group_once():
    # 9 non-cyclic groups, each solved for the circle and the Z2 target
    abelian._quad_relations.cache_clear()
    ok, detail = acceptance.check_functor_brute_force()
    assert ok, detail
    info = abelian._quad_relations.cache_info()
    assert (info.misses, info.hits) == (9, 9)


# ---------------------------------------------------------------------------
# Each oracle sub-check can fail: a wrong answer under test is caught.


def test_functor_check_catches_a_wrong_quad_brute_force(monkeypatch):
    real = abelian.quad_group_brute
    bad = parse_group("Z/2 x Z/4")

    def wrong(E, target):
        q = real(E, target)
        return FinAbGroup.from_factors(q.invariant_factors + (2,)) if E == bad else q

    # the brute force is wrong wherever the check can reach it; quad_group is
    # the closed form and never calls it, so the comparison must catch it
    monkeypatch.setattr(abelian, "quad_group_brute", wrong)
    monkeypatch.setattr(acceptance, "quad_group_brute", wrong)
    ok, detail = acceptance.check_functor_brute_force()
    assert not ok
    assert detail.startswith("Quad(Z/2 x Z/4, ")


def test_functor_check_catches_a_wrong_ext_group(monkeypatch):
    real = acceptance.ext_group
    bad = (parse_group("Z/2"), parse_group("Z/4"))

    def wrong(A, B):
        ext = real(A, B)
        return FinAbGroup.from_factors(ext.invariant_factors + (2,)) if (A, B) == bad else ext

    monkeypatch.setattr(acceptance, "ext_group", wrong)
    ok, detail = acceptance.check_functor_brute_force()
    assert not ok
    assert detail.startswith("Ext(")


def test_functor_check_catches_a_wrong_hom_order(monkeypatch):
    real = acceptance.hom_group
    monkeypatch.setattr(
        acceptance, "hom_group", lambda A, B: FinAbGroup.cyclic(real(A, B).order + 1)
    )
    ok, detail = acceptance.check_functor_brute_force()
    assert not ok
    assert detail.startswith("hom(")


def test_adem_oracle_catches_a_term_dropped_consistently(monkeypatch):
    # Sq2 Sq3 = Sq4 Sq1 + Sq5; drop Sq5 from both the expansion and the
    # normalization, so only the evaluation on F2[x, y] can see it
    real_expand, real_normalize = acceptance.adem_expand, acceptance.adem_normalize
    dropped = SteenrodMonomial((5,))

    def expand(a, b):
        terms = real_expand(a, b)
        return terms - {dropped.squares} if (a, b) == (2, 3) else terms

    def normalize(word):
        normal = real_normalize(word)
        if word == SteenrodWord.sq(2, 3):
            return SteenrodWord(normal.monomials - {dropped})
        return normal

    monkeypatch.setattr(acceptance, "adem_expand", expand)
    monkeypatch.setattr(acceptance, "adem_normalize", normalize)
    ok, detail = acceptance.check_adem_oracle()
    assert not ok
    assert detail.startswith("evaluation mismatch at (2,3)")


def test_cartan_check_catches_a_wrong_square_on_the_product(monkeypatch):
    # Sq2 on degree 4 of K(Z/2,2) x K(Z/2,2), where every class is a product
    # of two degree-2 classes, has one bit of its first row flipped
    alg = algebra_for(EmSpace.single(2, 2).product(EmSpace.single(2, 2)), 12)
    sq2 = alg.sq_matrix(2, 4)
    flipped = Gf2Matrix((sq2.rows[0] ^ 1,) + sq2.rows[1:], sq2.ncols)
    monkeypatch.setitem(alg._sq_matrix_cache, (2, 4), flipped)
    ok, detail = acceptance.check_cartan_products()
    assert not ok
    assert detail.startswith("Cartan fails for Sq")


# ---------------------------------------------------------------------------
# Each selftest check can fail: a named mutant of what it guards is caught.


def test_superwitt_check_catches_a_z4_report_that_answers_z2(monkeypatch):
    real, Z4 = acceptance.run_ahss, FinAbGroup.cyclic(4)

    def mutant(E, *args, **kwargs):
        page, report = real(E, *args, **kwargs)
        if E == Z4:
            report = report.replace(verdict="Z/2", group=GroupExpr.of(FinAbGroup.cyclic(2)))
        return page, report

    monkeypatch.setattr(acceptance, "run_ahss", mutant)
    ok, detail = acceptance.check_superwitt_degree5_cyclic()
    assert ok is False
    assert "k=2: Z/2" in detail


def test_twisted_point_check_catches_a_quad_group_of_order_2(monkeypatch):
    monkeypatch.setattr(acceptance, "quad_group", lambda E, target: FinAbGroup.cyclic(2))
    ok, detail = acceptance.check_twisted_degree5_point()
    assert ok is False
    assert "quad(Z/2, circle)=Z/2" in detail


def test_supercohomology_check_catches_a_split_verdict_of_z2(monkeypatch):
    real = acceptance.product_split
    monkeypatch.setattr(acceptance, "product_split",
                        lambda *args, **kwargs: {**real(*args, **kwargs), "verdict": "Z/2"})
    ok, detail = acceptance.check_supercohomology_degree7()
    assert ok is False
    assert "Z/2 x Z/2 split: Z/2" in detail


def test_smash_check_catches_a_nonzero_q1(monkeypatch):
    real = ahss.margolis_homology

    def mutant(sq, spans):
        q0, q1 = real(sq, spans)
        return q0, dict.fromkeys(q1, 1)

    monkeypatch.setattr(ahss, "margolis_homology", mutant)
    ok, detail = acceptance.check_smash_margolis()
    assert ok is False
    assert "Q1=[1]" in detail


def test_bookkeeping_check_catches_a_condensation_that_keeps_pi0(monkeypatch):
    real = acceptance.condense_group_algebra
    monkeypatch.setattr(acceptance, "condense_group_algebra",
                        lambda cat, subgroup: real(cat, subgroup).replace(pi0=cat.pi0))
    ok, detail = acceptance.check_condensation_bookkeeping()
    assert ok is False
    assert detail.startswith("Z/4 after Vec[Z/2]: 4 components")


def test_d2_squared_check_catches_runs_that_check_no_chain(monkeypatch):
    real = acceptance.run_ahss

    def mutant(*args, **kwargs):
        page, report = real(*args, **kwargs)
        log = tuple({**rec, "chains_checked": 0} if rec["kind"] == "d2_squared" else rec
                    for rec in page.log)
        return page.replace(log=log), report

    monkeypatch.setattr(acceptance, "run_ahss", mutant)
    ok, detail = acceptance.check_d2_squared()
    assert ok is False
    assert detail.startswith("0 composable d2 chains")


def test_poincare_check_catches_a_product_series_off_by_one(monkeypatch):
    real = acceptance.poincare_series

    def mutant(space, cap):
        series = real(space, cap)
        return series[:-1] + [series[-1] + 1] if len(space.factors) > 1 else series

    monkeypatch.setattr(acceptance, "poincare_series", mutant)
    ok, detail = acceptance.check_poincare_convolution()
    assert ok is False
    assert detail.startswith("convolution fails for K(Z/2,2) x K(Z/2,2)")
