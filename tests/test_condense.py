import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_package_caches
from surfcond import condense
from surfcond.abelian import FinAbGroup, GroupExpr, parse_group
from surfcond.acceptance import orbit_count
from surfcond.ahss import run_ahss
from surfcond.cli import _survey_groups
from surfcond.condense import (
    STATISTICS,
    SkeletalCategory,
    condense_group_algebra,
    condense_phi,
    obstruction_verdict,
    parse_descriptor,
    parse_subgroup,
)

small_groups = st.lists(st.sampled_from([2, 3, 4, 6]), min_size=1, max_size=2).map(
    FinAbGroup.from_factors
)


class TestDescriptors:
    def test_parse_and_describe(self):
        cat = parse_descriptor("braided; pi0=Z/4; id=2Rep(S3); fermionic=no")
        assert cat.level == "braided"
        assert cat.pi0 == FinAbGroup((4,))
        assert not cat.strongly_fusion
        assert cat.describe() == "braided; pi0=Z/4; id=2Rep(S3); fermionic=no"

    def test_fermionic_identity_forces_statistic(self):
        cat = parse_descriptor("symmetric; pi0=Z/2; id=2Rep(S3,z)")
        assert cat.statistic == "fermionic"
        assert parse_descriptor("fusion; id=2SVec").statistic == "fermionic"

    def test_bad_tokens_rejected(self):
        with pytest.raises(ValueError):
            parse_descriptor("weird; pi0=Z/2")
        with pytest.raises(ValueError):
            parse_descriptor("braided; color=red")
        with pytest.raises(ValueError):
            SkeletalCategory("fusion", "anyonic", "2Vec")

    @pytest.mark.parametrize("flag", ["ye", "", "maybe", "2", "fermionic"])
    def test_unknown_fermionic_flag_rejected(self, flag):
        with pytest.raises(ValueError, match="is not one of yes/no/true/false/1/0"):
            parse_descriptor(f"braided; pi0=Z/4; id=2Rep(S3); fermionic={flag}")

    @pytest.mark.parametrize("identity", ["2SVec", "2Rep(S3,z)"])
    @pytest.mark.parametrize("flag", ["no", "False", "0"])
    def test_bosonic_flag_beside_fermionic_identity_rejected(self, identity, flag):
        with pytest.raises(ValueError, match="contradicts the fermionic identity"):
            parse_descriptor(f"braided; pi0=Z/2; id={identity}; fermionic={flag}")
        assert parse_descriptor(f"braided; id={identity}; fermionic=yes").statistic == "fermionic"

    @pytest.mark.parametrize("identity", ["2SVec", "2Rep(S3,z)", "2Rep(G,z)"])
    def test_category_rejects_a_bosonic_statistic_with_a_fermionic_identity(self, identity):
        with pytest.raises(ValueError, match="contradicts the fermionic identity"):
            SkeletalCategory("fusion", "bosonic", identity)
        assert SkeletalCategory.of("fusion", identity, FinAbGroup.trivial()).statistic == "fermionic"

    @pytest.mark.parametrize("identity", ["2Vec", "2Rep(S3)"])
    def test_statistic_of_a_bosonic_identity_defaults_to_bosonic(self, identity):
        assert SkeletalCategory.of("fusion", identity, FinAbGroup.trivial()).statistic == "bosonic"
        cat = SkeletalCategory.of("fusion", identity, FinAbGroup.trivial(), fermionic=True)
        assert cat.statistic == "fermionic"

    @pytest.mark.parametrize("text", [
        "fusion", "braided; pi0=Z/4; id=2Rep(S3); fermionic=no",
        "sylleptic; pi0=Z/2 x Z/4; fermionic=TRUE", "symmetric; id=2SVec",
        "braided; pi0=Z/2; id=2Rep(S3,z); fermionic=1", "fusion; id=2Rep(G); fermionic=0",
    ])
    def test_describe_parses_back_to_the_same_category(self, text):
        cat = parse_descriptor(text)
        assert parse_descriptor(cat.describe()) == cat

    @pytest.mark.parametrize("tag", ["garbage", "2Rep()", "2Rep(,z)", "2Rep(S3", "Rep(S3)"])
    def test_unknown_identity_tag_rejected(self, tag):
        with pytest.raises(ValueError, match="unknown identity component tag"):
            SkeletalCategory("fusion", "bosonic", tag)
        with pytest.raises(ValueError, match="unknown identity component tag"):
            parse_descriptor(f"fusion; id={tag}")

    def test_components_default_to_the_trivial_group(self):
        cat = SkeletalCategory("fusion", "bosonic", "2Rep(S3)")
        assert cat.pi0 == FinAbGroup.trivial()
        assert cat.n_components == 1
        assert cat.describe() == "fusion; pi0=0; id=2Rep(S3); fermionic=no"
        assert condense_phi(cat).n_components == 1


class TestSubgroups:
    def test_literals(self):
        pi0 = FinAbGroup((2, 4))
        assert parse_subgroup(pi0, "1") == []
        assert parse_subgroup(pi0, "Z/2") == [(0, 2)]
        assert parse_subgroup(pi0, "Z/4") == [(0, 1)]
        assert parse_subgroup(pi0, "Z/2 diag") == [(1, 2)]
        assert parse_subgroup(pi0, "Z/2 x Z/4") == [(1, 0), (0, 1)]

    def test_bad_literals(self):
        pi0 = FinAbGroup((2, 4))
        with pytest.raises(ValueError):
            parse_subgroup(pi0, "Z/8")
        with pytest.raises(ValueError):
            parse_subgroup(pi0, "Z/4 diag")


class TestOrbits:
    @given(small_groups, st.data())
    @settings(max_examples=40)
    def test_orbit_count_is_index_and_burnside(self, pi0, data):
        elems = list(pi0.elements())
        gens = data.draw(st.lists(st.sampled_from(elems), max_size=2))
        # subgroup generated by gens
        H = {(0,) * len(pi0.invariant_factors)}
        frontier = list(H)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = pi0.add(x, g)
                if y not in H:
                    H.add(y)
                    frontier.append(y)
        orbits = orbit_count(pi0, gens)
        assert orbits == pi0.order // len(H)
        # Burnside: average number of fixed points over H (translation by
        # h != 0 fixes nothing, h = 0 fixes everything)
        fixed = sum(pi0.order if not any(h) else 0 for h in H)
        assert orbits == fixed // len(H)


class TestGroupAlgebraCondensation:
    def test_z4_mod_z2(self):
        cat = SkeletalCategory("braided", "bosonic", "2Vec", pi0=FinAbGroup((4,)))
        out = condense_group_algebra(cat, "Z/2")
        assert out.pi0 == FinAbGroup((2,))
        assert out.n_components == 2
        assert out.level == "fusion"  # braided degrades

    def test_full_gauging(self):
        cat = SkeletalCategory("symmetric", "bosonic", "2Vec", pi0=FinAbGroup((2, 4)))
        out = condense_group_algebra(cat, "Z/2 x Z/4")
        assert out.n_components == 1
        assert out.level == "symmetric"  # symmetric is stable

    def test_sylleptic_central_vs_not(self):
        cat = SkeletalCategory("sylleptic", "bosonic", "2Vec", pi0=FinAbGroup((4,)))
        assert condense_group_algebra(cat, "Z/2").level == "braided"


class TestPhiCondensation:
    def test_bosonic_rep_becomes_vec(self):
        cat = parse_descriptor("braided; pi0=Z/2; id=2Rep(S3); fermionic=no")
        out = condense_phi(cat)
        assert out.identity == "2Vec"
        assert out.strongly_fusion
        assert out.level == "fusion"
        assert out.pi0 == cat.pi0

    def test_fermionic_rep_becomes_svec(self):
        cat = parse_descriptor("symmetric; pi0=Z/2; id=2Rep(S3,z)")
        out = condense_phi(cat)
        assert out.identity == "2SVec"
        assert out.statistic == "fermionic"
        assert out.level == "symmetric"

    def test_needs_rep_identity(self):
        with pytest.raises(ValueError):
            condense_phi(parse_descriptor("fusion; id=2Vec"))


class TestObstructionVerdicts:
    def test_symmetric_fermionic(self):
        v = obstruction_verdict(parse_group("Z/2"), "fermionic", "symmetric")
        assert "2SVec[Z/2]" in v.verdict

    @pytest.mark.parametrize(
        "group,expected",
        [("Z/2", "Z/2"), ("Z/4", "Z/2"), ("Z/2 x Z/4", "Z/2 x Z/2"), ("Z/6", "Z/2"), ("Z/3", "0")],
    )
    def test_symmetric_bosonic_group(self, group, expected):
        v = obstruction_verdict(parse_group(group), "bosonic", "symmetric")
        assert v.group == expected

    def test_braided_fermionic_cyclic_two_part_is_condensable(self):
        v = obstruction_verdict(parse_group("Z/8"), "fermionic", "braided")
        assert v.group == "0"
        assert "vacuum-condensable" in v.verdict

    def test_braided_fermionic_two_even_factors_obstructed(self):
        v = obstruction_verdict(parse_group("Z/2 x Z/2"), "fermionic", "braided")
        assert "obstructed" in v.verdict
        assert v.details["split"]["verdict"] == "nonzero"

    def test_braided_fermionic_odd_reports_group(self):
        v = obstruction_verdict(parse_group("Z/3"), "fermionic", "braided")
        assert v.group == "0"
        assert "H^5" in v.verdict

    def test_braided_bosonic_splitting(self):
        v = obstruction_verdict(parse_group("Z/2"), "bosonic", "braided")
        assert "W^5(pt) = Z/2" in v.verdict
        assert v.details["twisted_point_report"]["verdict"] == "Z/2"

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            obstruction_verdict(parse_group("Z/2"), "anyonic", "braided")
        with pytest.raises(ValueError):
            obstruction_verdict(parse_group("Z/2"), "bosonic", "fusion")


Z7 = GroupExpr.of(FinAbGroup((7,)))

# branch: (query, the computations it calls, those whose result moves its
# verdict or group).  A lock on what each branch reads today, not a claim
# that it reads enough: the two-even-factors verdict ignores its split
# (ROADMAP item 1), and symmetric/bosonic reads its split only into a
# provenance line (item 9); the fixes flip those pairs and update this table.
SENSITIVITY = {
    "symmetric/fermionic": (("Z/2", "fermionic", "symmetric"), set(), set()),
    "symmetric/bosonic": (("Z/2", "bosonic", "symmetric"),
                          {"circle_row", "product_split"}, {"circle_row", "product_split"}),
    "braided/fermionic/odd": (("Z/3", "fermionic", "braided"), {"circle_row"}, {"circle_row"}),
    "braided/fermionic/cyclic-2-part": (("Z/2", "fermionic", "braided"),
                                        {"product_split"}, {"product_split"}),
    "braided/fermionic/two-even-factors": (("Z/2 x Z/2", "fermionic", "braided"),
                                           {"product_split"}, set()),
    "braided/bosonic": (("Z/2", "bosonic", "braided"), {"run_ahss"}, {"run_ahss"}),
}


def _moved_to_z7(name, result):
    """A copy of a computation's result whose answer is Z/7: every circle
    entry, the split's verdict, or the report's verdict and group."""
    if name == "circle_row":
        return result.replace(entries=dict.fromkeys(result.entries, Z7))
    if name == "product_split":
        return {**result, "verdict": str(Z7)}
    page, report = result
    return page, report.replace(verdict=str(Z7), group=Z7)


@pytest.mark.parametrize("branch", SENSITIVITY)
def test_what_each_verdict_branch_reads(branch, monkeypatch):
    (group, statistic, level), calls, moves = SENSITIVITY[branch]
    E = parse_group(group)
    base = obstruction_verdict(E, statistic, level)
    assert base.branch == branch
    called, moved = set(), set()
    for name in ("circle_row", "product_split", "run_ahss"):
        def perturbed(*args, _real=getattr(condense, name), _name=name, **kwargs):
            called.add(_name)
            return _moved_to_z7(_name, _real(*args, **kwargs))

        with monkeypatch.context() as patch:
            patch.setattr(condense, name, perturbed)
            v = obstruction_verdict(E, statistic, level)
        assert v.branch == branch
        if (v.verdict, v.group) != (base.verdict, base.group):
            moved.add(name)
    assert (called, moved) == (calls, moves)


class TestReportCache:
    @given(st.lists(
        st.tuples(st.sampled_from(_survey_groups(32)),
                  st.sampled_from(STATISTICS),
                  st.sampled_from(["braided", "symmetric"])),
        min_size=1, max_size=4,
    ).map(lambda queries: queries + queries[:1]))
    @settings(max_examples=40)
    def test_warm_verdicts_equal_cold_ones(self, queries):
        warm = [obstruction_verdict(*q).to_dict() for q in queries]
        for q, payload in zip(queries, warm):
            clear_package_caches()
            assert obstruction_verdict(*q).to_dict() == payload, q

    def test_reports_are_shared_and_frozen(self):
        args = (FinAbGroup.cyclic(2), 2, "SW", 5)
        report = run_ahss(*args, twist=True, d5_zero=True)[1]
        assert run_ahss(*args, twist=True, d5_zero=True)[1] is report
        with pytest.raises(AttributeError):
            report.verdict = "0"
        clear_package_caches()
        assert run_ahss(*args, twist=True, d5_zero=True)[1] is not report
