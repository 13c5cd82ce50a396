import json
from pathlib import Path
from types import MappingProxyType

import pytest

from surfcond import ahss
from surfcond.abelian import FinAbGroup, GroupExpr, UnsupportedRangeError, parse_group
from surfcond.ahss import (
    apply_d2,
    assemble_e2,
    page_to_dict,
    product_split,
    run_ahss,
    smash_freeness_check,
    total_degree_report,
)
from surfcond.cli import render_page_text
from surfcond.coefficients import CoeffOverrides
from surfcond.em_cohomology import EmSpace

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))


def d2_log(page):
    return {tuple(e["source"]): e for e in page.log if e["kind"] == "d2"}


class TestAssembly:
    def test_e2_entries_for_superwitt(self):
        page = assemble_e2(Z2, 2, "SW", 6)
        assert str(page.entry(4, 1)) == "Z/2"
        assert page_to_dict(page)["entries"]["4,1"]["basis"] == ["i2^2"]
        assert page.entry(0, 4).opaque == ("SW",)
        assert page.entry(2, 4).opaque == ("SW2",)
        assert page.entry(1, 4).is_zero  # H^1(K(Z2,2)) = 0
        assert page.entry(3, 0).is_zero  # circle row, odd degree
        assert page.entry(2, 3).is_zero  # zero coefficient row

    def test_two_even_factors_rejected(self):
        with pytest.raises(UnsupportedRangeError):
            assemble_e2(FinAbGroup((2, 2)), 2, "SW", 5)

    def test_short_spectrum_rejected(self):
        with pytest.raises(UnsupportedRangeError):
            assemble_e2(Z2, 2, "Spin", 9)

    def test_refusals_in_order(self):
        # an unknown spectrum first, then two even factors, then a short table
        with pytest.raises(UnsupportedRangeError, match="unknown spectrum 'KO'"):
            assemble_e2(FinAbGroup((2, 2)), 2, "KO", 9)
        with pytest.raises(UnsupportedRangeError, match="more than one 2-primary factor"):
            assemble_e2(FinAbGroup((2, 2)), 2, "Spin", 9)

    def test_spectrum_table_read_under_the_given_overrides(self):
        ov = CoeffOverrides(spectrum_overrides={"SH": {3: GroupExpr.of(FinAbGroup((2,)))}})
        assert assemble_e2(Z2, 2, "SH", 5).entry(0, 3).is_zero
        assert str(assemble_e2(Z2, 2, "SH", 5, ov).entry(0, 3)) == "Z/2"

    def test_missing_circle_data_raises(self):
        # the page keeps an untabulated circle entry as None (dumps show
        # "?"); the run refuses it where its report reads it
        assert assemble_e2(Z3, 2, "SH", 6).entry(6, 0) is None
        with pytest.raises(UnsupportedRangeError,
                           match=r"entry \(6,0\) in total degree 6 is not tabulated"):
            run_ahss(Z3, 2, "SH", 6)
        with pytest.raises(UnsupportedRangeError, match="no comparison data into H\\^7"):
            run_ahss(Z4, 2, "SW", 6)

    def test_untabulated_entry_off_the_diagonal_is_not_read(self):
        # K(Z/3 x Z/3, 4) has no degree-6 circle entry, but degree 7 reads
        # only (7,0) = dual of the 2-torsion subgroup = 0
        page3, report = run_ahss(FinAbGroup((3, 3)), 4, "SH", 7)
        assert page3.previous.entry(6, 0) is None
        assert report.verdict == "0"
        assert page_to_dict(page3)["entries"]["6,0"]["group"] == "?"


class TestD2:
    def test_twisted_unit_hits_fundamental_class(self):
        # d2 on the unit of (0,2) is iota itself under the fermion-parity twist
        page3, report = run_ahss(Z2, 2, "SW", 2, twist=True)
        log = d2_log(page3)
        assert log[(0, 2)]["rank"] == 1
        assert log[(0, 2)]["rule"] == "sq2_twisted"
        assert report.verdict == "0"

    def test_untwisted_unit_does_nothing(self):
        page3, report = run_ahss(Z2, 2, "SW", 2)
        log = d2_log(page3)
        assert log[(0, 2)]["rank"] == 0
        assert log[(0, 1)]["rank"] == 0
        assert "associated graded" in report.verdict
        assert sum(1 for e in report.entries if e[2] != "0") == 2

    def test_exponential_rule_into_circle_row(self):
        # d2: (4,1) -> (6,0) sends i2^2 to (-1)^(Sq2 i2^2) = (-1)^(Sq1 i2)^2,
        # declared zero, so untwisted the kernel survives until the incoming
        # differential from (2,2) kills it
        page3, _report = run_ahss(Z2, 2, "SW", 5)
        log = d2_log(page3)
        assert log[(4, 1)]["rule"] == "exp_sq2"
        assert log[(4, 1)]["rank"] == 0
        assert log[(2, 2)]["rank"] == 1
        assert page3.entry(4, 1).is_zero

    def test_d2_squared_checked(self):
        page3, _ = run_ahss(Z2, 2, "SW", 5)
        checks = [e for e in page3.log if e["kind"] == "d2_squared"]
        assert checks and checks[0]["chains_checked"] > 0

    def test_dimensions_never_grow(self):
        e2 = assemble_e2(Z2, 2, "SW", 5)
        e3 = apply_d2(e2)
        for i in range(6):
            j = 5 - i
            before, after = e2.entry(i, j), e3.entry(i, j)
            if before is None or after is None:
                continue
            assert after.finite.order <= before.finite.order

    def test_a_rank_beyond_its_entry_fails_the_dimension_check(self):
        # (3,2) holds Sq1(i2), whose d2 into (5,1) has rank 1; emptied, the
        # entry has no dimension for that rank to cut
        e2 = assemble_e2(Z2, 2, "SW", 5)
        emptied = e2.replace(entries=MappingProxyType({**e2.entries, (3, 2): GroupExpr.zero()}))
        with pytest.raises(AssertionError, match=r"^negative dimension at \(3,2\)$"):
            apply_d2(emptied)

    def test_d2_turns_an_e2_page_only(self):
        with pytest.raises(ValueError, match="^apply_d2 expects an E2 page$"):
            apply_d2(run_ahss(Z2, 2, "SW", 5)[0])

    @pytest.mark.parametrize("factors", [(3,), (5,), (15,), (3, 3)])
    def test_twist_over_odd_group_changes_no_report(self, factors):
        # iota_E reduces to zero mod 2 when E has no even factor
        E = FinAbGroup(factors)
        for N in range(6):
            for d5_zero in (False, True):
                plain = run_ahss(E, 2, "SW", N, d5_zero=d5_zero)[1]
                assert run_ahss(E, 2, "SW", N, twist=True, d5_zero=d5_zero)[1] == plain

    @pytest.mark.parametrize("spectrum_name, N, twist, verdicts", [
        ("SW", 1, True, ("0", "0")),
        ("SW", 2, True, ("Z/3", "Z/3 x Z/3")),
        ("Spin", 3, False, ("0", "0")),
    ])
    def test_cyclic_two_part_answers_as_cyclic_e_does(self, spectrum_name, N, twist, verdicts):
        # Z/3 x Z/6 has Z/6's one mod-2 class in degree 2, so its exponential
        # d2 into degrees 2 and 4 of the circle row reads declared images too
        for E, verdict in zip((FinAbGroup((6,)), FinAbGroup((3, 6))), verdicts):
            assert run_ahss(E, 2, spectrum_name, N, twist=twist)[1].verdict == verdict

    def test_twist_needs_degree_two_base(self):
        with pytest.raises(UnsupportedRangeError):
            run_ahss(Z2, 4, "SW", 5, twist=True)


class TestReports:
    def test_degree_zero_is_circle(self):
        _page, report = run_ahss(Z2, 2, "SH", 0)
        assert report.verdict == "C^x"

    def test_odd_group_passes_through(self):
        _page, report = run_ahss(Z3, 2, "SH", 4)
        assert report.verdict == "Z/3"
        assert not report.inconclusive

    def test_twisted_without_declaration_is_inconclusive(self):
        _page, report = run_ahss(Z2, 2, "SW", 5, twist=True)
        assert report.inconclusive
        assert any("opaque (0,4)" in b for b in report.blockers)

    def test_twisted_with_declared_d5(self):
        _page, report = run_ahss(Z2, 2, "SW", 5, twist=True, d5_zero=True)
        assert report.verdict == "Z/2"
        assert not report.inconclusive

    def test_model_boundary_is_stated(self):
        _page, report = run_ahss(Z2, 2, "SW", 5, d5_zero=True)
        assert any("outside the model" in p for p in report.provenance)

    def test_e2_page_cannot_be_reported(self):
        page3, report = run_ahss(Z2, 2, "SW", 5)
        assert total_degree_report(page3) == report
        with pytest.raises(ValueError, match="turned page"):
            total_degree_report(page3.previous)


class TestDeclarations:
    @pytest.mark.parametrize("spectrum_name, twist", [("SW", False), ("SW", True)])
    def test_a_declaration_is_one_log_record(self, spectrum_name, twist):
        page3, report = run_ahss(Z2, 2, spectrum_name, 5, twist=twist, d5_zero=True)
        assert not hasattr(page3, "declarations")
        records = [rec for rec in page3.log if rec["kind"] == "declaration"]
        assert records == [{"kind": "declaration", "r": 5, "source": (0, 4), "rank": 0}]
        assert page_to_dict(page3)["declarations"] == [{"r": 5, "source": [0, 4], "rank": 0}]
        assert "declared d5 from (0,4) rank 0" in report.provenance

    def test_zero_entry_is_a_no_op(self):
        # SH has h^4(pt) = 0 and Spin the computed circle row there, so
        # --d5 zero finds no opaque (0,4) to declare out of
        for name in ("SH", "Spin"):
            page3, report = run_ahss(Z2, 2, name, 5)
            declared, declared_report = run_ahss(Z2, 2, name, 5, d5_zero=True)
            assert not declared.entry(0, 4).is_opaque
            assert dict(declared.entries) == dict(page3.entries)
            assert declared.log == page3.log
            assert declared_report == report
            assert page_to_dict(declared)["declarations"] == []

    @pytest.mark.parametrize("N, declared", [(3, False), (4, True), (5, True), (6, False)])
    def test_declared_only_where_a_report_reads_it(self, N, declared):
        # the report in degree N reads the d5 out of (0,4) only for N = 4, 5
        page3, report = run_ahss(Z2, 2, "SW", N, d5_zero=True)
        records = [rec for rec in page3.log if rec["kind"] == "declaration"]
        assert bool(records) == declared
        assert ("declared d5 from (0,4) rank 0" in report.provenance) == declared


class TestFrozenRun:
    def test_page_attributes_are_frozen(self):
        page3, _ = run_ahss(Z2, 2, "SW", 5)
        with pytest.raises(AttributeError):
            page3.number = 4

    def test_page_entries_are_read_only(self):
        page3, _ = run_ahss(Z2, 2, "SW", 5)
        with pytest.raises(TypeError):
            page3.entries[(2, 2)] = page3.entry(0, 0)

    def test_circle_row_of_a_shared_run_is_read_only(self):
        page3 = run_ahss(Z2, 2, "SW", 5, twist=True, d5_zero=True)[0]
        circle = page3.circle
        entries = dict(circle.entries)
        for mapping, key in ((circle.entries, 4), (circle.provenance, 4),
                             (circle.comparison, 5), (circle.comparison[5], "i2*Sq1(i2)")):
            with pytest.raises(TypeError):
                mapping[key] = None
        again = run_ahss(Z2, 2, "SW", 5, twist=True, d5_zero=True)[0]
        assert again.circle is circle and circle.entries == entries

    def test_every_spelling_of_a_query_shares_one_run(self):
        page3, report = run_ahss(Z4, 2, "SW", 5, d5_zero=True)
        for spelled in (
            run_ahss(Z4, 2, "SW", 5, d5_zero=True),
            run_ahss(Z4, 2, "SW", 5, twist=False, d5_zero=True),
            run_ahss(Z4, 2, "SW", 5, d5_zero=True, twist=False, overrides=None),
            run_ahss(Z4, 2, "SW", 5, False, True),
            run_ahss(E=Z4, n=2, spectrum_name="SW", N=5, d5_zero=True),
        ):
            assert spelled[0] is page3 and spelled[1] is report

    def test_declaring_on_a_shared_page_leaves_the_run_unchanged(self):
        page3, report = run_ahss(Z2, 2, "SW", 5, twist=True)
        before = (page_to_dict(page3), report.to_dict())
        declared, declared_report = run_ahss(Z2, 2, "SW", 5, twist=True, d5_zero=True)
        assert declared.log[:-1] == page3.log and declared.log[-1]["kind"] == "declaration"
        assert declared_report.verdict != report.verdict
        again_page, again_report = run_ahss(Z2, 2, "SW", 5, twist=True)
        assert again_page is page3 and again_report is report
        assert (page_to_dict(again_page), again_report.to_dict()) == before
        assert report.verdict != "0"

    def test_log_and_declarations_are_read_only(self):
        page3, _ = run_ahss(Z2, 2, "SW", 5, d5_zero=True)
        d2 = next(e for e in page3.log if e["kind"] == "d2")
        declared = next(e for e in page3.log if e["kind"] == "declaration")
        for record, key in (
            (page3.log[0], "note"),
            (d2["source"], 0),
            (declared, "rank"),
            (declared["source"], 0),
        ):
            with pytest.raises(TypeError):
                record[key] = 9

    def test_editing_a_dump_leaves_the_run_unchanged(self):
        dump = page_to_dict(run_ahss(Z2, 2, "SW", 5)[0])
        note = dump["log"][0]["note"]
        dump["log"][0]["note"] = "edited"
        assert run_ahss(Z2, 2, "SW", 5)[0].log[0]["note"] == note != "edited"
        declared = page_to_dict(run_ahss(Z2, 2, "SW", 5, d5_zero=True)[0])
        assert declared["declarations"] == [{"r": 5, "source": [0, 4], "rank": 0}]
        declared["declarations"][0]["source"][0] = 9
        record = next(e for e in declared["log"] if e["kind"] == "declaration")
        record["rank"] = 9
        again_page = run_ahss(Z2, 2, "SW", 5, d5_zero=True)[0]
        assert again_page.log[-1] == {"kind": "declaration", "r": 5, "source": (0, 4), "rank": 0}
        again = page_to_dict(again_page)
        assert again["declarations"] == [{"r": 5, "source": [0, 4], "rank": 0}]


class TestProductSplit:
    def test_supercohomology_degree7_two_factors(self):
        split = product_split(FinAbGroup((2, 2)), "SH", 4, 7)
        assert split["verdict"] == "0"
        smash = [s for s in split["summands"] if s["summand"].startswith("smash")]
        assert smash and "below degree 8" in smash[0]["note"]

    def test_superwitt_degree5_two_factors(self):
        split = product_split(FinAbGroup((2, 2)), "SW", 2, 5)
        assert split["verdict"] == "nonzero"
        smash = [s for s in split["summands"] if s["summand"].startswith("smash")]
        assert smash[0]["status"] == "nonzero"
        assert "free A(1)" in smash[0]["note"]

    def test_odd_factors_vanish(self):
        split = product_split(FinAbGroup((3, 3)), "SW", 2, 5)
        assert split["verdict"] == "0"

    def test_mixed_cyclic_splits_prime_powers(self):
        split = product_split(FinAbGroup((6,)), "SW", 2, 5)
        labels = [s["summand"] for s in split["summands"]]
        assert any("Z/2[2]" in s for s in labels)
        assert any("Z/3[2]" in s for s in labels)
        assert split["verdict"] == "0"


Z7 = GroupExpr.of(FinAbGroup((7,)))
# each computation product_split calls, and a perturbation of its result: a
# run whose page and report hold Z/7 at every entry, a failed certificate
PERTURBED = {
    "run_ahss": lambda run: (
        run[0].replace(entries=MappingProxyType(dict.fromkeys(run[0].entries, Z7))),
        run[1].replace(entries=tuple((i, j, str(Z7)) for i, j, _g in run[1].entries))),
    "smash_freeness_check": lambda check: {**check, "all_free": False},
}
# query: {computation: (calls, the summands whose status or group moves)}.
# A lock on what each summand reads today: the point is column 0 of the
# first factor's run, the Z/2 ^ Z/4 smash is unknown whatever its
# certificate says, and the odd-side and 2n > N smash summands call nothing.
SPLIT_SENSITIVITY = {
    ("Z/2 x Z/4", "SW", 2, 5): {
        "run_ahss": (2, {"point", "reduced factor 0: Z/2[2]", "reduced factor 1: Z/4[2]"}),
        "smash_freeness_check": (1, set()),
    },
    ("Z/6", "SW", 2, 5): {
        "run_ahss": (2, {"point", "reduced factor 0: Z/2[2]", "reduced factor 1: Z/3[2]"}),
        "smash_freeness_check": (0, set()),
    },
    ("Z/2 x Z/2", "SH", 4, 7): {
        "run_ahss": (2, {"point", "reduced factor 0: Z/2[4]", "reduced factor 1: Z/2[4]"}),
        "smash_freeness_check": (0, set()),
    },
    ("Z/2 x Z/2", "SH", 2, 5): {
        "run_ahss": (2, {"point", "reduced factor 0: Z/2[2]", "reduced factor 1: Z/2[2]"}),
        "smash_freeness_check": (1, {"smash Z/2[2] ^ Z/2[2]"}),
    },
}


@pytest.mark.parametrize("query", SPLIT_SENSITIVITY, ids="{0[0]} {0[1]} n={0[2]} N={0[3]}".format)
def test_what_each_split_summand_reads(query, monkeypatch):
    group, spectrum_name, n, N = query
    E = parse_group(group)

    def statuses(split):
        return {s["summand"]: (s["status"], s["group"]) for s in split["summands"]}

    base = statuses(product_split(E, spectrum_name, n, N))
    found = {}
    for name, perturb in PERTURBED.items():
        calls = []

        def perturbed(*args, _real=getattr(ahss, name), _perturb=perturb, **kwargs):
            calls.append(args)
            return _perturb(_real(*args, **kwargs))

        with monkeypatch.context() as patch:
            patch.setattr(ahss, name, perturbed)
            split = statuses(product_split(E, spectrum_name, n, N))
        found[name] = (len(calls), {label for label in base if split[label] != base[label]})
    assert found == SPLIT_SENSITIVITY[query]


class TestSmashCheck:
    def test_degree5_classes_are_free(self):
        X = EmSpace.from_group(Z2, 2)
        check = smash_freeness_check(X, X, 5, (4, 9))
        assert check["dimension"] == 2
        assert check["all_free"]
        for entry in check["classes"]:
            assert entry["free_a1"]
            assert not any(entry["q0_homology"].values())
            assert not any(entry["q1_homology"].values())

    def test_window_has_no_default(self):
        X = EmSpace.from_group(Z2, 2)
        with pytest.raises(TypeError):
            smash_freeness_check(X, X, 5)

    def test_empty_degree_is_not_free(self):
        X = EmSpace.from_group(Z2, 2)
        check = smash_freeness_check(X, X, 3, (4, 9))
        assert check["dimension"] == 0 and not check["all_free"]


# the certificates perfbench/golden.json locks for the algebra workload
ALGEBRA_GOLDEN = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "golden.json").read_text()
)["algebra"]


class TestCertificatesMatchBenchmarkGolden:
    @pytest.mark.parametrize("N", [5, 6, 7])
    def test_smash_freeness(self, N):
        X = EmSpace.from_group(Z2, 2)
        check = smash_freeness_check(X, X, N, window=(N - 1, N + 4))
        assert json.loads(json.dumps(check)) == ALGEBRA_GOLDEN[f"smash_freeness_deg{N}"]

    @pytest.mark.parametrize("rank", [3, 4])
    def test_product_split(self, rank):
        split = product_split(FinAbGroup((2,) * rank), "SW", 2, 5)
        assert json.loads(json.dumps(split)) == ALGEBRA_GOLDEN[f"product_split_{rank}xz2_sw5"]


class TestDumps:
    def test_page_dump_and_render(self):
        page3, _ = run_ahss(Z2, 2, "SW", 5, twist=True, d5_zero=True)
        dump = page_to_dict(page3)
        assert dump["page"] == 3 and dump["twisted"]
        text = render_page_text(dump)
        assert text.startswith("E3 page")
        assert "(twisted)" in text
        assert "SW" in text

    def test_turned_page_keeps_its_e2_page(self):
        page3, _ = run_ahss(Z2, 2, "SW", 5, twist=True, d5_zero=True)
        e2 = page3.previous
        assert e2.number == 2 and e2.previous is None
        fresh = assemble_e2(Z2, 2, "SW", 5, twisted=True)
        assert page_to_dict(e2) == page_to_dict(fresh)
