import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import surfcond
from surfcond.abelian import CIRCLE, FinAbGroup, UnsupportedRangeError, parse_expr, quad_group
from surfcond.acceptance import CheckResult
from surfcond.ahss import product_split, run_ahss
from surfcond.cli import COMMANDS, main, render_payload


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, ["steenrod", "--word", "Sq2 Sq2"])
        assert code == 0
        assert "Sq3 Sq1" in out

    @pytest.mark.parametrize("word", ["b0", "Sq2 b0"])
    def test_marker_b0_is_a_parse_error(self, capsys, word):
        code, out, err = run(capsys, ["steenrod", "--word", word])
        assert (code, out) == (2, "")
        assert err == "error: Bockstein marker 'b0': markers start at b1 (Sq1)\n"

    def test_parse_error(self, capsys):
        code, _, err = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/x",
                     "--space-degree", "2", "--total-degree", "5"]
        )
        assert code == 2
        assert "error" in err

    def test_unsupported(self, capsys):
        code, _, err = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/4",
                     "--space-degree", "2", "--total-degree", "6"]
        )
        assert code == 3
        assert "unsupported" in err

    def test_out_of_memory_is_unsupported(self, capsys, monkeypatch):
        # stands in for a query too large for the process's address space
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(surfcond.cli, "algebra_for", exhausted)
        code, out, err = run(
            capsys, ["emcoh", "--group", "Z/2 x Z/4", "--space-degree", "2", "--max-degree", "8"]
        )
        assert (code, out) == (3, "")
        assert err.startswith("unsupported: out of memory") and err.count("\n") == 1

    def test_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/2",
                     "--space-degree", "2", "--total-degree", "5",
                     "--twist", "fermion-parity"]
        )
        assert code == 4
        assert "blocker" in out
        assert "inconclusive" in out

    def test_d3_out_of_an_opaque_entry_blocks(self, capsys):
        # SW's (0,4) is opaque; d4 and d5 out of it also block, so the exit
        # code alone would not show a lost d3 blocker
        code, out, _ = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/2",
                     "--space-degree", "2", "--total-degree", "4"]
        )
        assert code == 4
        assert "\nblocker: d3 out of opaque (0,4) undeclared\n" in out

    def test_declared_d5_resolves(self, capsys):
        code, out, _ = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/2",
                     "--space-degree", "2", "--total-degree", "5",
                     "--twist", "fermion-parity", "--d5", "zero"]
        )
        assert code == 0
        assert "verdict: Z/2" in out


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["emcoh", "--group", "Z/2", "--space-degree", "2", "--max-degree", "7"],
            ["steenrod", "--word", "Sq2 Sq3"],
            ["ahss", "--spectrum", "SW", "--group", "Z/2", "--space-degree", "2",
             "--total-degree", "5", "--twist", "fermion-parity", "--d5", "zero"],
            ["ahss", "--spectrum", "SH", "--group", "Z/2 x Z/2", "--space-degree", "4",
             "--total-degree", "7"],
            ["obstruction", "--group", "Z/4", "--statistic", "bosonic",
             "--level", "symmetric"],
            ["condense", "--pi0", "Z/4", "--algebra", "Z/2", "--level", "braided"],
        ],
    )
    def test_text_is_rendered_from_payload(self, capsys, argv):
        code_text, text, _ = run(capsys, argv)
        code_json, blob, _ = run(capsys, argv + ["--json"])
        assert code_text == code_json
        payload = json.loads(blob)
        assert render_payload(payload) + "\n" == text


class TestRouting:
    def test_two_even_factors_go_through_product_split(self, capsys):
        code, out, _ = run(
            capsys, ["ahss", "--spectrum", "SH", "--group", "Z/2 x Z/2",
                     "--space-degree", "4", "--total-degree", "7"]
        )
        assert code == 0
        assert "product split" in out
        assert "verdict: 0" in out

    @pytest.mark.parametrize("d5", [[], ["--d5", "zero"]])
    def test_split_factor_runs_take_the_d5_flag(self, capsys, d5, monkeypatch):
        # the split used to declare d5 = 0 on every factor run, asked or not
        seen = []

        def recording_run(*args, **kwargs):
            seen.append(kwargs["d5_zero"])
            return run_ahss(*args, **kwargs)

        monkeypatch.setattr("surfcond.ahss.run_ahss", recording_run)
        code, out, _ = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/2 x Z/2",
                     "--space-degree", "2", "--total-degree", "5"] + d5
        )
        assert code == 0 and "product split" in out
        assert seen == [bool(d5)] * 2

    def test_twist_reads_the_even_factor(self, capsys):
        # K(Z/3 x Z/6, 2) lists K(Z/3,2) first, which has no mod-2 class
        code, out, err = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/3 x Z/6",
                     "--space-degree", "2", "--total-degree", "3",
                     "--twist", "fermion-parity"]
        )
        assert (code, err) == (0, "")
        assert out.endswith("verdict: 0\n")

    def test_twist_outside_sw_is_unsupported(self, capsys, tmp_path):
        path = tmp_path / "pages.json"
        code, out, err = run(
            capsys, ["ahss", "--spectrum", "SH", "--group", "Z/2",
                     "--space-degree", "2", "--total-degree", "4",
                     "--twist", "fermion-parity", "--dump-pages", str(path), "--json"]
        )
        assert (code, out) == (3, "")
        assert err == "unsupported: twist fermion-parity is tabulated for SW only, not SH\n"
        assert not path.exists()
        with pytest.raises(UnsupportedRangeError, match="SW only, not Spin"):
            run_ahss(FinAbGroup.cyclic(2), 2, "Spin", 4, twist=True)

    @pytest.mark.parametrize("flag", [["--twist", "fermion-parity"], ["--dump-pages", "PAGES"]])
    def test_product_split_refuses_twist_and_dump_pages(self, capsys, tmp_path, flag):
        path = tmp_path / "pages.json"
        flag = [str(path) if a == "PAGES" else a for a in flag]
        code, out, err = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/2 x Z/4",
                     "--space-degree", "2", "--total-degree", "5", "--json"] + flag
        )
        assert (code, out) == (3, "")
        assert err.startswith(f"unsupported: {flag[0]} with Z/2 x Z/4: ")
        assert "product split" in err
        assert not path.exists()

    def test_dump_pages_written(self, capsys, tmp_path):
        path = tmp_path / "pages.json"
        code, out, _ = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/2",
                     "--space-degree", "2", "--total-degree", "5",
                     "--d5", "zero", "--dump-pages", str(path)]
        )
        assert code == 0
        dumps = json.loads(path.read_text())
        assert [d["page"] for d in dumps] == [2, 3]
        assert "E2 page" in out and "E3 page" in out

    def test_emcoh_output(self, capsys):
        code, out, _ = run(
            capsys, ["emcoh", "--group", "Z/4", "--space-degree", "2",
                     "--max-degree", "6"]
        )
        assert code == 0
        assert "i2" in out and "b2(i2)" in out
        assert "poincare series: 1,0,1,1,1,2,2" in out

    @pytest.mark.parametrize("group, n, d, line", [
        ("Z/2", 3, 1, "  (none in degrees <= 1)"),
        ("Z/2", 3, 2, "  (none in degrees <= 2)"),
        ("Z/3", 3, 3, "  (none: unit algebra)"),
        ("0", 2, 0, "  (none in degrees <= 0)"),
        ("0", 2, 5, "  (none: unit algebra)"),
    ])
    def test_emcoh_without_generators(self, capsys, group, n, d, line):
        # below the space degree no generator is reached, whatever E is
        argv = ["emcoh", "--group", group, "--space-degree", str(n), "--max-degree", str(d)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[2] == line
        code, out, _ = run(capsys, argv + ["--json"])
        assert json.loads(out)["result"]["generators"] == []

    def test_overrides_are_honoured(self, capsys, tmp_path):
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({"spectrum": {"SW": {"4": "0"}}}))
        code, out, _ = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/2",
                     "--space-degree", "2", "--total-degree", "5",
                     "--coeff-overrides", str(path), "--json"]
        )
        assert code == 0  # no opaque entry left, so no blocker
        payload = json.loads(out)
        assert payload["result"]["verdict"] == "0"

    def test_overrides_on_the_product_path(self, capsys, tmp_path):
        # the factor reports are cached per process, keyed by the overrides
        # too: no answer may leak from one query into the next
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({"comparison": {"Z/2|4|7": {"Sq2 Sq1(i4)": None}}}))
        plain = ["ahss", "--spectrum", "SH", "--group", "Z/2 x Z/2",
                 "--space-degree", "4", "--total-degree", "7", "--json"]
        with_ov = plain + ["--coeff-overrides", str(path)]
        env = {**os.environ, "PYTHONPATH": str(Path(surfcond.__file__).resolve().parents[1])}
        fresh = {}
        for argv in (plain, with_ov):
            proc = subprocess.run([sys.executable, "-m", "surfcond.cli", *argv],
                                  capture_output=True, text=True, env=env, check=True)
            fresh[tuple(argv)] = json.loads(proc.stdout)
        for argv in (with_ov, plain, with_ov):
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, "")
            assert json.loads(out) == fresh[tuple(argv)]
        factors = [s for s in fresh[tuple(with_ov)]["result"]["summands"]
                   if s["summand"].startswith("reduced factor")]
        assert [s["group"] for s in factors] == ["Z/2", "Z/2"]
        assert fresh[tuple(plain)]["result"]["verdict"] == "0"

    @pytest.mark.parametrize("section, table, group, key", [
        ("circle_row", {"Z/2 x Z/4|2": {"5": "Z/2"}}, "Z/2 x Z/4", "circle_row key 'Z/2 x Z/4|2'"),
        ("comparison", {"Z/2 x Z/2|2|5": {"nonsense": [1]}}, "Z/2 x Z/2",
         "comparison key 'Z/2 x Z/2|2|5'"),
    ])
    def test_override_keyed_by_the_product_group_is_refused(self, capsys, tmp_path, section,
                                                              table, group, key):
        # the split builds circle rows for the cyclic factors only, so no
        # query reads such a key: the file is refused when it is loaded
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({section: table}))
        for n, N in ((2, 5), (4, 7)):
            code, out, err = run(capsys, ["ahss", "--spectrum", "SW", "--group", group,
                                          "--space-degree", str(n), "--total-degree", str(N),
                                          "--coeff-overrides", str(path)])
            assert (code, out) == (2, "")
            assert err == (f"error: override {key}: {group} has two or more even factors, and "
                           "the product split reads only its cyclic factors' rows\n")

    @pytest.mark.parametrize("table, message", [
        # no circle row has n = 3, so no query reads this key
        ({"circle_row": {"Z/2|3": {"5": "0"}}},
         "override circle_row key 'Z/2|3': circle rows are tabulated for n in {2, 4}, not 3"),
        # a misspelt monomial of a row that this query does not build
        ({"comparison": {"Z/8|4|7": {"nonsense": [1]}}},
         "override comparison['Z/8|4|7']: no basis monomial of H^7(K(Z/8,4); Z2) is named "
         "nonsense"),
    ], ids=["n-without-circle-row", "monomial-of-another-row"])
    def test_override_that_no_query_reads_is_refused_at_load(self, capsys, tmp_path, table,
                                                             message):
        path = tmp_path / "ov.json"
        path.write_text(json.dumps(table))
        argv = SW_Z2_DEG5 + ["--json", "--coeff-overrides", str(path)]
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    def test_override_that_other_queries_read_is_accepted(self, capsys, tmp_path):
        # a Z/8, n = 2 row is not this Z/2 query's, but a Z/8 query reads it
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({"circle_row": {"Z/8|2": {"5": "0"}}}))
        argv = SW_Z2_DEG5 + ["--json"]
        assert run(capsys, argv + ["--coeff-overrides", str(path)]) == run(capsys, argv)


SW_Z2_DEG5 = ["ahss", "--spectrum", "SW", "--group", "Z/2", "--space-degree", "2",
              "--total-degree", "5"]
SH_Z2 = ["ahss", "--spectrum", "SH", "--group", "Z/2", "--space-degree", "2", "--total-degree"]


class TestExitContract:
    def test_assertion_is_internal_failure(self, capsys, monkeypatch):
        def broken(*_args, **_kwargs):
            raise AssertionError("negative dimension at (2,3)")

        monkeypatch.setattr("surfcond.ahss.run_ahss", broken)
        code, out, err = run(capsys, SW_Z2_DEG5)
        assert code == 5
        assert out == ""
        assert err == "internal invariant failure: negative dimension at (2,3)\n"

    # one message from each engine source of a range refusal: the EM
    # cohomology cap and an undeclared comparison image (each id names the
    # error type that source raised before both became UnsupportedRangeError)
    @pytest.mark.parametrize("message", [
        "degree 13 above cap 12",
        "comparison image of Sq1(i2)^2 in degree 6 not declared",
    ], ids=["CapExceededError", "UnspecifiedComparisonError"])
    def test_engine_range_errors_are_unsupported(self, capsys, monkeypatch, message):
        def refused(*_args, **_kwargs):
            raise UnsupportedRangeError(message)

        monkeypatch.setattr("surfcond.ahss.run_ahss", refused)
        code, out, err = run(capsys, SW_Z2_DEG5)
        assert (code, out) == (3, "")
        assert err == f"unsupported: {message}\n"

    def test_reader_closing_the_pipe_early_ends_quietly(self):
        # about 0.6 MB of JSON, ten times a 64 KiB pipe buffer: the print is
        # still writing when the reader stops after its first line
        env = {**os.environ, "PYTHONPATH": str(Path(surfcond.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "surfcond.cli", "survey", "--max-order", "2048", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), first, err) == (0, b"{\n", b"")

    def test_d2_squared_failure_from_overrides(self, capsys, tmp_path):
        # declaring (-1)^(Sq1(i2)^2) nonzero breaks d2 o d2 = 0 on (2,2) -> (4,1)
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({"comparison": {"Z/2|2|6": {"Sq1(i2)^2": [1]}}}))
        code, _, err = run(capsys, SW_Z2_DEG5 + ["--coeff-overrides", str(path)])
        assert code == 5
        assert "d2 squared nonzero on chain (2,2) -> (4,1)" in err

    @pytest.mark.parametrize("raw, image", [
        ({"circle_row": {"Z/2|2": {"5": "Z/2 x Z/8"}},
          "comparison": {"Z/2|2|5": {"Sq2 Sq1(i2)": [1], "i2*Sq1(i2)": [1]}}}, (1,)),
        ({"comparison": {"Z/2|2|5": {"Sq2 Sq1(i2)": [1, 0, 5], "i2*Sq1(i2)": [1, 0, 5]}}},
         (1, 0, 5)),
        # the built-in images (1,) stay when the entry is made 0; null images
        # beside it would declare the map zero
        ({"circle_row": {"Z/2|2": {"5": "0"}}}, (1,)),
    ], ids=["too-few", "too-many", "entry-made-zero"])
    def test_comparison_image_of_the_wrong_length_exits_2(self, capsys, tmp_path, raw, image):
        # both degree-5 classes of K(Z/2,2) reach (5,0); each image used to be
        # zipped against the entry's invariant factors and read as bit 0
        path = tmp_path / "ov.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, SW_Z2_DEG5 + ["--coeff-overrides", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: comparison image {image} does not have one")

    @pytest.mark.parametrize("spectrum_name, row, degrees",
                             [("SH", 3, range(4, 8)), ("Spin", 5, range(5, 8))],
                             ids=["SH-row3", "Spin-row5"])
    def test_no_d2_rule_out_of_an_added_mod2_row(self, capsys, tmp_path, spectrum_name, row,
                                                 degrees):
        # d2 is defined from row 2 into row 1 and from row 1 into the circle
        # row 0 only; a mod-2 row made elsewhere gets no rule invented for it
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({"spectrum": {spectrum_name: {str(row): "Z/2"}}}))
        for N in degrees:
            code, out, err = run(capsys, ["ahss", "--spectrum", spectrum_name, "--group", "Z/2",
                                          "--space-degree", "2", "--total-degree", str(N),
                                          "--coeff-overrides", str(path)])
            assert (code, out) == (3, ""), N
            assert err == f"unsupported: no differential rule from row {row} into row {row - 1}\n"

    # refusals that no other test runs, each locked with its exit code and message
    @pytest.mark.parametrize("argv, overrides, code, message", [
        (SW_Z2_DEG5, {"spectrum": {"SW": {"4": "SW x Z/2"}}},
         3, "unsupported: mixed opaque coefficient row Z/2 x SW"),
        (SH_Z2 + ["5"], {"spectrum": {"SH": {"2": "Z/4"}}},
         3, "unsupported: coefficient row Z/4 has no differential rule"),
        (SH_Z2 + ["3"], {"spectrum": {"SH": {"2": "C^x"}}},
         3, "unsupported: no differential rule from row 2 into row 1"),
        (["condense", "--pi0", "Z/2 x Z/4", "--algebra", "Z/2 x Z/2"], None,
         2, "error: subgroup literal 'Z/2 x Z/2' must be cyclic or the full group"),
        (["emcoh", "--group", "Z/2", "--space-degree", "0", "--max-degree", "4"], None,
         2, "error: space degree 0 < 1"),
    ], ids=["mixed-opaque-row", "row-without-rule", "circle-row-above-mod2",
            "non-cyclic-subgroup", "space-degree-0"])
    def test_refusal_exits_with_its_message(self, capsys, tmp_path, argv, overrides, code,
                                            message):
        if overrides is not None:
            path = tmp_path / "ov.json"
            path.write_text(json.dumps(overrides))
            argv = argv + ["--coeff-overrides", str(path)]
        assert run(capsys, argv) == (code, "", message + "\n")

    @pytest.mark.parametrize("descriptor, repeat", [
        ("braided; pi0=Z/2; pi0=Z/4", "pi0: 'pi0=Z/4'"),
        ("braided; symmetric", "its level: 'symmetric'"),
        ("id=2Vec; id=2SVec", "id: 'id=2SVec'"),
        ("braided; fermionic=yes; pi0=Z/2; fermionic=yes", "fermionic: 'fermionic=yes'"),
    ], ids=["pi0", "level", "id", "fermionic"])
    def test_descriptor_repeating_a_key_exits_2(self, capsys, descriptor, repeat):
        argv = ["condense", "--descriptor", descriptor]
        assert run(capsys, argv) == (2, "", f"error: descriptor repeats {repeat}\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (SW_Z2_DEG5[:-1] + ["-1"], "--total-degree"),
            (["ahss", "--spectrum", "SH", "--group", "0", "--space-degree", "-2",
              "--total-degree", "3"], "--space-degree"),
            (["emcoh", "--group", "Z/2", "--space-degree", "2", "--max-degree", "-3"],
             "--max-degree"),
            (["survey", "--max-order", "-1"], "--max-order"),
        ],
    )
    def test_negative_degrees_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be >= 0")

    def test_unknown_override_section(self, capsys, tmp_path):
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({"spectrm": {"SW": {"4": "0"}}}))
        code, _, err = run(capsys, SW_Z2_DEG5 + ["--coeff-overrides", str(path)])
        assert code == 2
        assert "unknown override sections" in err and "spectrm" in err

    def test_unknown_override_spectrum(self, capsys, tmp_path):
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({"spectrum": {"SWW": {"4": "0"}}}))
        code, out, err = run(capsys, SW_Z2_DEG5 + ["--coeff-overrides", str(path)])
        assert code == 2
        assert out == ""
        assert "unknown spectra" in err and "SWW" in err

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"spectrum": {"SW": ["4"]}}, "override spectrum['SW'] must be a JSON object"),
            ({"circle_row": {"Z/2": {"5": "0"}}}, "circle_row key 'Z/2' is not of the form group|n"),
            ({"comparison": {"Z/2|5": {"i2": None}}}, "comparison key 'Z/2|5' is not of the form"),
            ({"spectrum": {"SW": {"four": "0"}}}, "spectrum['SW']: degree key 'four'"),
            # a monomial name that no basis has used to log as applied and change nothing
            ({"comparison": {"Z/2|2|5": {"Sq2 Sq1(i9)": None}}}, "is named Sq2 Sq1(i9)"),
            # above the algebra cap this exited 3 with a message naming no key
            ({"comparison": {"Z/2|2|13": {"x": None}}},
             "comparison key 'Z/2|2|13': degree 13 is outside 0..12"),
            ({"circle_row": {"Z/2|2": {"13": "Z/2"}}},
             "circle_row['Z/2|2']: degree 13 is outside 0..12"),
            # above the built-in table this was padded with zeros and never read
            ({"spectrum": {"SW": {"10": "Z/2"}}}, "spectrum['SW']: degree 10 is outside 0..8"),
            # values read with --group's grammar: a dangling separator used to be dropped
            ({"circle_row": {"Z/2|2": {"5": "Z/2 x"}}},
             "circle_row['Z/2|2']['5']: cannot parse group factor ''"),
        ],
        ids=[
            "table-list", "row-key-no-n", "comparison-key-no-degree", "degree-word",
            "unknown-monomial", "comparison-above-cap", "row-above-cap", "spectrum-above-table",
            "dangling-separator",
        ],
    )
    def test_malformed_overrides_exit_2(self, capsys, tmp_path, raw, message):
        path = tmp_path / "ov.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, SW_Z2_DEG5 + ["--coeff-overrides", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: override ") and message in err
        assert "Traceback" not in err

    def test_dump_pages_assembles_e2_once(self, capsys, tmp_path, monkeypatch):
        from surfcond import ahss

        # on a cold memo; the second dump reads the memoized pair of pages
        ahss._run_ahss.cache_clear()
        real, calls = ahss.circle_row, []
        monkeypatch.setattr(ahss, "circle_row", lambda *a, **k: calls.append(a) or real(*a, **k))
        for name in ("pages.json", "again.json"):
            code, _, _ = run(capsys, SW_Z2_DEG5 + ["--dump-pages", str(tmp_path / name)])
            assert code == 0
        assert len(calls) == 1
        assert (tmp_path / "pages.json").read_text() == (tmp_path / "again.json").read_text()

    def test_dump_pages_log_each_override_once(self, capsys, tmp_path):
        ov = tmp_path / "ov.json"
        ov.write_text(json.dumps({
            "spectrum": {"SW": {"4": "0"}},
            "circle_row": {"Z/2|2": {"5": "Z/2"}},
            "comparison": {"Z/2|2|5": {"Sq2 Sq1(i2)": [1]}},
        }))
        pages = tmp_path / "pages.json"
        code, _, _ = run(capsys, SW_Z2_DEG5 + ["--coeff-overrides", str(ov),
                                                "--dump-pages", str(pages)])
        assert code == 0
        for dump in json.loads(pages.read_text()):
            notes = [e["note"] for e in dump["log"] if e["kind"] == "override"]
            assert notes == [
                "override: spectrum SW degree 4 -> 0",
                "override: circle row (Z/2, 2) degree 5 -> Z/2",
                "override: comparison data (Z/2, 2) degree 5",
            ]


IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import surfcond.cli

def loaded():
    return sorted(set(sys.modules) - before)

at_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = surfcond.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, at_import, loaded()]))
"""
CLI_BASE = {"surfcond", "surfcond.cli", "surfcond.abelian", "surfcond.gf2", "surfcond.steenrod",
            "surfcond.em_cohomology", "surfcond.record"}
# dataclasses imports inspect, ast, dis and tokenize: 8-12 ms of every query
NOT_AT_START_UP = {"dataclasses", "inspect"}


def modules_loaded(argv) -> tuple[set[str], set[str]]:
    """The modules a fresh process gains from `import surfcond.cli`, and
    those it holds after `main(argv)` has answered (exit 0)."""
    env = {**os.environ, "PYTHONPATH": str(Path(surfcond.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=True)
    code, at_import, after = json.loads(proc.stdout)
    assert code == 0
    return set(at_import), set(after)


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "surfcond"}


class TestImportSet:
    """A query's cost is mostly start-up, so each subcommand imports only the
    layers above `em_cohomology` that it calls, and no subcommand loads the
    standard library's data-class machinery."""

    @pytest.mark.parametrize(
        "argv, added",
        [
            (["steenrod", "--word", "Sq2 Sq2"], set()),
            (["emcoh", "--group", "Z/4", "--space-degree", "2", "--max-degree", "8"], set()),
            (SW_Z2_DEG5 + ["--d5", "zero"], {"coefficients", "ahss"}),
            (["obstruction", "--group", "Z/8", "--statistic", "fermionic", "--level", "braided"],
             {"coefficients", "ahss", "condense"}),
        ],
    )
    def test_subcommand_loads_only_what_it_calls(self, argv, added):
        at_import, after = modules_loaded(argv)
        assert package_modules(at_import) == CLI_BASE
        assert package_modules(after) == CLI_BASE | {f"surfcond.{m}" for m in added}
        assert not NOT_AT_START_UP & at_import
        assert not NOT_AT_START_UP & after


class TestLowTotalDegrees:
    @pytest.mark.parametrize("N, verdict", [(0, "C^x"), (1, "Z/2")])
    def test_below_the_space_degree(self, capsys, N, verdict):
        # H~^i(K(Z/2, 4)) vanishes for i < 4, so only the point entry survives
        code, out, err = run(
            capsys, ["ahss", "--spectrum", "SH", "--group", "Z/2", "--space-degree", "4",
                     "--total-degree", str(N), "--json"]
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["verdict"] == verdict

    @pytest.mark.parametrize("N", [6, 7])
    @pytest.mark.parametrize("group", ["0", "Z/1"])
    def test_trivial_group_keeps_its_space_degree(self, capsys, tmp_path, group, N):
        # K(0, 4) is a point: SH^N(pt) = 0, read from the n = 4 circle row
        path = tmp_path / "pages.json"
        code, out, err = run(
            capsys, ["ahss", "--spectrum", "SH", "--group", group, "--space-degree", "4",
                     "--total-degree", str(N), "--dump-pages", str(path), "--json"]
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["verdict"] == "0"
        assert [d["space_degree"] for d in json.loads(path.read_text())] == [4, 4]

    @pytest.mark.parametrize("N", [6, 7, 8])
    @pytest.mark.parametrize("n", [2, 4])
    def test_trivial_group_circle_row_vanishes_above_the_table(self, capsys, n, N):
        # K(0, n) is a point: its circle row is 0 in every positive degree
        code, out, err = run(
            capsys, ["ahss", "--spectrum", "SH", "--group", "0", "--space-degree", str(n),
                     "--total-degree", str(N), "--json"]
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["verdict"] == "0"

    @pytest.mark.parametrize("spectrum", ["SH", "SW", "Spin"])
    @pytest.mark.parametrize("group", ["Z/2", "Z/4", "Z/6", "Z/3"])
    def test_every_degree_below_n_minus_2_exits_0(self, capsys, spectrum, group):
        n = 4
        for N in range(n - 2):
            code, _, err = run(
                capsys, ["ahss", "--spectrum", spectrum, "--group", group,
                         "--space-degree", str(n), "--total-degree", str(N)]
            )
            assert (code, err) == (0, ""), (N, err)


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--json"])
        assert code == 0
        checks = json.loads(out)["result"]["checks"]
        assert checks and all(c["ok"] for c in checks)

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        from surfcond import acceptance

        (name, _), *rest = acceptance.CHECKS
        monkeypatch.setattr(acceptance, "CHECKS", [(name, lambda: (False, "forced"))] + rest)
        code, out, _ = run(capsys, ["selftest", "--json"])
        assert code == 1
        result = json.loads(out)["result"]
        assert result["verdict"] == "FAILURES"
        assert [c["ok"] for c in result["checks"]] == [False] + [True] * len(rest)
        assert result["checks"][0]["detail"] == "forced"


class TestSurvey:
    def test_empty_survey_prints_the_header(self, capsys):
        code, out, err = run(capsys, ["survey", "--max-order", "1"])
        assert (code, out, err) == (0, "braided / fermionic\n", "")

    def test_orders_above_64_are_served(self, capsys):
        # the survey reaches Z/5 x Z/15 (order 75).  Only exit codes and the
        # Quad entry are locked: the degree-5 circle entry of a non-cyclic E
        # is still wrong, so the survey's verdict text is not
        code, out, err = run(capsys, ["survey", "--max-order", "80", "--statistic",
                                      "fermionic", "--level", "braided", "--json"])
        assert (code, err) == (0, "")
        groups = [row["group"] for row in json.loads(out)["result"]["rows"]]
        assert "Z/5 x Z/15" in groups
        code, out, err = run(capsys, ["ahss", "--spectrum", "SH", "--group", "Z/3 x Z/27",
                                      "--space-degree", "2", "--total-degree", "4", "--json"])
        assert (code, err) == (0, "")
        entries = {(e["i"], e["j"]): e["group"] for e in json.loads(out)["result"]["entries"]}
        assert entries[(4, 0)] == str(quad_group(FinAbGroup((3, 27)), CIRCLE))

    def test_groups_are_the_rank_two_chains(self, capsys):
        code, out, _ = run(capsys, ["survey", "--max-order", "16", "--json"])
        assert code == 0
        groups = [row["group"] for row in json.loads(out)["result"]["rows"]]
        expected = sorted(
            {FinAbGroup.from_factors((a, b)) for a in range(1, 17) for b in range(2, 17)
             if a * b <= 16},
            key=lambda G: (G.order, G.invariant_factors),
        )
        assert groups == [str(G) for G in expected]


def test_condense_without_pi0_has_one_component(capsys):
    code, out, _ = run(capsys, ["condense", "--phi", "--id", "2Rep(S3)"])
    assert code == 0
    assert out == (
        "before: fusion; pi0=0; id=2Rep(S3); fermionic=no\n"
        "after:  fusion; pi0=0; id=2Vec; fermionic=no\n"
        "components: 1\n"
    )


@pytest.mark.parametrize("identity", ["2Rep(G)", "2Rep(S3,z)"])
@pytest.mark.parametrize("extra", [[], ["--level", "braided", "--pi0", "Z/2 x Z/4"]])
def test_condense_phi_lines_parse_back_to_the_same_category(capsys, identity, extra):
    code, out, _ = run(capsys, ["condense", "--phi", "--id", identity] + extra)
    assert code == 0
    assert out.startswith("before: ")
    lines = [line.split(":", 1)[1].strip() for line in out.splitlines()[:2]]
    for line in lines:
        code, out, err = run(capsys, ["condense", "--descriptor", line])
        assert code == 0, err
        assert out.splitlines()[0] == f"before: {line}"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--descriptor", "braided; pi0=Z/2", "--pi0", "Z/4"], "--pi0"),
        (["--descriptor", "braided; pi0=Z/2", "--level", "symmetric"], "--level"),
        (["--descriptor", "braided; pi0=Z/2; id=2Rep(S3)", "--phi", "--id", "2Vec"], "--id"),
        (["--pi0", "Z/4", "--id", "2Rep(S3)", "--algebra", "Z/2"], "--id"),
        (["--pi0", "Z/4", "--phi", "--algebra", "Z/2"], "--algebra"),
    ],
)
def test_condense_rejects_a_flag_it_would_ignore(capsys, argv, flag):
    code, out, err = run(capsys, ["condense"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ("braided; pi0=Z/4; id=2Rep(S3); fermionic=ye", "fermionic='ye' is not one of"),
        ("braided; pi0=Z/4; id=2SVec; fermionic=no", "contradicts the fermionic identity 2SVec"),
        ("braided; id=2Rep(S3,z); fermionic=no", "contradicts the fermionic identity 2Rep(S3,z)"),
    ],
)
def test_condense_rejects_a_malformed_descriptor(capsys, descriptor, message):
    code, out, err = run(capsys, ["condense", "--descriptor", descriptor])
    assert code == 2
    assert out == ""
    assert message in err


def test_condense_records_the_defaults(capsys):
    code, out, _ = run(capsys, ["condense", "--descriptor", "braided; pi0=Z/2", "--json"])
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert (inputs["level"], inputs["id"], inputs["pi0"]) == ("fusion", "2Rep(G)", None)


# ---------------------------------------------------------------------------
# Metamorphic properties


def capture(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def literal(factors) -> str:
    return " x ".join(f"Z/{m}" for m in factors) or "0"


cyclic_orders = st.lists(st.sampled_from([2, 3, 4, 5, 6]), max_size=2)
group_literals = cyclic_orders.map(literal)
statistics = st.sampled_from(["bosonic", "fermionic"])
levels = st.sampled_from(["braided", "symmetric"])


def _ahss_argv(spectrum, group, n, N, twist, d5):
    return (["ahss", "--spectrum", spectrum, "--group", group, "--space-degree", str(n),
             "--total-degree", str(N)]
            + (["--twist", "fermion-parity"] if twist else []) + (["--d5", "zero"] if d5 else []))


def _condense_argv(pi0, algebra, phi, identity, level):
    return (["condense", "--level", level]
            + (["--pi0", pi0] if pi0 is not None else [])
            + (["--algebra", algebra] if algebra is not None else [])
            + (["--phi", "--id", identity] if phi else []))


# one strategy per subcommand, each a grid over its arguments
ARGV = {
    "emcoh": st.builds(
        lambda g, n, d: ["emcoh", "--group", g, "--space-degree", str(n), "--max-degree", str(d)],
        group_literals, st.integers(1, 4), st.integers(0, 8)),
    "steenrod": st.lists(st.integers(0, 6), min_size=1, max_size=4).map(
        lambda word: ["steenrod", "--word", " ".join(f"Sq{i}" for i in word)]),
    "ahss": st.builds(
        _ahss_argv, st.sampled_from(["SH", "SW", "Spin"]), group_literals,
        st.integers(2, 4), st.integers(-1, 8), st.booleans(), st.booleans()),
    "obstruction": st.builds(
        lambda g, s, l: ["obstruction", "--group", g, "--statistic", s, "--level", l],
        group_literals, statistics, levels),
    "condense": st.builds(
        _condense_argv, st.none() | group_literals,
        st.sampled_from([None, "1", "Z/2", "Z/3", "Z/2 diag"]), st.booleans(),
        st.sampled_from(["2Rep(G)", "2Rep(S3,z)", "2Vec"]),
        st.sampled_from(["fusion", "braided", "sylleptic", "symmetric", "weird"])),
    "survey": st.builds(
        lambda m, s, l: ["survey", "--max-order", str(m), "--statistic", s, "--level", l],
        st.integers(0, 12), statistics, levels),
    "selftest": st.just(["selftest"]),
}

fake_checks = st.lists(
    st.builds(CheckResult, st.text(max_size=12), st.booleans(), st.text(max_size=20),
              st.floats(0, 100, allow_nan=False)),
    max_size=4,
)


def test_every_subcommand_has_a_grid():
    assert sorted(ARGV) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=25)
@given(data=st.data(), checks=fake_checks)
def test_text_is_the_render_of_the_json_over_a_grid(command, data, checks):
    argv = data.draw(ARGV[command])
    # selftest times its checks, so two real runs never print the same seconds
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("surfcond.acceptance.run_all", lambda: checks):
        if command == "ahss" and data.draw(st.booleans()):
            argv += ["--dump-pages", str(Path(tmp) / "pages.json")]
        text = capture(argv)
        blob = capture(argv + ["--json"])
    assert text[0] == blob[0]
    assert text[2] == blob[2]
    if blob[1]:
        assert render_payload(json.loads(blob[1])) + "\n" == text[1]
    else:
        assert text[1] == ""


GROUP = "<group>"  # placeholder for the literal under test

# subcommands that read a group literal, with the literal left open
ISO_ARGV = {
    "emcoh": st.just(["emcoh", "--group", GROUP, "--space-degree", "2", "--max-degree", "6"]),
    "ahss": st.builds(lambda s, N: _ahss_argv(s, GROUP, 2, N, False, True),
                      st.sampled_from(["SH", "SW"]), st.integers(2, 5)),
    "obstruction": st.builds(
        lambda s, l: ["obstruction", "--group", GROUP, "--statistic", s, "--level", l],
        statistics, levels),
    "condense": st.sampled_from(["1", "Z/2"]).map(
        lambda a: _condense_argv(GROUP, a, False, "2Vec", "braided")),
}


@settings(max_examples=40)
@given(
    st.lists(st.sampled_from([2, 3, 4, 6, 10, 12]), min_size=1, max_size=2),
    st.sampled_from(sorted(ISO_ARGV)),
    st.randoms(use_true_random=False),
    st.data(),
)
def test_isomorphic_literals_give_identical_payloads(factors, command, rnd, data):
    # Z/6, Z/2 x Z/3 and Z/3 x Z/2 name one group
    prime_powers = [q for m in factors for q in _prime_powers(m)]
    rnd.shuffle(prime_powers)
    argv = data.draw(ISO_ARGV[command])
    literals = (literal(factors), literal(prime_powers), str(FinAbGroup.from_factors(factors)))
    runs = {capture([g if a == GROUP else a for a in argv] + ["--json"]) for g in literals}
    assert len(runs) == 1


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from([3, 5, 9]), max_size=1),
    st.sampled_from([2, 4, 6, 8, 10, 12, 24]),
    st.sampled_from(["SH", "SW", "Spin"]),
    st.sampled_from([2, 4]),
    st.integers(0, 8),
)
def test_product_split_agrees_with_the_direct_run(odd, even, spectrum, n, N):
    # the CLI routes E through product_split only with two even factors; with
    # one, both paths apply and must give the same direct sum in degree N
    E = FinAbGroup.from_factors(odd + [even])
    assert sum(d % 2 == 0 for d in E.invariant_factors) == 1
    try:
        split = product_split(E, spectrum, n, N, d5_zero=True)
        _page, report = run_ahss(E, n, spectrum, N, d5_zero=True)
    except (UnsupportedRangeError, ValueError):
        assume(False)
    assume(not report.inconclusive)
    assume(all(s["status"] == "computed" for s in split["summands"]))
    assert _direct_sum(s["group"] for s in split["summands"]) == _direct_sum(
        g for _i, _j, g in report.entries
    )


def _prime_powers(m: int) -> list[int]:
    """The prime-power orders whose cyclic groups sum to Z/m."""
    out, p = [], 2
    while m > 1:
        q = 1
        while m % p == 0:
            m, q = m // p, q * p
        if q > 1:
            out.append(q)
        p += 1
    return out


def _direct_sum(groups) -> tuple:
    exprs = [parse_expr(g) for g in groups]
    finite = [d for e in exprs for d in e.finite.invariant_factors]
    return (FinAbGroup.from_factors(finite), sum(e.circle_rank for e in exprs),
            sorted(s for e in exprs for s in e.opaque))
