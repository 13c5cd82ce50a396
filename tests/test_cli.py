import json

import pytest

from surfcond.cli import main, render_payload


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, ["steenrod", "--word", "Sq2 Sq2"])
        assert code == 0
        assert "Sq3 Sq1" in out

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

    def test_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, ["ahss", "--spectrum", "SW", "--group", "Z/2",
                     "--space-degree", "2", "--total-degree", "5",
                     "--twist", "fermion-parity"]
        )
        assert code == 4
        assert "blocker" in out
        assert "inconclusive" in out

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


SW_Z2_DEG5 = ["ahss", "--spectrum", "SW", "--group", "Z/2", "--space-degree", "2",
              "--total-degree", "5"]


class TestExitContract:
    def test_assertion_is_internal_failure(self, capsys, monkeypatch):
        import surfcond.cli as cli

        def broken(*_args, **_kwargs):
            raise AssertionError("negative dimension at (2,3)")

        monkeypatch.setattr(cli, "run_ahss", broken)
        code, out, err = run(capsys, SW_Z2_DEG5)
        assert code == 5
        assert out == ""
        assert err == "internal invariant failure: negative dimension at (2,3)\n"

    def test_d2_squared_failure_from_overrides(self, capsys, tmp_path):
        # declaring (-1)^(Sq1(i2)^2) nonzero breaks d2 o d2 = 0 on (2,2) -> (4,1)
        path = tmp_path / "ov.json"
        path.write_text(json.dumps({"comparison": {"Z/2|2|6": {"Sq1(i2)^2": [1]}}}))
        code, _, err = run(capsys, SW_Z2_DEG5 + ["--coeff-overrides", str(path)])
        assert code == 5
        assert "d2 squared nonzero on chain (2,2) -> (4,1)" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (SW_Z2_DEG5[:-1] + ["-1"], "--total-degree"),
            (["ahss", "--spectrum", "SH", "--group", "0", "--space-degree", "-2",
              "--total-degree", "3"], "--space-degree"),
            (["emcoh", "--group", "Z/2", "--space-degree", "2", "--max-degree", "-3"],
             "--max-degree"),
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
        ],
        ids=[
            "table-list", "row-key-no-n", "comparison-key-no-degree", "degree-word",
            "unknown-monomial"
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

        real, calls = ahss.circle_row, []
        monkeypatch.setattr(ahss, "circle_row", lambda *a, **k: calls.append(a) or real(*a, **k))
        code, _, _ = run(capsys, SW_Z2_DEG5 + ["--dump-pages", str(tmp_path / "pages.json")])
        assert code == 0
        assert len(calls) == 1

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
