"""Byte-for-byte lock on the CLI's --json output.

Each case runs `surfcond <argv> --json` and compares stdout with
tests/golden/<name>.json.  The cases are the README examples plus
--dump-pages runs that cover every d2 rule (sq2, sq2_twisted, exp_sq2,
exp_sq2_twisted), a degree-4 base, and the four survey branches.  After an
intended output change, `PYTHONPATH=src python tests/test_coverage.py`
rewrites these files together with the coverage lock.
"""

from pathlib import Path

import pytest

from conftest import capture

GOLDEN = Path(__file__).parent / "golden"

AHSS_SW_Z2 = ["ahss", "--spectrum", "SW", "--group", "Z/2", "--space-degree", "2",
              "--total-degree", "5"]

# name -> (argv without --json, expected exit code)
CASES = {
    "readme_emcoh_z4": (
        ["emcoh", "--group", "Z/4", "--space-degree", "2", "--max-degree", "8"], 0),
    "readme_steenrod": (["steenrod", "--word", "Sq2 Sq2"], 0),
    "readme_ahss_sw_z2": (AHSS_SW_Z2 + ["--d5", "zero"], 0),
    "readme_ahss_sw_z2_twisted_pages": (
        AHSS_SW_Z2 + ["--twist", "fermion-parity", "--d5", "zero", "--dump-pages", "pages.json"], 0),
    "readme_ahss_sh_z2xz2": (
        ["ahss", "--spectrum", "SH", "--group", "Z/2 x Z/2", "--space-degree", "4",
         "--total-degree", "7"], 0),
    "readme_obstruction_z8": (
        ["obstruction", "--group", "Z/8", "--statistic", "fermionic", "--level", "braided"], 0),
    "readme_condense_z4": (
        ["condense", "--pi0", "Z/4", "--algebra", "Z/2", "--level", "braided"], 0),
    # sq2 and exp_sq2
    "pages_sw_z2": (AHSS_SW_Z2 + ["--d5", "zero", "--dump-pages", "pages.json"], 0),
    "pages_sw_z4": (
        ["ahss", "--spectrum", "SW", "--group", "Z/4", "--space-degree", "2",
         "--total-degree", "5", "--d5", "zero", "--dump-pages", "pages.json"], 0),
    "pages_sh_z8_n4": (
        ["ahss", "--spectrum", "SH", "--group", "Z/8", "--space-degree", "2",
         "--total-degree", "4", "--dump-pages", "pages.json"], 0),
    # sq2_twisted and exp_sq2_twisted without the declared d5
    "pages_sw_z2_twisted_inconclusive": (
        AHSS_SW_Z2 + ["--twist", "fermion-parity", "--dump-pages", "pages.json"], 4),
    "pages_sw_z2_twisted_n3": (
        ["ahss", "--spectrum", "SW", "--group", "Z/2", "--space-degree", "2",
         "--total-degree", "3", "--twist", "fermion-parity", "--dump-pages", "pages.json"], 0),
    "pages_sh_z4_degree4": (
        ["ahss", "--spectrum", "SH", "--group", "Z/4", "--space-degree", "4",
         "--total-degree", "7", "--dump-pages", "pages.json"], 0),
    "pages_sh_z2_degree4": (
        ["ahss", "--spectrum", "SH", "--group", "Z/2", "--space-degree", "4",
         "--total-degree", "7", "--dump-pages", "pages.json"], 0),
    "split_sw_z2xz4": (
        ["ahss", "--spectrum", "SW", "--group", "Z/2 x Z/4", "--space-degree", "2",
         "--total-degree", "5"], 4),
    "split_sh_z2xz6": (
        ["ahss", "--spectrum", "SH", "--group", "Z/2 x Z/6", "--space-degree", "2",
         "--total-degree", "5"], 0),
    # every statistic/level branch of the survey up to order 8
    **{
        f"survey_{statistic}_{level}": (
            ["survey", "--max-order", "8", "--statistic", statistic, "--level", level], 0)
        for statistic in ("bosonic", "fermionic")
        for level in ("braided", "symmetric")
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_is_unchanged(name, tmp_path, monkeypatch):
    argv, expected_code = CASES[name]
    monkeypatch.chdir(tmp_path)  # --dump-pages writes into the working directory
    code, out, _err = capture(argv + ["--json"])
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.json").read_text()
