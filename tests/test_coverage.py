"""Coverage lock: every query of each grid below ends with a documented exit
and no traceback, and its outputs cannot silently change.

`run_grid` runs a grid's queries in process, in a fresh temporary working
directory, and hashes every query's argv, exit code, stdout and stderr
(and, on the `ahss` grid, the text of the pages file it wrote, "" if none)
into one sha256.  tests/golden/coverage.json locks that sha256 per grid
and, for the `ahss` grid, the answered count per (label, space degree n,
total degree N), the label naming the spectrum and flags.  A query is
answered when it exits 0 (a verdict) or 4 (inconclusive, naming the
differential that blocks it); 2 and 3 are the documented refusals.  After a
change meant to move outputs, `PYTHONPATH=src python tests/test_coverage.py`
rewrites every CLI lock, this one and each tests/golden/<case>.json of
tests/test_golden.py; list the grids and cases that moved.
The help and usage-error grid is checked but not locked: argparse's help
layout differs between Python versions, so CI prints its `help_sha256`.
"""

import hashlib
import json
import os
import re
import tempfile
import traceback
from collections import Counter
from itertools import product
from pathlib import Path
from unittest import mock

import pytest

from conftest import capture
from surfcond import cli

GOLDEN = Path(__file__).parent / "golden" / "coverage.json"

SPECTRA = ("SH", "SW", "Spin")
GROUPS = (
    "Z/2", "Z/3", "Z/4", "Z/6", "Z/8", "Z/2 x Z/2", "Z/2 x Z/4", "Z/4 x Z/4",
    "Z/3 x Z/3", "Z/3 x Z/6", "Z/2 x Z/6",
)
TWIST = ["--twist", "fermion-parity"]
D5 = ["--d5", "zero"]
PAGES = ["--json", "--dump-pages", "pages.json"]

def exits(*codes):
    """The check that a query exits with one of codes."""
    return lambda argv, code, out, err: code in codes


documented = exits(0, 2, 3, 4)


def run_grid(name, queries, ok=documented, pages=False) -> tuple[Counter, str]:
    """The answered count per cell of queries, pairs (cell, argv), and one
    sha256 over each query's repr((argv, exit code, stdout, stderr)), with
    the text of `pages.json` appended where pages asks.  Fails, naming the
    grid, on a traceback or where ok(argv, code, out, err) is false."""
    digest, counts, failures, cwd = hashlib.sha256(), Counter(), [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for cell, argv in queries:
                try:
                    code, out, err = capture(argv)
                except Exception:  # the grid goes on, and fails on the traceback
                    code, out, err = None, "", traceback.format_exc()
                result = (argv, code, out, err)
                if pages:
                    path = Path(PAGES[-1])
                    result += (path.read_text() if path.exists() else "",)
                    path.unlink(missing_ok=True)
                digest.update(repr(result).encode())
                counts[cell] += code in (0, 4)
                if "Traceback" in err or not ok(argv, code, out, err):
                    failures.append(f"{' '.join(argv)}: exit {code}\n{err}")
        finally:
            os.chdir(cwd)
    assert not failures, (f"{name} grid: {len(failures)} queries failing, first:\n"
                          + "\n".join(failures[:5]))
    return counts, digest.hexdigest()


def ahss_grid():
    """Each spectrum, untwisted and twisted, with and without `--d5 zero`,
    as text and as `--json --dump-pages`, on each group, n = 1..5, N = 0..10."""
    for d5, pages in product(([], D5), ([], PAGES)):
        for spec, twist in product(SPECTRA, ([], TWIST)):
            label = " ".join([spec, *twist, *d5, *pages[:2]])
            for group, n, N in product(GROUPS, range(1, 6), range(11)):
                yield (label, str(n), N), [
                    "ahss", "--spectrum", spec, "--group", group, "--space-degree", str(n),
                    "--total-degree", str(N), *twist, *d5, *pages]


# rows made Z/2 where the model defines no d2, a row made C^x, circle-row
# and comparison overrides, and malformed files (exit 2)
OVERRIDES = (
    {"spectrum": {"SH": {"3": "Z/2"}}},
    {"spectrum": {"SW": {"0": "Z/2"}, "Spin": {"5": "Z/2"}}},
    {"spectrum": {"SW": {"3": "Z/2", "4": "0"}}},
    {"spectrum": {"SH": {"1": "C^x"}}},
    {"circle_row": {"Z/2|2": {"5": "0"}, "Z/4|2": {"6": "Z/2"}}},
    {"comparison": {"Z/2|2|5": {"Sq2 Sq1(i2)": [1]}}},
    {"spectrum": {"SW": ["4"]}},
    {"spectrum": {"SW": {"4": "Z/x"}}},
    ["not", "an", "object"],
)


def override_grid():
    """`ahss` queries under each override file, which is written into the
    working directory first, so no argv or message holds a path."""
    for k, raw in enumerate(OVERRIDES):
        Path(f"ov{k}.json").write_text(json.dumps(raw))
        for spec, group, n, N in product(SPECTRA, ("Z/2", "Z/4", "Z/2 x Z/2"), (2, 4), range(8)):
            yield None, ["ahss", "--spectrum", spec, "--group", group, "--space-degree", str(n),
                         "--total-degree", str(N), "--coeff-overrides", f"ov{k}.json"]


BRANCHES = tuple(product(("bosonic", "fermionic"), ("braided", "symmetric")))


def obstruction_grid(group):
    for statistic, level in BRANCHES:
        yield None, ["obstruction", "--group", group, "--statistic", statistic, "--level", level]


LEVELS = ("fusion", "braided", "sylleptic", "symmetric")
PI0 = ("0", "Z/2", "Z/4", "Z/2 x Z/2", "Z/2 x Z/4", "Z/x", "Z/0", "Z/2 x")
IDS = ("2Vec", "2SVec", "2Rep(S3)", "2Rep(S3,z)", "2Rep()", "garbage")
FERMIONIC = ("yes", "no", "true", "false", "1", "0", "YES", "No", "maybe", "")
STRAY = (
    "", ";", ";;", "=", "braided;", ";braided", "braided;;pi0=Z/2", "pi0=",
    "=Z/2", "pi0==Z/2", "braided=", "pi0=Z/2=Z/4", "braided; pi0=Z/2; ;", "bogus",
)


def descriptor_grid():
    """(descriptor, pi0 literal) pairs: every level x pi0 x id tag, every
    level x id tag x fermionic= spelling, and stray separators."""
    for level, pi0, ident in product(LEVELS, PI0, IDS):
        yield f"{level}; pi0={pi0}; id={ident}", pi0
    for level, ident, ferm in product(LEVELS, IDS, FERMIONIC):
        yield f"{level}; pi0=Z/4; id={ident}; fermionic={ferm}", "Z/4"
    for text in STRAY:
        yield text, "0"


def condense_grid():
    """Each descriptor alone, with each --algebra literal (the whole pi0
    among them), and with --phi, alone and beside each --algebra literal."""
    for text, pi0 in descriptor_grid():
        base = ["condense", "--descriptor", text]
        yield None, base
        yield None, base + ["--phi"]
        for algebra in ("Z/2", "Z/4 diag", "Z/0", pi0):
            yield None, base + ["--algebra", algebra]
            yield None, base + ["--phi", "--algebra", algebra]


STEENROD_WORDS = (
    "Sq0", "Sq0 Sq2", "b0", "Sq2 b0", "b1", "b2", "b_2", "b2 Sq2", "Sq1 b2", "Sq2 Sq1 b3",
    "", " ", "+", "Sq2 +", "+ Sq2", "Sq2 + + Sq1", "Sq2 + Sq1", "Sq3 + Sq2 Sq1",
    "Sq4 + Sq2 b2", "Sq2 Sq2 + Sq3 Sq1", "1", "1 + Sq1", "Sq2 1", "sq", "Sq-1", "Sqx",
    "b", "b-1", "Sq2 Sq3 Sq5 Sq7", "Sq16 Sq8 Sq4 Sq2 Sq1",
)


def emcoh_grid():
    """Each group, n = 1..5 and --max-degree 0..12, as text and as --json;
    K(Z/2^k, 1) with k >= 2 is refused (exit 3)."""
    for json_flag, group, n, top in product(([], ["--json"]), GROUPS, range(1, 6), range(13)):
        yield None, ["emcoh", "--group", group, "--space-degree", str(n),
                     "--max-degree", str(top), *json_flag]


# name -> (queries, which exits and outputs are documented)
GRIDS = {
    "ahss": (ahss_grid, documented),
    "override": (override_grid, documented),
    "survey": (lambda: ((None, ["survey", "--max-order", "16", "--statistic", s, "--level", lv])
                        for s, lv in BRANCHES),
               exits(0)),
    **{f"obstruction --group {group}": (lambda group=group: obstruction_grid(group),
                                        lambda argv, code, out, err: code == 0 and "verdict:" in out)
       for group in GROUPS},
    # --phi would ignore --algebra, so together they must exit 2
    "condense": (condense_grid, lambda argv, code, out, err:
                 code in ((2,) if "--phi" in argv and "--algebra" in argv else (0, 2))),
    "steenrod": (lambda: ((None, ["steenrod", "--word", word]) for word in STEENROD_WORDS),
                 exits(0, 2)),
    "emcoh": (emcoh_grid, exits(0, 3)),
}


def lock_entry(name) -> dict:
    """What the lock holds for a grid: its sha256 and, for the `ahss` grid,
    which alone hashes pages text, {label: {n: [answered count per N]}}."""
    queries, ok = GRIDS[name]
    counts, sha = run_grid(name, queries(), ok, pages=name == "ahss")
    if name != "ahss":
        return {"sha256": sha}
    rows = {}
    for (label, n, _N), count in counts.items():  # in grid order, N ascending
        rows.setdefault(label, {}).setdefault(n, []).append(count)
    return {"answered": rows, "sha256": sha}


def assert_locked(name):
    assert lock_entry(name) == json.loads(GOLDEN.read_text()).get(name), (
        f"the {name} grid moved from its lock in {GOLDEN.name}; if that is meant, "
        "rewrite the lock with `PYTHONPATH=src python tests/test_coverage.py`")


def test_ahss_grid_exits_are_documented_and_answered_counts_locked():
    assert_locked("ahss")


def test_ahss_override_grid_exits_are_documented():
    assert_locked("override")


def test_survey_answers_on_every_branch():
    assert_locked("survey")


@pytest.mark.parametrize("group", GROUPS)
def test_obstruction_answers_on_every_branch(group):
    assert_locked(f"obstruction --group {group}")


def test_condense_descriptor_grid_exits_are_documented():
    assert_locked("condense")


def test_steenrod_word_grid_exits_are_documented():
    assert_locked("steenrod")


def test_emcoh_grid_exits_are_documented():
    assert_locked("emcoh")


def test_a_grid_that_moves_or_refuses_fails_naming_itself(tmp_path, monkeypatch):
    words = lambda: ((None, ["steenrod", "--word", word]) for word in ("Sq2 Sq2", "Sqx"))
    monkeypatch.setitem(GRIDS, "two words", (words, exits(0, 2)))
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path / "coverage.json")
    GOLDEN.write_text(json.dumps({"two words": {"sha256": "0" * 64}}))
    with pytest.raises(AssertionError, match="the two words grid moved"):
        assert_locked("two words")
    with pytest.raises(AssertionError, match="two words grid: 1 queries failing"):
        run_grid("two words", words(), exits(0))


def help_queries() -> list[list[str]]:
    """`surfcond --help`, each subcommand's `--help`, one usage error per
    subcommand, and one stray argument."""
    usage_errors = (
        ["emcoh", "--group", "Z/2"],
        ["steenrod"],
        ["ahss", "--spectrum", "KO", "--group", "Z/2", "--space-degree", "2", "--total-degree", "4"],
        ["obstruction", "--group", "Z/2", "--statistic", "anyonic", "--level", "braided"],
        ["condense", "--pi0"],
        ["survey", "--level", "sylleptic"],
        ["selftest", "--json=yes"],
        ["selftest", "--seconds", "1"],  # a stray argument reports through its subcommand
    )
    return [["--help"]] + [[command, "--help"] for command in cli.COMMANDS] + list(usage_errors)


def help_ok(argv, code, out, err) -> bool:
    if "--help" in argv:
        return (code, err) == (0, "") and out.startswith("usage: surfcond")
    return code == 2 and out == "" and f"surfcond {argv[0]}: error:" in err


def help_sha256() -> str:
    """The sha256 of the help grid on an 80-column terminal: argparse wraps
    help text to the width it reads from COLUMNS."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return run_grid("help", ((None, argv) for argv in help_queries()), help_ok)[1]


def test_help_exits_0_and_usage_errors_exit_2():
    help_sha256()


if __name__ == "__main__":
    from test_golden import CASES

    text = json.dumps({name: lock_entry(name) for name in GRIDS}, indent=1)
    # one line per list of answered counts
    GOLDEN.write_text(re.sub(r"\[[^\[\]]*\]", lambda m: json.dumps(json.loads(m[0])), text) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # --dump-pages writes into the working directory
        for name, (argv, _code) in CASES.items():
            (GOLDEN.parent / f"{name}.json").write_text(capture(argv + ["--json"])[1])
    print(f"wrote {GOLDEN} and {len(CASES)} golden cases beside it")
