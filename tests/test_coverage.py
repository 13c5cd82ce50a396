"""Coverage lock on the `ahss` grid: every query ends with a documented exit
code, and the number of answered queries per cell cannot silently change.
The `survey`, `condense` and `steenrod` grids below must exit within their
own documented sets, again with no traceback.

A query is answered when it exits 0 (a verdict) or 4 (inconclusive, naming
the differential that blocks it); 2 and 3 are the documented refusals.  An
exception escaping `cli.main` is recorded as a traceback and fails the lock.
tests/golden/coverage.json holds the answered count per (spectrum, space
degree n, total degree N) of the tier-1 grid; the twisted runs count under
"SW --twist fermion-parity".  After a change that answers more, rewrite it
with `PYTHONPATH=src python tests/test_coverage.py` and list the new cells.
The full grid (n = 1..5, N = 0..10, both twist settings on every spectrum,
with and without `--d5 zero`, each query as text and as `--json
--dump-pages`) runs in CI through `print_grid_hashes`, which also prints
one sha256 over every query's argv, exit code, stdout, stderr and
pages-file text, one over the override grid's argv, exit code, stdout
and stderr, and one over those of `surfcond --help`, each subcommand's
`--help` and one usage error per subcommand (`help_sha256`).  To reproduce
the three hashes locally:
`PYTHONPATH=src:tests python -c 'import test_coverage as t; t.print_grid_hashes()'`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from itertools import chain, product
from pathlib import Path
from unittest import mock

import pytest

from surfcond import cli

GOLDEN = Path(__file__).parent / "golden" / "coverage.json"

SPECTRA = ("SH", "SW", "Spin")
GROUPS = (
    "Z/2", "Z/3", "Z/4", "Z/6", "Z/8", "Z/2 x Z/2", "Z/2 x Z/4", "Z/4 x Z/4",
    "Z/3 x Z/3", "Z/3 x Z/6", "Z/2 x Z/6",
)
DOCUMENTED_EXITS = {0, 2, 3, 4}
TWIST = ["--twist", "fermion-parity"]
D5 = ["--d5", "zero"]
# building the parser is most of an in-process query's cost; one serves all
PARSER = cli.build_parser()


def run_query(argv: list[str]) -> tuple[int | None, str, str]:
    """Exit code, stdout and stderr of one in-process `surfcond` call; the
    code is None, and stderr holds the traceback, if an exception escaped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "build_parser", return_value=PARSER):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors exit 2
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def sweep(space_degrees, total_degrees, twisted_spectra, d5=False, dump_pages=False):
    """(label, n, N, argv, code, stdout, stderr, pages text) for each `ahss`
    query of the grid: every spectrum and group of the grid, untwisted, and
    also twisted on the spectra named in twisted_spectra; each with `--d5
    zero` if d5 asks, and as `--json --dump-pages pages.json` if dump_pages
    asks.  That file is written in a temporary directory, and its text is
    "" where the query wrote none."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "pages.json")
        pages = ["--json", "--dump-pages", path.name] if dump_pages else []
        for spec in SPECTRA:
            for twist in ([], TWIST) if spec in twisted_spectra else ([],):
                flags = twist + (D5 if d5 else [])
                label = " ".join([spec] + flags + pages[:2])
                for group in GROUPS:
                    for n in space_degrees:
                        for N in total_degrees:
                            argv = ["ahss", "--spectrum", spec, "--group", group, "--space-degree",
                                    str(n), "--total-degree", str(N)] + flags + pages
                            # argv names the pages file alone, so it reads the same in every run
                            code, out, err = run_query(argv[:-1] + [str(path)] if pages else argv)
                            text = path.read_text() if path.exists() else ""
                            path.unlink(missing_ok=True)
                            yield label, n, N, argv, code, out, err, text


def answered_counts(results) -> tuple[dict, list[str]]:
    """{label: {n: [answered count for each N]}} and the failing queries:
    an exit outside DOCUMENTED_EXITS or a traceback on stderr."""
    counts: dict[str, dict[str, dict[int, int]]] = {}
    failures = []
    for label, n, N, argv, code, _out, err, _pages in results:
        if code not in DOCUMENTED_EXITS or "Traceback" in err:
            failures.append(f"{' '.join(argv)}: exit {code}\n{err}")
        row = counts.setdefault(label, {}).setdefault(str(n), {})
        row[N] = row.get(N, 0) + (code in (0, 4))
    return (
        {label: {n: [c for _N, c in sorted(row.items())] for n, row in by_n.items()}
         for label, by_n in counts.items()},
        failures,
    )


def tier1_grid():
    return sweep(range(1, 5), range(0, 9), twisted_spectra={"SW"})


def test_ahss_grid_exits_are_documented_and_answered_counts_locked():
    counts, failures = answered_counts(tier1_grid())
    assert not failures, "\n".join(failures[:5])
    assert counts == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("group", GROUPS)
def test_obstruction_answers_on_every_branch(group):
    for statistic in ("bosonic", "fermionic"):
        for level in ("braided", "symmetric"):
            argv = ["obstruction", "--group", group, "--statistic", statistic, "--level", level]
            code, out, err = run_query(argv)
            assert code == 0, f"{' '.join(argv)}: exit {code}\n{err}"
            assert "verdict:" in out


def assert_exits(queries, documented):
    """Every argv of queries exits within documented, with no traceback."""
    failures = []
    for argv in queries:
        code, _out, err = run_query(argv)
        if code not in documented or "Traceback" in err:
            failures.append(f"{argv}: exit {code}\n{err}")
    assert not failures, f"{len(failures)} failing, first:\n" + "\n".join(failures[:5])


def test_survey_answers_on_every_branch():
    assert_exits(
        (["survey", "--max-order", "16", "--statistic", statistic, "--level", level]
         for statistic, level in product(("bosonic", "fermionic"), ("braided", "symmetric"))),
        {0},
    )


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


def override_queries(directory) -> list[list[str]]:
    """Write each override file into directory, and return the `ahss`
    queries of the override grid.  They name the files relative to
    directory, so run there, no argv or error message holds its path."""
    queries = []
    for k, raw in enumerate(OVERRIDES):
        Path(directory, f"ov{k}.json").write_text(json.dumps(raw))
        for spec, group, n, N in product(SPECTRA, ("Z/2", "Z/4", "Z/2 x Z/2"), (2, 4), range(8)):
            queries.append(["ahss", "--spectrum", spec, "--group", group, "--space-degree",
                            str(n), "--total-degree", str(N), "--coeff-overrides", f"ov{k}.json"])
    return queries


def test_ahss_override_grid_exits_are_documented(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert_exits(override_queries(tmp_path), DOCUMENTED_EXITS)


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


def test_help_exits_0_and_usage_errors_exit_2():
    for argv in help_queries():
        code, out, err = run_query(argv)
        if "--help" in argv:
            assert (code, err) == (0, "") and out.startswith("usage: surfcond"), argv
        else:
            assert code == 2 and out == "" and f"surfcond {argv[0]}: error:" in err, argv


def help_sha256() -> str:
    """sha256 over the argv, exit code, stdout and stderr of each of
    help_queries(), on an 80-column terminal: argparse wraps help text to
    the width it reads from COLUMNS."""
    digest = hashlib.sha256()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in help_queries():
            digest.update(repr((argv, *run_query(argv))).encode())
    return digest.hexdigest()


def print_grid_hashes() -> int:
    """Print the answered count per spectrum of the full `ahss` grid, one
    sha256 over each of its queries' argv, exit code, stdout, stderr and
    pages text, one sha256 over the override grid's argv, exit code, stdout
    and stderr, one over the help and usage-error queries (help_sha256), and
    the full grid's failing queries; 1 if there are any."""
    digest = hashlib.sha256()

    def hashed(results):
        for result in results:  # argv, exit code, stdout, stderr, pages text
            digest.update(repr(result[3:]).encode())
            yield result

    counts, failures = answered_counts(hashed(chain.from_iterable(
        sweep(range(1, 6), range(0, 11), twisted_spectra=SPECTRA, d5=d5, dump_pages=dump)
        for d5, dump in product((False, True), repeat=2))))
    for label, by_n in counts.items():
        print("%-37s %4d answered" % (label, sum(map(sum, by_n.values()))))
    print("sha256 over every query (argv, exit code, stdout, stderr, pages text): %s"
          % digest.hexdigest())
    overrides, cwd = hashlib.sha256(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in override_queries(tmp):
                overrides.update(repr((argv, *run_query(argv))).encode())
        finally:
            os.chdir(cwd)
    print("sha256 over the override grid (argv, exit code, stdout, stderr): %s"
          % overrides.hexdigest())
    print("sha256 over --help and usage errors (argv, exit code, stdout, stderr; COLUMNS=80): %s"
          % help_sha256())
    print("\n".join(failures))
    return 1 if failures else 0


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
        yield base
        yield base + ["--phi"]
        for algebra in ("Z/2", "Z/4 diag", "Z/0", pi0):
            yield base + ["--algebra", algebra]
            yield base + ["--phi", "--algebra", algebra]


def test_condense_descriptor_grid_exits_are_documented():
    answerable, ignored = [], []  # --phi would ignore --algebra
    for argv in condense_grid():
        (ignored if "--phi" in argv and "--algebra" in argv else answerable).append(argv)
    assert_exits(answerable, {0, 2})
    assert_exits(ignored, {2})


STEENROD_WORDS = (
    "Sq0", "Sq0 Sq2", "b0", "Sq2 b0", "b1", "b2", "b_2", "b2 Sq2", "Sq1 b2", "Sq2 Sq1 b3",
    "", " ", "+", "Sq2 +", "+ Sq2", "Sq2 + + Sq1", "Sq2 + Sq1", "Sq3 + Sq2 Sq1",
    "Sq4 + Sq2 b2", "Sq2 Sq2 + Sq3 Sq1", "1", "1 + Sq1", "Sq2 1", "sq", "Sq-1", "Sqx",
    "b", "b-1", "Sq2 Sq3 Sq5 Sq7", "Sq16 Sq8 Sq4 Sq2 Sq1",
)


def test_steenrod_word_grid_exits_are_documented():
    assert_exits((["steenrod", "--word", word] for word in STEENROD_WORDS), {0, 2})


if __name__ == "__main__":
    counts, failures = answered_counts(tier1_grid())
    if failures:
        sys.exit("\n".join(failures))
    GOLDEN.write_text(
        "{\n" + ",\n".join(
            f" {json.dumps(label)}: {{\n" + ",\n".join(
                f"  {json.dumps(n)}: {json.dumps(row)}" for n, row in by_n.items()
            ) + "\n }"
            for label, by_n in counts.items()
        ) + "\n}\n"
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
