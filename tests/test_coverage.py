"""Coverage lock on the `ahss` grid: every query ends with a documented exit
code, and the number of answered queries per cell cannot silently change.

A query is answered when it exits 0 (a verdict) or 4 (inconclusive, naming
the differential that blocks it); 2 and 3 are the documented refusals.  An
exception escaping `cli.main` is recorded as a traceback and fails the lock.
tests/golden/coverage.json holds the answered count per (spectrum, space
degree n, total degree N) of the tier-1 grid; the twisted runs count under
"SW --twist fermion-parity".  After a change that answers more, rewrite it
with `PYTHONPATH=src python tests/test_coverage.py` and list the new cells.
The full grid (n = 1..5, N = 0..10, both twist settings on every spectrum)
runs in CI through `sweep` and `answered_counts`.
"""

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path

import pytest

from surfcond.cli import main

GOLDEN = Path(__file__).parent / "golden" / "coverage.json"

SPECTRA = ("SH", "SW", "Spin")
GROUPS = (
    "Z/2", "Z/3", "Z/4", "Z/6", "Z/8", "Z/2 x Z/2", "Z/2 x Z/4", "Z/4 x Z/4",
    "Z/3 x Z/3", "Z/3 x Z/6", "Z/2 x Z/6",
)
DOCUMENTED_EXITS = {0, 2, 3, 4}
TWIST = ["--twist", "fermion-parity"]


def run_query(argv: list[str]) -> tuple[int | None, str, str]:
    """Exit code, stdout and stderr of one in-process `surfcond` call; the
    code is None, and stderr holds the traceback, if an exception escaped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def sweep(space_degrees, total_degrees, twisted_spectra):
    """(label, n, N, argv, code, stderr) for each `ahss` query of the grid:
    every spectrum and group of the grid, untwisted, and also twisted on the
    spectra named in twisted_spectra."""
    for spec in SPECTRA:
        for twist in ([], TWIST) if spec in twisted_spectra else ([],):
            label = " ".join([spec] + twist)
            for group in GROUPS:
                for n in space_degrees:
                    for N in total_degrees:
                        argv = ["ahss", "--spectrum", spec, "--group", group,
                                "--space-degree", str(n), "--total-degree", str(N)] + twist
                        code, _out, err = run_query(argv)
                        yield label, n, N, argv, code, err


def answered_counts(results) -> tuple[dict, list[str]]:
    """{label: {n: [answered count for each N]}} and the failing queries:
    an exit outside DOCUMENTED_EXITS or a traceback on stderr."""
    counts: dict[str, dict[str, dict[int, int]]] = {}
    failures = []
    for label, n, N, argv, code, err in results:
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
