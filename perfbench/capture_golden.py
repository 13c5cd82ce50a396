"""Record the golden output of every benchmark operation.

    python3 perfbench/capture_golden.py

Runs each operation once against the package in ``src/`` and writes
``perfbench/golden.json``.  Run it only at a commit whose outputs are
trusted: every later benchmark run compares its outputs with this file.
An operation that misses its deadline gets no golden entry, so that only
its independent answer is checked if a later version finishes it.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from worker import run_isolated  # noqa: E402


def capture(workload: str) -> dict:
    out = {}
    for op in workloads.OPERATIONS[workload](random.Random(0)):
        if op.isolated:
            _seconds, value, error, missed = run_isolated(op)
            if missed:
                print(f"{workload}: {op.name} missed its deadline; no golden entry")
                continue
            if error:
                raise RuntimeError(f"{op.name}: {error}")
        else:
            value = op.canon(op.run())
        reason = op.oracle(value) if op.oracle else None
        if reason:
            raise RuntimeError(f"{op.name} disagrees with its independent answer: {reason}")
        out[op.name] = value
    return out


def main() -> int:
    golden = {workload: capture(workload) for workload in workloads.OPERATIONS}
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in golden.values())} golden outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
