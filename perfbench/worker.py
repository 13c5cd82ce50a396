"""One pass of a workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N --pass-index K --trace 0|1

run.py starts it this way, from the root of a copy of the checkout.
surfcond must be imported from the ``src/`` beside this file's directory.

Prints one JSON line ``{"ready": t}`` once the workload's surfcond imports
and input generation are done, with t read from the system-wide monotonic
clock so that the parent can subtract its own spawn time.  Then it runs
every operation once, checks each output, and prints one JSON line with the
outcomes, the process's peak RSS and, with ``--trace 1``, the per-layer
metrics of the pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import signal
import sys
import time

import layers
import workloads
from speed import Speed
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESCALE_AFTER_MS = 100.0


def run_isolated(op: workloads.Op):
    """Run op in a forked child; kill it at the deadline.

    Returns (seconds, value, error, missed).  The child's memory never
    counts towards this process's peak RSS.
    """
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = {"value": op.canon(op.run())}
        except Exception as exc:  # reported to the parent as a failed operation
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        os.write(write_fd, json.dumps(payload).encode())
        os._exit(0)
    os.close(write_fd)
    try:
        ready, _, _ = select.select([read_fd], [], [], op.deadline_s)
        if not ready:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return time.perf_counter() - t0, None, None, True
        chunks = []
        while chunk := os.read(read_fd, 1 << 16):
            chunks.append(chunk)
        seconds = time.perf_counter() - t0
        os.waitpid(pid, 0)
    finally:
        os.close(read_fd)
    payload = json.loads(b"".join(chunks) or b'{"error": "child exited without a result"}')
    return seconds, payload.get("value"), payload.get("error"), seconds > op.deadline_s


def run_op(op: workloads.Op, golden: dict | None, tracer: Tracer | None = None) -> dict:
    """Time one operation and check its output.

    An operation fails on a wrong output, an exception, or a missed
    deadline, unless the miss is the op's documented known blow-up.
    """
    error = value = raw = None
    if op.isolated:
        seconds, value, error, missed = run_isolated(op)
    else:
        span = tracer.open("workload.op") if tracer else None
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a crash is a failed operation, not an abort
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        missed = seconds > op.deadline_s
        if error is None:
            value = op.canon(raw)
    if error is not None:
        reason = f"raised {error}"
    elif missed:
        reason = f"missed the {op.deadline_s:g} s deadline"
    else:
        reason = workloads.check(op, value, golden)
    outcome = {
        "name": op.name,
        "ms": seconds * 1000.0,
        "failed": reason is not None and not (missed and op.known_miss),
        "known_miss": missed and op.known_miss,
        "reason": reason,
    }
    if op.layers is not None and raw is not None:
        outcome["layers"] = op.layers(raw)
    return outcome


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, golden: dict | None,
             setup_only: bool = False):
    """Build the workload's operations, report readiness, and run them."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    ops = workloads.OPERATIONS[workload](rng)
    ledger = layers.CacheLedger()
    tracer = None
    if trace:
        layers.import_layers()
        tracer = Tracer()
        tracer.install(layers.PACKAGE, layers.TARGETS)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if setup_only:
        return None
    outcomes, pending = [], []
    speed = Speed()
    before = speed.last
    try:
        for index, op in enumerate(ops):
            if workload in workloads.FRESH_CACHES:
                ledger.clear()
            if tracer:
                tracer.op_id = index
            outcomes.append(run_op(op, golden, tracer))
            pending.append(outcomes[-1])
            # a long operation gets a speed reading of its own; short ones share one
            if outcomes[-1]["ms"] >= RESCALE_AFTER_MS or index == len(ops) - 1:
                scale = speed.scale_since(before)
                before = speed.last
                for outcome in pending:
                    outcome["scale"] = scale
                pending = []
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "ops": outcomes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        check_ms = {}
        for outcome in outcomes:
            check_ms.update(outcome.pop("layers", {}))
        acceptance = sys.modules.get(f"{layers.PACKAGE}.acceptance")
        check_names = {fn.__name__ for _n, fn in getattr(acceptance, "CHECKS", [])}
        values, absent = layers.worker_metrics(
            tracer.spans, tracer.absent, ledger.totals(), check_ms, check_names
        )
        result["layers"] = values
        result["absent"] = absent
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPERATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the ready line is printed")
    args = ap.parse_args()
    golden = workloads.load_golden()[args.workload]
    result = run_pass(args.workload, args.seed, args.pass_index, bool(args.trace), golden,
                      args.setup_only)
    package = sys.modules.get(layers.PACKAGE)
    if package is None or not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        print(f"error: {layers.PACKAGE} was not imported from {SRC}", file=sys.stderr)
        return 2
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
