"""surfcond benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; surfcond is imported from ``src/``.  One
client drives a closed loop: each pass runs the workload's operations one
after another, and passes repeat until ``--seconds`` have been measured.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate, traced run.  Earlier lines record the environment and a
readable summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
# write no bytecode into the checkout
sys.dont_write_bytecode = True

import layers  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402

WORKLOADS = ["cli", "survey", "algebra", "groups", "selftest"]
END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

START_SAMPLES = 5  # bare interpreter launches per run, the drift reference
SETUP_SAMPLES = 9  # fresh set-ups per run whose median is setup_s
MIN_PASSES = 3
QUERY_DEADLINE_S = 20.0
PASS_LIMIT_S = 90.0
RUN_LIMIT_S = 150.0  # no pass starts that could end after this

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import surfcond.cli; "
    "dt = time.perf_counter() - t; import surfcond; print(dt); print(surfcond.__file__)"
)

# the copy of src/ and perfbench/ that every process a run starts works
# from; see fresh_tree
TREE: str | None = None


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int
    timed_out: bool


@contextlib.contextmanager
def fresh_tree():
    """Copy src/ and perfbench/ without their bytecode for the processes started inside.

    Python loads the bytecode it finds in a ``__pycache__`` beside the
    sources, such as the one a test run leaves in ``src/surfcond``.  The
    copy has none, and the children write none, so each process compiles
    surfcond and the worker from source, while the standard library keeps
    its installed bytecode.  The copy is in the checkout and is removed at
    the end.
    """
    global TREE
    TREE = tempfile.mkdtemp(prefix=".perfbench-tree-", dir=ROOT)
    try:
        no_bytecode = shutil.ignore_patterns("__pycache__", "*.pyc")
        shutil.copytree(SRC, os.path.join(TREE, "src"), ignore=no_bytecode)
        shutil.copytree(HERE, os.path.join(TREE, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "tests"))
        yield TREE
    finally:
        shutil.rmtree(TREE, ignore_errors=True)
        TREE = None


def in_tree(*parts: str) -> str:
    if TREE is None:
        raise RuntimeError("child processes start only inside fresh_tree()")
    return os.path.join(TREE, *parts)


def child_env() -> dict:
    env = dict(os.environ)
    src = in_tree("src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv, limit_s: float) -> Child:
    """Run argv from the checkout root until it exits or limit_s passes.

    The wall time runs from before the spawn to after the child is reaped,
    so it includes interpreter start and exit.  The child gets its own
    process group, which is killed as a whole at the limit.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=in_tree(), env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    buffers = {proc.stdout.fileno(): bytearray(), proc.stderr.fileno(): bytearray()}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + limit_s - time.monotonic()
            if left <= 0:
                timed_out = True
                os.killpg(proc.pid, 9)
                break
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buffers[key.fd].extend(chunk)
                else:
                    sel.unregister(key.fileobj)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = buffers[proc.stdout.fileno()].decode(errors="replace")
    err = buffers[proc.stderr.fileno()].decode(errors="replace")
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out, err, wall, usage.ru_maxrss, timed_out)


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def interp_starts(speed: Speed, n: int) -> list[tuple[float, float]]:
    """(wall ms, scale) of bare `python -c pass` launches."""
    out = []
    for _ in range(n):
        child, scale = speed.around(lambda: run_child([sys.executable, "-c", "pass"], 30.0))
        out.append((child.wall_s * 1000.0, scale))
    return out


def import_probes(speed: Speed, n: int) -> list[tuple[float, float, float]]:
    """(process wall s, in-process import ms, scale) of fresh `import surfcond.cli`."""
    out = []
    for _ in range(n):
        child, scale = speed.around(lambda: run_child([sys.executable, "-c", IMPORT_PROBE], 60.0))
        lines = child.stdout.splitlines()
        if child.code != 0 or len(lines) != 2:
            raise RuntimeError(f"import surfcond.cli failed: {child.stderr.strip()[-300:]}")
        import_s, origin = lines
        if not os.path.abspath(origin).startswith(in_tree("src") + os.sep):
            raise RuntimeError(f"surfcond was imported from {origin}, not from the run's copy")
        out.append((child.wall_s, float(import_s) * 1000.0, scale))
    return out


# ---------------------------------------------------------------------------
# Passes


def cli_pass(speed: Speed, seed: int, pass_index: int, golden: dict) -> dict:
    """Every query as its own `python -m surfcond.cli` process."""
    argvs = dict(workloads.CLI_QUERIES)
    ops = workloads.cli_ops(random.Random(f"cli:{seed}:{pass_index}"))
    outcomes, peak = [], 0
    for op in ops:
        child, scale = speed.around(lambda: run_child(
            [sys.executable, "-m", "surfcond.cli", *argvs[op.name]], QUERY_DEADLINE_S))
        peak = max(peak, child.maxrss_kb)
        if child.timed_out:
            reason = f"missed the {QUERY_DEADLINE_S:g} s deadline"
        else:
            reason = workloads.check(op, workloads.cli_value(child.code, child.stdout), golden)
        outcomes.append({"name": op.name, "ms": child.wall_s * 1000.0, "scale": scale,
                         "failed": reason is not None, "known_miss": False, "reason": reason})
    return {"ops": outcomes, "maxrss_kb": peak}


def worker_pass(workload: str, seed: int, pass_index: int, trace: bool) -> dict:
    """One pass in a fresh worker process."""
    child = run_child(
        [sys.executable, in_tree("perfbench", "worker.py"), "--workload", workload,
         "--seed", str(seed), "--pass-index", str(pass_index), "--trace", str(int(trace))],
        PASS_LIMIT_S,
    )
    try:
        return json.loads(child.stdout.splitlines()[1])
    except (IndexError, ValueError):
        why = "timed out" if child.timed_out else f"exit {child.code}"
        return {"ops": [{"name": "worker", "ms": child.wall_s * 1000.0, "scale": 1.0,
                         "failed": True, "known_miss": False,
                         "reason": f"worker {why}: {child.stderr.strip()[-300:]}"}],
                "maxrss_kb": child.maxrss_kb, "crashed": True}


def setup_samples(speed: Speed, workload: str, seed: int) -> list[float]:
    """Seconds from spawn to ready of fresh set-ups, at the reference speed.

    For cli a set-up is a process that imports surfcond.cli, start to exit.
    """
    if workload == "cli":
        return [wall * scale for wall, _ms, scale in import_probes(speed, SETUP_SAMPLES)]
    out = []
    for k in range(SETUP_SAMPLES):
        t_spawn = time.monotonic()
        child, scale = speed.around(lambda: run_child(
            [sys.executable, in_tree("perfbench", "worker.py"), "--workload", workload,
             "--seed", str(seed), "--pass-index", str(k), "--setup-only"],
            PASS_LIMIT_S))
        lines = child.stdout.splitlines()
        if child.code != 0 or not lines:
            raise RuntimeError(f"{workload} set-up failed: {child.stderr.strip()[-300:]}")
        out.append((json.loads(lines[0])["ready"] - t_spawn) * scale)
    return out


def _scaled_ms(o: dict) -> float:
    """An operation's time at the reference speed.

    A known deadline miss lasted exactly its deadline, whatever the speed.
    """
    return o["ms"] if o["known_miss"] else o["ms"] * o["scale"]


def pass_s(p: dict, scaled: bool = True) -> float:
    return sum(_scaled_ms(o) if scaled else o["ms"] for o in p["ops"]) / 1000.0


def run_passes(start: float, seconds: int, make_pass, min_passes: int) -> list[dict]:
    """Closed loop: passes back to back until `seconds` have gone by."""
    passes: list[dict] = []
    longest = 0.0
    t_measure = time.monotonic()
    while True:
        now = time.monotonic()
        done = now - t_measure >= seconds and len(passes) >= min_passes
        if done or now - start + longest > RUN_LIMIT_S:
            return passes
        t0 = time.monotonic()
        passes.append(make_pass(len(passes)))
        longest = max(longest, time.monotonic() - t0)


def tally(passes) -> tuple[int, int, list[dict]]:
    ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in ops if o["failed"]]
    return len(ops), len(failed), failed


# ---------------------------------------------------------------------------
# Runs


def end_to_end(workload: str, seed: int, seconds: int, start: float, speed: Speed,
               golden: dict) -> dict:
    setups = setup_samples(speed, workload, seed)
    if workload == "cli":
        make_pass = lambda k: cli_pass(speed, seed, k, golden)  # noqa: E731
    else:
        make_pass = lambda k: worker_pass(workload, seed, k, False)  # noqa: E731
    passes = run_passes(start, seconds, make_pass, MIN_PASSES)
    attempted, failed, _ = tally(passes)
    # each operation's median over the passes, so that the percentiles rank
    # the operations of the mix rather than the noise between passes
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for o in p["ops"]:
            by_op.setdefault(o["name"], []).append(_scaled_ms(o))
    typical = [statistics.median(ms) for ms in by_op.values()]
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_s(p) for p in passes),
        "op_p50_ms": percentile(typical, 50),
        "op_p90_ms": percentile(typical, 90),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024.0,
    }
    unscaled = {"pass_s": statistics.median(pass_s(p, scaled=False) for p in passes)}
    return {"passes": passes, "values": values, "units": dict(END_TO_END), "absent": [],
            "unscaled": unscaled}


def traced(workload: str, seed: int, seconds: int, start: float, speed: Speed,
           starts: list[tuple[float, float]]) -> dict:
    """Alternate untraced and traced worker passes; layers come from the traced ones.

    starts are the run's bare interpreter launches.  A crashed pass already
    counts as a failed operation; it adds no samples.
    """
    imports = import_probes(speed, START_SAMPLES)
    passes = run_passes(start, seconds,
                        lambda k: worker_pass(workload, seed, k, k % 2 == 1), 2 * 2)
    plain = [pass_s(p) for p in passes[0::2] if not p.get("crashed")]
    with_trace = [p for p in passes[1::2] if not p.get("crashed")]
    values, absent = {}, set()
    for p in with_trace:
        absent.update(p["absent"])
    for metric, unit, _kind, _source in layers.WORKER_SPEC:
        samples = []
        for p in with_trace:
            if metric in p["layers"]:
                # layer times take the pass's time-weighted speed scale
                scale = pass_s(p) / pass_s(p, scaled=False) if unit in ("ms", "s") else 1.0
                samples.append(p["layers"][metric] * scale)
        # an absent metric's surfcond name is gone; it is listed on its own line
        values[metric] = statistics.median(samples) if samples else 0.0
    values["cli.interp_start_ms"] = statistics.median(ms * scale for ms, scale in starts)
    values["cli.import_ms"] = statistics.median(ms * scale for _wall, ms, scale in imports)
    values["trace.untraced_pass_s"] = statistics.median(plain) if plain else 0.0
    values["trace.traced_pass_s"] = (statistics.median(pass_s(p) for p in with_trace)
                                     if with_trace else 0.0)
    values["trace.overhead_ratio"] = (
        values["trace.traced_pass_s"] / values["trace.untraced_pass_s"]
        if plain and with_trace else 0.0
    )
    values["speed.reference_ms"] = statistics.median(speed.samples) * 1000.0
    return {"passes": passes, "values": values, "units": dict(layers.PER_LAYER),
            "absent": sorted(absent), "unscaled": {}}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    ap = argparse.ArgumentParser(description="surfcond benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "surfcond", "__init__.py")):
        print(f"error: no surfcond package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts, so that the speed
    # reference runs where the measured work runs
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    speed = Speed()
    try:
        with fresh_tree():
            starts = interp_starts(speed, START_SAMPLES)
            start_ms = [ms for ms, _scale in starts]
            env = {
                "python": platform.python_version(),
                "cpu": cpu_model(),
                "nproc": len(cpus),
                "pinned_cpu": cpus[0],
                "PYTHONDONTWRITEBYTECODE": {
                    "inherited": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                    "used": child_env()["PYTHONDONTWRITEBYTECODE"],
                },
                "sources": "a copy of src/ and perfbench/ without bytecode, per run",
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "cli.interp_start_ms": statistics.median(start_ms),
                "cli.interp_start_ms.samples": start_ms,
            }
            print("env " + json.dumps(env), flush=True)
            if args.trace:
                run = traced(args.workload, args.seed, args.seconds, start, speed, starts)
            else:
                golden = workloads.load_golden()[args.workload]
                run = end_to_end(args.workload, args.seed, args.seconds, start, speed, golden)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    values = run["values"]
    attempted, failed, failures = tally(run["passes"])
    known = sum(o["known_miss"] for p in run["passes"] for o in p["ops"])
    print(f"passes {len(run['passes'])}; operations attempted {attempted}, failed {failed}"
          f" (fail_ratio {failed}/{attempted}); known deadline misses {known}")
    for o in failures[:10]:
        print(f"FAILED {o['name']}: {o['reason']}")
    if run["absent"]:
        print("absent " + ", ".join(run["absent"]))
    ref_ms = [r * 1000.0 for r in speed.samples]
    print(f"speed reference loop: median {statistics.median(ref_ms):.2f} ms,"
          f" range {min(ref_ms):.2f}-{max(ref_ms):.2f} ms over {len(ref_ms)} runs;"
          f" times below are rescaled to {REFERENCE_S * 1000:g} ms")
    for name, value in run["unscaled"].items():
        print(f"unscaled {name} {value:.6g}")
    for name, unit in run["units"].items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in run["units"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
