"""Per-layer metrics: which surfcond names the traced run wraps, and how the
spans, cache counters and self-reported timings become metric values.

A later change that renames or removes one of these names makes the metrics
that depend on it come out as absent; the run still completes.
"""

from __future__ import annotations

import statistics
import sys

from tracer import durations_ns, self_times_ns

PACKAGE = "surfcond"
MODULES = ["cli", "abelian", "steenrod", "em_cohomology", "gf2", "coefficients", "ahss",
           "condense", "acceptance"]

ACCEPTANCE_CHECKS = [
    "check_superwitt_degree5_cyclic",
    "check_twisted_degree5_point",
    "check_supercohomology_degree7",
    "check_bosonic_symmetric_obstruction",
    "check_smash_margolis",
    "check_condensation_bookkeeping",
    "check_property_suites",
]
# called by check_property_suites through module attributes, so they can be wrapped
ACCEPTANCE_SUBCHECKS = [
    "check_adem_oracle",
    "check_cartan_products",
    "check_d2_squared",
    "check_functor_brute_force",
    "check_poincare_convolution",
]

SELF_MS = [
    "abelian.smith_normal_form",
    "abelian.quad_group_brute",
    "abelian.quotient_by_subgroup_image",
    "em_cohomology.EmAlgebra.sq",
    "steenrod.adem_normalize",
    "gf2.Gf2Matrix.rank",
    "gf2.Gf2Matrix.then",
    "steenrod.margolis_homology",
    "ahss.assemble_e2",
    "ahss.apply_d2",
    "ahss.total_degree_report",
    "ahss.product_split",
    "ahss.smash_freeness_check",
    "coefficients.circle_row",
    "condense.obstruction_verdict",
    "condense.condense_group_algebra",
]
CALLS = [
    "abelian.smith_normal_form",
    "abelian.quad_group_brute",
    "em_cohomology.EmAlgebra.sq",
    "steenrod.adem_normalize",
    "gf2.Gf2Matrix.rank",
    "coefficients.circle_row",
]
BUILD = "em_cohomology.EmAlgebra.__init__"
CLI_MAIN = "cli.main"
ALGEBRA_FOR = "em_cohomology.algebra_for"
NORMALIZE_CACHE = "steenrod._normalize_squares"

TARGETS = (
    [CLI_MAIN, BUILD, ALGEBRA_FOR] + SELF_MS
    + [f"acceptance.{name}" for name in ACCEPTANCE_SUBCHECKS]
)

# metrics that run.py measures itself rather than reading from a worker's spans
RUN_LEVEL = [
    ("cli.interp_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("speed.reference_ms", "ms"),
]


def _spec():
    """(metric, unit, kind, source) for every metric a traced worker reports."""
    out = [("cli.main_ms", "ms", "median_ms", CLI_MAIN)]
    for target in SELF_MS:
        out.append((f"{target}.self_ms", "ms", "self_ms", target))
        if target in CALLS:
            out.append((f"{target}.calls", "count", "calls", target))
    out += [
        ("em_cohomology.EmAlgebra.build_ms", "ms", "total_ms", BUILD),
        ("em_cohomology.EmAlgebra.builds", "count", "calls", BUILD),
        ("steenrod.normalize_cache.hit_ratio", "ratio", "hit_ratio", NORMALIZE_CACHE),
        ("em_cohomology.algebra_for.hits", "count", "hits", ALGEBRA_FOR),
        ("em_cohomology.algebra_for.misses", "count", "misses", ALGEBRA_FOR),
        ("em_cohomology.algebra_for.hit_ratio", "ratio", "hit_ratio", ALGEBRA_FOR),
    ]
    for name in ACCEPTANCE_CHECKS:
        out.append((f"acceptance.{name}.ms", "ms", "check_ms", name))
    for name in ACCEPTANCE_SUBCHECKS:
        out.append((f"acceptance.{name}.ms", "ms", "total_ms", f"acceptance.{name}"))
    return out


WORKER_SPEC = _spec()
PER_LAYER = [(name, unit) for name, unit, _k, _s in WORKER_SPEC] + RUN_LEVEL


def import_layers() -> None:
    """Import every layer module that exists, so each target can be found."""
    for name in MODULES:
        try:
            __import__(f"{PACKAGE}.{name}")
        except ImportError:
            pass


def package_modules():
    return [
        (key, m) for key, m in list(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


class CacheLedger:
    """Hit and miss counts of the package's lru caches, kept across clears."""

    def __init__(self):
        self.caches = {}
        for key, module in package_modules():
            for attr, value in vars(module).items():
                if (callable(getattr(value, "cache_info", None))
                        and getattr(value, "__module__", None) == key):
                    self.caches[f"{key[len(PACKAGE) + 1:]}.{attr}"] = value
        self._base = {name: self._counts(fn) for name, fn in self.caches.items()}
        self._kept = {name: (0, 0) for name in self.caches}

    @staticmethod
    def _counts(fn) -> tuple[int, int]:
        info = fn.cache_info()
        return info.hits, info.misses

    def clear(self) -> None:
        """Empty every cache, as a fresh process would find them."""
        self._kept = self.totals()
        for name, fn in self.caches.items():
            fn.cache_clear()
            self._base[name] = (0, 0)

    def totals(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name, fn in self.caches.items():
            hits, misses = self._counts(fn)
            kh, km = self._kept[name]
            bh, bm = self._base[name]
            out[name] = (kh + hits - bh, km + misses - bm)
        return out


def worker_metrics(spans, absent_targets, caches, check_ms, check_names):
    """Metric values of one traced pass, and the metrics that are absent.

    check_ms maps acceptance check function names to the seconds the
    acceptance layer timed them at (empty outside the selftest workload);
    check_names is every check function acceptance.CHECKS still lists.
    """
    selfs = self_times_ns(spans)
    durs = durations_ns(spans)
    values, absent = {}, []
    for metric, _unit, kind, source in WORKER_SPEC:
        if source in absent_targets or (kind in ("hits", "misses", "hit_ratio")
                                        and source not in caches):
            absent.append(metric)
            continue
        if kind == "check_ms" and source not in check_names:
            absent.append(metric)
            continue
        if kind == "self_ms":
            value = selfs.get(source, 0) / 1e6
        elif kind == "calls":
            value = len(durs.get(source, ()))
        elif kind == "total_ms":
            value = sum(durs.get(source, ())) / 1e6
        elif kind == "median_ms":
            value = statistics.median(durs[source]) / 1e6 if source in durs else 0.0
        elif kind == "check_ms":
            value = check_ms.get(source, 0.0)
        else:
            hits, misses = caches[source]
            value = {"hits": hits, "misses": misses}.get(kind)
            if value is None:
                value = hits / (hits + misses) if hits + misses else 0.0
        values[metric] = value
    return values, absent
