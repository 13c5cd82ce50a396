"""The operations of each workload and the checks on their outputs.

An operation is one timed call into surfcond.  Its raw result is turned into
a JSON value by ``canon`` outside the timed region, and that value must
equal the golden output captured from the seed version of the package
(``golden.json``) and, where an independent answer exists, pass ``oracle``.

Every ``build_*`` function imports what it needs from surfcond, so that
import cost lands in the workload's set-up time, and returns the operations
in the order given by the seeded ``rng``.  Operations call surfcond
functions through their modules at call time, so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

DEADLINE_S = 30.0
# quad_group(Z/4 x Z/8, circle) is inside the brute-force budget (|E| <= 64)
# but does not finish in minutes; Z/2 x Z/16, of the same order, takes 0.5 s.
PROBE_DEADLINE_S = 2.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    canon: Callable[[object], object] = lambda raw: raw
    oracle: Callable[[object], str | None] | None = None
    deadline_s: float = DEADLINE_S
    # run in a forked child that is killed at the deadline, so that neither
    # its time past the deadline nor its memory reaches the worker
    isolated: bool = False
    # a deadline miss that documents a known blow-up rather than a failure
    known_miss: bool = False
    # per-layer values the program reports about itself, read from raw
    layers: Callable[[object], dict] | None = None


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check(op: Op, value, golden: dict | None) -> str | None:
    """None when value is right, else a one-line reason.

    A known blow-up has no golden output, since it missed its deadline when
    the golden outputs were captured; once it finishes, only its independent
    answer is checked.
    """
    if golden is not None:
        if op.name in golden:
            if value != golden[op.name]:
                return "differs from the golden output"
        elif not op.known_miss:
            return "no golden output recorded"
        elif op.oracle is None:
            return "no golden output and no independent answer"
    if op.oracle is not None:
        return op.oracle(value)
    return None


def _json(value):
    return json.loads(json.dumps(value))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Independent answers


def two_torsion_dual(factors) -> str:
    """dual(two_torsion(E)) as a literal: one Z/2 per even cyclic factor."""
    s = sum(1 for d in factors if d % 2 == 0)
    return " x ".join(["Z/2"] * s) if s else "0"


def quad_circle_two_group(factors) -> str:
    """Quad(E, C^x) for a 2-group: Z/2d per factor, Z/gcd per pair.

    All those orders are powers of 2, so sorting them gives the invariant
    factors directly.
    """
    orders = [2 * d for d in factors]
    orders += [math.gcd(a, b) for i, a in enumerate(factors) for b in factors[i + 1 :]]
    if any(d & (d - 1) for d in orders):
        raise ValueError("only 2-groups have this closed form here")
    return " x ".join(f"Z/{d}" for d in sorted(orders))


def k_z2_2_series(cap: int) -> list[int]:
    """Poincare series of H*(K(Z/2,2); Z/2): polynomial on classes of
    degree 2^k + 1 (Serre)."""
    series = [1] + [0] * cap
    g = 2
    while g <= cap:
        for d in range(g, cap + 1):
            series[d] += series[d - g]
        g = 2 * g - 1
    return series


def convolve(a: list[int], b: list[int]) -> list[int]:
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(len(a))]


def _expect(value, wanted, what: str) -> str | None:
    return None if value == wanted else f"{what}: got {value!r}, expected {wanted!r}"


# ---------------------------------------------------------------------------
# cli: README-style queries, one fresh process each

CLI_QUERIES = [
    ("emcoh_z4", ["emcoh", "--group", "Z/4", "--space-degree", "2", "--max-degree", "8"]),
    ("steenrod_sq2sq2", ["steenrod", "--word", "Sq2 Sq2"]),
    ("ahss_sw5_z2", ["ahss", "--spectrum", "SW", "--group", "Z/2", "--space-degree", "2",
                     "--total-degree", "5", "--d5", "zero"]),
    ("ahss_sw5_z2_twisted", ["ahss", "--spectrum", "SW", "--group", "Z/2", "--space-degree", "2",
                             "--total-degree", "5", "--twist", "fermion-parity", "--d5", "zero"]),
    ("ahss_sh7_z2xz2_split", ["ahss", "--spectrum", "SH", "--group", "Z/2 x Z/2",
                              "--space-degree", "4", "--total-degree", "7"]),
    ("ahss_sw7_z2_out_of_range", ["ahss", "--spectrum", "SW", "--group", "Z/2",
                                  "--space-degree", "2", "--total-degree", "7"]),
    ("obstruction_z8_fermionic_braided", ["obstruction", "--group", "Z/8",
                                          "--statistic", "fermionic", "--level", "braided"]),
    ("obstruction_z4_bosonic_braided", ["obstruction", "--group", "Z/4",
                                        "--statistic", "bosonic", "--level", "braided"]),
    ("obstruction_z2xz4_bosonic_symmetric", ["obstruction", "--group", "Z/2 x Z/4",
                                             "--statistic", "bosonic", "--level", "symmetric"]),
    ("obstruction_z6_fermionic_symmetric", ["obstruction", "--group", "Z/6",
                                            "--statistic", "fermionic", "--level", "symmetric"]),
    ("condense_z4_by_z2", ["condense", "--pi0", "Z/4", "--algebra", "Z/2"]),
]
CLI_QUERIES = [(name, argv + ["--json"]) for name, argv in CLI_QUERIES]

_CLI_EXPECT = {
    "ahss_sw5_z2": ("verdict", "0"),
    "ahss_sw5_z2_twisted": ("verdict", "Z/2"),
    "ahss_sh7_z2xz2_split": ("verdict", "0"),
    "obstruction_z8_fermionic_braided": ("group", "0"),
    "obstruction_z2xz4_bosonic_symmetric": ("group", two_torsion_dual((2, 4))),
    "condense_z4_by_z2": ("components", 4 // 2),
}


def cli_oracle(name: str):
    def oracle(value) -> str | None:
        if name == "ahss_sw7_z2_out_of_range":
            return _expect(value["code"], 3, "exit code of the out-of-range query")
        if value["code"] != 0:
            return f"exit code {value['code']}"
        if name not in _CLI_EXPECT:
            return None
        key, wanted = _CLI_EXPECT[name]
        return _expect(json.loads(value["stdout"])["result"].get(key), wanted, key)

    return oracle


def cli_value(code: int, stdout: str) -> dict:
    return {"code": code, "stdout": stdout}


def _cli_in_process(argv):
    from surfcond import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return cli_value(code, out.getvalue())


def cli_ops(rng) -> list[Op]:
    """The queries as operations that call cli.main in this process.

    The untraced run starts each query as its own process instead and
    checks its output with the same golden value and oracle.
    """
    ops = [
        Op(name, (lambda argv=argv: _cli_in_process(argv)), oracle=cli_oracle(name))
        for name, argv in CLI_QUERIES
    ]
    rng.shuffle(ops)
    return ops


def build_cli(rng) -> list[Op]:
    import surfcond.cli  # noqa: F401

    return cli_ops(rng)


# ---------------------------------------------------------------------------
# survey: every verdict on the groups of rank <= 2 and order 2..32

BRANCHES = [
    ("bosonic", "braided"),
    ("fermionic", "braided"),
    ("bosonic", "symmetric"),
    ("fermionic", "symmetric"),
]


def survey_groups() -> list[tuple[int, ...]]:
    """Invariant factors (a | b) of every group of rank <= 2, order 2..32."""
    out = []
    for order in range(2, 33):
        for a in range(1, order + 1):
            if order % a == 0 and (order // a) % a == 0:
                out.append((a, order // a) if a > 1 else (order,))
    return out


def _verdict_value(v) -> dict:
    return {"branch": v.branch, "verdict": v.verdict, "group": v.group}


def survey_oracle(factors, statistic: str, level: str):
    def oracle(value) -> str | None:
        if (statistic, level) == ("bosonic", "symmetric"):
            return _expect(value["group"], two_torsion_dual(factors), "dual(two_torsion(E))")
        if (statistic, level) == ("bosonic", "braided"):
            if "W^5(pt) = Z/2" not in value["verdict"]:
                return "twisted degree-5 point is not Z/2"
        if (statistic, level) == ("fermionic", "braided") and factors in ((2,), (4,), (8,)):
            return _expect(value["group"], "0", "SW^5 of K(Z/2^k, 2), k <= 3")
        return None

    return oracle


def build_survey(rng) -> list[Op]:
    from surfcond import condense
    from surfcond.abelian import FinAbGroup

    ops = []
    for factors in survey_groups():
        E = FinAbGroup(factors)
        for statistic, level in BRANCHES:
            ops.append(Op(
                f"{E} {statistic} {level}",
                (lambda E=E, s=statistic, lv=level: condense.obstruction_verdict(E, s, lv)),
                canon=_verdict_value,
                oracle=survey_oracle(factors, statistic, level),
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# algebra: em_cohomology, steenrod and gf2 growth cases, no reuse between cases

ALGEBRA_CAPS = (14, 18, 22, 26, 32)
PRODUCT_RANKS = (2, 3, 4)
PRODUCT_CAP = 14
SMASH_DEGREES = (5, 6, 7)
SPLIT_GROUPS = ((2, 2, 2), (2, 2, 2, 2))


def _series(alg) -> list[int]:
    return [alg.dimension(d) for d in range(alg.cap + 1)]


def _sq_table(r: int):
    from surfcond.em_cohomology import EmAlgebra, EmSpace

    alg = EmAlgebra(EmSpace(((2, 2),) * r), PRODUCT_CAP)
    table = []
    for d in range(alg.cap + 1):
        for mono in alg.basis(d):
            cls = alg.monomial_class(mono)
            for i in range(1, alg.cap - d + 1):
                table.append((i, mono, alg.sq(i, cls)))
    return alg, table


def _sq_table_value(raw) -> dict:
    alg, table = raw
    lines = [
        f"Sq{i}({alg.format_monomial(mono)}) = {' + '.join(sorted(str(img).split(' + ')))}"
        for i, mono, img in table
    ]
    return {"series": _series(alg), "entries": len(lines), "digest": _digest(sorted(lines))}


def _sq2_ranks(r: int) -> list[int]:
    from surfcond.em_cohomology import EmAlgebra, EmSpace
    from surfcond.gf2 import Gf2Matrix

    alg = EmAlgebra(EmSpace(((2, 2),) * r), PRODUCT_CAP)
    ranks = []
    for d in range(alg.cap - 1):
        rows = [alg.coordinates(alg.sq(2, alg.monomial_class(m))) for m in alg.basis(d)]
        ranks.append(Gf2Matrix.from_rows(rows, alg.dimension(d + 2)).rank())
    return ranks


def _product_series_oracle(r: int):
    single = k_z2_2_series(PRODUCT_CAP)
    wanted = single
    for _ in range(r - 1):
        wanted = convolve(wanted, single)
    return lambda value: _expect(value["series"], wanted, "Poincare series convolution")


def _adem_words():
    from surfcond.steenrod import SteenrodWord

    return [
        ((a, b, c), SteenrodWord.sq(a, b, c))
        for a in range(1, 40) for b in range(1, 40) for c in range(1, 12)
    ]


def _adem_value(raw) -> dict:
    indices, results = raw
    bad = [
        idx for idx, w in zip(indices, results)
        if any(not m.is_admissible or m.degree != sum(idx) for m in w.monomials)
    ]
    return {
        "words": len(results),
        "zero": sum(1 for w in results if w.is_zero),
        "inadmissible": len(bad),
        "digest": _digest(str(w) for w in results),
    }


def build_algebra(rng) -> list[Op]:
    from surfcond import ahss, steenrod
    from surfcond.abelian import FinAbGroup
    from surfcond.em_cohomology import EmAlgebra, EmSpace

    k22 = EmSpace.single(2, 2)
    ops = []
    for cap in ALGEBRA_CAPS:
        wanted = k_z2_2_series(cap)
        ops.append(Op(
            f"emalgebra_k_z2_2_cap{cap}",
            (lambda cap=cap: EmAlgebra(k22, cap)),
            canon=_series,
            oracle=(lambda value, wanted=wanted: _expect(value, wanted, "Serre series")),
        ))
    for r in PRODUCT_RANKS:
        ops.append(Op(f"sq_table_r{r}", (lambda r=r: _sq_table(r)), canon=_sq_table_value,
                      oracle=_product_series_oracle(r)))
        ops.append(Op(f"sq2_rank_r{r}", (lambda r=r: _sq2_ranks(r))))
    for N in SMASH_DEGREES:
        oracle = None
        if N == 5:
            oracle = (lambda value: None if (value["dimension"], value["all_free"]) == (2, True)
                      else "degree-5 smash classes are not 2 free A(1) classes")
        ops.append(Op(
            f"smash_freeness_deg{N}",
            (lambda N=N: ahss.smash_freeness_check(k22, k22, N, window=(N - 1, N + 4))),
            canon=_json, oracle=oracle,
        ))
    for factors in SPLIT_GROUPS:
        E = FinAbGroup(factors)
        ops.append(Op(f"product_split_{len(factors)}xz2_sw5",
                      (lambda E=E: ahss.product_split(E, "SW", 2, 5)), canon=_json))
    words = _adem_words()
    indices = [idx for idx, _w in words]
    ops.append(Op(
        "adem_normalize_words",
        lambda: (indices, [steenrod.adem_normalize(w) for _idx, w in words]),
        canon=_adem_value,
        oracle=lambda value: _expect(value["inadmissible"], 0,
                                     "inadmissible or wrong-degree terms"),
    ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# groups: abelian SNF and brute force, and the condense orbit oracle


def _category_value(cat) -> dict:
    return {"pi0": str(cat.pi0), "components": cat.n_components, "level": cat.level}


def build_groups(rng) -> list[Op]:
    from surfcond import abelian, condense
    from surfcond.abelian import CIRCLE, FinAbGroup
    from surfcond.condense import SkeletalCategory

    def quad_op(factors, **kw) -> Op:
        name = "quad_group_" + "x".join(f"z{d}" for d in factors) + "_circle"
        wanted = quad_circle_two_group(factors)
        return Op(name, (lambda: abelian.quad_group(FinAbGroup(factors), CIRCLE)), canon=str,
                  oracle=lambda value: _expect(value, wanted, "closed-form Quad"), **kw)

    def condense_op(name, pi0, subgroup, components) -> Op:
        cat = SkeletalCategory("fusion", "bosonic", "2Vec", pi0=FinAbGroup(pi0))
        return Op(name, (lambda: condense.condense_group_algebra(cat, subgroup)),
                  canon=_category_value,
                  oracle=lambda value: _expect(value["components"], components, "|pi0| / |H|"))

    odd = FinAbGroup((3, 15))
    ops = [
        quad_op((2, 16)),
        quad_op((4, 8), deadline_s=PROBE_DEADLINE_S, isolated=True, known_miss=True),
        Op("obstruction_z3xz15_fermionic_braided",
           (lambda: condense.obstruction_verdict(odd, "fermionic", "braided")),
           canon=_verdict_value),
        condense_op("condense_z200000_by_z2", (200000,), "Z/2", 200000 // 2),
        condense_op("condense_z100xz1000_by_all", (100, 1000), "Z/100 x Z/1000", 1),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# selftest: the acceptance layer


def _check_ms(results) -> dict:
    """Milliseconds per check function, as the acceptance layer timed them."""
    from surfcond import acceptance

    fn_names = {name: fn.__name__ for name, fn in acceptance.CHECKS}
    return {fn_names[r.name]: r.seconds * 1000.0 for r in results if r.name in fn_names}


def build_selftest(rng) -> list[Op]:
    """One operation: run_all fixes the order of its checks, so the seed
    changes nothing here."""
    from surfcond import acceptance

    def value(results):
        return [[r.name, r.ok] for r in results]

    def oracle(value):
        failed = [name for name, ok in value if not ok]
        return f"checks failed: {failed}" if failed else None

    return [Op("acceptance_run_all", lambda: acceptance.run_all(), canon=value, oracle=oracle,
               layers=_check_ms)]


OPERATIONS = {
    "cli": build_cli,
    "survey": build_survey,
    "algebra": build_algebra,
    "groups": build_groups,
    "selftest": build_selftest,
}
# workloads whose caches are emptied before every operation
FRESH_CACHES = {"algebra"}
