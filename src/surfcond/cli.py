"""Command-line front end.

One table, COMMANDS, maps each subcommand to its handler, which returns the
query's inputs, provenance and result with its exit code, and its renderer.
main wraps them in the JSON-able payload {command, inputs, provenance,
result}; the parser gives every subcommand --json, which prints it.  The text
is rendered from the payload alone, so a --json dump re-rendered through the
same renderer reproduces the text output byte for byte.

Exit codes: 0 success, 1 selftest FAILURES, 2 parse error (including a
negative degree or order argument), 3 unsupported range, missing table
data or a query too large for the process's memory (MemoryError), 4
inconclusive (undetermined differential), 5 internal invariant failure (an
engine self-check such as d2 o d2 = 0 did not hold).  A reader that closes
the pipe early (`| head`) ends the query quietly, with its own exit code.

Every query runs in a fresh process, and most of its cost is interpreter
start and import. So this module imports `abelian`, `steenrod` and
`em_cohomology` (with `gf2`) at module level, and each subcommand imports
the layers above them that it calls: `ahss` adds `coefficients` and `ahss`;
`obstruction`, `survey` and `condense` also add `condense`; only `selftest`
loads `acceptance`. Every subcommand but `steenrod` reaches `em_cohomology`,
so deferring it would spare that one query alone; and perfbench's traced
`cli` run counts the lru caches of `em_cohomology` and `steenrod` in the
modules `import surfcond.cli` has loaded. The engine modules themselves
import eagerly: a library caller pays for its imports when it imports, not
inside the first call it makes or times.  For the same reason the engine's
records are plain classes with __slots__ on one immutable base that reads
their fields through one operator.attrgetter per class (`record.Frozen`),
not standard-library data classes: that module loads inspect, ast, dis and
tokenize, 8-12 ms of a fresh process, and each decorated class compiles its
generated methods at import, about 0.7 ms a class (Python 3.11.7, 2-vCPU
Xeon).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .abelian import FinAbGroup, UnsupportedRangeError, even_count, groups_up_to, parse_group
from .em_cohomology import EmSpace, algebra_for
from .steenrod import adem_normalize, excess, parse_word

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5

_STATISTICS = ("bosonic", "fermionic")
_LEVELS = ("braided", "symmetric")


# ---------------------------------------------------------------------------
# Renderers (consume payload dicts only)


def render_emcoh(payload: dict) -> str:
    r, inputs = payload["result"], payload["inputs"]
    lines = [f"H*(K({inputs['group']},{inputs['space_degree']}); Z2)"]
    lines.append("generators:")
    if not r["generators"]:  # below the space degree none is reached, whatever E is
        top = inputs["max_degree"]
        lines.append("  (none: unit algebra)" if top >= inputs["space_degree"]
                     else f"  (none in degrees <= {top})")
    for g in r["generators"]:
        lines.append(f"  {g['name']}  (degree {g['degree']})")
    series = ",".join(str(d) for d in r["poincare_series"])
    lines.append(f"poincare series: {series}")
    return "\n".join(lines)


def render_steenrod(payload: dict) -> str:
    r = payload["result"]
    lines = [f"input:      {payload['inputs']['word']}"]
    lines.append(f"admissible: {r['admissible_form']}")
    lines.append(f"degree:     {r['degree']}")
    if r["excess"] is not None:
        lines.append(f"excess:     {r['excess']}")
    return "\n".join(lines)


def render_page_text(dump: dict) -> str:
    """Aligned grid of a page dump (rows j descending, columns i)."""
    grid = {tuple(map(int, key.split(","))): val["group"] for key, val in dump["entries"].items()}
    max_i = max((i for i, _j in grid), default=0)
    max_j = max((j for _i, j in grid), default=0)
    rows = []
    for j in range(max_j, -1, -1):
        cells = [grid.get((i, j), ".") for i in range(max_i + 1)]
        rows.append([f"j={j}"] + cells)
    rows.append(["i->"] + [str(i) for i in range(max_i + 1)])
    widths = [max(len(r[c]) for r in rows) for c in range(max_i + 2)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    title = (
        f"E{dump['page']} page, {dump['spectrum']} over {dump['space']}"
        f"{' (twisted)' if dump['twisted'] else ''}"
    )
    return "\n".join([title] + lines)


def render_ahss(payload: dict) -> str:
    r = payload["result"]
    lines = []
    if "pages" in r:
        for dump in r["pages"]:
            lines.append(render_page_text(dump))
            lines.append("")
    if "entries" in r:
        lines.append(f"total degree {r['total_degree']} survivors:")
        for e in r["entries"]:
            lines.append(f"  ({e['i']},{e['j']}): {e['group']}")
    if "summands" in r:
        lines.append("product split:")
        for s in r["summands"]:
            note = f"  [{s['note']}]" if s.get("note") else ""
            grp = s["group"] if s["group"] is not None else "-"
            lines.append(f"  {s['summand']}: {s['status']} {grp}{note}")
    for b in r.get("blockers", []):
        lines.append(f"blocker: {b}")
    lines.append(f"verdict: {r['verdict']}")
    return "\n".join(lines)


def render_obstruction(payload: dict) -> str:
    r = payload["result"]
    lines = [f"branch:  {r['branch']}", f"verdict: {r['verdict']}"]
    if r["group"] is not None:
        lines.append(f"group:   {r['group']}")
    return "\n".join(lines)


def render_condense(payload: dict) -> str:
    r = payload["result"]
    return "\n".join(
        [
            f"before: {r['before']}",
            f"after:  {r['after']}",
            f"components: {r['components']}",
        ]
    )


def render_survey(payload: dict) -> str:
    inputs, rows = payload["inputs"], payload["result"]["rows"]
    width = max((len(r["group"]) for r in rows), default=0)
    lines = [f"{inputs['level']} / {inputs['statistic']}"]
    for r in rows:
        lines.append(f"  {r['group']:<{width}}  [{r['branch']}]  {r['verdict']}")
    return "\n".join(lines)


def render_selftest(payload: dict) -> str:
    lines = []
    for c in payload["result"]["checks"]:
        status = "PASS" if c["ok"] else "FAIL"
        lines.append(f"{status} [{c['seconds']:.2f}s] {c['name']}: {c['detail']}")
    lines.append(f"result: {payload['result']['verdict']}")
    return "\n".join(lines)


def render_payload(payload: dict) -> str:
    return COMMANDS[payload["command"]][1](payload)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_emcoh(args) -> tuple[tuple[dict, list[str], dict], int]:
    E = parse_group(args.group)
    space = EmSpace.from_group(E, args.space_degree)
    alg = algebra_for(space, max(args.max_degree, args.space_degree))
    gens = [
        {"name": alg.generator_name(gi), "degree": g.degree}
        for gi, g in enumerate(alg.generators)
        if g.degree <= args.max_degree
    ]
    series = [alg.dimension(d) for d in range(args.max_degree + 1)]
    result = {"generators": gens, "poincare_series": series}
    prov = ["generators from admissible words of excess below the space degree [computed]"]
    inputs = {"group": str(E), "space_degree": args.space_degree, "max_degree": args.max_degree}
    return (inputs, prov, result), EXIT_OK


def _cmd_steenrod(args) -> tuple[tuple[dict, list[str], dict], int]:
    word = parse_word(args.word)
    normal = adem_normalize(word)
    monos = normal.sorted_monomials()
    exc = excess(monos[0]) if len(monos) == 1 else None
    result = {
        "admissible_form": str(normal),
        "degree": normal.degree if not normal.is_zero else word.degree,
        "excess": exc,
    }
    return ({"word": args.word}, ["Adem normalization [computed]"], result), EXIT_OK


def _cmd_ahss(args) -> tuple[tuple[dict, list[str], dict], int]:
    from .ahss import page_to_dict, product_split, run_ahss
    from .coefficients import CoeffOverrides

    E = parse_group(args.group)
    overrides = CoeffOverrides.load(args.coeff_overrides) if args.coeff_overrides else None
    twist = args.twist == "fermion-parity"
    d5_zero = args.d5 == "zero"
    inputs = {
        "spectrum": args.spectrum,
        "group": str(E),
        "space_degree": args.space_degree,
        "total_degree": args.total_degree,
        "twist": args.twist,
        "d5": args.d5,
    }
    if even_count(E.invariant_factors) > 1:
        for flag, value in (("--twist", args.twist), ("--dump-pages", args.dump_pages)):
            if value:
                raise UnsupportedRangeError(
                    f"{flag} with {E}: a group with two even factors is answered by "
                    "the product split, which runs untwisted sequences on its summands "
                    "and has no single pair of pages"
                )
        result = product_split(
            E, args.spectrum, args.space_degree, args.total_degree, overrides, d5_zero
        )
        prov = ["assembled from point, reduced-factor, and smash summands [computed]"]
    else:
        page, report = run_ahss(
            E, args.space_degree, args.spectrum, args.total_degree,
            twist=twist, d5_zero=d5_zero, overrides=overrides,
        )
        result = report.to_dict()
        if args.dump_pages:
            dumps = [page_to_dict(page.previous), page_to_dict(page)]
            with open(args.dump_pages, "w") as fh:
                json.dump(dumps, fh, indent=2)
            result["pages"] = dumps
        prov = list(report.provenance)
    code = EXIT_INCONCLUSIVE if result["verdict"] == "inconclusive" else EXIT_OK
    return (inputs, prov, result), code


def _cmd_obstruction(args) -> tuple[tuple[dict, list[str], dict], int]:
    from .condense import obstruction_verdict

    E = parse_group(args.group)
    v = obstruction_verdict(E, args.statistic, args.level)
    inputs = {"group": str(E), "statistic": args.statistic, "level": args.level}
    return (inputs, list(v.provenance), v.to_dict()), EXIT_OK


def _cmd_condense(args) -> tuple[tuple[dict, list[str], dict], int]:
    from .condense import SkeletalCategory, condense_group_algebra, condense_phi, parse_descriptor

    if args.descriptor:
        for flag in ("pi0", "level", "id"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} cannot be combined with --descriptor")
    if args.id is not None and not args.phi:
        raise ValueError("--id needs --phi")
    if args.phi and args.algebra is not None:
        raise ValueError("--algebra cannot be combined with --phi")
    level = "fusion" if args.level is None else args.level
    identity = "2Rep(G)" if args.id is None else args.id
    pi0 = parse_group(args.pi0) if args.pi0 else None
    if args.descriptor:
        cat = parse_descriptor(args.descriptor)
    else:
        cat = SkeletalCategory.of(
            level, identity if args.phi else "2Vec", pi0 or FinAbGroup.trivial()
        )
    if args.phi:
        after = condense_phi(cat)
        prov = ["function algebra on the 2Rep identity component condensed [computed]"]
    elif args.algebra is not None:
        after = condense_group_algebra(cat, args.algebra)
        prov = ["group algebra condensed; components are translation orbits [computed]"]
    else:
        after = cat
        prov = ["no algebra given; category unchanged"]
    result = {
        "before": cat.describe(),
        "after": after.describe(),
        "components": after.n_components,
    }
    inputs = {
        "pi0": None if pi0 is None else str(pi0),
        "algebra": args.algebra,
        "phi": args.phi,
        "descriptor": args.descriptor,
        "level": level,
        "id": identity,
    }
    return (inputs, prov, result), EXIT_OK


def _survey_groups(max_order: int) -> list[FinAbGroup]:
    """Every group of rank 1 or 2 and order <= max_order, by order, then by
    invariant factors: the cyclic Z/d and the Z/a x Z/b with a | b."""
    groups = (E for E in groups_up_to(max_order) if 1 <= len(E.invariant_factors) <= 2)
    return sorted(groups, key=lambda E: (E.order, E.invariant_factors))


def _cmd_survey(args) -> tuple[tuple[dict, list[str], dict], int]:
    from .condense import obstruction_verdict

    rows, prov = [], []
    for E in _survey_groups(args.max_order):
        v = obstruction_verdict(E, args.statistic, args.level)
        rows.append({"group": str(E), "branch": v.branch, "verdict": v.verdict})
        prov += [p for p in v.provenance if p not in prov]
    inputs = {"max_order": args.max_order, "statistic": args.statistic, "level": args.level}
    return (inputs, prov, {"rows": rows}), EXIT_OK


def _cmd_selftest(args) -> tuple[tuple[dict, list[str], dict], int]:
    from .acceptance import run_all

    results = run_all()
    checks = [r.as_dict() for r in results]
    ok = all(r.ok for r in results)
    result = {"checks": checks, "verdict": "all checks passed" if ok else "FAILURES"}
    return ({}, [], result), (EXIT_OK if ok else EXIT_FAILURES)


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="surfcond",
        description="Obstruction computations for condensing surface-operator symmetries.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("emcoh", help="mod-2 cohomology of an Eilenberg-MacLane space")
    e.add_argument("--group", required=True)
    e.add_argument("--space-degree", type=int, required=True)
    e.add_argument("--max-degree", type=int, required=True)

    s = sub.add_parser("steenrod", help="Adem-normalize a Steenrod word")
    s.add_argument("--word", required=True)

    a = sub.add_parser("ahss", help="spectral sequence run in one total degree")
    a.add_argument("--spectrum", required=True, choices=["SH", "SW", "Spin"])
    a.add_argument("--group", required=True)
    a.add_argument("--space-degree", type=int, required=True)
    a.add_argument("--total-degree", type=int, required=True)
    a.add_argument("--twist", choices=["fermion-parity"])
    a.add_argument("--d5", choices=["zero"])
    a.add_argument("--dump-pages", metavar="PATH")
    a.add_argument("--coeff-overrides", metavar="PATH")

    o = sub.add_parser("obstruction", help="condensation obstruction verdict")
    o.add_argument("--group", required=True)
    o.add_argument("--statistic", required=True, choices=_STATISTICS)
    o.add_argument("--level", required=True, choices=_LEVELS)

    c = sub.add_parser("condense", help="component-level condensation")
    c.add_argument("--pi0")
    c.add_argument("--algebra")
    c.add_argument("--phi", action="store_true")
    c.add_argument("--descriptor")
    c.add_argument("--level", help="default: fusion")
    c.add_argument("--id", help="identity tag for --phi (default: 2Rep(G))")

    v = sub.add_parser("survey", help="obstruction verdicts for every group of rank <= 2")
    v.add_argument("--max-order", type=int, default=8)
    v.add_argument("--statistic", default="fermionic", choices=_STATISTICS)
    v.add_argument("--level", default="braided", choices=_LEVELS)

    sub.add_parser("selftest", help="run the acceptance suite")
    for command in sub.choices.values():  # after each subcommand's own options
        command.add_argument("--json", action="store_true")
        command.set_defaults(usage_error=command.error)  # stray arguments report here
    return p


COMMANDS = {  # name: (handler, renderer)
    "emcoh": (_cmd_emcoh, render_emcoh),
    "steenrod": (_cmd_steenrod, render_steenrod),
    "ahss": (_cmd_ahss, render_ahss),
    "obstruction": (_cmd_obstruction, render_obstruction),
    "condense": (_cmd_condense, render_condense),
    "survey": (_cmd_survey, render_survey),
    "selftest": (_cmd_selftest, render_selftest),
}


def main(argv=None) -> int:
    parser = build_parser()
    args, stray = parser.parse_known_args(argv)
    if stray:
        args.usage_error(f"unrecognized arguments: {' '.join(stray)}")
    for name in ("space_degree", "total_degree", "max_degree", "max_order"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            print(f"error: --{name.replace('_', '-')} must be >= 0, got {value}", file=sys.stderr)
            return EXIT_PARSE
    try:
        (inputs, prov, result), code = COMMANDS[args.command][0](args)
    except UnsupportedRangeError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except MemoryError:
        print("unsupported: out of memory; try a smaller group or degree", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    payload = {"command": args.command, "inputs": inputs, "provenance": prov, "result": result}
    try:
        print(json.dumps(payload, indent=2) if args.json else render_payload(payload), flush=True)
    except BrokenPipeError:  # the reader has gone; what is left of the output goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
