"""First-quadrant Atiyah-Hirzebruch spectral sequence engine.

Assembles E2 pages H^i(X; h^j(pt)) for Eilenberg-MacLane bases, applies the
d2 differentials (Sq2 from mod-2 row 2 into mod-2 row 1, its exponential
(-1)^(...) variant from row 1 into the circle row 0, and the fermion-parity
twists Sq2 + iota*(-)), and reports the associated graded group in a chosen
total degree.

Model boundary: differentials of length r >= 3 between computed rows carry
no new information in the tabulated range and are treated as zero; outgoing
differentials from opaque entries (the Witt-group row) are genuinely unknown.
A run may declare the one out of (0,4), d5, zero; the declaration is a record
in its log, and without it the report is inconclusive.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .abelian import FinAbGroup, GroupExpr, UnsupportedRangeError, even_count
from .coefficients import CircleRow, CoeffOverrides, SpectrumTable, circle_row, spectrum
from .em_cohomology import EmAlgebra, EmSpace, algebra_for
from .gf2 import Echelon, Gf2Matrix
from .record import Frozen
from .steenrod import margolis_homology


class Page(Frozen):
    """One page of a run, read-only so that run_ahss can share it.

    entries maps (i, j) to its group for i + j <= max_total, None where the
    group is not tabulated; the E3 page is final in total degree max_total
    alone, the one degree its report reads.
    The space is algebra.space, and the query's E and n are circle.E and
    circle.n; twisted says whether d2 takes the fermion-parity twist.
    entries and log are read-only, down to each record, and a
    declared differential is a log record of kind "declaration"; apply_d2
    returns a new page, whose previous is the page it was turned from.
    """

    __slots__ = ("number", "spectrum", "twisted", "max_total", "entries", "circle", "algebra",
                 "log", "previous")

    def __init__(self, number: int, spectrum: SpectrumTable, twisted: bool, max_total: int,
                 entries: Mapping[tuple[int, int], GroupExpr | None], circle: CircleRow,
                 algebra: EmAlgebra, log: tuple[Mapping, ...] = (), previous: Page | None = None):
        self._set(number, spectrum, twisted, max_total, entries, circle, algebra, log, previous)

    def entry(self, i: int, j: int) -> GroupExpr | None:
        """The entry at (i, j); zero off the page, which holds every i + j <= max_total."""
        return self.entries.get((i, j), _ZERO)

    def row_kind(self, j: int) -> str:
        return _row_kind(self.spectrum, j)


_ZERO = GroupExpr.zero()  # read-only, so one instance serves every off-page entry


def _record(**fields) -> Mapping:
    """A read-only log record; its sequences are tuples."""
    return MappingProxyType(fields)


def _declarations(page: Page) -> tuple[Mapping, ...]:
    """The page's declared differentials: its log records of kind "declaration"."""
    return tuple(rec for rec in page.log if rec["kind"] == "declaration")


def _untabulated(i: int, j: int, N: int) -> UnsupportedRangeError:
    """The refusal of a run that reads the untabulated entry (i, j) on its diagonal."""
    return UnsupportedRangeError(f"entry ({i},{j}) in total degree {N} is not tabulated")


def _row_kind(spec_table: SpectrumTable, j: int) -> str:
    coeff = spec_table.entry(j)
    if coeff.is_zero:
        return "zero"
    if coeff.is_opaque:
        if coeff.circle_rank or not coeff.finite.is_trivial:
            raise UnsupportedRangeError(f"mixed opaque coefficient row {coeff}")
        return "opaque"
    if coeff.circle_rank == 1 and coeff.finite.is_trivial:
        return "circle"
    if coeff.circle_rank == 0 and coeff.finite == FinAbGroup((2,)):
        return "z2"
    raise UnsupportedRangeError(f"coefficient row {coeff} has no differential rule")


def assemble_e2(
    E: FinAbGroup,
    n: int,
    spec_table: SpectrumTable,
    max_total_degree: int,
    overrides: CoeffOverrides | None = None,
    twisted: bool = False,
) -> Page:
    """E2 page H^i(X; h^j(pt)) over X = K(E, n) for i + j <= max_total_degree,
    whose d2 takes the fermion-parity twist if twisted asks.

    A mod-2 entry is one Z/2 per monomial of algebra.basis(i); the circle row
    comes from the known-value tables, None where they have no entry (the
    turn refuses it only on its diagonal); opaque rows carry the symbol at
    i = 0 and its hom(-, Z2) companion at i = 2.  Bases with more than one
    2-primary factor are out of scope here (product_split handles them).
    The circle row is the one of degree n even when E is trivial and X is a
    point.
    """
    space = EmSpace.from_group(E, n)
    if even_count(E.invariant_factors) > 1:
        raise UnsupportedRangeError(
            "more than one 2-primary factor; decompose via product_split"
        )
    if spec_table.max_degree < max_total_degree:
        raise UnsupportedRangeError(
            f"{spec_table.name} coefficients stop below degree {max_total_degree}"
        )
    algebra = algebra_for(space, max(max_total_degree + 2, n))
    circle = circle_row(E, n, overrides)
    entries: dict[tuple[int, int], GroupExpr | None] = {}
    log: list[Mapping] = []
    for j in range(max_total_degree + 1):
        kind = _row_kind(spec_table, j)
        for i in range(max_total_degree - j + 1):
            if kind == "zero":
                entries[(i, j)] = GroupExpr.zero()
            elif kind == "z2":
                entries[(i, j)] = GroupExpr.of(FinAbGroup((2,) * algebra.dimension(i)))
            elif kind == "circle":
                entries[(i, j)] = circle.entries.get(i)
            else:  # opaque
                entries[(i, j)] = _opaque_entry(i, j, spec_table, algebra)
    for j, note in enumerate(spec_table.provenance[: max_total_degree + 1]):
        log.append(_record(kind="coefficient", j=j, note=note))
    for i in sorted(circle.provenance):
        if i <= max_total_degree:
            log.append(_record(kind="circle_row", i=i, note=circle.provenance[i]))
    for note in spec_table.notes + circle.notes:
        log.append(_record(kind="override", note=note))
    return Page(
        2, spec_table, twisted, max_total_degree, MappingProxyType(entries), circle, algebra,
        tuple(log),
    )


def _opaque_entry(i: int, j: int, spec_table: SpectrumTable, algebra) -> GroupExpr | None:
    symbol = spec_table.entry(j)
    if i == 0:
        return symbol
    dim = algebra.dimension(i)
    if dim == 0:
        return GroupExpr.zero()
    if i == 2 and dim == 1 and symbol.opaque == ("SW",):
        # hom(SW, Z2) companion entry
        return GroupExpr.symbol("SW2")
    return None


# ---------------------------------------------------------------------------
# d2 and the E3 page

# the model's only d2: (source row, target row kind) -> rule
_D2_RULES = {(2, "z2"): "sq2", (1, "circle"): "exp_sq2"}


def apply_d2(page: Page) -> Page:
    """Turn the page once: a new E3 page, final in the target total degree.

    Differentials with source in total degrees max_total - 1 and max_total
    are evaluated; that is exactly what the report in degree max_total
    consumes, and it keeps the engine away from untabulated circle entries
    (a zero image never needs its target group); an untabulated circle
    entry on the diagonal is refused as the report refuses one.  Each d2 is
    one GF(2) matrix, and d2 composed with itself is asserted zero on every
    evaluated composable pair.  On a twisted page the fermion-parity twist
    adds multiplication by the mod-2 reduction of iota_E: the fundamental class
    of E's one even factor, or zero when E has none (odd E turns as if
    untwisted).
    """
    if page.number != 2:
        raise ValueError("apply_d2 expects an E2 page")
    tw = page.twisted
    alg = page.algebra
    N = page.max_total
    if tw and page.circle.n != 2:
        raise UnsupportedRangeError("fermion-parity twist needs a degree-2 base")
    twist_cls = None
    if tw:
        even = [fi for fi, (m, _n) in enumerate(alg.space.factors) if m % 2 == 0]
        twist_cls = alg.fundamental_class(even[0]) if even else alg.zero_class(2)
    log = list(page.log)
    entries = dict(page.entries)

    def d2_from(i: int, j: int) -> tuple[Gf2Matrix | None, int]:
        """Logged d2 out of the mod-2 entry (i, j) and its rank.

        Sq2 (plus multiplication by the fundamental class under the twist)
        from row 2 into mod-2 row 1; from row 1 into the circle row 0 it
        lands on the order-2 coordinates of the target entry.  None into a
        zero row; the model defines no other d2.
        """
        target = page.row_kind(j - 1) if j >= 1 else "zero"
        if target == "zero":
            return None, 0
        rule = _D2_RULES.get((j, target))
        if rule is None:
            raise UnsupportedRangeError(f"no differential rule from row {j} into row {j - 1}")
        mat = alg.sq_matrix(2, i)
        if tw:
            mat = mat + alg.mul_matrix(twist_cls, i)
        if target == "circle":
            mat = mat.then(page.circle.comparison_matrix(alg, i + 2, mat))
        rank = mat.rank()
        log.append(_record(kind="d2", source=(i, j), target=(i + 2, j - 1), rank=rank,
                           rule=rule + ("_twisted" if tw else "")))
        return mat, rank

    checked_chains = 0
    for i in range(N + 1):
        j = N - i
        kind = page.row_kind(j)
        old = page.entry(i, j)
        if kind in ("zero", "opaque"):
            continue  # zero rows stay zero; opaque entries pass unchanged at d2
        outgoing, out_rank = d2_from(i, j) if kind == "z2" else (None, 0)
        above = page.row_kind(j + 1) if j + 1 <= page.spectrum.max_degree else "zero"
        if above not in ("zero", "z2") and (kind == "z2" or i >= 2):
            into = "the circle row" if kind == "circle" else f"row {j}"
            raise UnsupportedRangeError(f"no differential rule from row {j + 1} into {into}")
        incoming, in_rank = d2_from(i - 2, j + 1) if above == "z2" and i >= 2 else (None, 0)
        if kind == "circle":
            if old is None:
                raise _untabulated(i, j, N)
            entries[(i, j)] = page.circle.entry_modulo(i, incoming)
            continue
        if incoming is not None and outgoing is not None:
            if not incoming.then(outgoing).is_zero:
                raise AssertionError(
                    f"d2 squared nonzero on chain ({i - 2},{j + 1}) -> ({i},{j})"
                )
            checked_chains += 1
        new_dim = len(old.finite.invariant_factors) - out_rank - in_rank
        if new_dim < 0:
            raise AssertionError(f"negative dimension at ({i},{j})")
        entries[(i, j)] = GroupExpr.of(FinAbGroup((2,) * new_dim))
    log.append(_record(kind="d2_squared", chains_checked=checked_chains))
    return page.replace(
        number=3, entries=MappingProxyType(entries), log=tuple(log), previous=page
    )


# ---------------------------------------------------------------------------
# Reports


class TotalDegreeReport(Frozen):
    """What one spectral-sequence run says about total degree N.

    Immutable, so that run_ahss can hand the same instance to every
    caller: entries are the (i, j, group) triples of the degree-N diagonal,
    verdict is "0", one group, an associated graded list or "inconclusive",
    group is the one surviving group (None unless exactly determined), and
    blockers and provenance are tuples of notes.  to_dict emits lists.
    """

    __slots__ = ("N", "entries", "verdict", "group", "blockers", "provenance")

    def __init__(self, N: int, entries: tuple[tuple[int, int, str], ...], verdict: str,
                 group: GroupExpr | None, blockers: tuple[str, ...], provenance: tuple[str, ...]):
        self._set(N, entries, verdict, group, blockers, provenance)

    @property
    def inconclusive(self) -> bool:
        return bool(self.blockers)

    def to_dict(self) -> dict:
        return {
            "total_degree": self.N,
            "entries": [{"i": i, "j": j, "group": g} for i, j, g in self.entries],
            "verdict": self.verdict,
            "group": None if self.group is None else str(self.group),
            "blockers": list(self.blockers),
            "provenance": list(self.provenance),
        }


def total_degree_report(page: Page) -> TotalDegreeReport:
    """Associated graded of the abutment in the page's own total degree
    N = page.max_total, the one degree a turned page is final in.

    At most one nonzero survivor is reported as an exact group; several
    survivors stay an associated graded list (extension problems are never
    silently resolved).  Undeclared differentials out of opaque entries that
    could touch degree N make the report inconclusive.  An E2 page raises
    ValueError.
    """
    if page.number < 3:
        raise ValueError("report requires a turned page")
    N = page.max_total
    declarations = _declarations(page)
    declared = {(d["r"], d["source"]) for d in declarations}
    blockers: list[str] = []
    survivors: list[tuple[int, int, GroupExpr]] = []
    for i in range(N, -1, -1):
        j = N - i
        expr = page.entry(i, j)
        if expr is None:
            raise _untabulated(i, j, N)
        survivors.append((i, j, expr))
    # undetermined differentials out of opaque entries, into or out of degree N;
    # a target lies on the degree-N diagonal, tabulated throughout (checked above)
    for (i, j), expr in page.entries.items():
        if expr is None or not expr.is_opaque:
            continue
        if i + j == N - 1:
            for r in range(3, j + 2):
                ti, tj = i + r, j - r + 1
                if not page.entry(ti, tj).is_zero and (r, (i, j)) not in declared:
                    blockers.append(
                        f"d{r} from opaque ({i},{j}) into nonzero ({ti},{tj}) undeclared"
                    )
        if i + j == N:
            for r in range(3, j + 2):
                if (r, (i, j)) not in declared:
                    blockers.append(f"d{r} out of opaque ({i},{j}) undeclared")
    provenance = tuple(
        f"declared d{d['r']} from ({d['source'][0]},{d['source'][1]}) rank {d['rank']}"
        for d in declarations
    ) + (
        "differentials of length >= 3 between computed rows are outside the model"
        " and taken to vanish",
    )
    entries_str = tuple((i, j, str(expr)) for i, j, expr in survivors)
    nonzero = [(i, j, expr) for i, j, expr in survivors if not expr.is_zero]
    if blockers:
        return TotalDegreeReport(N, entries_str, "inconclusive", None, tuple(blockers), provenance)
    if not nonzero:
        return TotalDegreeReport(N, entries_str, "0", GroupExpr.zero(), (), provenance)
    if len(nonzero) == 1:
        expr = nonzero[0][2]
        return TotalDegreeReport(N, entries_str, str(expr), expr, (), provenance)
    graded = " ; ".join(f"({i},{j}): {expr}" for i, j, expr in nonzero)
    return TotalDegreeReport(N, entries_str, f"associated graded: {graded}", None, (), provenance)


def run_ahss(
    E: FinAbGroup,
    n: int,
    spectrum_name: str,
    N: int,
    twist: bool = False,
    d5_zero: bool = False,
    overrides: CoeffOverrides | None = None,
) -> tuple[Page, TotalDegreeReport]:
    """The E3 page and the total-degree-N report of one query.

    Assembles the E2 page (the E3 page's previous), turns it, declares
    d5 = 0 out of an opaque (0,4) when d5_zero asks and N is 4 or 5, the
    degrees whose report reads that differential, and reports.
    Computed once per process for each query, however its arguments are
    spelled; overrides hash by identity.  Pages and report are frozen and
    shared by every caller, and a run that raises is not kept, so it
    raises again.
    """
    return _run_ahss(E, n, spectrum_name, N, twist, d5_zero, overrides)


# keyed by positional arguments only, so every spelling of a query shares one entry
@lru_cache(maxsize=None)
def _run_ahss(E, n, spectrum_name, N, twist, d5_zero, overrides):
    if twist and spectrum_name != "SW":
        raise UnsupportedRangeError(
            f"twist fermion-parity is tabulated for SW only, not {spectrum_name}"
        )
    page = assemble_e2(E, n, spectrum(spectrum_name, overrides), N, overrides, twist)
    page3 = apply_d2(page)
    if d5_zero and N in (4, 5) and page3.entry(0, 4).is_opaque:
        declared = _record(kind="declaration", r=5, source=(0, 4), rank=0)
        page3 = page3.replace(log=page3.log + (declared,))
    return page3, total_degree_report(page3)


# ---------------------------------------------------------------------------
# Product splitting and the smash-term freeness check


def _a1_submodule(alg, seed_cls, lo: int, hi: int) -> dict[int, list[int]]:
    """A(1)-submodule generated by one class, truncated to a degree window:
    {degree: spanning vectors} for the degrees of [lo, hi] it reaches, each a
    bitmask in the coordinates of alg.basis(degree), independent per degree."""
    spans: dict[int, Echelon] = {}
    queue = [(seed_cls.degree, alg.coordinates(seed_cls))]
    while queue:
        d, vec = queue.pop()
        if not vec or d > hi:
            continue
        span = spans.setdefault(d, Echelon())
        if not span.add(vec):
            continue
        for k in (1, 2):
            if d + k <= hi:
                queue.append((d + k, alg.sq_matrix(k, d).apply(vec)))
    return {d: spans[d].vectors for d in range(lo, hi + 1) if d in spans}


def smash_freeness_check(X: EmSpace, Y: EmSpace, degree: int, window: tuple[int, int]) -> dict:
    """Reduced smash classes in one degree and their Margolis certificates.

    A reduced class is a sorted basis monomial of X x Y with generators (each
    of positive degree) on both sides; it generates an A(1)-submodule, and
    vanishing Q0 and Q1 Margolis homology through the window certifies a
    free summand (hence a nonzero contribution to the reduced theory).
    """
    lo, hi = window
    alg = algebra_for(X.product(Y), hi)
    on_x = [g.factor < len(X.factors) for g in alg.generators]
    classes = [alg.monomial_class(mono) for mono in sorted(alg.basis(degree))
               if len({on_x[gi] for gi, _e in mono}) == 2]
    results = []
    all_free = bool(classes)
    for cls in classes:
        q0, q1 = margolis_homology(alg.sq_matrix, _a1_submodule(alg, cls, lo, hi))
        free = not any(q0.values()) and not any(q1.values())
        all_free = all_free and free
        results.append({"class": str(cls), "q0_homology": q0, "q1_homology": q1, "free_a1": free})
    return {"degree": degree, "dimension": len(classes), "classes": results, "all_free": all_free}


def product_split(
    E: FinAbGroup,
    spectrum_name: str,
    n: int,
    N: int,
    overrides: CoeffOverrides | None = None,
    d5_zero: bool = False,
) -> dict:
    """h^N(X1 x X2 x ...) split into point, reduced-factor, and smash summands.

    Factors are the invariant-factor cyclic pieces of E.  Each reduced
    factor runs through the spectral sequence, with d5 = 0 declared when
    d5_zero asks; each pair of factors gives one smash summand.  The split's
    verdict is the direct sum when every summand is computed, "nonzero" when
    a smash summand is certified, and "inconclusive" otherwise.
    """
    spec_table = spectrum(spectrum_name, overrides)
    # each cyclic factor as a group and as its own Eilenberg-MacLane space
    factors = EmSpace.from_group(E, n).factors
    pieces = [(FinAbGroup.cyclic(m), EmSpace(((m, d),))) for m, d in factors]
    point = str(spec_table.entry(N)) if N <= spec_table.max_degree else None
    summands = [_summand("point", "unknown" if point is None else "computed", point)]
    for idx, (F, _X) in enumerate(pieces):
        report = run_ahss(F, n, spectrum_name, N, d5_zero=d5_zero, overrides=overrides)[1]
        groups = [g for i, _j, g in report.entries if i > 0 and g != "0"]
        status = ("inconclusive" if report.inconclusive
                  else "associated graded" if len(groups) > 1 else "computed")
        group = None if report.inconclusive else " ; ".join(groups) or "0"
        summands.append(_summand(f"reduced factor {idx}: {F}[{n}]", status, group))
    for (F, X), (G, Y) in combinations(pieces, 2):
        label = f"smash {F}[{n}] ^ {G}[{n}]"
        if F.order % 2 or G.order % 2:
            summands.append(_summand(label, "computed", "0",
                                     "odd-torsion side: reduced mod-2 cohomology vanishes"))
        elif 2 * n > N:
            summands.append(_summand(label, "computed", "0", f"no classes below degree {2 * n}"))
        else:
            check = smash_freeness_check(X, Y, N, (N - 1, N + 4))
            if check["dimension"] and check["all_free"]:
                summands.append(_summand(label, "nonzero", None,
                                         f"{check['dimension']} free A(1) classes in degree {N}"))
            else:
                summands.append(_summand(label, "unknown", None))
    statuses = {s["status"] for s in summands}
    if statuses == {"computed"}:
        verdict = " ; ".join(s["group"] for s in summands if s["group"] != "0") or "0"
    else:
        verdict = "nonzero" if "nonzero" in statuses else "inconclusive"
    return {
        "group": str(E),
        "space_degree": n,
        "spectrum": spectrum_name,
        "total_degree": N,
        "summands": summands,
        "verdict": verdict,
    }


def _summand(label: str, status: str, group: str | None, note: str = "") -> dict:
    s = {"summand": label, "status": status, "group": group}
    if note:
        s["note"] = note
    return s


# ---------------------------------------------------------------------------
# Dumps


def page_to_dict(page: Page) -> dict:
    """A fresh JSON-ready dict of a page; the records' tuples become lists.

    An entry of a mod-2 row lists the names of algebra.basis(i) while d2 has
    not cut it down, and no names otherwise."""
    alg = page.algebra

    def plain(rec: Mapping) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in rec.items()}

    def basis(i: int, j: int, expr: GroupExpr | None) -> list[str]:
        if page.row_kind(j) != "z2" or len(expr.finite.invariant_factors) != alg.dimension(i):
            return []
        return [alg.format_monomial(m) for m in alg.basis(i)]

    return {
        "page": page.number,
        "space": str(alg.space),
        "group": str(page.circle.E),
        "space_degree": page.circle.n,
        "spectrum": page.spectrum.name,
        "twisted": page.twisted,
        "max_total": page.max_total,
        "entries": {
            f"{i},{j}": {"group": "?" if e is None else str(e), "basis": basis(i, j, e)}
            for (i, j), e in sorted(page.entries.items())
        },
        "computed_totals": [page.max_total] if page.number >= 3 else [],
        "log": [plain(rec) for rec in page.log],
        "declarations": [
            {k: v for k, v in plain(rec).items() if k != "kind"} for rec in _declarations(page)
        ],
    }
