"""End-to-end acceptance checks, shared by the test suite and the CLI
selftest.  Each check returns (name, ok, detail) and is timed; the details
are meant to be printable one-liners."""

from __future__ import annotations

import math
import time

from .abelian import (
    FinAbGroup,
    Z2_TARGET,
    CIRCLE,
    ext_group,
    groups_up_to,
    hom_group,
    parse_group,
    quad_group,
    quad_group_brute,
    smith_normal_form,
)
from .ahss import product_split, run_ahss, smash_freeness_check
from .condense import (
    SkeletalCategory,
    condense_group_algebra,
    condense_phi,
    obstruction_verdict,
    parse_descriptor,
    parse_subgroup,
)
from .em_cohomology import EmSpace, algebra_for, poincare_series
from .record import Frozen
from .steenrod import (
    SteenrodMonomial,
    SteenrodWord,
    adem_expand,
    adem_normalize,
)


class CheckResult(Frozen):
    __slots__ = ("name", "ok", "detail", "seconds")

    def __init__(self, name: str, ok: bool, detail: str, seconds: float):
        self._set(name, ok, detail, seconds)


def _check(name, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}", time.perf_counter() - t0)
    return CheckResult(name, ok, detail, time.perf_counter() - t0)


def check_superwitt_degree5_cyclic() -> tuple[bool, str]:
    """SW^5 of K(Z_{2^k}, 2) vanishes for k = 1, 2, 3, each under 1 s."""
    parts = []
    ok = True
    for k in (1, 2, 3):
        t0 = time.perf_counter()
        _page, rep = run_ahss(FinAbGroup.cyclic(2**k), 2, "SW", 5, d5_zero=True)
        dt = time.perf_counter() - t0
        good = rep.verdict == "0" and not rep.inconclusive and dt < 1.0
        ok = ok and good
        parts.append(f"k={k}: {rep.verdict} ({dt * 1000:.0f} ms)")
    return ok, "; ".join(parts)


def check_twisted_degree5_point() -> tuple[bool, str]:
    """Twisted run over the fermion-parity base gives Z/2 in total degree 5,
    with the (4,0) entry Z/4 coming from the quadratic-form group."""
    t0 = time.perf_counter()
    page, rep = run_ahss(FinAbGroup.cyclic(2), 2, "SW", 5, twist=True, d5_zero=True)
    dt = time.perf_counter() - t0
    # the (4,0) entry against the quadratic-form group computed directly
    q = quad_group(FinAbGroup.cyclic(2), CIRCLE)
    ok = (
        rep.verdict == "Z/2"
        and q == FinAbGroup((4,))
        and str(page.circle.entry(4)) == "Z/4"
        and dt < 1.0
    )
    return ok, (f"verdict={rep.verdict}, quad(Z/2, circle)={q},"
                f" (4,0)={page.circle.entry(4)} [{page.circle.provenance[4]}]")


def check_supercohomology_degree7() -> tuple[bool, str]:
    """SH^7 of K(Z_{2^k}, 4) vanishes for k = 1, 2, and the product split
    extends the zero verdict to Z/2 x Z/2 (smash classes start in degree 8)."""
    parts = []
    ok = True
    t0 = time.perf_counter()
    for k in (1, 2):
        _page, rep = run_ahss(FinAbGroup.cyclic(2**k), 4, "SH", 7)
        ok = ok and rep.verdict == "0" and not rep.inconclusive
        parts.append(f"k={k}: {rep.verdict}")
    ps = product_split(parse_group("Z/2 x Z/2"), "SH", 4, 7)
    smash = [s for s in ps["summands"] if s["summand"].startswith("smash")]
    ok = ok and ps["verdict"] == "0" and all("degree 8" in s.get("note", "") for s in smash)
    dt = time.perf_counter() - t0
    ok = ok and dt < 2.0
    parts.append(f"Z/2 x Z/2 split: {ps['verdict']} ({dt * 1000:.0f} ms)")
    return ok, "; ".join(parts)


def check_bosonic_symmetric_obstruction() -> tuple[bool, str]:
    """Obstruction group for bosonic symmetric inputs is the dual of the
    2-torsion subgroup, across cyclic and mixed examples.  The 2^k elements
    x with 2x = 0, counted in E, form (Z/2)^k, which is self-dual."""
    parts = []
    ok = True
    for text in ("Z/2", "Z/4", "Z/2 x Z/4", "Z/6", "Z/3"):
        E = parse_group(text)
        v = obstruction_verdict(E, "bosonic", "symmetric")
        count = sum(1 for x in E.elements() if not any(E.add(x, x)))
        expected = str(FinAbGroup((2,) * (count.bit_length() - 1)))
        good = v.group == expected
        ok = ok and good
        parts.append(f"{text}: {v.group}")
    return ok, "; ".join(parts)


def check_smash_margolis() -> tuple[bool, str]:
    """The reduced smash of two K(Z/2,2) has a 2-dimensional degree-5 piece
    whose classes generate A(1)-submodules with vanishing Margolis homology
    through the window [4, 9]."""
    X = EmSpace.single(2, 2)
    chk = smash_freeness_check(X, X, 5, window=(4, 9))
    ok = chk["dimension"] == 2 and chk["all_free"]
    homs = "; ".join(
        f"{c['class']}: Q0={sorted(set(c['q0_homology'].values()))},"
        f" Q1={sorted(set(c['q1_homology'].values()))}"
        for c in chk["classes"]
    )
    return ok, f"dim={chk['dimension']}; {homs}"


def orbit_count(pi0: FinAbGroup, generators) -> int:
    """Number of orbits of the translation action of <generators> on pi0."""
    gens = [tuple(g) for g in generators]
    seen: set[tuple[int, ...]] = set()
    orbits = 0
    for x in pi0.elements():
        if x in seen:
            continue
        orbits += 1
        stack = [x]
        while stack:
            y = stack.pop()
            if y in seen:
                continue
            seen.add(y)
            for g in gens:
                stack.append(pi0.add(y, g))
    return orbits


def check_condensation_bookkeeping() -> tuple[bool, str]:
    """Component counts through the condensation pipeline; each group-algebra
    quotient is cross-checked against the orbits of the translation action."""
    cat = SkeletalCategory("fusion", "bosonic", "2Vec", pi0=FinAbGroup.cyclic(4))
    two = condense_group_algebra(cat, "Z/2")
    braided = parse_descriptor("braided; pi0=Z/4; id=2Rep(S3); fermionic=no")
    phi = condense_phi(braided)
    ferm = parse_descriptor("symmetric; pi0=Z/2 x Z/4; id=2Rep(S3,z); fermionic=yes")
    step = condense_group_algebra(condense_phi(ferm), "Z/2 x Z/4")
    orbits = [
        orbit_count(c.pi0, parse_subgroup(c.pi0, sub)) == after.n_components
        for c, sub, after in ((cat, "Z/2", two), (ferm, "Z/2 x Z/4", step))
    ]
    ok = (
        all(orbits)
        and two.n_components == 2
        and phi.strongly_fusion
        and phi.identity == "2Vec"
        and step.identity == "2SVec"
        and step.n_components == 1
    )
    return ok, (
        f"Z/4 after Vec[Z/2]: {two.n_components} components;"
        f" phi on braided 2Rep: {phi.describe()};"
        f" fermionic pipeline end: {step.describe()}"
    )


# ---------------------------------------------------------------------------
# Property-style spot checks (the hypothesis suites in tests/ go further)


class _SqOnPolynomials:
    """Sq^i on F2[x, y] with x, y of degree 1: Sq^i(x^e) = C(e, i) x^(e+i),
    extended by the Cartan formula (Adem, 1957).

    A homogeneous polynomial of degree n is an int whose bit e1 stands for
    x^e1 y^(n - e1), so a sum is an XOR.  Binomials mod 2 come from Pascal's
    triangle, rows 0..top, built by addition alone, so the oracle shares no
    code with steenrod.binom_mod2, which the Adem expansion under test uses.
    Sq^i on one monomial is memoized for the life of the instance.
    """

    def __init__(self, top: int):
        # row n holds C(n, 0..n) mod 2
        self.pascal = [[1]]
        for _ in range(top):
            prev = self.pascal[-1]
            self.pascal.append([1] + [prev[k - 1] ^ prev[k] for k in range(1, len(prev))] + [1])
        self._memo: dict[tuple[int, int, int], int] = {}

    def sq(self, i: int, e1: int, e2: int) -> int:
        """Sq^i(x^e1 y^e2), a polynomial of degree e1 + e2 + i."""
        key = (i, e1, e2)
        out = self._memo.get(key)
        if out is None:
            r1, r2 = self.pascal[e1], self.pascal[e2]
            out = 0
            for j in range(max(0, i - e2), min(i, e1) + 1):
                if r1[j] and r2[i - j]:
                    out |= 1 << (e1 + j)
            self._memo[key] = out
        return out

    def act(self, indices, n: int, poly: int) -> int:
        """Sq^{i_1} ... Sq^{i_k} on a polynomial of degree n, the rightmost
        square first."""
        for i in reversed(indices):
            out = 0
            while poly:
                low = poly & -poly
                e1 = low.bit_length() - 1
                out ^= self.sq(i, e1, n - e1)
                poly ^= low
            poly = out
            n += i
        return poly


def check_adem_oracle() -> tuple[bool, str]:
    """Adem expansions agree with direct evaluation on a bivariate
    polynomial ring, for every inadmissible pair with a < 2b <= 20."""
    # seed exponents stay below 8 and words have degree a + b <= 29
    oracle = _SqOnPolynomials(7 + 29)
    # sq(i, e2, e1) is sq(i, e1, e2) under x <-> y (term j goes to i - j), so
    # act commutes with the swap and x^e2 y^e1 passes exactly when x^e1 y^e2 does
    seeds = [(e1, e2) for e1 in range(8) for e2 in range(e1, 8)]
    pairs = 0
    for b in range(1, 11):
        for a in range(1, 2 * b):
            terms = adem_expand(a, b)
            word = adem_normalize(SteenrodWord.sq(a, b))
            if {m.squares for m in word.monomials} != set(terms):
                return False, f"normalization disagrees with expansion at ({a},{b})"
            for m in word.monomials:
                if not m.is_admissible or m.degree != a + b:
                    return False, f"bad term {m} for ({a},{b})"
            for e1, e2 in seeds:
                n, seed = e1 + e2, 1 << e1
                rhs = 0
                for t in terms:
                    rhs ^= oracle.act(t, n, seed)
                if oracle.act((a, b), n, seed) != rhs:
                    return False, f"evaluation mismatch at ({a},{b}) on x^{e1}y^{e2}"
            pairs += 1
    return True, f"{pairs} inadmissible pairs verified by polynomial evaluation"


def check_cartan_products() -> tuple[bool, str]:
    """Sq^i(uv) = sum Sq^j(u) Sq^(i-j)(v) on a two-factor algebra up to
    total degree 12."""
    alg = algebra_for(EmSpace.single(2, 2).product(EmSpace.single(2, 2)), 12)
    # Sq^0..Sq^(10-d) of each basis class of degree d: the partner of a
    # class has degree >= 2, so no Cartan sum reads a higher square
    squares = {
        d: [(u, [alg.sq(j, u) for j in range(11 - d)])
            for u in map(alg.monomial_class, alg.basis(d))]
        for d in range(2, 6)
    }
    checked = 0
    for du in range(2, 6):
        for dv in range(2, 6):
            for u, sqs_u in squares[du]:
                for v, sqs_v in squares[dv]:
                    uv = u * v
                    for i in range(1, 12 - du - dv + 1):
                        lhs = alg.sq(i, uv)
                        rhs = 0  # the Cartan sum as a bitmask in lhs's basis
                        for j in range(i + 1):
                            rhs ^= (sqs_u[j] * sqs_v[i - j]).vec
                        if lhs.vec != rhs:
                            return False, f"Cartan fails for Sq{i} on {u} * {v}"
                        checked += 1
    return True, f"{checked} Cartan instances checked"


def check_d2_squared() -> tuple[bool, str]:
    """Every assembled run re-asserts d2 o d2 = 0; count the chains."""
    total = 0
    runs = [
        (FinAbGroup.cyclic(2), 2, "SW", 5, False),
        (FinAbGroup.cyclic(2), 2, "SW", 5, True),
        (FinAbGroup.cyclic(4), 2, "SW", 5, False),
        (FinAbGroup.cyclic(8), 2, "SW", 5, False),
        (FinAbGroup.cyclic(2), 4, "SH", 7, False),
        (FinAbGroup.cyclic(4), 4, "SH", 7, False),
    ]
    for E, n, name, N, tw in runs:
        page, _rep = run_ahss(E, n, name, N, twist=tw, d5_zero=True)
        for entry in page.log:
            if entry.get("kind") == "d2_squared":
                total += entry["chains_checked"]
    return total > 0, f"{total} composable d2 chains asserted zero across {len(runs)} runs"


def check_functor_brute_force() -> tuple[bool, str]:
    """hom and Ext agree with enumeration/presentation oracles for every
    pair of abelian groups of order <= 16 with |A| |B| <= 64, and the Quad
    brute force agrees with the closed form for every non-cyclic group of
    order <= 16."""
    groups = list(groups_up_to(16))
    checked = 0
    for B in groups:
        orders = [B.element_order(x) for x in B.elements()]
        partners = [A for A in groups if A.order * B.order <= 64]
        # Ext(Z/d, B) = B / dB, presented once for each invariant factor d
        # of a partner
        r = len(B.invariant_factors)
        quotients = {}
        for d in {d for A in partners for d in A.invariant_factors}:
            rows = [[B.invariant_factors[i] if c == i else 0 for c in range(r)] for i in range(r)]
            rows += [[d if c == i else 0 for c in range(r)] for i in range(r)]
            quotients[d] = smith_normal_form(rows).invariant_factors if rows else ()
        for A in partners:
            # hom by counting, for each invariant factor d of A, the images
            # of its generator: the elements of B whose order divides d
            count = math.prod(sum(d % o == 0 for o in orders) for d in A.invariant_factors)
            if count != hom_group(A, B).order:
                return False, f"hom({A},{B}) enumeration mismatch"
            ext_factors = [f for d in A.invariant_factors for f in quotients[d]]
            if FinAbGroup.from_factors(ext_factors) != ext_group(A, B):
                return False, f"Ext({A},{B}) presentation mismatch"
            checked += 1
    quads = 0
    for E in groups:
        if not (2 <= E.order <= 16) or len(E.invariant_factors) < 2:
            continue
        for target in (CIRCLE, Z2_TARGET):
            if quad_group_brute(E, target) != quad_group(E, target):
                return False, f"Quad({E}, {target}) brute force disagrees with the closed form"
            quads += 1
    return True, (
        f"{checked} hom/Ext pairs cross-checked and {quads} Quad groups"
        " checked against the closed form"
    )


def check_poincare_convolution() -> tuple[bool, str]:
    """Series of a product is the convolution of the factor series."""
    cap = 10
    cases = [
        (EmSpace.single(2, 2), EmSpace.single(2, 2)),
        (EmSpace.single(2, 2), EmSpace.single(4, 2)),
        (EmSpace.single(2, 4), EmSpace.single(2, 4)),
        (EmSpace.single(2, 2), EmSpace.single(3, 2)),
    ]
    for X, Y in cases:
        sx = poincare_series(X, cap)
        sy = poincare_series(Y, cap)
        sp = poincare_series(X.product(Y), cap)
        conv = [sum(sx[i] * sy[d - i] for i in range(d + 1)) for d in range(cap + 1)]
        if sp != conv:
            return False, f"convolution fails for {X} x {Y}"
    return True, f"{len(cases)} product series match their convolutions"


def check_property_suites() -> tuple[bool, str]:
    subs = [
        ("adem oracle", check_adem_oracle),
        ("cartan", check_cartan_products),
        ("d2 squared", check_d2_squared),
        ("functor brute force", check_functor_brute_force),
        ("poincare convolution", check_poincare_convolution),
    ]
    details = []
    ok = True
    for name, fn in subs:
        good, detail = fn()
        ok = ok and good
        details.append(f"{name}: {'ok' if good else 'FAIL'} ({detail})")
    return ok, " | ".join(details)


CHECKS = [
    ("degree-5 super-Witt vanishing, cyclic 2-groups", check_superwitt_degree5_cyclic),
    ("twisted degree-5 run over the fermion-parity base", check_twisted_degree5_point),
    ("degree-7 supercohomology vanishing and product split", check_supercohomology_degree7),
    ("bosonic symmetric obstruction groups", check_bosonic_symmetric_obstruction),
    ("smash degree-5 Margolis certificates", check_smash_margolis),
    ("condensation component bookkeeping", check_condensation_bookkeeping),
    ("property suites", check_property_suites),
]


def run_all() -> list[CheckResult]:
    return [_check(name, fn) for name, fn in CHECKS]
