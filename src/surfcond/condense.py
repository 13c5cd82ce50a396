"""Component-level condensation bookkeeping and obstruction verdicts.

A fusion 2-category is tracked only through the invariants the obstruction
computations consume: its group of connected components pi0 (a finite
abelian group: the categories here have grouplike fusion rules), the
identity component tag, the statistic, and how much of the monoidal
structure is present (fusion, braided, sylleptic, symmetric).  Condensing a
group algebra quotients the components; condensing the canonical symmetric
algebra of functions turns a 2Rep identity component into 2Vec or 2SVec.
"""

from __future__ import annotations

from .abelian import FinAbGroup, GroupExpr, even_count, parse_group, quotient_by_subgroup_image
from .ahss import product_split, run_ahss
from .coefficients import circle_row
from .record import Frozen

LEVELS = ("fusion", "braided", "sylleptic", "symmetric")
STATISTICS = ("bosonic", "fermionic")
_FERMIONIC = {"yes": True, "no": False, "true": True, "false": False, "1": True, "0": False}


def _fermionic_identity(identity: str) -> bool:
    return identity == "2SVec" or identity.endswith(",z)")


class SkeletalCategory(Frozen):
    """Connected-component skeleton of a fusion 2-category."""

    __slots__ = ("level", "statistic", "identity", "pi0")

    def __init__(self, level: str, statistic: str,
                 identity: str,  # 2Vec | 2SVec | 2Rep(<name>) | 2Rep(<name>,z)
                 pi0: FinAbGroup = FinAbGroup.trivial()):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        if statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {statistic!r}")
        rep = identity.startswith("2Rep(") and identity.endswith(")")
        name = identity[5:-1].removesuffix(",z") if rep else ""
        if identity not in ("2Vec", "2SVec") and not name:
            raise ValueError(f"unknown identity component tag {identity!r}")
        if statistic == "bosonic" and _fermionic_identity(identity):
            raise ValueError(f"a bosonic statistic contradicts the fermionic identity {identity}")
        self._set(level, statistic, identity, pi0)

    @classmethod
    def of(cls, level: str, identity: str, pi0: FinAbGroup, fermionic: bool | None = None):
        """The category with these invariants; fermionic=None takes the
        statistic from the identity (fermionic for 2SVec and 2Rep(...,z))."""
        if fermionic is None:
            fermionic = _fermionic_identity(identity)
        return cls(level, "fermionic" if fermionic else "bosonic", identity, pi0)

    @property
    def strongly_fusion(self) -> bool:
        return self.identity in ("2Vec", "2SVec")

    @property
    def n_components(self) -> int:
        return self.pi0.order

    def describe(self) -> str:
        return f"{self.level}; pi0={self.pi0}; id={self.identity}; fermionic=" + (
            "yes" if self.statistic == "fermionic" else "no"
        )


def parse_descriptor(text: str) -> SkeletalCategory:
    """Parse compact descriptors like "braided; pi0=Z/4; id=2Rep(S3); fermionic=no".

    fermionic is yes/no/true/false/1/0, and implied (never no) by 2SVec or 2Rep(...,z).
    A descriptor gives each key, and its level, at most once."""
    level = "fusion"
    pi0 = FinAbGroup.trivial()
    identity = "2Vec"
    fermionic = None
    seen = set()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, val = (s.strip() for s in part.split("=", 1)) if "=" in part else (None, part)
        if key in seen:
            raise ValueError(f"descriptor repeats {'its level' if key is None else key}: {part!r}")
        seen.add(key)
        if key is None:
            if part not in LEVELS:
                raise ValueError(f"unknown descriptor token {part!r}")
            level = part
        elif key == "pi0":
            pi0 = parse_group(val)
        elif key == "id":
            identity = val
        elif key == "fermionic" and val.lower() in _FERMIONIC:
            fermionic = _FERMIONIC[val.lower()]
        elif key == "fermionic":
            raise ValueError(f"fermionic={val!r} is not one of {'/'.join(_FERMIONIC)}")
        else:
            raise ValueError(f"unknown descriptor key {key!r}")
    return SkeletalCategory.of(level, identity, pi0, fermionic)


# ---------------------------------------------------------------------------
# Condensing a group algebra


def parse_subgroup(pi0: FinAbGroup, text: str) -> list[tuple[int, ...]]:
    """Generators of a subgroup of pi0 from a compact literal.

    "1"/"0" is trivial; "Z/d" is the order-d subgroup of the largest cyclic
    factor; "Z/d diag" is generated by the diagonal order-d element; the
    group literal of pi0 itself means the whole group.
    """
    s = text.strip()
    if s in ("0", "1", ""):
        return []
    diag = s.endswith("diag")
    if diag:
        s = s[: -len("diag")].strip()
    H = parse_group(s)
    if not diag and H == pi0:
        rank = len(pi0.invariant_factors)
        return [tuple(1 if k == pos else 0 for k in range(rank)) for pos in range(rank)]
    if len(H.invariant_factors) != 1:
        raise ValueError(f"subgroup literal {text!r} must be cyclic or the full group")
    d = H.invariant_factors[0]
    if diag:
        if any(f % d for f in pi0.invariant_factors):
            raise ValueError(f"no diagonal Z/{d} inside {pi0}")
        return [tuple(f // d for f in pi0.invariant_factors)]
    if pi0.exponent % d:
        raise ValueError(f"Z/{d} is not a subgroup of the largest factor of {pi0}")
    gen = [0] * len(pi0.invariant_factors)
    gen[-1] = pi0.exponent // d
    return [tuple(gen)]


# condensing a group algebra costs one level of commutativity where it has one
# to lose; fusion and symmetric categories keep their level
_DEGRADE_GROUP_ALGEBRA = {"braided": "fusion", "sylleptic": "braided"}


def condense_group_algebra(cat: SkeletalCategory, subgroup: str) -> SkeletalCategory:
    """Condense the group algebra of a subgroup acting by translation.

    subgroup is a literal read by parse_subgroup.  Components become the
    orbit set, that is, the quotient group.
    """
    gens = parse_subgroup(cat.pi0, subgroup)
    if not gens:
        return cat
    quotient = quotient_by_subgroup_image(GroupExpr.of(cat.pi0), gens).finite
    level = _DEGRADE_GROUP_ALGEBRA.get(cat.level, cat.level)
    return cat.replace(pi0=quotient, level=level)


# ---------------------------------------------------------------------------
# Condensing the canonical symmetric function algebra


def condense_phi(cat: SkeletalCategory) -> SkeletalCategory:
    """Condense the algebra of functions on the identity component's group.

    Turns a 2Rep identity component into 2Vec (or 2SVec when the central
    fermion is present), leaving the components untouched; the result is
    strongly fusion.  A braided input only retains fusion structure; the
    algebra sits in the symmetric center, so sylleptic and symmetric inputs
    keep their level.
    """
    if cat.strongly_fusion:
        raise ValueError(f"condense_phi needs a 2Rep identity component, got {cat.identity}")
    fermionic = cat.statistic == "fermionic"  # as a 2Rep(...,z) identity forces
    new_level = "fusion" if cat.level == "braided" else cat.level
    return cat.replace(identity="2SVec" if fermionic else "2Vec", level=new_level)


# ---------------------------------------------------------------------------
# Obstruction verdicts


class Verdict(Frozen):
    _fields = ("branch", "verdict", "group", "provenance", "details")  # kept in a __dict__

    def __init__(self, branch: str, verdict: str, group: str | None,
                 provenance: list[str] | None = None, details: dict | None = None):
        # one C-level update of the __dict__, where _set would loop in Python
        vars(self).update(branch=branch, verdict=verdict, group=group,
                          provenance=provenance or [], details=details or {})

    def to_dict(self) -> dict:
        return {**self.as_dict(), "provenance": list(self.provenance)}


def obstruction_verdict(E: FinAbGroup, statistic: str, level: str) -> Verdict:
    """Decision procedure for condensing a strongly fusion theory with
    component group E down to the vacuum."""
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if level not in ("braided", "symmetric"):
        raise ValueError("verdicts are tabulated for braided and symmetric levels")
    if level == "symmetric" and statistic == "fermionic":
        return Verdict(
            "symmetric/fermionic",
            f"equivalent to 2SVec[{E}]; fibre 2-functor to 2SVec exists",
            None,
            ["structure determined by the component group [known value]"],
        )
    if level == "symmetric" and statistic == "bosonic":
        obstruction = circle_row(E, 4).entry(7)
        ps = product_split(E, "SH", 4, 7)
        return Verdict(
            "symmetric/bosonic",
            f"obstruction group to a fibre 2-functor to 2Vec: {obstruction};"
            " fibre 2-functor to 2SVec unobstructed",
            str(obstruction),
            [
                "obstruction group = dual of the 2-torsion subgroup of E [computed]",
                f"degree-7 supercohomology of E[4]: {ps['verdict']} [computed]",
            ],
            {"supercohomology_split": ps},
        )
    even = even_count(E.invariant_factors)
    if level == "braided" and statistic == "fermionic":
        if even == 0:
            group = circle_row(E, 2).entry(5)
            return Verdict(
                "braided/fermionic/odd",
                f"computed H^5(E[2]; C^x) = {group}; the interpretation for"
                " 2-torsion-free E is left to the caller",
                str(group),
                ["degree-5 circle-coefficient group reported without interpretation"
                 " [computed]"],
            )
        ps = product_split(E, "SW", 2, 5, d5_zero=True)
        if even == 1:
            ok = ps["verdict"] == "0"
            return Verdict(
                "braided/fermionic/cyclic-2-part",
                "vacuum-condensable: degree-5 super-Witt cohomology vanishes"
                if ok
                else f"degree-5 super-Witt cohomology: {ps['verdict']}",
                "0" if ok else None,
                ["spectral sequence run over each prime-power factor [computed]",
                 "unknown differential out of the Witt-group entry declared zero"
                 " [declared input]"],
                {"split": ps},
            )
        return Verdict(
            "braided/fermionic/two-even-factors",
            "obstructed classes exist: smash summands contribute free A(1)"
            " classes in degree 5",
            None,
            ["Margolis homology certificate on the smash summand [computed]"],
            {"split": ps},
        )
    # braided / bosonic
    rep = run_ahss(FinAbGroup.cyclic(2), 2, "SW", 5, twist=True, d5_zero=True)[1]
    return Verdict(
        "braided/bosonic",
        "W^5(E[2]) splits as W^5(pt) + reduced SW^5(E[2]) + reduced"
        f" SW^5(Z2F[2] ^ E[2]); W^5(pt) = {rep.verdict}, so vacuum condensation"
        " is obstructed in general",
        None,
        ["twisted spectral sequence over the fermion-parity base [computed]",
         "unknown differential out of the Witt-group entry declared zero"
         " [declared input]"],
        {"twisted_point_report": rep.to_dict()},
    )
