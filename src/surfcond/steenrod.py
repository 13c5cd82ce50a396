"""Mod-2 Steenrod algebra arithmetic: admissible monomials, Adem
normalization, excess, power-Bockstein markers, and Margolis homology of
modules over the subalgebra generated by Sq1 and Sq2.

Conventions: beta_1 is Sq1 and is normalized into the index list.  For k >= 2
the power Bockstein beta_k is an opaque innermost marker of degree 1; Sq1
composed with beta_k is zero and there is no other Adem interaction.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache

from .gf2 import Echelon, Gf2Matrix
from .record import Frozen


def binom_mod2(n: int, k: int) -> int:
    """Binomial coefficient mod 2 by Lucas' theorem: (n choose k) is odd
    iff k's binary digits are dominated by n's."""
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (n - k) & k == 0 else 0


class SteenrodMonomial(Frozen):
    """Sq^{i_1} ... Sq^{i_m} (beta_k), with the Bockstein acting innermost.

    bockstein == 0 means no marker; values >= 2 are power Bocksteins.
    beta_1 is never stored as a marker (it is the trailing Sq1).
    """

    __slots__ = ("squares", "bockstein")

    def __init__(self, squares: tuple[int, ...] = (), bockstein: int = 0):
        if squares and min(squares) < 1:
            raise ValueError("Sq indices must be positive")
        if bockstein == 1:
            raise ValueError("beta_1 is Sq1; store it as a trailing index")
        if bockstein < 0:
            raise ValueError("bockstein marker must be >= 2 or absent")
        object.__setattr__(self, "squares", squares)
        object.__setattr__(self, "bockstein", bockstein)

    @property
    def degree(self) -> int:
        return sum(self.squares) + (1 if self.bockstein else 0)

    @property
    def is_admissible(self) -> bool:
        idx = self.squares + ((1,) if self.bockstein else ())
        return all(a >= 2 * b for a, b in zip(idx, idx[1:]))

    @property
    def is_identity(self) -> bool:
        return not self.squares and not self.bockstein

    def __str__(self) -> str:
        parts = [f"Sq{i}" for i in self.squares]
        if self.bockstein:
            parts.append(f"b{self.bockstein}")
        return " ".join(parts) if parts else "1"


def excess(mono: SteenrodMonomial) -> int:
    """i_1 minus the sum of the remaining indices, the Bockstein marker
    counting as a trailing 1.  Defined for admissible monomials only."""
    if not mono.is_admissible:
        raise ValueError(f"excess of inadmissible monomial {mono}")
    idx = mono.squares + ((1,) if mono.bockstein else ())
    if not idx:
        return 0
    return idx[0] - sum(idx[1:])


class SteenrodWord(Frozen):
    """F2-sum of Steenrod monomials (presence = coefficient 1)."""

    __slots__ = ("monomials",)

    def __init__(self, monomials: frozenset[SteenrodMonomial] = frozenset()):
        object.__setattr__(self, "monomials", monomials)

    @staticmethod
    def of(*monos: SteenrodMonomial) -> "SteenrodWord":
        out: set[SteenrodMonomial] = set()
        for m in monos:
            out.symmetric_difference_update({m})
        return SteenrodWord(frozenset(out))

    @staticmethod
    def sq(*indices: int) -> "SteenrodWord":
        return SteenrodWord.of(SteenrodMonomial(tuple(indices)))

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.monomials}
        return len(degs) <= 1

    @property
    def degree(self) -> int:
        if not self.is_homogeneous:
            raise ValueError("inhomogeneous word has no degree")
        return next(iter(self.monomials)).degree if self.monomials else 0

    def __add__(self, other: "SteenrodWord") -> "SteenrodWord":
        return SteenrodWord(self.monomials ^ other.monomials)

    def sorted_monomials(self) -> list[SteenrodMonomial]:
        # canonical order: degree, then lexicographic indices, Bockstein last
        return sorted(
            self.monomials, key=lambda m: (m.degree, m.squares, m.bockstein)
        )

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        return " + ".join(str(m) for m in self.sorted_monomials())


@lru_cache(maxsize=None)
def adem_expand(a: int, b: int) -> frozenset[tuple[int, ...]]:
    """Adem relation for Sq^a Sq^b with a < 2b, as a set of index pairs.

    Sq^a Sq^b = sum_c binom(b-c-1, a-2c) Sq^{a+b-c} Sq^c; the c = 0 term is
    the single square Sq^{a+b}.  All output terms are admissible.
    """
    assert 0 < a < 2 * b
    out: set[tuple[int, ...]] = set()
    for c in range(0, a // 2 + 1):
        if binom_mod2(b - c - 1, a - 2 * c):
            term = (a + b - c, c) if c else (a + b,)
            out.symmetric_difference_update({term})
    return frozenset(out)


@lru_cache(maxsize=None)
def _normalize_squares(squares: tuple[int, ...]) -> frozenset[SteenrodMonomial]:
    """Rewrite a composite of squares as an F2-sum of admissible monomials.

    Each admissible monomial is built once, where its sequence is first
    reached; the sums above it are XORs of these cached sets.
    """
    for pos in range(len(squares) - 1):
        a, b = squares[pos], squares[pos + 1]
        if a < 2 * b:
            out: set[SteenrodMonomial] = set()
            for repl in adem_expand(a, b):
                rewritten = squares[:pos] + repl + squares[pos + 2 :]
                out.symmetric_difference_update(_normalize_squares(rewritten))
            return frozenset(out)
    return frozenset({SteenrodMonomial(squares)})


def adem_normalize(word: SteenrodWord) -> SteenrodWord:
    """Unique admissible representative of a Steenrod word.

    Monomials carrying a beta_k marker (k >= 2) whose admissible square part
    ends in Sq1 vanish (Sq1 beta_k = 0).
    """
    out: frozenset[SteenrodMonomial] = frozenset()
    for mono in word.monomials:
        terms = _normalize_squares(mono.squares)
        if mono.bockstein:
            terms = frozenset(
                SteenrodMonomial(t.squares, mono.bockstein)
                for t in terms
                if t.squares[-1:] != (1,)
            )
        out = out ^ terms if out else terms
    return SteenrodWord(out)


# ---------------------------------------------------------------------------
# Margolis homology


def margolis_homology(
    sq: Callable[[int, int], Gf2Matrix], spans: Mapping[int, Sequence[int]]
) -> tuple[dict[int, int], dict[int, int]]:
    """ker/im dimensions of Q0 = Sq1 and of Q1 = Sq1 Sq2 + Sq2 Sq1 on a module M.

    spans[d] holds vectors spanning M^d, bitmasks in the ambient basis of
    degree d; sq(i, d) is the ambient Sq^i from degree d to d + i in those
    bases (EmAlgebra.sq_matrix).  Below its top degree M must be closed
    under Sq1 and Sq2, else AssertionError; M is reduced and checked once
    for both.  For Q of degree shift, dim H_d = dim M^d - rank Q(M^d) -
    rank Q(M^{d - shift}) for d from M's lowest degree while d + shift is at
    most its top.  ValueError: Q0 Q0 or Q1 Q1 != 0.
    """

    def act(i: int, d: int, vec: int) -> int:  # a zero vector needs no matrix
        return sq(i, d).apply(vec) if vec else 0

    def q(shift: int, d: int, vec: int) -> int:  # Q0 has degree 1, Q1 degree 3
        if shift == 1:
            return act(1, d, vec)
        return act(1, d + 2, act(2, d, vec)) ^ act(2, d + 1, act(1, d, vec))

    module = {d: span for d, vecs in spans.items() if (span := Echelon(vecs)).dim}
    lo, hi = min(module, default=0), max(module, default=0)
    empty = Echelon()
    for d, span in module.items():
        for k in (1, 2):
            up = module.get(d + k, empty)
            if d + k <= hi and any(sq(k, d).apply(v) not in up for v in span.vectors):
                raise AssertionError(f"module not closed under Sq{k} from degree {d}")
    homology = []
    for shift in (1, 3):
        image = {d: [q(shift, d, v) for v in module.get(d, empty).vectors]
                 for d in range(lo, hi - shift + 1)}
        for d, vecs in image.items():
            if d + shift in image and any(q(shift, d + shift, w) for w in vecs):
                raise ValueError(f"Q{shift // 2} squared is nonzero starting in degree {d}")
        rank = {d: Echelon(vecs).dim for d, vecs in image.items()}
        homology.append({d: module.get(d, empty).dim - rank[d] - rank.get(d - shift, 0)
                         for d in rank})
    return homology[0], homology[1]


# ---------------------------------------------------------------------------
# Text syntax: "Sq2 Sq1", "Sq2 b_2"

_SQ_RE = re.compile(r"^sq(\d+)$")
_B_RE = re.compile(r"^b_?(\d+)$")


def parse_word(text: str) -> SteenrodWord:
    """Parse sums of monomials like "Sq2 Sq1 + Sq3", case-insensitively."""
    out = SteenrodWord()
    for part in text.split("+"):
        toks = part.split()
        if not toks:
            raise ValueError(f"empty monomial in {text!r}")
        squares: list[int] = []
        bockstein = 0
        for pos, tok in enumerate(toks):
            t = tok.strip().lower()
            if t == "1":
                continue
            m = _SQ_RE.match(t)
            if m:
                squares.append(int(m.group(1)))
                continue
            m = _B_RE.match(t)
            if m:
                if pos != len(toks) - 1:
                    raise ValueError("Bockstein marker must be innermost (last)")
                k = int(m.group(1))
                if k == 0:
                    raise ValueError(f"Bockstein marker {tok!r}: markers start at b1 (Sq1)")
                if k == 1:
                    squares.append(1)
                else:
                    bockstein = k
                continue
            raise ValueError(f"cannot parse Steenrod token {tok!r}")
        out = out + SteenrodWord.of(SteenrodMonomial(tuple(squares), bockstein))
    return out
