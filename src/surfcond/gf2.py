"""Bit-packed GF(2) linear algebra: ranks, composition, incremental spans."""

from __future__ import annotations

from .record import Frozen


def bits(vec: int) -> list[int]:
    """Indices of the set bits of a non-negative vec, lowest first."""
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


class Gf2Matrix(Frozen):
    """Matrix over GF(2); rows[i] is an int bitmask of row i (nrows x ncols).

    Viewed as a linear map sending basis vector i of the domain (dimension
    nrows) to the vector encoded by rows[i] in the codomain (dimension ncols).
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: tuple[int, ...], ncols: int):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", ncols)

    @staticmethod
    def from_rows(rows, ncols: int) -> "Gf2Matrix":
        return Gf2Matrix(tuple(int(r) for r in rows), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not any(self.rows)

    def __add__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Gf2Matrix(tuple(a ^ b for a, b in zip(self.rows, other.rows)), self.ncols)

    def apply(self, vec: int) -> int:
        """Image of a domain vector (bitmask over rows), in time proportional
        to its weight."""
        rows = self.rows
        if vec < 0 or vec >> len(rows):
            raise ValueError(f"vector {vec:#x} is not a bitmask over {len(rows)} rows")
        if not vec & (vec - 1):  # zero or a single bit
            return rows[vec.bit_length() - 1] if vec else 0
        out = 0
        for i in bits(vec):
            out ^= rows[i]
        return out

    def then(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Composition: first self, then other."""
        if self.ncols != other.nrows:
            raise ValueError("composition shape mismatch")
        return Gf2Matrix(tuple(other.apply(r) for r in self.rows), other.ncols)

    def rank(self) -> int:
        return Echelon(self.rows).dim


class Echelon:
    """Incremental GF(2) span of bitmask vectors, all in one basis.

    Echelon(vecs) adds vecs in order; vectors keeps those that enlarged the
    span, and an echelon form keyed by pivot answers dim and whether a
    vector is new to the span."""

    def __init__(self, vecs=()):
        self.vectors: list[int] = []
        self._pivots: dict[int, int] = {}  # pivot (lowest set bit) -> reduced vector
        for vec in vecs:
            self.add(vec)

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def add(self, vec: int) -> bool:
        """Add a spanning vector; returns True if it enlarged the span.

        vec's lowest bit is cleared against the row with that pivot until no
        row has it: vec lies in the span iff nothing is left, and otherwise
        the lowest bit left is a new pivot."""
        reduced = vec
        while reduced and (row := self._pivots.get(reduced & -reduced)) is not None:
            reduced ^= row
        if not reduced:
            return False
        self._pivots[reduced & -reduced] = reduced
        self.vectors.append(vec)
        return True
