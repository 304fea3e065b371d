"""Exact linear algebra in the reflection representation.

Vectors live in the span of the simple roots, with coordinates stored as
``fractions.Fraction``; the vector attached to the simple reflection ``s_i``
is the coordinate vector of ``alpha_i`` itself.  The reflection action is

    s_i(v) = v - <v, alpha_i^vee> alpha_i

where the coroot pairing is computed from the integral Cartan matrix row
``a[i]``.  On these coordinates a group element acts by its matrix.

Subspaces are kept in reduced row echelon form over the rationals, which
makes equality of subspaces equality of their stored rows and keeps every
operation exact.  All arithmetic is rational; nothing here floats.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import CoxeterSystem, GroupElement
from .errors import IndexOutOfRange, RankMismatch

RationalVector = tuple[Fraction, ...]


def vector(values) -> RationalVector:
    """Coerce a sequence of ints/Fractions/strings into a RationalVector."""
    return tuple(Fraction(v) for v in values)


def basis_vector(sys: CoxeterSystem, i: int) -> RationalVector:
    """The coordinate vector of the simple root alpha_i."""
    if not 0 <= i < sys.rank:
        raise IndexOutOfRange(f"basis index {i} outside 0..{sys.rank - 1}")
    return tuple(Fraction(1 if j == i else 0) for j in range(sys.rank))


def coroot_pairing(sys: CoxeterSystem, i: int, v: RationalVector) -> Fraction:
    """<v, alpha_i^vee>, the coefficient stripped off by the reflection s_i."""
    if len(v) != sys.rank:
        raise RankMismatch(f"vector of length {len(v)} in rank {sys.rank}")
    row = sys.cartan[i]
    return sum((row[j] * v[j] for j in range(sys.rank)), Fraction(0))


def reflect(sys: CoxeterSystem, i: int, v: RationalVector) -> RationalVector:
    """Apply the simple reflection s_i to a vector."""
    if not 0 <= i < sys.rank:
        raise IndexOutOfRange(f"reflection index {i} outside 0..{sys.rank - 1}")
    c = coroot_pairing(sys, i, v)
    if c == 0:
        return v
    return tuple(v[j] - c if j == i else v[j] for j in range(sys.rank))


def apply_element(sys: CoxeterSystem, g: GroupElement, v: RationalVector) -> RationalVector:
    """Apply a group element to a vector by its matrix."""
    if len(v) != sys.rank:
        raise RankMismatch(f"vector of length {len(v)} in rank {sys.rank}")
    n = sys.rank
    m = g.matrix
    return tuple(
        sum((m[r][c] * v[c] for c in range(n) if v[c]), Fraction(0)) for r in range(n)
    )


def _rref(rows: list[list[Fraction]], ncols: int) -> tuple[RationalVector, ...]:
    """Reduced row echelon form; returns the nonzero rows, pivots left to right."""
    mat = [list(row) for row in rows]
    pivot_rows: list[list[Fraction]] = []
    col = 0
    while mat and col < ncols:
        pivot_idx = next((k for k, row in enumerate(mat) if row[col] != 0), None)
        if pivot_idx is None:
            col += 1
            continue
        row = mat.pop(pivot_idx)
        inv = 1 / row[col]
        row = [entry * inv for entry in row]
        for other in mat:
            factor = other[col]
            if factor:
                for j in range(col, ncols):
                    other[j] -= factor * row[j]
        for other in pivot_rows:
            factor = other[col]
            if factor:
                for j in range(col, ncols):
                    other[j] -= factor * row[j]
        pivot_rows.append(row)
        col += 1
    return tuple(tuple(row) for row in pivot_rows)


class RationalSubspace:
    """A subspace of Q^n held as its reduced row echelon basis.

    The stored rows are canonical for the subspace, so ``==`` and ``hash``
    are subspace equality.  Instances are immutable; every operation returns
    a new object.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        cleaned = []
        for row in rows:
            row = vector(row)
            if len(row) != ncols:
                raise RankMismatch(f"row of length {len(row)} in ambient dimension {ncols}")
            cleaned.append(list(row))
        self.rows = _rref(cleaned, ncols)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: RationalVector) -> bool:
        """Membership test by elimination against the echelon rows."""
        if len(v) != self.ncols:
            raise RankMismatch(f"vector of length {len(v)} in ambient dimension {self.ncols}")
        residual = list(vector(v))
        for row in self.rows:
            pivot = next(j for j in range(self.ncols) if row[j] != 0)
            factor = residual[pivot]
            if factor:
                for j in range(pivot, self.ncols):
                    residual[j] -= factor * row[j]
        return all(entry == 0 for entry in residual)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalSubspace):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"RationalSubspace(dim={self.dim}, ncols={self.ncols})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis": [[str(entry) for entry in row] for row in self.rows],
        }
