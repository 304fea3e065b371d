"""Exact linear algebra in the reflection representation.

Vectors live in the span of the simple roots, with coordinates stored as
``fractions.Fraction``; the vector attached to the simple reflection ``s_i``
is the coordinate vector of ``alpha_i`` itself.  The reflection action is

    s_i(v) = v - <v, alpha_i^vee> alpha_i

where the coroot pairing is computed from the integral Cartan matrix row
``a[i]``.  On these coordinates a group element acts by its matrix.

A subspace is echelonised over the integers by fraction-free Gauss-Jordan
elimination (after Bareiss, *Math. Comp.* 22, 1968): a rational row is
first scaled by the lcm of its denominators, rows are combined by
cross-multiplication, and each is kept primitive by dividing out its
content.  The result, primitive integer rows with a positive pivot and
zeros in the other pivot columns, is canonical for the subspace, so
equality of subspaces is equality of their integer rows.  The reduced row
echelon rows over the rationals are that basis with each row divided by
its pivot, made only when read.  All arithmetic is exact; nothing here
floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coxeter import CoxeterSystem, GroupElement
from .errors import IndexOutOfRange, RankMismatch

RationalVector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


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


def _integral(values) -> list[int]:
    """The row as integers: a row with a non-integer entry is scaled by the lcm
    of its denominators, which keeps the line it spans."""
    row = list(values)
    if all(type(v) is int for v in row):
        return row
    row = vector(row)
    scale = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _primitive(row: list[int]) -> list[int]:
    content = math.gcd(*row)
    return [v // content for v in row] if content > 1 else row


def _reduce(basis: dict[int, list[int]], row: list[int]) -> list[int]:
    """Clear row's entries in the pivot columns of a Gauss-Jordan basis."""
    for col, b in basis.items():
        f = row[col]
        if f:
            p = b[col]
            row = _primitive([p * v - f * w for v, w in zip(row, b)])
    return row


def _echelon(rows, ncols: int) -> tuple[IntVector, ...]:
    """The canonical integer basis of the span of integer rows, pivots left to right.

    Each row is reduced against the basis so far; a nonzero remainder becomes
    primitive with a positive pivot and clears its pivot column from the
    others.  Every row is kept primitive, so entries do not grow from one
    elimination to the next.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row
    for row in rows:
        if len(basis) == ncols:
            break
        row = _reduce(basis, row)
        col = next((j for j, v in enumerate(row) if v), None)
        if col is None:
            continue
        row = _primitive(row if row[col] > 0 else [-v for v in row])
        p = row[col]
        for c, b in basis.items():
            f = b[col]
            if f:
                basis[c] = _primitive([p * w - f * v for w, v in zip(b, row)])
        basis[col] = row
    return tuple(tuple(basis[c]) for c in sorted(basis))


class RationalSubspace:
    """A subspace of Q^n held as its canonical integer echelon basis.

    ``basis`` holds primitive integer rows with a positive pivot and zeros
    in the other pivot columns.  It is canonical for the subspace, so
    ``==`` and ``hash`` are subspace equality; the hash is taken once, as
    tables key on it.  ``rows`` is the reduced row echelon form over the
    rationals.  Instances are immutable; every operation returns a new
    object.
    """

    __slots__ = ("ncols", "basis", "_hash")

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        cleaned = []
        for row in rows:
            row = _integral(row)
            if len(row) != ncols:
                raise RankMismatch(f"row of length {len(row)} in ambient dimension {ncols}")
            cleaned.append(row)
        self.basis = _echelon(cleaned, ncols)
        self._hash = hash((ncols, self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def rows(self) -> tuple[RationalVector, ...]:
        """The reduced row echelon rows: each basis row divided by its pivot."""
        out = []
        for row in self.basis:
            p = next(v for v in row if v)
            out.append(tuple(Fraction(v, p) for v in row))
        return tuple(out)

    def contains(self, v) -> bool:
        """Membership test by elimination against the integer basis."""
        if len(v) != self.ncols:
            raise RankMismatch(f"vector of length {len(v)} in ambient dimension {self.ncols}")
        basis = {next(j for j, e in enumerate(row) if e): row for row in self.basis}
        return not any(_reduce(basis, _integral(v)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalSubspace):
            return NotImplemented
        return self.ncols == other.ncols and self.basis == other.basis

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RationalSubspace(dim={self.dim}, ncols={self.ncols})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis": [[str(entry) for entry in row] for row in self.rows],
        }
