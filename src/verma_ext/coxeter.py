"""Finite Weyl groups in simple-root coordinates.

A group is described by a type string such as ``"B3"`` or ``"A1xA2"``.  Each
factor contributes a block to an integral Cartan matrix ``a`` with the
convention ``a[i][j] = <alpha_j, alpha_i^vee>``, so the simple reflection
``s_i`` acts on simple roots by ``s_i(alpha_j) = alpha_j - a[i][j] alpha_i``.
Group elements are stored as integer matrices whose columns are the images of
the simple roots; equality of matrices is equality in the group because the
reflection representation is faithful.

A system interns each element the first time it is reached: a ``matrix -> id``
map gives it the next small integer id, and per-id tables on the system hold
the element, its right-multiplication row ``rmul[id][s]`` (the id of g s_s,
filled on first use together with the back-link from g s_s) and its reduced
word (computed when first asked for).  Interning is lazy, so single-pair work
on a large group touches only the elements it reaches.  Elements carry their
id, their length and their right descents as a bitmask, but no reference to
other elements or to the system, so a system and its elements are freed by
reference counting.

Two Bruhat order routines are provided.  ``bruhat_leq`` is the workhorse, a
memoized recursion on the lifting property.  ``bruhat_leq_oracle`` decides
order by brute subword enumeration of one reduced word and exists to
cross-check the recursion; its cost is ``2**length(y)`` and it refuses to run
past an explicit budget.  ``descend`` is the one step, with its lifting check,
that the R-polynomial, subspace and direct recursions all take.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InvalidType,
    InvariantViolation,
    LiftingViolation,
    NotComparable,
    ParseError,
    RankOverflow,
)

DEFAULT_BUDGET = 2_000_000
ORACLE_BUDGET = 4096

# Which right descent a descent recursion strips; the first is the default.
DESCENT_POLICIES = ("smallest", "largest")

IntMatrix = tuple[tuple[int, ...], ...]

_FACTOR_RE = re.compile(r"^([A-G])([0-9]+)$")

# Admissible ranks per family; None means unbounded above.  The B/C split at
# rank 2/3 keeps every descriptor a distinct isomorphism class.
_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_E_ORDERS = {6: 51_840, 7: 2_903_040, 8: 696_729_600}


@dataclass(frozen=True)
class TypeDescriptor:
    """Parsed form of a type string: an ordered tuple of (family, rank) factors."""

    factors: tuple[tuple[str, int], ...]

    @classmethod
    def parse(cls, text: str) -> "TypeDescriptor":
        """Parse ``"A3"``, ``"b2"``, ``"A1xA2"`` (case-insensitive, 'x' separates factors).

        >>> str(TypeDescriptor.parse("a1Xg2"))
        'A1xG2'
        """
        if not isinstance(text, str) or not text.strip():
            raise InvalidType(f"empty type descriptor: {text!r}")
        factors = []
        for token in text.strip().upper().split("X"):
            m = _FACTOR_RE.match(token)
            if m is None:
                raise InvalidType(f"bad factor {token!r} in type descriptor {text!r}")
            family, rank = m.group(1), int(m.group(2))
            lo, hi = _RANK_BOUNDS[family]
            if rank < lo or (hi is not None and rank > hi):
                raise InvalidType(f"rank {rank} out of range for family {family}")
            factors.append((family, rank))
        return cls(tuple(factors))

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.factors)

    def group_order(self) -> int:
        order = 1
        for fam, rank in self.factors:
            order *= _factor_order(fam, rank)
        return order


def _factor_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if family == "E":
        return _E_ORDERS[rank]
    if family == "F":
        return 1152
    return 12  # G2


def _factor_cartan(family: str, rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if family == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif family == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)  # last root short
    elif family == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)  # last root long
    elif family == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)  # fork at the third-to-last node
    elif family == "E":
        bond(0, 2)
        bond(1, 3)
        for i in range(2, rank - 1):
            bond(i, i + 1)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    else:  # G2
        bond(0, 1, -3, -1)
    return a


def build_cartan(descriptor: TypeDescriptor) -> IntMatrix:
    """Block-diagonal integral Cartan matrix for a (possibly reducible) type."""
    n = descriptor.rank
    a = [[0] * n for _ in range(n)]
    offset = 0
    for family, rank in descriptor.factors:
        block = _factor_cartan(family, rank)
        for i in range(rank):
            for j in range(rank):
                a[offset + i][offset + j] = block[i][j]
        offset += rank
    return tuple(tuple(row) for row in a)


def _positive_roots(cartan: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """All positive roots, as integer coordinate vectors in the simple-root basis.

    Closure of the simple roots under the simple reflections, keeping only
    vectors with nonnegative coordinates.  Sorted by height then
    lexicographically, so the order is reproducible.
    """
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = sum(cartan[i][j] * beta[j] for j in range(n) if beta[j])
            gamma = tuple(
                beta[j] - pairing if j == i else beta[j] for j in range(n)
            )
            if min(gamma) >= 0 and gamma not in roots:
                roots.add(gamma)
                frontier.append(gamma)
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


class GroupElement:
    """A Weyl group element: an integer matrix, its length, its id, its descents.

    ``id`` indexes the tables of the system that interned the element.
    ``descents`` has bit i set when s_i is a right descent, that is when
    column i (the image of alpha_i) is a negative root.  Instances are
    immutable and hashable; equality is matrix equality, so elements of two
    systems of one type compare equal.  Construct via the module functions,
    not directly.
    """

    __slots__ = ("matrix", "length", "id", "descents", "_hash")

    def __init__(self, matrix: IntMatrix, length: int, gid: int):
        self.matrix = matrix
        self.length = length
        self.id = gid
        self.descents = sum(1 << i for i, col in enumerate(zip(*matrix)) if min(col) < 0)
        self._hash = hash(matrix)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self._hash == other._hash and self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rows = ";".join(",".join(str(v) for v in row) for row in self.matrix)
        return f"GroupElement(len={self.length}, [{rows}])"


class CoxeterSystem:
    """A finite Weyl group with its Cartan data and per-group caches.

    The interned element tables are indexed by element id; the other caches
    (Bruhat memo, subword down-sets, element and pair lists) hold
    GroupElements.  All grow monotonically, and all derived tables hold a
    reference to their system, so sharing one system between tables shares
    the caches.
    """

    def __init__(self, descriptor: TypeDescriptor, budget: int = DEFAULT_BUDGET):
        order = descriptor.group_order()
        if order > budget:
            raise RankOverflow(
                f"group of type {descriptor} has order {order}, over budget {budget}"
            )
        self.descriptor = descriptor
        self.budget = budget
        self.cartan = build_cartan(descriptor)
        self.rank = descriptor.rank
        self.group_order = order
        self.positive_roots = _positive_roots(self.cartan)
        # (c, a[i][c]) for the columns c that right multiplication by s_i rewrites
        self._coupled = tuple(tuple((c, a) for c, a in enumerate(r) if a) for r in self.cartan)
        n = self.rank
        eye = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        self._index: dict[IntMatrix, int] = {}
        self._by_id: list[GroupElement] = []
        self._rmul: list[list[int]] = []  # id of g s_i, or -1 before first use
        self._words: list[tuple[int, ...] | None] = []
        self._identity = _intern(self, eye, 0)
        self._words[self._identity.id] = ()
        self._simples = tuple(right_multiply(self, self._identity, i) for i in range(n))
        self._bruhat: dict[tuple[GroupElement, GroupElement], bool] = {}
        self._downsets: dict[GroupElement, frozenset[IntMatrix]] = {}
        self._elements: tuple[GroupElement, ...] | None = None
        self._pairs: tuple[tuple[GroupElement, GroupElement], ...] | None = None
        self._longest: GroupElement | None = None

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.descriptor}, order={self.group_order})"


def build_system(type_text: str | TypeDescriptor, budget: int = DEFAULT_BUDGET) -> CoxeterSystem:
    """Build a CoxeterSystem from a type string, refusing groups over the order budget."""
    descriptor = (
        type_text
        if isinstance(type_text, TypeDescriptor)
        else TypeDescriptor.parse(type_text)
    )
    return CoxeterSystem(descriptor, budget=budget)


def fingerprint(sys: CoxeterSystem) -> str:
    """Stable id for cache files: descriptor plus a digest of the Cartan matrix."""
    blob = json.dumps(sys.cartan).encode()
    return f"{sys.descriptor}-{hashlib.sha256(blob).hexdigest()[:12]}"


# ---------------------------------------------------------------------------
# element arithmetic


def _col_reflect(sys: CoxeterSystem, matrix: IntMatrix, i: int) -> IntMatrix:
    # (M s_i)[r][c] = M[r][c] - a[i][c] * M[r][i], so a row with M[r][i] == 0
    # is copied unchanged, and in the others only the columns c with
    # a[i][c] != 0 (column i and its Dynkin neighbours) change.
    coupled = sys._coupled[i]
    out = []
    for row in matrix:
        m = row[i]
        if m:
            row = list(row)
            for c, a in coupled:
                row[c] -= a * m
            row = tuple(row)
        out.append(row)
    return tuple(out)


def _intern(sys: CoxeterSystem, matrix: IntMatrix, length: int) -> GroupElement:
    """The system's element with this matrix, given the next id on first sight."""
    gid = sys._index.get(matrix)
    if gid is None:
        gid = len(sys._by_id)
        sys._index[matrix] = gid
        sys._by_id.append(GroupElement(matrix, length, gid))
        sys._rmul.append([-1] * sys.rank)
        sys._words.append(None)
    return sys._by_id[gid]


def _own(sys: CoxeterSystem, g: GroupElement) -> GroupElement:
    """The system's own element equal to g; g itself unless another system built it."""
    gid = g.id
    if gid < len(sys._by_id) and sys._by_id[gid] is g:
        return g
    return _intern(sys, g.matrix, g.length)


def identity(sys: CoxeterSystem) -> GroupElement:
    return sys._identity


def simple_reflection(sys: CoxeterSystem, i: int) -> GroupElement:
    if not 0 <= i < sys.rank:
        raise IndexOutOfRange(f"simple reflection index {i} outside 0..{sys.rank - 1}")
    return sys._simples[i]


def _maps_negative(matrix: IntMatrix, root: tuple[int, ...]) -> bool:
    # Roots map to roots, so the image is all-nonneg or all-nonpos; one
    # negative coordinate decides.
    for r in range(len(matrix)):
        val = sum(matrix[r][c] * root[c] for c in range(len(root)) if root[c])
        if val < 0:
            return True
        if val > 0:
            return False
    return False


def recount_length(sys: CoxeterSystem, matrix: IntMatrix) -> int:
    """Length from scratch: positive roots sent to negative roots."""
    return sum(1 for beta in sys.positive_roots if _maps_negative(matrix, beta))


def multiply(sys: CoxeterSystem, a: GroupElement, b: GroupElement) -> GroupElement:
    """a * b as a matrix product with the length recounted, bypassing the tables.

    Kept independent of ``right_multiply`` so that checks of the group law
    built on it do not read back what the tables stored.
    """
    n = sys.rank
    am, bm = a.matrix, b.matrix
    prod = tuple(
        tuple(sum(am[r][k] * bm[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )
    return _intern(sys, prod, recount_length(sys, prod))


def right_multiply(sys: CoxeterSystem, g: GroupElement, i: int) -> GroupElement:
    """g * s_i: a lookup in the system's table, filled on first use.

    The fill copies the rows of g's matrix that are 0 in column i and
    rewrites column i and its Dynkin neighbours in the others.
    """
    if not 0 <= i < sys.rank:
        raise IndexOutOfRange(f"simple reflection index {i} outside 0..{sys.rank - 1}")
    g = _own(sys, g)
    row = sys._rmul[g.id]
    hid = row[i]
    if hid < 0:
        length = g.length - 1 if g.descents >> i & 1 else g.length + 1
        hid = row[i] = _intern(sys, _col_reflect(sys, g.matrix, i), length).id
        sys._rmul[hid][i] = g.id
    return sys._by_id[hid]


def check_policy(policy: str) -> None:
    """Reject a descent policy outside DESCENT_POLICIES."""
    if policy not in DESCENT_POLICIES:
        raise InvalidType(f"unknown descent policy {policy!r}")


def pick_descent(sys: CoxeterSystem, g: GroupElement, policy: str) -> int:
    """The right descent of g that a recursion under a checked ``policy`` strips.

    Raises InvariantViolation when g is the identity, which has no right
    descent: the recursions stop at x == y before they pick one.
    """
    d = g.descents
    if not d:
        raise InvariantViolation("the identity has no right descent to strip")
    if policy == "smallest":
        d &= -d
    return d.bit_length() - 1


def reduced_word(sys: CoxeterSystem, g: GroupElement) -> tuple[int, ...]:
    """Canonical reduced word: repeatedly strip the smallest right descent.

    The word of g is the word of g s plus s, for s the smallest descent of g;
    each element's word is computed once and kept in the system's table.
    """
    words = sys._words
    chain: list[tuple[GroupElement, int]] = []
    h = _own(sys, g)
    while words[h.id] is None:
        s = pick_descent(sys, h, "smallest")
        chain.append((h, s))
        h = right_multiply(sys, h, s)
    word = words[h.id]
    for h, s in reversed(chain):
        word = words[h.id] = word + (s,)
    return word


def element_from_word(sys: CoxeterSystem, word: tuple[int, ...]) -> GroupElement:
    """Product of simple reflections; the word need not be reduced."""
    g = sys._identity
    for i in word:
        if not isinstance(i, int) or not 0 <= i < sys.rank:
            raise ParseError(f"word letter {i!r} outside 0..{sys.rank - 1}")
        g = right_multiply(sys, g, i)
    return g


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a comma-separated word like ``"0,1,0"``; ``""`` and ``"e"`` mean identity.

    >>> parse_word("0,1,0")
    (0, 1, 0)
    >>> parse_word("e")
    ()
    """
    text = text.strip()
    if text in ("", "e"):
        return ()
    letters = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.isdigit():
            raise ParseError(f"bad word letter {piece!r} in {text!r}")
        letters.append(int(piece))
    return tuple(letters)


def format_word(word: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in word) if word else "e"


def word_text(sys: CoxeterSystem, g: GroupElement) -> str:
    """The canonical reduced word of g as text, ``e`` for the identity."""
    return format_word(reduced_word(sys, g))


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_leq(sys: CoxeterSystem, x: GroupElement, y: GroupElement) -> bool:
    """Decide x <= y in Bruhat order by the lifting recursion, memoized per system.

    For s a right descent of y: if s is also a descent of x then
    x <= y iff xs <= ys, otherwise x <= y iff x <= ys.  Each step strictly
    shortens y, so the memo is keyed on (x, y) pairs with length(x) < length(y).
    """
    if x.length > y.length:
        return False
    if x.length == y.length:
        return x == y
    if x.length == 0:
        return True
    memo = sys._bruhat
    key = (x, y)
    cached = memo.get(key)
    if cached is not None:
        return cached
    s = pick_descent(sys, y, "smallest")
    ys = right_multiply(sys, y, s)
    if x.descents >> s & 1:
        result = bruhat_leq(sys, right_multiply(sys, x, s), ys)
    else:
        result = bruhat_leq(sys, x, ys)
    memo[key] = result
    return result


def check_below(sys: CoxeterSystem, y: GroupElement, x: GroupElement) -> None:
    """Raise NotComparable unless y <= x in Bruhat order."""
    if not bruhat_leq(sys, y, x):
        raise NotComparable(f"{word_text(sys, y)} is not below {word_text(sys, x)}")


def descend(
    sys: CoxeterSystem, x: GroupElement, y: GroupElement, policy: str
) -> tuple[int, GroupElement, GroupElement, bool]:
    """One step of a pair recursion on the upper element: (s, xs, ys, down).

    For y < x, s is the right descent of x that the checked ``policy``
    picks and down says ys < y.  By the lifting property (Björner–Brenti,
    *Combinatorics of Coxeter Groups*, §2.2) the pair the step recurses on
    stays comparable: ys <= xs when down, y <= xs otherwise.  That is
    checked here; a failure means the recursion itself is broken, so it
    raises LiftingViolation rather than NotComparable.
    """
    s = pick_descent(sys, x, policy)
    xs = right_multiply(sys, x, s)
    ys = right_multiply(sys, y, s)
    down = ys.length < y.length
    if not bruhat_leq(sys, ys if down else y, xs):
        raise LiftingViolation(f"descent step left the Bruhat order at x={word_text(sys, x)}")
    return s, xs, ys, down


def bruhat_leq_oracle(sys: CoxeterSystem, x: GroupElement, y: GroupElement) -> bool:
    """Decide x <= y by enumerating all subwords of one reduced word of y.

    x <= y iff some subword of any fixed reduced word of y multiplies to x.
    Exponential in length(y); the per-y down-set is cached, and the call
    refuses a y whose 2**length(y) subwords exceed ORACLE_BUDGET.
    """
    k = y.length
    if 2**k > ORACLE_BUDGET:
        raise BudgetExceeded(f"subword oracle needs 2**{k} products, budget is {ORACLE_BUDGET}")
    downset = sys._downsets.get(y)
    if downset is None:
        word = reduced_word(sys, y)
        eye = sys._identity.matrix
        prods: list[IntMatrix] = [eye] * (1 << k)
        for mask in range(1, 1 << k):
            high = mask.bit_length() - 1
            prods[mask] = _col_reflect(sys, prods[mask ^ (1 << high)], word[high])
        downset = frozenset(prods)
        sys._downsets[y] = downset
    return x.matrix in downset


# ---------------------------------------------------------------------------
# whole-group views


def enumerate_elements(sys: CoxeterSystem) -> tuple[GroupElement, ...]:
    """All group elements, sorted by (length, matrix).  Cached on the system."""
    if sys._elements is None:
        seen = {sys._identity.id}
        frontier = [sys._identity]
        collected = [sys._identity]
        while frontier:
            nxt = []
            for g in frontier:
                for i in range(sys.rank):
                    h = right_multiply(sys, g, i)
                    if h.length > g.length and h.id not in seen:
                        seen.add(h.id)
                        nxt.append(h)
            collected.extend(nxt)
            frontier = nxt
        if len(collected) != sys.group_order:
            raise RankOverflow(
                f"enumerated {len(collected)} elements, expected {sys.group_order}"
            )
        sys._elements = tuple(sorted(collected, key=lambda g: (g.length, g.matrix)))
    return sys._elements


def comparable_pairs(sys: CoxeterSystem) -> tuple[tuple[GroupElement, GroupElement], ...]:
    """All pairs (x, y) with y <= x, ordered by (length, matrix) on x then y.

    Cached on the system.
    """
    if sys._pairs is None:
        elements = enumerate_elements(sys)
        sys._pairs = tuple(
            (x, y)
            for x in elements
            for y in elements
            if y.length <= x.length and bruhat_leq(sys, y, x)
        )
    return sys._pairs


def longest_element(sys: CoxeterSystem) -> GroupElement:
    """The longest element, found by greedy ascent from the identity."""
    if sys._longest is None:
        full = (1 << sys.rank) - 1
        h = sys._identity
        while h.descents != full:
            ascents = full & ~h.descents
            h = right_multiply(sys, h, (ascents & -ascents).bit_length() - 1)
        if h.length != len(sys.positive_roots):
            raise RankOverflow(
                f"longest element has length {h.length}, expected {len(sys.positive_roots)}"
            )
        sys._longest = h
    return sys._longest


def braid_order(sys: CoxeterSystem, i: int, j: int) -> int:
    """Order of s_i s_j, read from the Cartan matrix product a_ij * a_ji."""
    if i == j:
        return 1
    prod = sys.cartan[i][j] * sys.cartan[j][i]
    return {0: 2, 1: 3, 2: 4, 3: 6}[prod]
