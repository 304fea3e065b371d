"""Finite Weyl groups in simple-root coordinates.

A group is described by a type string such as ``"B3"`` or ``"A1xA2"``,
parsed into a ``TypeDescriptor``, a named tuple of (family, rank) factors.  Each
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
word (computed when first asked for).  Every product goes through that map,
so a group element is one object in its system and equality and hashing are
identity; a system takes only elements it built.  Interning is lazy, so
single-pair work on a large group touches only the elements it reaches.
Elements carry their id, their length, their right descents as a bitmask
and, once the group is enumerated, their position in the (length, matrix)
order, but no reference to other elements or to the system, so a system
and its elements are freed by reference counting.

The Bruhat order has three routes.  ``bruhat_index`` builds a numbered
index: per element position, the bitmask of the positions below it.  From
then on ``bruhat_leq`` answers with one bit test; before that it calls
``bruhat_leq_lifting``, a memoized recursion on the lifting property, so
single-pair queries on a large group stay lazy.
``subword_rows`` decides order by subword enumeration of one reduced word,
on bare matrices it numbers in tables of its own, to cross-check the other
two: a generator in length order, like ``walk``, that keeps two length
layers and stops at the first y whose subwords are past an explicit
budget.  ``descend`` is the one step, with its lifting check, of the
single-pair recursions.

``walk``, the one whole-group pass, takes that step for every strict pair,
a row at a time by maps over positions, and hands each index row x, with
its descent s and two slots per pair into the row of xs, to row functions
that fill a V, R or direct table.  A filled row is aligned with x's index
row: entry k belongs to the pair (x, the k-th element below x), and the
row ends with its diagonal.  The walk keeps the rows of two length layers
only, since the row of x reads only the row of xs, and no table keeps
them.  ``slot`` finds a pair's entry by a bit count on the index.  The
memos that single-pair work fills (the lifting memo here, the tables' lazy
memos) are dicts of sparse rows instead: ``memo[x][y]`` for the pair
y <= x, keyed by the elements, so no lookup builds an (x, y) tuple and no
entry stores one.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import compress

from .errors import (
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
WHOLE_GROUP_LIMIT = 10_000  # elements: A6 (5,040) fits; E6 (51,840) would walk ~10^8 pairs

# Which right descent a descent recursion strips; the first is the default.
DESCENT_POLICIES = ("smallest", "largest")

IntMatrix = tuple[tuple[int, ...], ...]

_FACTOR_RE = re.compile(r"([A-G])([0-9]+)")

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


class TypeDescriptor(namedtuple("TypeDescriptor", "factors")):
    """Parsed form of a type string: an ordered tuple of (family, rank) factors.

    A named tuple: immutable, hashable and equal to the plain tuple of its field.
    """

    __slots__ = ()

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
            m = _FACTOR_RE.fullmatch(token)
            if m is None:
                raise InvalidType(f"bad factor {token!r} in type descriptor {text!r}")
            family = m.group(1)
            try:
                rank = int(m.group(2))
            except ValueError as exc:  # more digits than int() converts
                raise InvalidType(f"rank of family {family} has too many digits") from exc
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
    column i (the image of alpha_i) is a negative root.  ``position`` is
    the element's place in the (length, matrix) order, -1 until
    ``enumerate_elements`` sets it; the Bruhat index is numbered by it.  An
    instance is its system's one object for its group element, so equality
    and hashing are identity, and an element of another system of the same
    type is not equal to it.  Construct via the module functions, not
    directly.
    """

    __slots__ = ("matrix", "length", "id", "descents", "position")

    def __init__(self, matrix: IntMatrix, length: int, gid: int, descents: int):
        self.matrix = matrix
        self.length = length
        self.id = gid
        self.descents = descents
        self.position = -1

    def __repr__(self) -> str:
        rows = ";".join(",".join(str(v) for v in row) for row in self.matrix)
        return f"GroupElement(len={self.length}, [{rows}])"


class CoxeterSystem:
    """A finite Weyl group with its Cartan data and per-group caches.

    The interned element tables are indexed by element id and the Bruhat
    index masks by position in the (length, matrix) order; the lifting memo
    (rows keyed by the upper element, each keyed by the lower) and the
    element list hold the system's own GroupElements, keyed by identity.
    All grow monotonically; all derived tables hold a reference to their
    system, so sharing one system between tables shares the caches.
    Pass a system only elements it built.
    """

    def __init__(self, descriptor: TypeDescriptor, budget: int = DEFAULT_BUDGET):
        # The order is at least 2**rank: refuse a huge rank before computing it.
        if descriptor.rank >= budget.bit_length():
            raise RankOverflow(
                f"group of type {descriptor} has order at least 2**{budget.bit_length()}, "
                f"over budget {budget}"
            )
        order = descriptor.group_order()
        if order > budget:
            raise RankOverflow(
                f"group of type {descriptor} has order {order}, over budget {budget}"
            )
        self.descriptor = descriptor
        self.cartan = build_cartan(descriptor)
        self.rank = descriptor.rank
        self.group_order = order
        # (c, a[i][c]) for the columns c that right multiplication by s_i rewrites
        self._coupled = tuple(tuple((c, a) for c, a in enumerate(r) if a) for r in self.cartan)
        n = self.rank
        eye = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        self._index: dict[IntMatrix, int] = {}
        self._by_id: list[GroupElement] = []
        self._rmul: list[list[int]] = []  # id of g s_i, or -1 before first use
        self._words: list[tuple[int, ...] | None] = []
        self._identity = _intern(self, eye, 0, 0)
        self._words[self._identity.id] = ()
        self._simples = tuple(right_multiply(self, self._identity, i) for i in range(n))
        self._bruhat: dict[GroupElement, dict[GroupElement, bool]] = {}  # upper -> lower -> x <= y
        self._below: list[int] | None = None  # the Bruhat index, by position
        self._elements: tuple[GroupElement, ...] | None = None
        self._longest: GroupElement | None = None

    @functools.cached_property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots, closed on first read: single-pair work never reads them."""
        return _positive_roots(self.cartan)

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.descriptor}, order={self.group_order})"


def build_system(type_text: str, budget: int = DEFAULT_BUDGET) -> CoxeterSystem:
    """Build a CoxeterSystem from a type string, refusing groups over the order budget."""
    return CoxeterSystem(TypeDescriptor.parse(type_text), budget=budget)


def fingerprint(sys: CoxeterSystem) -> str:
    """Stable id for cache files: descriptor plus a digest of the Cartan matrix."""
    import hashlib  # here, so importing this module and building a group load neither
    import json

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


def _intern(sys: CoxeterSystem, matrix: IntMatrix, length: int, descents: int) -> GroupElement:
    """The system's element with this matrix, given the next id on first sight."""
    gid = sys._index.get(matrix)
    if gid is None:
        gid = len(sys._by_id)
        sys._index[matrix] = gid
        sys._by_id.append(GroupElement(matrix, length, gid, descents))
        sys._rmul.append([-1] * sys.rank)
        sys._words.append(None)
    return sys._by_id[gid]


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
    descents = sum(1 << i for i, col in enumerate(zip(*prod)) if min(col) < 0)
    return _intern(sys, prod, recount_length(sys, prod), descents)


def right_multiply(sys: CoxeterSystem, g: GroupElement, i: int) -> GroupElement:
    """g * s_i: a lookup in the system's table, filled on first use.

    The fill copies the rows of g's matrix that are 0 in column i and
    rewrites column i and its Dynkin neighbours in the others, so only
    their descent bits can change.
    """
    if not 0 <= i < sys.rank:
        raise IndexOutOfRange(f"simple reflection index {i} outside 0..{sys.rank - 1}")
    row = sys._rmul[g.id]
    hid = row[i]
    if hid < 0:
        matrix = _col_reflect(sys, g.matrix, i)
        descents = g.descents ^ 1 << i  # column i is negated
        for c, _ in sys._coupled[i]:
            if c != i:  # a neighbour column is a root: its first nonzero entry is its sign
                for r in matrix:
                    if r[c]:
                        break
                if (r[c] < 0) != (descents >> c & 1):
                    descents ^= 1 << c
        length = g.length - 1 if g.descents >> i & 1 else g.length + 1
        hid = row[i] = _intern(sys, matrix, length, descents).id
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
    while words[g.id] is None:
        s = pick_descent(sys, g, "smallest")
        chain.append((g, s))
        g = right_multiply(sys, g, s)
    word = words[g.id]
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
        try:
            if not (piece.isascii() and piece.isdigit()):  # str.isdigit alone takes "²"
                raise ValueError(piece)
            letters.append(int(piece))  # which raises ValueError past its digit limit too
        except ValueError:
            raise ParseError(f"bad word letter {piece!r} in {text!r}") from None
    return tuple(letters)


def format_word(word: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in word) if word else "e"


def word_text(sys: CoxeterSystem, g: GroupElement) -> str:
    """The canonical reduced word of g as text, ``e`` for the identity."""
    return format_word(reduced_word(sys, g))


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_leq(sys: CoxeterSystem, x: GroupElement, y: GroupElement) -> bool:
    """Decide x <= y in Bruhat order: one bit test once the system has its index.

    ``bruhat_index`` builds the index; before it exists the answer comes
    from ``bruhat_leq_lifting``, so a single-pair query never enumerates the
    group.
    """
    below = sys._below
    if below is not None:
        return bool(below[y.position] >> x.position & 1)
    return bruhat_leq_lifting(sys, x, y)


def bruhat_leq_lifting(sys: CoxeterSystem, x: GroupElement, y: GroupElement) -> bool:
    """Decide x <= y in Bruhat order by the lifting recursion, memoized per system.

    For s a right descent of y: if s is also a descent of x then
    x <= y iff xs <= ys, otherwise x <= y iff x <= ys.  Each step strictly
    shortens y, so the memo holds pairs with length(x) < length(y), in rows
    keyed by y, each keyed by x.  Both elements must be the system's own:
    equal lengths compare by identity.
    """
    if x.length > y.length:
        return False
    if x.length == y.length:
        return x is y
    if x.length == 0:
        return True
    row = sys._bruhat.get(y)
    if row is None:
        row = sys._bruhat[y] = {}  # the recursion reaches only shorter y
    else:
        cached = row.get(x)
        if cached is not None:
            return cached
    s = pick_descent(sys, y, "smallest")
    ys = right_multiply(sys, y, s)
    if x.descents >> s & 1:
        result = bruhat_leq_lifting(sys, right_multiply(sys, x, s), ys)
    else:
        result = bruhat_leq_lifting(sys, x, ys)
    row[x] = result
    return result


def check_below(sys: CoxeterSystem, y: GroupElement, x: GroupElement) -> None:
    """Raise NotComparable unless y <= x in Bruhat order."""
    if not bruhat_leq(sys, y, x):
        raise NotComparable(f"{word_text(sys, y)} is not below {word_text(sys, x)}")


def descend(
    sys: CoxeterSystem, x: GroupElement, y: GroupElement, policy: str
) -> tuple[int, GroupElement, GroupElement, bool]:
    """One step of a pair recursion on x: (s, xs, ys, down), s the descent ``policy`` picks.

    down says ys < y.  By the lifting property (Björner–Brenti,
    *Combinatorics of Coxeter Groups*, §2.2) the pair the step recurses on
    stays comparable: ys <= xs when down, y <= xs otherwise.  That is
    checked here, by one bit test once the system has its index; a failure
    means the recursion itself is broken, so it raises LiftingViolation
    rather than NotComparable.
    """
    s = pick_descent(sys, x, policy)
    xs = right_multiply(sys, x, s)
    ys = right_multiply(sys, y, s)
    down = ys.length < y.length
    if not bruhat_leq(sys, ys if down else y, xs):
        raise LiftingViolation(f"descent step left the Bruhat order at x={word_text(sys, x)}")
    return s, xs, ys, down


# ---------------------------------------------------------------------------
# whole-group views


def enumerate_elements(sys: CoxeterSystem) -> tuple[GroupElement, ...]:
    """All group elements, sorted by (length, matrix).  Cached on the system.

    Each element's ``position`` is set to its index here.  The breadth-first
    walk stops with RankOverflow as soon as it has more elements than the
    group order.
    """
    if sys._elements is None:
        order = sys.group_order
        seen = {sys._identity.id}
        collected = [sys._identity]
        for g in collected:  # appended to while walked: a breadth-first queue
            for i in range(sys.rank):
                h = right_multiply(sys, g, i)
                if h.length > g.length and h.id not in seen:
                    seen.add(h.id)
                    collected.append(h)
                    if len(collected) > order:
                        raise RankOverflow(f"enumerated more than {order} elements")
        if len(collected) != order:
            raise RankOverflow(f"enumerated {len(collected)} elements, expected {order}")
        sys._elements = tuple(sorted(collected, key=lambda g: (g.length, g.matrix)))
        for k, g in enumerate(sys._elements):
            g.position = k
    return sys._elements


def bruhat_index(sys: CoxeterSystem) -> list[int]:
    """The Bruhat index, kept on the system: the bitmask of the positions <= w for each w, by position.

    Positions follow the (length, matrix) order.  Each mask is built from
    the smallest right descent s of its w as D(w) = D(ws) | D(ws)s
    (Björner–Brenti, *Combinatorics of Coxeter Groups*, §2.2), so the build
    costs O(pairs), not O(|W|^2), and runs once per system.  A group over
    ``WHOLE_GROUP_LIMIT`` is refused, before it is enumerated.
    """
    if sys.group_order > WHOLE_GROUP_LIMIT:
        raise RankOverflow(f"group of type {sys.descriptor} has order {sys.group_order}, "
                           f"over the whole-group limit {WHOLE_GROUP_LIMIT}")
    if sys._below is None:
        elements = enumerate_elements(sys)
        steps = _right_steps(sys)
        below: list[int] = []
        for k, w in enumerate(elements):
            d = w.descents
            if not d:
                below.append(1 << k)
                continue
            s = (d & -d).bit_length() - 1
            lower = below[steps[s][k]]  # ws is shorter, so already built
            below.append(lower | _right_image(lower, steps[s]))
        sys._below = below
    return sys._below


def _right_steps(sys: CoxeterSystem) -> list[list[int]]:
    """Per simple reflection s, the position of g s for each element g, by position.

    Read off the table of right products, which ``enumerate_elements`` fills.
    """
    elements, by_id, rmul = enumerate_elements(sys), sys._by_id, sys._rmul
    return [[by_id[rmul[g.id][s]].position for g in elements] for s in range(sys.rank)]


def _right_image(mask: int, step: list[int]) -> int:
    """The image of a mask under right multiplication by s, for ``step = _right_steps(sys)[s]``."""
    image = 0
    for p in _bits(mask, step):
        image |= 1 << p
    return image


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int, items: Sequence) -> list:
    """The items at the positions of the set bits of mask, lowest first, picked out at C speed."""
    digits = bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS)  # least significant first
    return list(compress(items, digits))


def slot(sys: CoxeterSystem, x: GroupElement, y: GroupElement) -> int:
    """The index of y in x's index row, for y <= x once the index is built: a bit count."""
    return (sys._below[x.position] & ((1 << y.position) - 1)).bit_count()


def walk(sys: CoxeterSystem, policy: str, *fills: Callable) -> Iterator[tuple]:
    """The index rows by position, each with x's descent step and a row of each table.

    Yields (x, lower, s, first, second, below, rows): x's index row lower,
    the y <= x by position, x last; the descent s that ``policy`` picks (-1
    for the identity); two lists, aligned with the strict part of lower, of
    slots into the index row of xs; xs's row of each table (None for the
    identity); and x's row of each table, ``fill(x, lower, s, below, first,
    second)`` with xs's row of that table, aligned with lower and ending
    with its diagonal.  For y in lower, first holds the slot of ys when
    ys < y (down) and of y otherwise, and second the slot of ys, or -1 when
    ys is not below xs, so down is first == second.  The slots are maps over
    positions, with no call per pair; a -1 in first breaks the lifting
    property (see ``descend``) and raises LiftingViolation.  The row of x
    reads only the row of xs, so the walk keeps two length layers of rows:
    x's and the one below.
    """
    check_policy(policy)
    index = bruhat_index(sys)  # or refuses a group too large to walk
    elements = sys._elements
    steps = _right_steps(sys)
    lows = [list(map(min, range(len(step)), step)) for step in steps]  # g or g s: positions go by length
    where = [-1] * len(elements)  # by position: the slot in the row of xs, or -1
    positions = list(range(len(elements)))  # one int object per position, which the rows share
    length, layer, previous = 0, {}, {}  # by position: (the positions below, the rows)
    for x, mask in zip(elements, index):
        if x.length != length:
            length, layer, previous = x.length, {}, layer
        ps = _bits(mask, positions)
        s, first, second, below = -1, [], [], (None,) * len(fills)
        if x.descents:
            s = pick_descent(sys, x, policy)
            xps, below = previous[steps[s][x.position]]
            for k, p in enumerate(xps):
                where[p] = k
            first = list(map(where.__getitem__, map(lows[s].__getitem__, ps[:-1])))
            second = list(map(where.__getitem__, map(steps[s].__getitem__, ps[:-1])))
            for p in xps:
                where[p] = -1
            if -1 in first:
                raise LiftingViolation(f"descent step left the Bruhat order at x={word_text(sys, x)}")
        lower = tuple(map(elements.__getitem__, ps))
        rows = tuple(fill(x, lower, s, b, first, second) for fill, b in zip(fills, below))
        layer[x.position] = ps, rows
        yield x, lower, s, first, second, below, rows


def subword_rows(sys: CoxeterSystem) -> Iterator[tuple[GroupElement, frozenset[int], list[IntMatrix]]]:
    """Bruhat order by the subwords of one reduced word, as a cross-check: a row per y, by position.

    Yields (y, products, numbered) for each y whose 2**length(y) subwords fit
    ORACLE_BUDGET: products holds the numbers of the products of the subwords
    of y's canonical reduced word, so x <= y iff x's matrix is numbered[n]
    for an n in it.  The word of y is the word of ys plus s, for s its
    smallest descent, so y's set is the set of ys and its images under s.
    Each bare matrix is numbered on first sight, never by an element's id or
    position, and each number is reflected by s once.  The set of ys is one
    length shorter, so the generator keeps the sets of two length layers
    only; its tables live as long as it does, and the system keeps none.
    """
    cap = ORACLE_BUDGET.bit_length() - 1  # the longest y whose subwords fit the budget
    numbers: dict[IntMatrix, int] = {}  # the number of each matrix reached
    numbered: list[IntMatrix] = []  # the matrix of each number
    reflected: list[dict[int, int]] = [{} for _ in range(sys.rank)]  # number of m -> of m s_i

    def number(matrix: IntMatrix) -> int:
        n = numbers.get(matrix)
        if n is None:
            n = numbers[matrix] = len(numbered)
            numbered.append(matrix)
        return n

    length, layer, previous = 0, {}, {}  # y -> its set, for y's length and the one below
    for y in enumerate_elements(sys):
        if y.length > cap:
            return
        if y.length != length:
            length, layer, previous = y.length, {}, layer
        if y.length:
            s = pick_descent(sys, y, "smallest")
            prefix, image = previous[right_multiply(sys, y, s)], reflected[s]
            for n in prefix.difference(image):
                image[n] = number(_col_reflect(sys, numbered[n], s))
            products = prefix.union(map(image.__getitem__, prefix))
        else:
            products = frozenset((number(y.matrix),))
        layer[y] = products
        yield y, products, numbered


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
