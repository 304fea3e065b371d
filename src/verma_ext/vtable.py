"""The subspaces V(x, y), unrolled from their two-branch descent recursion.

For y <= x in Bruhat order, V(x, y) is a subspace of the reflection
representation, defined by V(x, x) = 0 and, for a right descent s of x with
x' = xs:

    V(x, y) = s . V(x', ys)                 if ys < y
    V(x, y) = K v_s  +  s . V(x', y)        if ys > y

where v_s is the simple-root vector of s.  The lifting property of the
Bruhat order guarantees ys <= x' in the first branch and y <= x' in the
second; ``coxeter.descend`` checks both, raising LiftingViolation
because a failure means the recursion itself is broken.

Each step applies s to all that the later steps add, so along the chain of
steps s_1, s_2, ... the recursion unrolls to

    V(x, y) = span{ s_1 ... s_{k-1} (v_{s_k}) : step k takes the second branch }.

As x = x_k s_k ... s_1 with lengths adding, u = s_1 ... s_{k-1} has u s_k > u,
so u(v_{s_k}), column s_k of u's matrix, is an integer positive root
(Björner–Brenti, *Combinatorics of Coxeter Groups*, ch. 4).  A lone query
walks its whole chain and builds one echelon basis from those roots.
``compute_all`` instead fills every pair by ``coxeter.fill_rows``, the one
whole-group fill walk, into rows aligned with the Bruhat index: each pair
takes one step to the stored pair below.  A down step builds s . known; an
up step builds span(v_s, known), with no matrix product, since s moves a
vector only along v_s.  Both builds are memoised on the known subspace and
the step, so only a new key costs one (366 for D4's 9,817 pairs), and both
reach the canonical basis of the stepwise recursion.

The recursion is policy-bound: which descent s gets stripped is a free
choice (the table's descent policy), and the computed subspace must not depend
on it.  Tables built under the non-default policy exist to check exactly
that independence.

``singular_v`` passes to the quotient by the span of a chosen set of simple
root vectors, and ``membership_report`` tabulates whether v_s lies in
V(x, y) against the order relation x >= ys that predicts membership for
pairs inside a rank-two parabolic pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .coxeter import (
    DESCENT_POLICIES,
    CoxeterSystem,
    GroupElement,
    bruhat_leq,
    check_below,
    check_policy,
    descend,
    element_from_word,
    enumerate_elements,
    fill_rows,
    identity,
    longest_element,
    reduced_word,
    right_multiply,
    simple_reflection,
    slot,
)
from .errors import (
    IndexOutOfRange,
    ParseError,
)
from .reflection import RationalSubspace, basis_vector


@dataclass(frozen=True)
class SingularSpec:
    """A set of simple-reflection indices whose root vectors get quotiented out."""

    indices: frozenset[int]

    @classmethod
    def parse(cls, text: str) -> "SingularSpec":
        """Parse comma-separated indices like ``"0,2"``; empty pieces are skipped."""
        text = text.strip()
        pieces = [p.strip() for p in text.split(",")]
        for piece in pieces:
            if piece and not (piece.isascii() and piece.isdigit()):  # int() takes "١" and "1_0"
                raise ParseError(f"bad singular subset {text!r}: bad index {piece!r}")
        return cls(frozenset(int(p) for p in pieces if p))

    def validate(self, sys: CoxeterSystem) -> None:
        for i in self.indices:
            if not 0 <= i < sys.rank:
                raise IndexOutOfRange(f"singular index {i} outside 0..{sys.rank - 1}")

    def __str__(self) -> str:
        return ",".join(str(i) for i in sorted(self.indices))


class VTable:
    """V(x, y) for one system under one descent policy.

    A single-pair query keeps its subspace in a sparse memo, ``_memo[x][y]``,
    one row per upper element x keyed by the lower element y; each row starts
    as {x: 0}, so it holds its diagonal.  ``compute_all`` makes ``rows``
    instead, by position, each aligned with the index row of x and ending
    with V(x, x) = 0, and from then on queries read ``rows``.  ``computed``
    counts the strict pairs y < x built, as ``RTable.computed`` does.
    ``_spaces`` interns the distinct subspaces, so equal entries are one
    object, and ``_spans`` memoises the echelon build on (known subspace,
    steps taken).
    """

    def __init__(self, sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0]):
        check_policy(policy)
        self.sys = sys
        self.policy = policy
        self.rows: list[list[RationalSubspace]] | None = None
        self._memo: dict[GroupElement, dict[GroupElement, RationalSubspace]] = {}
        self.computed = 0
        self._zero = RationalSubspace(sys.rank)
        self._spaces: dict[RationalSubspace, RationalSubspace] = {self._zero: self._zero}
        self._spans: dict[tuple[RationalSubspace, tuple[tuple[int, bool], ...]], RationalSubspace] = {}

    def v(self, x: GroupElement, y: GroupElement) -> RationalSubspace:
        check_below(self.sys, y, x)
        return self._v(x, y)

    def _v(self, x: GroupElement, y: GroupElement) -> RationalSubspace:
        if self.rows is not None:
            return self.rows[x.position][slot(self.sys, x, y)]
        row = self._memo.get(x) or self._memo.setdefault(x, {x: self._zero})
        hit = row.get(y)
        if hit is not None:
            return hit
        bottom, sys = y, self.sys
        u = identity(sys)  # s_1 ... s_{k-1}, the steps taken so far
        steps, roots = [], []
        while x is not y:
            s, x, ys, down = descend(sys, x, y, self.policy)
            steps.append((s, down))
            if down:
                y = ys
            else:
                roots.append([r[s] for r in u.matrix])
            u = right_multiply(sys, u, s)
        value = row[bottom] = self._span(self._zero, tuple(steps), u, roots)
        self.computed += 1
        return value

    def _span(self, known: RationalSubspace, steps, u: GroupElement, roots) -> RationalSubspace:
        """span(roots) + u . known, memoised on (known, steps) and interned."""
        value = self._spans.get((known, steps))
        if value is None:
            images = [[sum(map(mul, mr, r)) for mr in u.matrix] for r in known.basis]
            value = RationalSubspace(self.sys.rank, roots + images)
            value = self._spans[known, steps] = self._spaces.setdefault(value, value)
        return value


def compute_all(sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0]) -> VTable:
    """Fill a table's ``rows`` with V(x, y) for every comparable pair y <= x, by ``fill_rows``.

    A pair's step is memoised per (s, down) on the id of the known subspace
    it builds from, which the table interns and so keeps alive: no pair
    hashes a subspace, and each descent's moves are made once.  An up step
    builds span(v_s, known) with no matrix product, as s . W + K v_s is
    W + K v_s; a down step builds s . known.
    """
    table = VTable(sys, policy=policy)
    zero, span, spaces = table._zero, table._span, table._spaces
    units = [tuple(int(j == s) for j in range(sys.rank)) for s in range(sys.rank)]  # v_s
    built = [({}, {}) for _ in range(sys.rank)]  # [s][down]: id of the known subspace -> V

    def build(s, down, known):
        if down:
            value = span(known, ((s, True),), simple_reflection(sys, s), [])
        else:
            value = RationalSubspace(sys.rank, [units[s], *known.basis])
            value = spaces.setdefault(value, value)
        built[s][down][id(known)] = value
        return value

    def fill_row(x, s, below, first, second):
        memos = built[s]
        row = [memos[a == b].get(id(below[a])) or build(s, a == b, below[a])
               for a, b in zip(first, second)]
        row.append(zero)
        return row

    table.rows = fill_rows(sys, policy, fill_row)
    table.computed = sum(map(len, table.rows)) - len(table.rows)
    return table


def singular_v(
    sys: CoxeterSystem,
    table: VTable,
    spec: SingularSpec,
    x: GroupElement,
    y: GroupElement,
) -> RationalSubspace:
    """Image of V(x, y) in the quotient by span{v_s : s in spec}.

    The v_s are standard basis vectors, so the quotient map deletes the
    coordinates in spec: the image is the span of V(x, y)'s rows with those
    coordinates dropped, in ambient dimension rank - |spec|.
    """
    spec.validate(sys)
    keep = [j for j in range(sys.rank) if j not in spec.indices]
    return RationalSubspace(len(keep), [[row[j] for j in keep] for row in table.v(x, y).basis])


@dataclass(frozen=True)
class MembershipRow:
    """One line of the membership report: does v_s land in V(x, y)?

    The report keeps only the rows where the order-theoretic prediction
    ``x_ge_ys`` (x >= ys) is asserted to be exact: s is an ascent of both x
    and y, and both elements lie in a common coset w0 W' for a rank-two (or
    smaller) parabolic W' containing s.  ``in_v`` says whether v_s lies in
    V(x, y).
    """

    x: GroupElement
    y: GroupElement
    s: int
    x_ge_ys: bool
    in_v: bool


def membership_report(sys: CoxeterSystem, table: VTable) -> list[MembershipRow]:
    """Membership rows for every comparable pair and every simple reflection
    on which the order prediction is asserted to be exact.

    Such a row's x and y each have at most two letters in the support of
    w0 g, made from the words of w0 and g by right multiplications, so only
    those elements are paired.  Every such pair y <= x with an ascent s of y
    has a row: w0 x <= w0 y puts supp(w0 x) inside supp(w0 y), and s, a
    descent of w0 y, is one of its at most two letters, so the pair lies in
    the coset w0 W' of W' = <supp(w0 y)>, which holds s.
    """
    if sys.rank < 2:
        return []
    w0 = reduced_word(sys, longest_element(sys))
    few = [g for g in enumerate_elements(sys)
           if len(set(reduced_word(sys, element_from_word(sys, w0 + reduced_word(sys, g))))) <= 2]
    rows = []
    for i, x in enumerate(few):
        for y in few[: i + 1]:
            if not bruhat_leq(sys, y, x):
                continue
            for s in range(sys.rank):
                if (x.descents | y.descents) >> s & 1:
                    continue
                x_ge_ys = bruhat_leq(sys, right_multiply(sys, y, s), x)
                in_v = table._v(x, y).contains(basis_vector(sys, s))
                rows.append(MembershipRow(x, y, s, x_ge_ys, in_v))
    return rows
