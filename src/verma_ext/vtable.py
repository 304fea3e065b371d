"""The subspaces V(x, y), unrolled from their two-branch descent recursion.

For y <= x in Bruhat order, V(x, y) is a subspace of the reflection
representation, defined by V(x, x) = 0 and, for a right descent s of x with
x' = xs:

    V(x, y) = s . V(x', ys)                 if ys < y
    V(x, y) = K v_s  +  s . V(x', y)        if ys > y

where v_s is the simple-root vector of s.  The lifting property of the
Bruhat order guarantees ys <= x' in the first branch and y <= x' in the
second; ``coxeter.descend`` takes the step and checks both, raising
LiftingViolation because a failure means the recursion itself is broken.

Each step applies s to all that the later steps add, so along the chain of
steps s_1, s_2, ... the recursion unrolls to

    V(x, y) = span{ s_1 ... s_{k-1} (v_{s_k}) : step k takes the second branch }.

As x = x_k s_k ... s_1 with lengths adding, u = s_1 ... s_{k-1} has u s_k > u,
so u(v_{s_k}), column s_k of u's matrix, is an integer positive root
(Björner–Brenti, *Combinatorics of Coxeter Groups*, ch. 4).

Unrolling only part of the chain, up to a pair (x', y') k steps down, gives

    V(x, y) = span{ ascent roots of steps 1..k }  +  u . V(x', y')

with u = s_1 ... s_k.  So ``VTable`` walks the chain only until it reaches
a pair already in the table (or the diagonal, where V is 0) and builds one
echelon basis from those roots and the images of the stored rows, the same
canonical basis the stepwise recursion reaches.  The result depends only on
the stored subspace and the steps (s, down) taken, so the build is memoised
on that key.  A whole-group fill in length order has already stored the pair
one step below each pair, so each pair costs one step and one dict lookup,
and only a new key costs a build (367 for D4's 9,817 pairs).  A lone query
finds nothing stored, walks the whole chain and builds once.

The recursion is policy-bound: which descent s gets stripped is a free
choice (``coxeter.pick_descent``), and the computed subspace must not depend
on it.  Tables built under the non-default policy exist to check exactly
that independence.

``singular_v`` passes to the quotient by the span of a chosen set of simple
root vectors, and ``membership_report`` tabulates whether v_s lies in
V(x, y) against the order relation x >= ys that predicts membership for
pairs inside a rank-two parabolic pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import (
    DESCENT_POLICIES,
    CoxeterSystem,
    GroupElement,
    bruhat_leq,
    check_below,
    check_policy,
    comparable_pairs,
    descend,
    identity,
    longest_element,
    multiply,
    reduced_word,
    right_multiply,
)
from .errors import (
    IndexOutOfRange,
    ParseError,
)
from .reflection import RationalSubspace, apply_element, basis_vector


@dataclass(frozen=True)
class SingularSpec:
    """A set of simple-reflection indices whose root vectors get quotiented out."""

    indices: frozenset[int]

    @classmethod
    def parse(cls, text: str) -> "SingularSpec":
        text = text.strip()
        if not text:
            return cls(frozenset())
        try:
            return cls(frozenset(int(p) for p in text.split(",") if p.strip() != ""))
        except ValueError as exc:
            raise ParseError(f"bad singular subset {text!r}: {exc}") from exc

    def validate(self, sys: CoxeterSystem) -> None:
        for i in self.indices:
            if not 0 <= i < sys.rank:
                raise IndexOutOfRange(f"singular index {i} outside 0..{sys.rank - 1}")

    def __str__(self) -> str:
        return ",".join(str(i) for i in sorted(self.indices))


class VTable:
    """Memoized V(x, y) values for one system under one descent policy.

    ``entries`` maps each pair asked for to its subspace and ``computed``
    counts them.  ``_spaces`` interns the distinct subspaces, so equal
    entries are one object, and ``_spans`` memoises the echelon build on
    (known subspace, steps taken).
    """

    def __init__(self, sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0]):
        check_policy(policy)
        self.sys = sys
        self.policy = policy
        self.entries: dict[tuple[GroupElement, GroupElement], RationalSubspace] = {}
        self.computed = 0
        self._zero = RationalSubspace(sys.rank)
        self._spaces: dict[RationalSubspace, RationalSubspace] = {self._zero: self._zero}
        self._spans: dict[tuple[RationalSubspace, tuple[tuple[int, bool], ...]], RationalSubspace] = {}

    def v(self, x: GroupElement, y: GroupElement) -> RationalSubspace:
        check_below(self.sys, y, x)
        return self._v(x, y)

    def _v(self, x: GroupElement, y: GroupElement) -> RationalSubspace:
        key = (x, y)
        entries = self.entries
        hit = entries.get(key)
        if hit is not None:
            return hit
        sys = self.sys
        u = identity(sys)  # s_1 ... s_{k-1}, the steps taken so far
        steps = []
        roots = []
        known = self._zero
        while x != y:
            s, x, ys, down = descend(sys, x, y, self.policy)
            steps.append((s, down))
            if down:
                y = ys
            else:
                roots.append([row[s] for row in u.matrix])
            u = right_multiply(sys, u, s)
            stored = entries.get((x, y))
            if stored is not None:
                known = stored
                break
        span_key = (known, tuple(steps))
        value = self._spans.get(span_key)
        if value is None:
            rows = roots + [apply_element(sys, u, row) for row in known.rows]
            value = RationalSubspace(sys.rank, rows)
            value = self._spans[span_key] = self._spaces.setdefault(value, value)
        entries[key] = value
        self.computed += 1
        return value


def compute_all(sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0]) -> VTable:
    """Fill a table with V(x, y) for every comparable pair y <= x."""
    table = VTable(sys, policy=policy)
    for x, y in comparable_pairs(sys):
        table._v(x, y)
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
    return RationalSubspace(len(keep), [[row[j] for j in keep] for row in table.v(x, y).rows])


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
    on which the order prediction is asserted to be exact."""
    if sys.rank < 2:
        return []
    w0 = longest_element(sys)
    support: dict[GroupElement, frozenset[int]] = {}

    def coset_letters(g: GroupElement) -> frozenset[int]:
        got = support.get(g)
        if got is None:
            got = frozenset(reduced_word(sys, multiply(sys, w0, g)))
            support[g] = got
        return got

    rows = []
    for x, y in comparable_pairs(sys):
        for s in range(sys.rank):
            if (x.descents | y.descents) >> s & 1:
                continue
            if len((coset_letters(x) | coset_letters(y)) - {s}) > 1:
                continue
            x_ge_ys = bruhat_leq(sys, right_multiply(sys, y, s), x)
            in_v = table._v(x, y).contains(basis_vector(sys, s))
            rows.append(MembershipRow(x, y, s, x_ge_ys, in_v))
    return rows
