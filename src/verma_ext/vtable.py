"""The two-branch descent recursion for the subspaces V(x, y).

For y <= x in Bruhat order, V(x, y) is a subspace of the reflection
representation, defined by V(x, x) = 0 and, for a right descent s of x with
x' = xs:

    V(x, y) = s . V(x', ys)                 if ys < y
    V(x, y) = K v_s  +  s . V(x', y)        if ys > y

where v_s is the simple-root vector of s.  The lifting property of the
Bruhat order guarantees ys <= x' in the first branch and y <= x' in the
second; ``coxeter.descend`` takes the step and checks both, raising
LiftingViolation because a failure means the recursion itself is broken.

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
    longest_element,
    multiply,
    reduced_word,
    right_multiply,
)
from .errors import (
    IndexOutOfRange,
    ParseError,
)
from .reflection import (
    RationalSubspace,
    RationalVector,
    act,
    add_line,
    basis_vector,
    zero_subspace,
)


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
    """Memoized V(x, y) values for one system under one descent policy."""

    def __init__(self, sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0]):
        check_policy(policy)
        self.sys = sys
        self.policy = policy
        self.entries: dict[tuple[GroupElement, GroupElement], RationalSubspace] = {}
        self.computed = 0
        self._zero = zero_subspace(sys)

    def v(self, x: GroupElement, y: GroupElement) -> RationalSubspace:
        check_below(self.sys, y, x)
        return self._v(x, y)

    def _v(self, x: GroupElement, y: GroupElement) -> RationalSubspace:
        key = (x, y)
        hit = self.entries.get(key)
        if hit is not None:
            return hit
        sys = self.sys
        if x == y:
            value = self._zero
        else:
            s, xs, ys, down = descend(sys, x, y, self.policy)
            value = act(sys, sys._simples[s], self._v(xs, ys if down else y))
            if not down:
                value = add_line(value, basis_vector(sys, s))
        # the recursion only reaches shorter x, so key is not stored yet
        self.entries[key] = value
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

    Computed as the echelon form of V(x, y) + span{v_s}; the rows pivoting
    at quotiented columns are exactly the v_s themselves, so dropping them
    and deleting those columns leaves an echelon basis of the image.  The
    ambient dimension of the result is rank - |spec|.
    """
    spec.validate(sys)
    space = table.v(x, y)
    if not spec.indices:
        return space
    killed = sorted(spec.indices)
    combined = space
    for i in killed:
        combined = add_line(combined, basis_vector(sys, i))
    keep_cols = [j for j in range(sys.rank) if j not in spec.indices]
    projected = []
    for row in combined.rows:
        pivot = next(j for j in range(sys.rank) if row[j] != 0)
        if pivot in spec.indices:
            continue
        projected.append(tuple(row[j] for j in keep_cols))
    return RationalSubspace(len(keep_cols), projected)


@dataclass(frozen=True)
class MembershipRow:
    """One line of the membership report: does v_s land in V(x, y)?

    ``x_ge_ys`` is the order-theoretic prediction x >= ys.  ``flagged`` marks
    the rows where the prediction is asserted to be exact: s is an ascent of
    both x and y, and both elements lie in a common coset w0 W' for a
    rank-two (or smaller) parabolic W' containing s.  ``in_v`` tests v_s
    against ``space`` = V(x, y) when it is read, so a caller that reads it
    only on flagged rows pays for those alone.
    """

    x: GroupElement
    y: GroupElement
    s: int
    x_ge_ys: bool
    flagged: bool
    space: RationalSubspace
    v_s: RationalVector

    @property
    def in_v(self) -> bool:
        return self.space.contains(self.v_s)


def membership_report(sys: CoxeterSystem, table: VTable) -> list[MembershipRow]:
    """Membership rows for every comparable pair and every simple reflection."""
    w0 = longest_element(sys)
    support: dict[GroupElement, frozenset[int]] = {}

    def coset_letters(g: GroupElement) -> frozenset[int]:
        got = support.get(g)
        if got is None:
            got = frozenset(reduced_word(sys, multiply(sys, w0, g)))
            support[g] = got
        return got

    lines = [basis_vector(sys, s) for s in range(sys.rank)]
    rows = []
    for x, y in comparable_pairs(sys):
        space = table._v(x, y)
        for s in range(sys.rank):
            ys = right_multiply(sys, y, s)
            xs = right_multiply(sys, x, s)
            x_ge_ys = bruhat_leq(sys, ys, x)
            flagged = False
            if xs.length > x.length and ys.length > y.length and sys.rank >= 2:
                extra = (coset_letters(x) | coset_letters(y)) - {s}
                flagged = len(extra) <= 1
            rows.append(MembershipRow(x, y, s, x_ge_ys, flagged, space, lines[s]))
    return rows
