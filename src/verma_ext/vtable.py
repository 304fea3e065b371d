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
(Björner–Brenti, *Combinatorics of Coxeter Groups*, ch. 4).  A lone query,
``VTable.v``, walks its whole chain and builds one echelon basis from those
roots.  ``v_fill`` instead gives the row function by which ``coxeter.walk``
fills every pair, in rows aligned with the Bruhat index: each pair takes
one step to the filled pair below.  A down step builds s . known; an up step builds span(v_s,
known), with no matrix product, since s moves a vector only along v_s.
Both builds are memoised on the known subspace and the step, so only a new
key costs one (366 for D4's 9,817 pairs), and both reach the canonical
basis of the stepwise recursion.

The recursion is policy-bound: which descent s gets stripped is a free
choice (the table's descent policy), and the computed subspace must not depend
on it.  Tables built under the non-default policy exist to check exactly
that independence.

``singular_v`` passes a subspace to the quotient by the span of a chosen set
of simple root vectors (a ``SingularSpec``), and ``membership_report``
tabulates, from the filled rows of the ``membership_elements``, whether v_s
lies in V(x, y) against the order relation x >= ys that predicts membership
for pairs inside a rank-two parabolic pattern, one ``MembershipRow`` per
line.  Both records are named
tuples.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
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


class SingularSpec(namedtuple("SingularSpec", "indices")):
    """A set of simple-reflection indices whose root vectors get quotiented out.

    A named tuple: immutable, hashable and equal to the plain tuple of its field.
    """

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "SingularSpec":
        """Parse comma-separated indices like ``"0,2"``; empty pieces are skipped."""
        text = text.strip()
        indices = set()
        for piece in filter(None, map(str.strip, text.split(","))):
            try:
                if not (piece.isascii() and piece.isdigit()):  # int() takes "١" and "1_0"
                    raise ValueError(piece)
                indices.add(int(piece))  # which raises ValueError past its digit limit too
            except ValueError:
                raise ParseError(f"bad singular subset {text!r}: bad index {piece!r}") from None
        return cls(frozenset(indices))

    def validate(self, sys: CoxeterSystem) -> None:
        for i in self.indices:
            if not 0 <= i < sys.rank:
                raise IndexOutOfRange(f"singular index {i} outside 0..{sys.rank - 1}")

    def __str__(self) -> str:
        return ",".join(str(i) for i in sorted(self.indices))


class VTable:
    """V(x, y) for one system under one descent policy, one pair at a time, with no memo."""

    def __init__(self, sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0]):
        check_policy(policy)
        self.sys = sys
        self.policy = policy

    def v(self, x: GroupElement, y: GroupElement) -> RationalSubspace:
        """Walk the pair's chain of steps and span the roots its up steps add."""
        sys = self.sys
        check_below(sys, y, x)
        u = identity(sys)  # s_1 ... s_{k-1}, the steps taken so far
        roots = []
        while x is not y:
            s, x, ys, down = descend(sys, x, y, self.policy)
            if down:
                y = ys
            else:
                roots.append([r[s] for r in u.matrix])
            u = right_multiply(sys, u, s)
        return RationalSubspace(sys.rank, roots)


def v_fill(sys: CoxeterSystem) -> Callable:
    """The row function by which ``coxeter.walk`` fills V(x, y) for every pair y <= x.

    Each row ends with V(x, x) = 0.  A pair's step is memoised per (s, down)
    on the id of the known subspace it builds from, which the fill interns
    and so keeps alive: no pair hashes a subspace, and each descent's moves
    are made once.  An up step builds span(v_s, known) with no matrix
    product, as s . W + K v_s is W + K v_s; a down step builds s . known.
    """
    zero = RationalSubspace(sys.rank)
    spaces = {zero: zero}  # interned: equal subspaces are one object
    units = [tuple(int(j == s) for j in range(sys.rank)) for s in range(sys.rank)]  # v_s
    built = [({}, {}) for _ in range(sys.rank)]  # [s][down]: id of the known subspace -> V

    def build(s, down, known):
        if down:
            g = simple_reflection(sys, s).matrix
            value = RationalSubspace(sys.rank, [[sum(map(mul, gr, r)) for gr in g] for r in known.basis])
        else:
            value = RationalSubspace(sys.rank, [units[s], *known.basis])
        value = built[s][down][id(known)] = spaces.setdefault(value, value)
        return value

    def fill(x, lower, s, below, first, second):
        memos = built[s]
        row = [memos[a == b].get(id(below[a])) or build(s, a == b, below[a])
               for a, b in zip(first, second)]
        row.append(zero)
        return row

    return fill


def singular_v(sys: CoxeterSystem, space: RationalSubspace, spec: SingularSpec) -> RationalSubspace:
    """Image of the subspace ``space`` (a V(x, y)) in the quotient by span{v_s : s in spec}.

    The v_s are standard basis vectors, so the quotient map deletes the
    coordinates in spec: the image is the span of the subspace's rows with
    those coordinates dropped, in ambient dimension rank - |spec|.
    """
    spec.validate(sys)
    keep = [j for j in range(sys.rank) if j not in spec.indices]
    return RationalSubspace(len(keep), [[row[j] for j in keep] for row in space.basis])


class MembershipRow(namedtuple("MembershipRow", "x y s x_ge_ys in_v")):
    """One line of the membership report: does v_s land in V(x, y)?

    The report keeps only the rows where the order-theoretic prediction
    ``x_ge_ys`` (x >= ys) is asserted to be exact: s is an ascent of both x
    and y, and both elements lie in a common coset w0 W' for a rank-two (or
    smaller) parabolic W' containing s.  ``in_v`` says whether v_s lies in
    V(x, y).  A named tuple, so it equals the plain tuple of its fields.
    """

    __slots__ = ()


def membership_elements(sys: CoxeterSystem) -> list[GroupElement]:
    """The elements with at most two letters in the support of w0 g, by position.

    Only these can be the x or y of a membership row; w0 is one of them, as
    w0 w0 is the identity.  The support of w0 g is read off the word made
    from the words of w0 and g by right multiplications.
    """
    w0 = reduced_word(sys, longest_element(sys))
    return [g for g in enumerate_elements(sys)
            if len(set(reduced_word(sys, element_from_word(sys, w0 + reduced_word(sys, g))))) <= 2]


def membership_report(sys: CoxeterSystem, vrows: dict[GroupElement, list]) -> list[MembershipRow]:
    """Membership rows for every comparable pair and every simple reflection on
    which the order prediction is asserted to be exact.

    ``vrows`` maps each of ``membership_elements(sys)``, in their order, to
    its filled V row, and only those elements are paired.  Every such pair
    y <= x with an ascent s of y has a row: w0 x <= w0 y puts supp(w0 x)
    inside supp(w0 y), and s, a descent of w0 y, is one of its at most two
    letters, so the pair lies in the coset w0 W' of W' = <supp(w0 y)>,
    which holds s.
    """
    if sys.rank < 2:
        return []
    few = list(vrows)
    rows = []
    for i, x in enumerate(few):
        for y in few[: i + 1]:
            if not bruhat_leq(sys, y, x):
                continue
            for s in range(sys.rank):
                if (x.descents | y.descents) >> s & 1:
                    continue
                x_ge_ys = bruhat_leq(sys, right_multiply(sys, y, s), x)
                in_v = vrows[x][slot(sys, x, y)].contains(basis_vector(sys, s))
                rows.append(MembershipRow(x, y, s, x_ge_ys, in_v))
    return rows
