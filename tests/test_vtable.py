"""The subspace recursion, singular quotients, and the membership report.

The A2 table is frozen end to end: 19 comparable pairs whose dimensions
histogram as {0: 6, 1: 8, 2: 5}, matching the coefficient route on every
pair.  Rank-three groups pin the one documented divergence between the
subspace dimension and the coefficient recursions (see the notes in the
repository root README), and the README's claims about it run here: moves
along a common right descent keep both sides, and no divergent pair is
reachable from a top row by such moves.  ``stepwise_v`` takes the
recursion one reflection per step, a second route to every subspace that
shares only the descent step and the echelon form with the unrolled chain.
The span of the Bruhat-graph edge roots out of y is a third route that
shares no recursion with the table at all, and Dyer's count of the
increasing Bruhat-graph paths in a reflection order gives R(y, x) without
one.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb
from operator import mul

import pytest

from conftest import comparable_pairs, filled_pairs, index_rows, membership_rows, reader, table_rows
from verma_ext import coxeter, verify
from verma_ext import rpoly as rpoly_module
from verma_ext import vtable as vtable_module
from verma_ext.coxeter import (
    DESCENT_POLICIES,
    bruhat_index,
    bruhat_leq,
    build_system,
    descend,
    element_from_word,
    enumerate_elements,
    identity,
    longest_element,
    multiply,
    pick_descent,
    reduced_word,
    right_multiply,
    simple_reflection,
    slot,
)
from verma_ext.errors import (
    IndexOutOfRange,
    InvalidType,
    LiftingViolation,
    NotComparable,
    ParseError,
)
from verma_ext.reflection import RationalSubspace, apply_element, basis_vector
from verma_ext.rpoly import ONE, IntPolynomial, RTable, direct_row, gj_coefficient, r_coeff_direct
from verma_ext.verify import PRESETS, _suite_m, _suite_s
from verma_ext.vtable import (
    SingularSpec,
    VTable,
    membership_report,
    singular_v,
    v_fill,
)


# ---------------------------------------------------------------------------
# the A2 table, fully frozen


def test_a2_pair_count_and_histogram(system, vtable):
    v = reader(system("A2"), vtable("A2"))
    pairs = list(comparable_pairs(system("A2")))
    assert len(pairs) == 19
    hist = Counter(v(x, y).dim for x, y in pairs)
    assert dict(hist) == {0: 6, 1: 8, 2: 5}


def test_a2_bottom_pair_is_full(system, vtable):
    a2 = system("A2")
    space = reader(a2, vtable("A2"))(longest_element(a2), identity(a2))
    assert space == RationalSubspace(2, [basis_vector(a2, 0), basis_vector(a2, 1)])


def test_diagonal_is_zero(system, vtable):
    a2 = system("A2")
    v = reader(a2, vtable("A2"))
    for g in enumerate_elements(a2):
        assert v(g, g) == RationalSubspace(a2.rank)


def test_a2_dimensions_match_coefficient_routes(system, vtable, rtable):
    a2 = system("A2")
    v = reader(a2, vtable("A2"))
    rt = rtable("A2")
    for x, y in comparable_pairs(a2):
        dim = v(x, y).dim
        assert dim == gj_coefficient(a2, x, y, rt) == r_coeff_direct(a2, x, y)


def test_v_requires_comparability(system):
    b2 = system("B2")
    x = element_from_word(b2, (0, 1, 0))
    y = element_from_word(b2, (1, 0, 1))
    with pytest.raises(NotComparable):
        VTable(b2).v(x, y)


def test_bad_policy_rejected(system):
    with pytest.raises(InvalidType):
        VTable(system("A2"), policy="middle")


@pytest.mark.parametrize("policy", ["smallest", "largest"])
def test_descent_step_off_the_order_is_a_lifting_violation(system, policy, monkeypatch):
    # s1 is not below s0; stripping s0 from s0 gives e, which s1 is not below
    # either, so the step's lifting check fires rather than recursing on it.
    # A query past the comparability check meets it on its chain's first step.
    a2 = system("A2")
    x = element_from_word(a2, (0,))
    y = element_from_word(a2, (1,))
    with pytest.raises(LiftingViolation, match="x=0"):
        descend(a2, x, y, policy)
    monkeypatch.setattr(vtable_module, "check_below", lambda *args: None)
    with pytest.raises(LiftingViolation):
        VTable(a2, policy=policy).v(x, y)


# ---------------------------------------------------------------------------
# a second route: the two-branch recursion taken one step at a time


def stepwise_v(sys, x, y, memo):
    """V(x, y) by the recursion itself: reflect every row of the smaller space."""
    key = (x, y)
    if key not in memo:
        rows = []
        if x != y:
            s, xs, ys, down = descend(sys, x, y, "smallest")
            g = simple_reflection(sys, s)
            inner = stepwise_v(sys, xs, ys if down else y, memo)
            rows = [apply_element(sys, g, row) for row in inner.rows]
            if not down:
                rows.append(basis_vector(sys, s))
        memo[key] = RationalSubspace(sys.rank, rows)
    return memo[key]


@pytest.mark.parametrize("text", [t for t in PRESETS if t != "D4"])
def test_unrolled_chain_matches_stepwise_recursion(text, system, vtable):
    sys = system(text)
    v = reader(sys, vtable(text))
    memo = {}
    for x, y in comparable_pairs(sys):
        space = v(x, y)
        assert space.rows == stepwise_v(sys, x, y, memo).rows
        assert space.dim <= min(sys.rank, x.length - y.length)


# ---------------------------------------------------------------------------
# a recursion-free route: V(x, y) is spanned by the Bruhat-graph edges out of y


def root_reflections(sys):
    """s_beta for every positive root beta, by closing over the simple roots.

    s_{s_j gamma} = s_j s_gamma s_j, and every positive root is reached from
    a simple root by simple reflections that keep it positive.
    """
    a = sys.cartan
    found = {
        tuple(int(k == i) for k in range(sys.rank)): simple_reflection(sys, i)
        for i in range(sys.rank)
    }
    frontier = list(found)
    while frontier:
        gamma = frontier.pop()
        for j in range(sys.rank):
            pairing = sum(a[j][k] * gamma[k] for k in range(sys.rank))
            image = tuple(c - pairing if k == j else c for k, c in enumerate(gamma))
            if min(image) >= 0 and image not in found:
                s_j = simple_reflection(sys, j)
                found[image] = multiply(sys, multiply(sys, s_j, found[gamma]), s_j)
                frontier.append(image)
    assert sorted(found) == sorted(sys.positive_roots)
    return found


def edge_root_decomposition(sys, vrows):
    """Check V(x, y) = span(edge roots) and dim V <= gj <= l(x) - l(y) <= #edges on every pair.

    The edges of (x, y) are the positive roots beta with y < y s_beta <= x
    (the Bruhat-graph edges out of y inside [y, x]), read off a per-y list
    of (beta, y s_beta).  The last link of the chain is Deodhar's inequality
    (Björner–Brenti, Combinatorics of Coxeter Groups, §2.2).  Returns the
    divergent pairs (gj != dim V) counted by (dim V, gj, l, #edges), for
    l = l(x) - l(y); ``split`` sums them into a histogram of terms.
    """
    reflections = root_reflections(sys)
    rrows = table_rows(sys, RTable(sys).row_fill())
    ascents = {}  # y -> [(beta, y s_beta)] over the betas with y < y s_beta
    spans = {}
    divergent = Counter()
    for (x, y, space), (_, _, poly) in zip(filled_pairs(sys, vrows), filled_pairs(sys, rrows)):
        if y not in ascents:
            ascents[y] = [
                (beta, h)
                for beta, t in reflections.items()
                if (h := multiply(sys, y, t)).length > y.length
            ]
        edges = tuple(beta for beta, h in ascents[y] if bruhat_leq(sys, h, x))
        if edges not in spans:
            spans[edges] = RationalSubspace(sys.rank, edges)
        assert spans[edges] == space, (x, y)  # canonical bases, so subspace equality
        if y is x:
            continue
        gj, ell = poly.gj, x.length - y.length
        assert space.dim <= gj <= ell <= len(edges), (x, y)
        if gj != space.dim:
            divergent[space.dim, gj, ell, len(edges)] += 1
    return divergent


def split(divergent, terms):
    """The divergent pairs of ``edge_root_decomposition`` counted by terms(dim V, gj, l, #edges)."""
    histogram = Counter()
    for key, count in divergent.items():
        histogram[terms(*key)] += count
    return histogram


def two_terms(dim, gj, ell, edges):
    """(gj - dim V, #edges - gj)."""
    return gj - dim, edges - gj


def three_terms(dim, gj, ell, edges):
    """(dependence, Deodhar, l - gj): gj - dim V is the first less the other two.

    The dependence #edges - dim V is that among the edge roots, and Deodhar's
    excess is #edges - l; l - gj is Dyer's count c_{l-2} of the increasing
    paths of length l - 2 (Dyer, Compositio Math. 89, 1993).
    """
    return edges - dim, edges - ell, ell - gj


# divergent pairs by two_terms
EDGE_HISTOGRAMS = {
    "D4": {(1, 0): 192, (1, 1): 108, (1, 2): 57, (1, 3): 15, (2, 0): 5},
    "B4": {
        (1, 0): 916, (1, 1): 737, (1, 2): 554, (1, 3): 352, (1, 4): 153, (1, 5): 32,
        (2, 0): 33, (2, 1): 12, (2, 2): 1,
    },
}

# divergent pairs by three_terms; (d, 0, 0) are the pairs with gj = l = #edges,
# where the dependence among the edge roots is the whole distance
THREE_TERM_HISTOGRAMS = {
    "D4": {
        (1, 0, 0): 192, (2, 0, 0): 5, (2, 0, 1): 90, (2, 1, 0): 18, (3, 0, 2): 33, (3, 1, 1): 24,
        (4, 0, 3): 6, (4, 1, 2): 9,
    },
    "B4": {
        (1, 0, 0): 916, (2, 0, 0): 33, (2, 0, 1): 622, (2, 1, 0): 115, (3, 0, 1): 12,
        (3, 0, 2): 305, (3, 1, 1): 233, (3, 2, 0): 16, (4, 0, 2): 1, (4, 0, 3): 131,
        (4, 1, 2): 181, (4, 2, 1): 39, (4, 3, 0): 1, (5, 0, 4): 43, (5, 1, 3): 77,
        (5, 2, 2): 31, (5, 3, 1): 2, (6, 0, 5): 8, (6, 1, 4): 15, (6, 2, 3): 8, (6, 3, 2): 1,
    },
}


@pytest.mark.parametrize("text", PRESETS + ("B4",))
def test_v_is_spanned_by_bruhat_graph_edge_roots(text, system, vtable):
    # V(x, y) = span{beta in the positive roots : y < y s_beta <= x}: the
    # roots of the Bruhat-graph edges out of y inside [y, x] (Björner–Brenti,
    # Combinatorics of Coxeter Groups, ch. 2).  Shares no descent chain,
    # policy or unrolling with the table.  So "how far" splits as
    # gj - dim V = (#edges - rank of the edge roots) - (#edges - gj), and
    # #edges - gj further as Deodhar's excess #edges - l plus l - gj.
    divergent = edge_root_decomposition(system(text), vtable(text))
    if text in EDGE_HISTOGRAMS:
        assert split(divergent, two_terms) == EDGE_HISTOGRAMS[text]
        assert split(divergent, three_terms) == THREE_TERM_HISTOGRAMS[text]


def inverse_pair_breaks(sys, vrows, rrows):
    """The pairs y <= x that break R(y, x) = R(y⁻¹, x⁻¹) or V(x⁻¹, y⁻¹) = y V(x, y), and the involution pairs.

    The first identity is Kazhdan–Lusztig's (Invent. Math. 53, 1979); in the
    second, y acts on V(x, y) by its matrix.  x⁻¹ is the element of x's
    reversed reduced word, and the inverse pair's entries are read by
    ``slot``, so each pair is checked against one the walk reached through
    another descent chain.  Returns the breaking pairs (x, y) in walk order
    and the number of pairs whose x and y are both involutions, on which
    the R identity compares an entry with itself.
    """
    inverse = [element_from_word(sys, reduced_word(sys, g)[::-1]) for g in enumerate_elements(sys)]
    images = {}  # (id of V(x, y), position of y) -> y V(x, y)
    breaks, involutions = [], 0
    for x, lower in index_rows(sys):
        xi = inverse[x.position]
        for y, space, poly in zip(lower, vrows[x.position], rrows[x.position]):
            yi = inverse[y.position]
            k = slot(sys, xi, yi)
            involutions += x is xi and y is yi
            image = images.get((id(space), y.position))
            if image is None:
                moved = [[sum(map(mul, r, v)) for r in y.matrix] for v in space.basis]
                image = images[id(space), y.position] = RationalSubspace(sys.rank, moved)
            if poly.coeffs != rrows[xi.position][k].coeffs or image != vrows[xi.position][k]:
                breaks.append((x, y))
    return breaks, involutions


# pairs y <= x whose x and y are both involutions, of all pairs
INVOLUTION_PAIRS = {
    "A1": (3, 3), "A2": (9, 19), "A3": (45, 213), "A4": (237, 3_781), "B2": (19, 33),
    "B3": (165, 847), "C3": (165, 847), "D4": (705, 9_817), "G2": (33, 73), "A1xA1": (9, 9),
    "A1xA2": (27, 57), "B4": (1_933, 40_249),
}


@pytest.mark.parametrize("text", PRESETS + ("B4",))
def test_r_and_v_keep_the_inverse_identities(text, system, vtable):
    sys, vrows = system(text), vtable(text)
    breaks, involutions = inverse_pair_breaks(sys, vrows, table_rows(sys, RTable(sys).row_fill()))
    assert breaks == []
    assert (involutions, sum(map(len, vrows))) == INVOLUTION_PAIRS[text]


@pytest.mark.parametrize("table", ["R", "V"])
def test_the_inverse_identities_catch_a_wrong_entry_off_the_involutions(table):
    sys = build_system("A3")  # its own rows, as the test plants an entry
    vrows, rrows = table_rows(sys, v_fill(sys)), table_rows(sys, RTable(sys).row_fill())
    x, xi, e = element_from_word(sys, (0, 1)), element_from_word(sys, (1, 0)), identity(sys)
    rows, wrong = (rrows, IntPolynomial((1, -3, 1))) if table == "R" else (vrows, RationalSubspace(3))
    assert rows[x.position][slot(sys, x, e)] != wrong
    rows[x.position][slot(sys, x, e)] = wrong
    breaks, _ = inverse_pair_breaks(sys, vrows, rrows)
    assert set(breaks) == {(x, e), (xi, e)} and len(breaks) == 2


@pytest.mark.parametrize("text", PRESETS)
def test_dim_and_coefficient_are_unchanged_by_the_interval_symmetries(text, system, vtable, rtable):
    # Inversion and conjugation by w0 are automorphisms of the Bruhat order;
    # right and left multiplication by w0 reverse it (Björner–Brenti,
    # Combinatorics of Coxeter Groups, §2.3).  The recursions strip only right
    # descents, so the inverse pair reaches V(x, y) by other chains.
    sys = system(text)
    v, rt = reader(sys, vtable(text)), rtable(text)
    w0 = longest_element(sys)
    elems = enumerate_elements(sys)
    inverse = {g: element_from_word(sys, reduced_word(sys, g)[::-1]) for g in elems}
    right = {g: multiply(sys, g, w0) for g in elems}
    left = {g: multiply(sys, w0, g) for g in elems}
    for x, y in comparable_pairs(sys):
        want = (v(x, y).dim, gj_coefficient(sys, x, y, rt))
        images = [
            (inverse[x], inverse[y]),
            (left[right[x]], left[right[y]]),
            (right[y], right[x]),
            (left[y], left[x]),
        ]
        for image in images:
            got = (v(*image).dim, gj_coefficient(sys, *image, rt))
            assert got == want, (text, x, y, image)


def test_a3_divergence_has_four_edges_spanning_three_dimensions(system, vtable, rtable):
    # the README's witness: four edges give the coefficient 4, but their
    # roots span only the 3-dimensional ambient space
    a3 = system("A3")
    x = element_from_word(a3, (0, 1, 2, 1, 0))
    y = element_from_word(a3, (1,))
    edges = [
        beta
        for beta, t in root_reflections(a3).items()
        if y.length < (h := multiply(a3, y, t)).length and bruhat_leq(a3, h, x)
    ]
    assert sorted(edges) == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    assert gj_coefficient(a3, x, y, rtable("A3")) == 4
    assert RationalSubspace(3, edges).dim == reader(a3, vtable("A3"))(x, y).dim == 3


# ---------------------------------------------------------------------------
# an R route that reads no recursion: Dyer's count of increasing paths


def reflection_order(sys):
    """The reflections of a reduced word s_{i1} ... s_{iN} of w0, in order: t_k = s_{i1} ... s_{ik} ... s_{i1}.

    They are the inversions of the word, which form a reflection order
    (Björner–Brenti, Combinatorics of Coxeter Groups, Prop. 5.2.1).
    """
    word = reduced_word(sys, longest_element(sys))
    return [element_from_word(sys, word[:k + 1] + word[:k][::-1]) for k in range(len(word))]


PATH_BITS = 32  # bits per path length in a packed count


def increasing_path_counts(sys, order):
    """By position of x, {position of y: the counts c_k of the increasing paths from y to x, packed}.

    A path of length k steps along k Bruhat-graph edges u -> u t, with
    l(u t) > l(u), whose labels t increase in ``order``; c_k is bits
    k * PATH_BITS onward of the packed count.  The count sweeps the labels
    in order: the edge u -> u t of label t extends each path into u, whose
    labels all come before t, to u t.  As (u t) t = u, no element is both
    the tail and the head of an edge of one label, so the order of a
    label's edges does not matter and no path takes a label twice.
    """
    elements = enumerate_elements(sys)
    rows = [{g.position: 1} for g in elements]  # the path of length 0
    for t in order:
        for u in elements:
            head = multiply(sys, u, t)
            if head.length > u.length:
                row = rows[head.position]
                for p, count in rows[u.position].items():
                    row[p] = row.get(p, 0) + (count << PATH_BITS)
    return rows


def dyer_sum(packed, ell):
    """(sum_k c_k q^((l - k)/2) (q - 1)^k, l - c_{l-2}) for the counts packed as ``increasing_path_counts`` packs them.

    None when a count has the wrong parity: a reflection has odd length, so
    every path from y to x has the parity of l = l(x) - l(y).
    """
    c = [packed >> k * PATH_BITS & ((1 << PATH_BITS) - 1) for k in range(ell + 1)]
    if any(c[k] for k in range(1 - ell % 2, ell + 1, 2)):
        return None
    coeffs = [0] * (ell + 1)
    for k in range(ell % 2, ell + 1, 2):
        for j in range(k + 1):
            coeffs[(ell - k) // 2 + j] += c[k] * comb(k, j) * (-1) ** (k - j)
    return IntPolynomial(coeffs), ell - (c[ell - 2] if ell >= 2 else 0)


def dyer_breaks(sys, rrows, order):
    """The pairs y <= x whose R(y, x) is not Dyer's sum over the increasing paths of ``order``, in walk order.

    Dyer's formula is R(y, x) = sum_k c_k q^((l - k)/2) (q - 1)^k for
    l = l(x) - l(y) (Dyer, Compositio Math. 89, 1993; Björner–Brenti, §5.3),
    compared coefficient by coefficient, so gj = l - c_{l-2}, which is
    checked too.  It reads neither a descent chain nor the recursion.  The
    sum is taken once per distinct (counts, l).
    """
    counts = increasing_path_counts(sys, order)
    sums, breaks = {}, []
    for x, y, poly in filled_pairs(sys, rrows):
        key = counts[x.position].get(y.position, 0), x.length - y.length
        if key not in sums:
            sums[key] = dyer_sum(*key)
        if sums[key] != (poly, poly.gj):
            breaks.append((x, y))
    return breaks


@pytest.mark.parametrize("text", PRESETS + ("B4",))
def test_r_is_dyers_sum_over_increasing_paths(text, system):
    sys = system(text)
    assert dyer_breaks(sys, table_rows(sys, RTable(sys).row_fill()), reflection_order(sys)) == []


# pairs whose R(y, x) breaks Dyer's formula under a seeded shuffle of the order, of all pairs
SHUFFLED_BREAKS = {"A3": (54, 213), "B3": (417, 847), "D4": (6_194, 9_817)}


@pytest.mark.parametrize("text", SHUFFLED_BREAKS)
def test_dyers_sum_needs_a_reflection_order(text, system):
    # The same labels in a shuffled order are no reflection order, so the
    # count breaks the formula: the check above reads the order it is given.
    sys = system(text)
    rng = random.Random(2010)  # random() keeps its sequence across Python versions; shuffle() need not
    order = sorted(reflection_order(sys), key=lambda t: rng.random())
    rrows = table_rows(sys, RTable(sys).row_fill())
    assert (len(dyer_breaks(sys, rrows, order)), sum(map(len, rrows))) == SHUFFLED_BREAKS[text]


# ---------------------------------------------------------------------------
# robustness: policy


@pytest.mark.parametrize("text", ["A2", "B2", "G2"])
def test_policy_invariance(text, system, vtable):
    sys = system(text)
    small = vtable(text)
    large = table_rows(sys, v_fill(sys), "largest")
    assert small == large


def test_rows_are_keyed_by_the_upper_element(system):
    # Filled rows keep the row of x at x's position, aligned with x's index
    # row, and a pair's entry is at its slot there; a lazy table keeps
    # memo[x][y] for the pair y <= x.  Both hold V(x, y) and R(y, x).
    sys = system("A3")
    vrows, rtable = table_rows(sys, v_fill(sys)), RTable(sys)
    v = reader(sys, vrows)
    pairs = list(comparable_pairs(sys))
    rows_v, rows_r = [], {}
    for x, y in pairs:
        if x.position == len(rows_v):
            rows_v.append([])
        rows_v[x.position].append(v(x, y))
        if x is not y:
            rows_r.setdefault(x, {x: ONE})[y] = rtable.r(y, x)  # the row of x holds its diagonal
    assert sum(map(len, vrows)) == len(pairs)
    assert [list(map(id, row)) for row in vrows] == [list(map(id, row)) for row in rows_v]
    # a lazy table makes no row for the identity, which is above no strict pair
    assert sum(map(len, rtable._memo.values())) == len(pairs) - 1
    assert rtable._memo == rows_r and not hasattr(rtable, "rows")


def test_v_fill_row_counts(system, vtable):
    assert sum(map(len, vtable("A2"))) == 19
    assert sum(map(len, vtable("B2"))) == 33
    assert sum(map(len, vtable("G2"))) == 73
    # strict pairs only, as RTable.computed and the report's vtable_computed count them
    rows = vtable("A2")
    assert sum(map(len, rows)) - len(rows) == 13


@pytest.mark.parametrize(
    "text, policy",
    [(t, p) for t in PRESETS for p in ("smallest", "largest") if (t, p) != ("D4", "largest")],
)
def test_fill_matches_a_fresh_chain_walk(text, policy, system, vtable):
    # A fresh table has nothing stored, so each query walks its chain to the
    # diagonal and builds its span once; the fill stops at stored pairs.
    sys = system(text)
    rows = vtable(text) if policy == "smallest" else table_rows(sys, v_fill(sys), policy)
    for x, y, space in filled_pairs(sys, rows):
        assert VTable(sys, policy).v(x, y) == space


@pytest.mark.parametrize("fill", ["V", "R", "direct", "verify"])
def test_row_fills_take_one_descent_step_per_pair(fill, monkeypatch, system):
    # In length order every off-diagonal pair is one step above a stored
    # pair, so each fill takes exactly one step from each.  The walk takes
    # the steps as slots into the row of xs, with no call per pair: neither
    # the walk nor a fill calls ``descend``, and a whole verify pass, whose
    # three fills and suites T and R read the one walk's rows, walks once.
    def no_step(*args):
        raise AssertionError("a row fill took a single-pair descent step")

    for module in (coxeter, rpoly_module, vtable_module):
        monkeypatch.setattr(module, "descend", no_step)
    sys = build_system("B3")
    if fill == "verify":
        for policy in DESCENT_POLICIES:
            sys, walks, steps = build_system("B3"), [], []

            def walk(sys, policy, *fills):
                walks.append(policy)
                for row in coxeter.walk(sys, policy, *fills):
                    steps.append(row[:4])  # x, its index row, s and the first slots
                    yield row

            monkeypatch.setattr(verify, "build_system", lambda *args, **kwargs: sys)
            monkeypatch.setattr(verify, "walk", walk)
            verify.run_verify("B3", policy=policy)
            off_diagonal = [(x, y) for x, y in comparable_pairs(sys) if x != y]
            assert len(off_diagonal) == 799
            assert walks == [policy]
            covered = [(x, y) for x, lower, _, first in steps for y, _ in zip(lower, first)]
            assert covered == off_diagonal
        # each step is the pair's own: its slots read back, from the index
        # row of xs, ys or y for the pair below and ys when ys <= xs
        for text in (*PRESETS, "B4"):
            sys = system(text)
            for policy in DESCENT_POLICIES:
                index_row = lambda x, lower, *_: lower  # noqa: E731
                for x, lower, s, first, second, (below,), _ in coxeter.walk(sys, policy, index_row):
                    assert type(first) is type(second) is list
                    assert len(first) == len(second) == len(lower) - 1
                    if not first:
                        assert (x, s, below) == (identity(sys), -1, None)
                        continue
                    assert s == pick_descent(sys, x, policy)
                    xs = right_multiply(sys, x, s)
                    assert below[-1] is xs
                    for y, a, b in zip(lower, first, second):
                        ys = right_multiply(sys, y, s)
                        assert a >= 0 and below[a] is (ys if ys.length < y.length else y)
                        if bruhat_leq(sys, ys, xs):
                            assert b >= 0 and below[b] is ys
                        else:
                            assert b == -1
        return
    if fill == "V":
        rows = table_rows(sys, v_fill(sys))
    elif fill == "R":
        rows = table_rows(sys, RTable(sys).row_fill())
    else:
        rows = table_rows(sys, direct_row)
    assert sum(map(len, rows)) == 799 + len(rows)
    if fill == "V":  # equal subspaces are one object
        spaces = [space for row in rows for space in row]
        assert len({id(v) for v in spaces}) == len(set(spaces))


@pytest.mark.parametrize("text", PRESETS + ("B4",))
@pytest.mark.parametrize("policy", DESCENT_POLICIES)
def test_up_moves_equal_the_matrix_product_route(text, policy, system):
    # An up step builds span(v_s, known) with no matrix product; each
    # distinct up move the fill made must equal s . known + K v_s, with s
    # applied to the known basis by its matrix.
    sys = system(text)
    seen = set()
    for _, _, s, first, second, (below,), (row,) in coxeter.walk(sys, policy, v_fill(sys)):
        g = None if below is None else simple_reflection(sys, s)
        for a, b, space in zip(first, second, row):
            known = below[a]
            if a == b or (s, id(known)) in seen:
                continue
            seen.add((s, id(known)))
            images = [apply_element(sys, g, r) for r in known.basis]
            assert space == RationalSubspace(sys.rank, [*images, basis_vector(sys, s)])
    assert seen


@pytest.mark.parametrize("fill", ["V", "R"])
def test_row_fills_raise_when_the_index_says_a_step_left_the_order(fill):
    # With the index rows of length 1 emptied to their diagonal, the first
    # step from a row of length 2 to the identity fails its lifting check (a
    # lookup in the positions below xs).
    sys = build_system("A3")
    index = bruhat_index(sys)
    index[:] = [1 << x.position if x.length == 1 else mask for x, mask in zip(enumerate_elements(sys), index)]
    with pytest.raises(LiftingViolation, match="x="):
        table_rows(sys, v_fill(sys)) if fill == "V" else table_rows(sys, RTable(sys).row_fill())


# ---------------------------------------------------------------------------
# singular quotients


def test_singular_spec_parsing():
    assert SingularSpec.parse("").indices == frozenset()
    assert SingularSpec.parse("0,2").indices == {0, 2}
    assert SingularSpec.parse(" 1 , 0 ").indices == {0, 1}
    assert str(SingularSpec.parse("2,0")) == "0,2"


@pytest.mark.parametrize("text", ["0,x", "١", "1_0", "0,²", "-1", "+1"])
def test_singular_spec_takes_only_ascii_digits(text):
    with pytest.raises(ParseError):
        SingularSpec.parse(text)


def test_singular_spec_validation(system):
    spec = SingularSpec.parse("5")
    with pytest.raises(IndexOutOfRange):
        spec.validate(system("A2"))


def test_suite_s_flags_a_wrong_top_space(system):
    sys = system("A2")
    rows = table_rows(sys, v_fill(sys))  # its own rows, as the test plants an entry
    w0, e = longest_element(sys), identity(sys)
    rows[w0.position][slot(sys, w0, e)] = RationalSubspace(sys.rank)
    result = _suite_s(sys, membership_rows(sys, rows))
    # the subsets {}, {0}, {1} and {0,1}: only the last expects the zero quotient
    assert (result.checked, result.failed) == (4, 3)
    assert result.as_dict()["witnesses"] == [{"subset": "", "dim": 0, "expected": 2}]


def test_singular_dims_on_b2(system, vtable):
    b2 = system("B2")
    w0, e = longest_element(b2), identity(b2)
    top = reader(b2, vtable("B2"))(w0, e)
    for text, dim in [("", 2), ("0", 1), ("1", 1), ("0,1", 0)]:
        spec = SingularSpec.parse(text)
        image = singular_v(b2, top, spec)
        assert image.dim == dim
        assert image.ncols == b2.rank - len(spec.indices)


def test_singular_quotient_of_partial_space(system, vtable):
    # V(w0, s1 s0) in A2 is the line spanned by v_1: killing v_1 empties
    # it, killing v_0 does not
    a2 = system("A2")
    w0 = longest_element(a2)
    y = element_from_word(a2, (1, 0))
    space = reader(a2, vtable("A2"))(w0, y)
    assert space.dim == 1
    assert space.contains(basis_vector(a2, 1))
    assert singular_v(a2, space, SingularSpec.parse("1")).dim == 0
    assert singular_v(a2, space, SingularSpec.parse("0")).dim == 1


def test_singular_quotient_keeps_diagonal_lines(system, vtable):
    # V(s1 s0, s0) in A2 is the diagonal line v_0 + v_1, which survives
    # either single-index quotient
    a2 = system("A2")
    x = element_from_word(a2, (1, 0))
    y = element_from_word(a2, (0,))
    space = reader(a2, vtable("A2"))(x, y)
    assert space.dim == 1
    assert space.contains(vector_sum(a2))
    assert singular_v(a2, space, SingularSpec.parse("0")).dim == 1
    assert singular_v(a2, space, SingularSpec.parse("1")).dim == 1


def vector_sum(sys):
    v0 = basis_vector(sys, 0)
    v1 = basis_vector(sys, 1)
    return tuple(a + b for a, b in zip(v0, v1))


def echelon_singular_v(sys, space, spec):
    """The quotient image by a second route: echelonise V + span{v_s : s in
    spec}, drop the rows pivoting at a killed column (the v_s themselves)
    and delete the killed columns from the rest."""
    killed = [basis_vector(sys, i) for i in spec.indices]
    combined = RationalSubspace(sys.rank, list(space.rows) + killed)
    keep = [j for j in range(sys.rank) if j not in spec.indices]
    projected = []
    for row in combined.rows:
        pivot = next(j for j in range(sys.rank) if row[j] != 0)
        if pivot not in spec.indices:
            projected.append([row[j] for j in keep])
    return RationalSubspace(len(keep), projected)


@pytest.mark.parametrize("text", ["A3", "B3", "C3"])
def test_singular_projection_matches_the_echelon_route(text, system, vtable):
    sys = system(text)
    v = reader(sys, vtable(text))
    specs = [
        SingularSpec(frozenset(i for i in range(sys.rank) if mask >> i & 1))
        for mask in range(1 << sys.rank)
    ]
    for x, y in comparable_pairs(sys):
        space = v(x, y)
        for spec in specs:
            assert singular_v(sys, space, spec) == echelon_singular_v(sys, space, spec)


# ---------------------------------------------------------------------------
# the membership report


@pytest.mark.parametrize("text,flagged", [("A2", 12), ("B2", 20), ("G2", 42)])
def test_membership_report_shape(text, flagged, system, vtable):
    report = membership_report(system(text), membership_rows(system(text), vtable(text)))
    assert len(report) == flagged


def all_pairs_membership_rows(sys, rows):
    """The membership rows by filtering every comparable pair and every s: the reference for the report."""
    w0 = longest_element(sys)
    letters = {g: frozenset(reduced_word(sys, multiply(sys, w0, g))) for g in enumerate_elements(sys)}
    v, found = reader(sys, rows), []
    for x, y in comparable_pairs(sys):
        for s in range(sys.rank):
            if (x.descents | y.descents) >> s & 1:
                continue
            if len((letters[x] | letters[y]) - {s}) > 1:
                continue
            x_ge_ys = bruhat_leq(sys, right_multiply(sys, y, s), x)
            in_v = v(x, y).contains(basis_vector(sys, s))
            found.append(vtable_module.MembershipRow(x, y, s, x_ge_ys, in_v))
    return found


@pytest.mark.parametrize("text", [t for t in PRESETS if t != "A1"] + ["B4"])
def test_membership_report_pairs_only_the_elements_its_rows_can_hold(text, system, vtable):
    # a row's x and y each have at most two letters in the support of w0 g;
    # pairing only those must give the all-pairs filter's rows, in its order
    sys, rows = system(text), vtable(text)
    assert membership_report(sys, membership_rows(sys, rows)) == all_pairs_membership_rows(sys, rows)


@pytest.mark.parametrize("text", PRESETS + ("B4",))
def test_membership_selection_matches_the_multiply_route(text, system):
    # the report reads w0 g off the words of w0 and g by right multiplications;
    # multiply, suite G's group-law route, must give the same element for every g
    sys = system(text)
    w0 = longest_element(sys)
    word = reduced_word(sys, w0)
    for g in enumerate_elements(sys):
        assert element_from_word(sys, word + reduced_word(sys, g)) is multiply(sys, w0, g)


def test_suite_m_flags_a_row_whose_membership_flipped(system):
    sys = system("A2")
    rows = table_rows(sys, v_fill(sys))  # its own rows, as the test plants an entry
    x, y = element_from_word(sys, (1, 0)), identity(sys)
    assert rows[x.position][slot(sys, x, y)].dim == 2  # v_1 is in it, as x >= y s_1 predicts
    rows[x.position][slot(sys, x, y)] = RationalSubspace(sys.rank)
    result = _suite_m(sys, membership_rows(sys, rows))
    assert (result.checked, result.failed) == (12, 1)
    assert result.as_dict()["witnesses"] == [{"x": "1,0", "y": "e", "s": 1, "in_v": False, "x_ge_ys": True}]


@pytest.mark.parametrize("text", ["A2", "B2", "G2"])
def test_flagged_rows_satisfy_biconditional(text, system, vtable):
    for row in membership_report(system(text), membership_rows(system(text), vtable(text))):
        assert row.in_v == row.x_ge_ys


# ---------------------------------------------------------------------------
# the frozen divergence between the dimension and the coefficient routes


def test_smallest_divergence_pair_is_frozen(system, vtable, rtable):
    """dim V and the q-coefficient disagree first at this rank-3 pair.

    Both sides are individually certified (the coefficient against an
    independent direct recursion, the subspace against its equivariance
    and top-row properties), yet they differ here: the coefficient says 4,
    which no subspace of a 3-dimensional representation can reach.  Frozen
    so a change in either route is noticed.
    """
    a3 = system("A3")
    x = element_from_word(a3, (0, 1, 2, 1, 0))
    y = element_from_word(a3, (1,))
    assert bruhat_leq(a3, y, x)
    assert gj_coefficient(a3, x, y, rtable("A3")) == 4
    assert r_coeff_direct(a3, x, y) == 4
    assert reader(a3, vtable("A3"))(x, y).dim == 3


def test_divergence_count_in_a3_is_exactly_one(system, vtable, rtable):
    a3 = system("A3")
    v = reader(a3, vtable("A3"))
    rt = rtable("A3")
    off = [
        (x, y)
        for x, y in comparable_pairs(a3)
        if v(x, y).dim != gj_coefficient(a3, x, y, rt)
    ]
    assert len(off) == 1


def test_full_agreement_below_rank_three(system, vtable, rtable):
    for text in ["A2", "B2", "G2", "A1xA2"]:
        sys = system(text)
        v = reader(sys, vtable(text))
        rt = rtable(text)
        for x, y in comparable_pairs(sys):
            assert v(x, y).dim == gj_coefficient(sys, x, y, rt)


def _common_descents(x, y):
    both = x.descents & y.descents
    return [s for s in range(both.bit_length()) if both >> s & 1]


@pytest.mark.parametrize("text,moves", [("A3", 194), ("B3", 732)])
def test_double_ascent_moves_keep_dimension_and_coefficient(text, moves, system, vtable, rtable):
    sys = system(text)
    v = reader(sys, vtable(text))
    rt = rtable(text)
    seen = 0
    for x, y in comparable_pairs(sys):
        for s in _common_descents(x, y):
            xs, ys = right_multiply(sys, x, s), right_multiply(sys, y, s)
            assert v(xs, ys).dim == v(x, y).dim
            assert gj_coefficient(sys, xs, ys, rt) == gj_coefficient(sys, x, y, rt)
            seen += 1
    assert seen == moves


@pytest.mark.parametrize(
    "text,unreachable,agreeing",
    [
        ("A3", 62, 61),
        ("B3", 390, 374),
        ("C3", 390, 374),
        ("A4", 1882, 1805),
        ("D4", 5858, 5481),
    ],
)
def test_divergent_pairs_are_unreachable_from_the_top_row(
    text, unreachable, agreeing, system, vtable, rtable
):
    # Close the top-row pairs (w0, y) under the moves (x, y) -> (xs, ys) for
    # a common right descent s.  No reachable pair diverges, but most
    # unreachable pairs agree, so reachability is not a characterisation.
    sys = system(text)
    v = reader(sys, vtable(text))
    rt = rtable(text)
    w0 = longest_element(sys)
    reached = {(w0, y) for y in enumerate_elements(sys)}
    frontier = list(reached)
    while frontier:
        x, y = frontier.pop()
        for s in _common_descents(x, y):
            pair = (right_multiply(sys, x, s), right_multiply(sys, y, s))
            if pair not in reached:
                reached.add(pair)
                frontier.append(pair)
    agree = {
        (x, y): v(x, y).dim == gj_coefficient(sys, x, y, rt)
        for x, y in comparable_pairs(sys)
    }
    assert all(agree[pair] for pair in reached)
    rest = [ok for pair, ok in agree.items() if pair not in reached]
    assert (len(rest), sum(rest)) == (unreachable, agreeing)
