"""Group construction, word handling, and Bruhat order.

Expected values are frozen from independent sources: group orders and root
counts are classical, and every Bruhat answer is cross-checked against the
exhaustive subword oracle inside the tests themselves.
"""

from __future__ import annotations

import json
import random
import weakref
from collections import Counter

import pytest

from conftest import comparable_pairs
from verma_ext import cli, coxeter, rpoly, verify
from verma_ext.cli import main
from verma_ext.coxeter import (
    DEFAULT_BUDGET,
    DESCENT_POLICIES,
    ORACLE_BUDGET,
    SubwordOracle,
    TypeDescriptor,
    braid_order,
    bruhat_leq,
    bruhat_leq_lifting,
    build_cartan,
    build_system,
    comparable_rows,
    element_from_word,
    enumerate_elements,
    fingerprint,
    format_word,
    identity,
    longest_element,
    multiply,
    parse_word,
    pick_descent,
    recount_length,
    reduced_word,
    right_multiply,
    simple_reflection,
    word_text,
)
from verma_ext.errors import BudgetExceeded, InvalidType, InvariantViolation, ParseError, RankOverflow
from verma_ext.verify import PRESETS
from verma_ext.vtable import SingularSpec, VTable, compute_all


# ---------------------------------------------------------------------------
# type descriptors


def test_descriptor_parse_round_trip():
    d = TypeDescriptor.parse("a1xB3xg2")
    assert str(d) == "A1xB3xG2"
    assert d.factors == (("A", 1), ("B", 3), ("G", 2))


def test_records_are_immutable_hashable_and_keep_their_reprs():
    d = TypeDescriptor.parse("A1xG2")
    spec = SingularSpec.parse("2,0")
    assert repr(d) == "TypeDescriptor(factors=(('A', 1), ('G', 2)))"
    assert repr(spec) == "SingularSpec(indices=frozenset({0, 2}))"
    assert len({d, TypeDescriptor.parse("a1xg2")}) == 1
    assert len({spec, SingularSpec.parse("0,2")}) == 1
    for record, field in ((d, "factors"), (spec, "indices")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert fingerprint(build_system("D4")) == "D4-8b4286cddc9e"


@pytest.mark.parametrize(
    "text",
    ["", "Q9", "A0", "B1", "C2", "D3", "E5", "E9", "F5", "G3", "A2x", "A-1", "AA2", "A3\nxA2",
     pytest.param("A" + "9" * 5000, id="rank-past-int-conversion-limit")],
)
def test_descriptor_rejects_bad_text(text):
    with pytest.raises(InvalidType):
        TypeDescriptor.parse(text)


@pytest.mark.parametrize(
    "text,order",
    [
        ("A1", 2),
        ("A2", 6),
        ("A3", 24),
        ("A4", 120),
        ("B2", 8),
        ("B3", 48),
        ("C3", 48),
        ("D4", 192),
        ("G2", 12),
        ("F4", 1152),
        ("E6", 51840),
        ("A1xA1", 4),
        ("A1xA2", 12),
    ],
)
def test_group_orders(text, order):
    assert TypeDescriptor.parse(text).group_order() == order


def test_budget_rejects_large_groups():
    assert TypeDescriptor.parse("E7").group_order() == 2903040 > DEFAULT_BUDGET
    with pytest.raises(RankOverflow):
        build_system("E7")
    big = build_system("E7", budget=3_000_000)
    assert big.rank == 7
    assert len(big.positive_roots) == 63


def test_whole_group_work_refuses_groups_over_the_limit():
    # E6 is within the order budget, but its Bruhat index would hold a few
    # hundred million pairs: the walk is refused before any enumeration
    e6 = build_system("E6")
    assert e6.group_order == 51_840 > coxeter.WHOLE_GROUP_LIMIT
    with pytest.raises(RankOverflow, match="E6 has order 51840, over the whole-group limit 10000"):
        comparable_rows(e6)
    assert e6._elements is None and e6._below is None
    # A6, the largest group whose whole runs are measured, is admitted
    assert build_system("A6").group_order == 5_040 <= coxeter.WHOLE_GROUP_LIMIT


def test_single_pair_work_leaves_the_roots_unbuilt():
    # Neither recursion reads the positive roots, so a single-pair query on
    # E7 never pays for closing its 63 of them.
    e7 = build_system("E7", budget=3_000_000)
    x = element_from_word(e7, (0, 1, 2, 3, 4, 5, 6, 0, 2, 3))
    y = element_from_word(e7, (1, 3))
    assert rpoly.RTable(e7).r(y, x).degree == x.length - y.length
    assert VTable(e7).v(x, y).dim > 0
    assert "positive_roots" not in vars(e7)
    assert len(e7.positive_roots) == 63


def test_cartan_matrices():
    assert build_cartan(TypeDescriptor.parse("A2")) == ((2, -1), (-1, 2))
    assert build_cartan(TypeDescriptor.parse("B2")) == ((2, -1), (-2, 2))
    assert build_cartan(TypeDescriptor.parse("C3")) == (
        (2, -1, 0),
        (-1, 2, -2),
        (0, -1, 2),
    )
    assert build_cartan(TypeDescriptor.parse("G2")) == ((2, -3), (-1, 2))
    # product types are block diagonal
    assert build_cartan(TypeDescriptor.parse("A1xA1")) == ((2, 0), (0, 2))


@pytest.mark.parametrize(
    "text,count",
    [("A2", 3), ("A3", 6), ("B2", 4), ("B3", 9), ("C3", 9), ("D4", 12), ("G2", 6)],
)
def test_positive_root_counts(text, count, system):
    sys = system(text)
    assert len(sys.positive_roots) == count
    assert longest_element(sys).length == count


def test_fingerprint_is_stable_and_type_sensitive(system):
    fp = fingerprint(system("A2"))
    assert fp == fingerprint(system("A2"))
    assert fp.startswith("A2-")
    assert fp != fingerprint(system("B2"))
    # B3 and C3 share group orders but not Cartan data
    assert fingerprint(system("B3")) != fingerprint(system("C3"))


# ---------------------------------------------------------------------------
# words and multiplication


def test_word_parsing_and_formatting():
    assert parse_word("") == ()
    assert parse_word("e") == ()
    assert parse_word("0,2,1") == (0, 2, 1)
    assert parse_word(" 0 , 1 ") == (0, 1)
    assert format_word(()) == "e"
    assert format_word((1, 0)) == "1,0"
    for bad in ["x", "0,,1", "0;1", "1.5", "²", "0,١"]:
        with pytest.raises(ParseError):
            parse_word(bad)


def test_element_from_word_validates_letters(system):
    a2 = system("A2")
    with pytest.raises(ParseError):
        element_from_word(a2, (0, 7))


def test_generators_are_involutions(system):
    for text in ["A2", "B2", "G2"]:
        sys = system(text)
        e = identity(sys)
        for i in range(sys.rank):
            s = simple_reflection(sys, i)
            assert s.length == 1
            assert multiply(sys, s, s) == e


def test_product_orders_match_braid_orders(system):
    for text, expected in [("A2", 3), ("B2", 4), ("G2", 6)]:
        sys = system(text)
        assert braid_order(sys, 0, 1) == expected
        st = multiply(sys, simple_reflection(sys, 0), simple_reflection(sys, 1))
        g, order = st, 1
        while g != identity(sys):
            g = multiply(sys, g, st)
            order += 1
        assert order == expected


def test_length_via_recount_matches_cached(system):
    for text in ["A3", "B3", "D4", "G2"]:
        sys = system(text)
        for g in enumerate_elements(sys):
            assert recount_length(sys, g.matrix) == g.length


def test_inverse_and_reduced_words(system):
    a2 = system("A2")
    w0 = longest_element(a2)
    assert reduced_word(a2, w0) == (0, 1, 0)
    for g in enumerate_elements(a2):
        word = reduced_word(a2, g)
        assert len(word) == g.length
        assert element_from_word(a2, word) == g
        g_inv = element_from_word(a2, word[::-1])
        assert multiply(a2, g, g_inv) == identity(a2)
        assert multiply(a2, g_inv, g) == identity(a2)


def test_right_descents(system):
    a2 = system("A2")
    g = element_from_word(a2, (0, 1))
    assert g.descents == 0b10
    assert _column_descents(g.matrix) == frozenset({1})
    assert identity(a2).descents == 0
    assert _column_descents(identity(a2).matrix) == frozenset()
    assert longest_element(a2).descents == 0b11
    assert _column_descents(longest_element(a2).matrix) == frozenset({0, 1})


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_elements_counts_and_order(system):
    for text, order in [("A2", 6), ("B2", 8), ("G2", 12), ("A1xA2", 12)]:
        sys = system(text)
        elems = enumerate_elements(sys)
        assert len(elems) == order
        assert len(set(elems)) == order
        assert elems[0] == identity(sys)
        assert elems[-1] == longest_element(sys)
        lengths = [g.length for g in elems]
        assert lengths == sorted(lengths)


def test_enumeration_stops_once_it_passes_the_group_order(monkeypatch):
    # An interner that hands out a fresh id for every product walks one
    # element per reduced word; the walk must stop at order + 1 elements.
    calls = 0

    def fresh_intern(sys, matrix, length, descents):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise AssertionError("enumeration ran away")
        gid = len(sys._by_id)
        sys._by_id.append(coxeter.GroupElement(matrix, length, gid, descents))
        sys._rmul.append([-1] * sys.rank)
        sys._words.append(None)
        return sys._by_id[gid]

    monkeypatch.setattr(coxeter, "_intern", fresh_intern)
    a2 = build_system("A2")
    with pytest.raises(RankOverflow, match="more than 6"):
        enumerate_elements(a2)
    assert calls == len(a2._by_id) == a2.group_order + 1


def test_longest_element_properties(system):
    for text in ["A2", "B2", "G2", "A1xA2"]:
        sys = system(text)
        w0 = longest_element(sys)
        assert multiply(sys, w0, w0) == identity(sys)
        assert w0.descents == (1 << sys.rank) - 1
        assert _column_descents(w0.matrix) == frozenset(range(sys.rank))


# ---------------------------------------------------------------------------
# Bruhat order


def test_bruhat_basics(system):
    a2 = system("A2")
    e = identity(a2)
    w0 = longest_element(a2)
    for g in enumerate_elements(a2):
        assert bruhat_leq(a2, e, g)
        assert bruhat_leq(a2, g, w0)
        assert bruhat_leq(a2, g, g)
    s0 = simple_reflection(a2, 0)
    s1 = simple_reflection(a2, 1)
    assert not bruhat_leq(a2, s0, s1)
    assert not bruhat_leq(a2, w0, e)


def test_bruhat_incomparable_pair_in_b2(system):
    b2 = system("B2")
    x = element_from_word(b2, (0, 1, 0))
    y = element_from_word(b2, (1, 0, 1))
    assert not bruhat_leq(b2, x, y)
    assert not bruhat_leq(b2, y, x)


@pytest.mark.parametrize("text", PRESETS + ("B4",))
def test_bruhat_recursion_matches_subword_oracle(text):
    # A fresh system: the session ones may already hold the index, after
    # which bruhat_leq never reaches the recursion.
    sys = build_system(text)
    elems = enumerate_elements(sys)
    oracle = SubwordOracle(sys)
    cap = ORACLE_BUDGET.bit_length() - 1  # B4's longest words are past the oracle's budget
    for x in elems:
        for y in elems:
            if y.length <= cap:
                assert bruhat_leq_lifting(sys, x, y) == oracle.leq(x, y)
    assert sys._below is None
    pairs = tuple(comparable_pairs(sys))
    assert sys._below is not None
    # in (length, matrix) order on x, then on y
    assert pairs == tuple((x, y) for x in elems for y in elems if bruhat_leq_lifting(sys, y, x))
    for x in elems:
        for y in elems:
            assert bruhat_leq(sys, x, y) is bruhat_leq_lifting(sys, x, y)


def test_whole_group_fills_read_the_index_not_the_recursion():
    d4 = build_system("D4")
    compute_all(d4)
    table = rpoly.RTable(d4)
    elems = enumerate_elements(d4)
    for x in elems:
        for y in elems:
            table.r(y, x)
    assert table.computed == len(list(comparable_pairs(d4))) - len(elems)
    assert len(d4._bruhat) == 0


def test_walk_makes_each_row_once_from_the_row_of_xs(monkeypatch):
    # One call per table and index row, in position order, handed x, its
    # index row, its descent, xs's row of that table (already made) and x's
    # slots into it; the walk yields all of these with the rows made, and
    # takes no descent step of its own.
    sys = build_system("B3")
    index = list(comparable_rows(sys))
    made = []  # by position: the rows made for x, one per table

    def fill(table):
        def fill_row(x, lower, s, below, first, second):
            assert x.position == len(made) and (x, lower) == index[x.position]
            if x.descents:
                xs = right_multiply(sys, x, pick_descent(sys, x, "smallest"))
                assert below is made[xs.position][table]
            else:
                assert (s, below, first, second) == (-1, None, [], [])
            return [object() for _ in lower]
        return fill_row

    monkeypatch.setattr(coxeter, "descend", None)  # the walk steps by maps over positions
    for x, lower, s, first, second, below, rows in coxeter.walk(sys, "smallest", fill(0), fill(1)):
        assert s == (pick_descent(sys, x, "smallest") if x.descents else -1)
        assert len(first) == len(second) == len(lower) - 1
        assert below == (made[right_multiply(sys, x, s).position] if x.descents else (None, None))
        assert len(rows) == 2 and all(len(row) == len(lower) for row in rows)
        made.append(rows)
    assert len(made) == len(index) == 48


def test_walk_keeps_two_length_layers_of_rows():
    # The row of x reads only the row of xs, one length shorter, so at each
    # yield the walk holds the rows of x's layer so far and of the whole
    # layer below it, and none longer gone.
    class Row:
        def __init__(self, length):
            self.length = length

    sys = build_system("B3")
    live, made = weakref.WeakSet(), Counter()  # made: rows filled, by length

    def fill_row(x, lower, s, below, first, second):
        row = Row(x.length)
        live.add(row)
        made[x.length] += 1
        return row

    for x, *_ in coxeter.walk(sys, "smallest", fill_row):
        held = Counter(row.length for row in live)
        assert held == {n: k for n, k in made.items() if n >= x.length - 1}
    assert max(made.values()) > 1 and len(made) == longest_element(sys).length + 1


def test_subword_oracle_refuses_words_past_its_budget():
    # 2**12 subwords fit ORACLE_BUDGET = 4096 and 2**13 do not; D5's
    # longest element, of length 20, is far past the cap
    d5 = build_system("D5")
    e, w0 = identity(d5), longest_element(d5)
    assert w0.length == 20
    by_length = {g.length: g for g in enumerate_elements(d5)}
    oracle = SubwordOracle(d5)
    assert oracle.leq(e, by_length[12])
    for y in (by_length[13], w0):
        with pytest.raises(BudgetExceeded):
            oracle.leq(e, y)


def test_bruhat_respects_products(system):
    prod = system("A1xA2")
    # the two factors are incomparable component-wise: s0 vs s1 never compare
    s0 = simple_reflection(prod, 0)
    s1 = simple_reflection(prod, 1)
    assert not bruhat_leq(prod, s0, s1)
    assert bruhat_leq(prod, s0, multiply(prod, s0, s1))


# ---------------------------------------------------------------------------
# the interned core, against scans of the matrices themselves


def _column_descents(matrix) -> frozenset[int]:
    """Right descents from scratch: columns holding a negative entry."""
    return frozenset(i for i in range(len(matrix)) if any(row[i] < 0 for row in matrix))


def _reflect_columns(sys, matrix, i):
    """The matrix of g s_i from that of g, written out from the Cartan matrix."""
    a = sys.cartan
    return tuple(tuple(row[c] - a[i][c] * row[i] for c in range(len(row))) for row in matrix)


def _walk_word(sys, g) -> tuple[int, ...]:
    """Strip the smallest right descent until the identity, on bare matrices."""
    m, tail = g.matrix, []
    while descents := _column_descents(m):
        i = min(descents)
        tail.append(i)
        m = _reflect_columns(sys, m, i)
    return tuple(reversed(tail))


@pytest.mark.parametrize("text", PRESETS + ("F4",))
def test_right_multiply_is_an_interned_lookup(text, system):
    sys = system(text)
    for g in enumerate_elements(sys):
        for i in range(sys.rank):
            h = right_multiply(sys, g, i)
            assert h.matrix == _reflect_columns(sys, g.matrix, i)
            assert h.length == recount_length(sys, h.matrix)
            assert right_multiply(sys, g, i) is h
            assert right_multiply(sys, h, i) is g


@pytest.mark.parametrize("text", PRESETS + ("F4", "E7"))
def test_descent_bitmask_matches_column_signs(text):
    # right_multiply rereads only the columns it rewrites and multiply scans
    # every column; each element either of them interns must carry the
    # bitmask of a full scan.  On E7 the elements are those a few seeded
    # queries intern lazily, with no enumeration.
    sys = build_system(text, budget=3_000_000)
    simples = [simple_reflection(sys, i) for i in range(sys.rank)]
    products = [multiply(sys, a, b) for a in simples for b in simples]
    # s_i s_j with i != j is new: multiply interns it
    assert sum(p.id > sys.rank for p in products) == sys.rank * (sys.rank - 1)
    rng = random.Random(15)
    elems = [
        element_from_word(sys, tuple(rng.randrange(sys.rank) for _ in range(rng.randrange(14))))
        for _ in range(12)
    ]
    products += [multiply(sys, a, b) for a, b in zip(elems, elems[1:])]
    if text == "E7":
        rtable, vtable = rpoly.RTable(sys), VTable(sys)
        for x in elems:
            # a subword of a reduced word of x gives an element below x
            y = element_from_word(sys, tuple(s for s in reduced_word(sys, x) if rng.random() < 0.5))
            rtable.r(y, x)
            vtable.v(x, y)
        assert sys._elements is None
    else:
        assert len(enumerate_elements(sys)) == len(sys._by_id)
    for g in sys._by_id:
        assert g.descents == sum(1 << i for i in _column_descents(g.matrix))


@pytest.mark.parametrize("text", PRESETS + ("F4",))
def test_cached_reduced_word_matches_a_fresh_walk(text, system):
    sys = system(text)
    for g in enumerate_elements(sys):
        word = reduced_word(sys, g)
        assert word == _walk_word(sys, g)
        assert reduced_word(sys, g) is word
        assert element_from_word(sys, word) == g


# (checked, failed) per suite, frozen from whole-group verify runs
SUITE_COUNTS = {
    "D4": {"T": (9_817, 377), "G": (35, 0), "B": (36_864, 0), "R": (36_864, 0),
           "S": (16, 0), "M": (46, 0)},
    "F4": {"T": (396_809, 49_160), "G": (35, 0), "B": (717_696, 0), "R": (1_327_104, 0),
           "S": (16, 0), "M": (54, 0)},
}


@pytest.mark.parametrize("text", PRESETS + ("F4",))
def test_each_matrix_is_one_element_after_a_verify_pass(text, monkeypatch):
    # Equality of elements is identity, which is group equality only while
    # no two ids of one system share a matrix.
    built = []

    def build(*args, **kwargs):
        built.append(build_system(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify, "build_system", build)
    payload = verify.run_verify(text)
    counts = {suite["name"]: (suite["checked"], suite["failed"]) for suite in payload["suites"]}
    assert counts == SUITE_COUNTS.get(text, counts)
    (sys,) = built
    assert len({g.matrix for g in sys._by_id}) == len(sys._by_id)
    assert all(sys._index[g.matrix] == gid for gid, g in enumerate(sys._by_id))
    for g in enumerate_elements(sys):
        assert sys._by_id[g.id] is g


@pytest.mark.parametrize("command", ["verify", "report"])
def test_a_run_walks_the_group_once_and_leaves_only_the_index_masks(command, monkeypatch, tmp_path):
    # One walk fills every table of a run, and the system keeps the index
    # masks but neither the tuples of elements below nor any descent rows.
    built, walks = [], []

    def build(*args, **kwargs):
        built.append(build_system(*args, **kwargs))
        return built[-1]

    def walk(*args):
        walks.append(len(args) - 2)  # the tables filled
        return coxeter.walk(*args)

    monkeypatch.setattr(verify, "build_system", build)
    monkeypatch.setattr(verify, "walk", walk)
    run = verify.run_verify if command == "verify" else verify.run_report
    run("B3", cache_dir=tmp_path)
    assert walks == ([3] if command == "verify" else [2])
    (sys,) = built
    assert "_lower" not in vars(sys) and "_descent_rows" not in vars(sys)
    assert len(sys._below) == sys.group_order == 48


def test_a_verify_pass_leaves_no_suite_b_state(monkeypatch):
    # Suite B alone makes a subword oracle, which holds the subword
    # products, the numbers of their matrices and the reflections they
    # take; it is freed once the suite returns.  A whole verify pass leaves
    # the lifting memo empty, and a later single-pair query refills it.
    built, oracles, freed = [], [], []

    def build(*args, **kwargs):
        built.append(build_system(*args, **kwargs))
        return built[-1]

    def make_oracle(sys):
        oracle = SubwordOracle(sys)
        oracles.append(weakref.ref(oracle))
        return oracle

    t, g, b, r, s, m = verify._SUITES

    def suite_b(sys):
        result = b(sys)
        freed.extend(ref() is None for ref in oracles)
        return result

    monkeypatch.setattr(verify, "build_system", build)
    monkeypatch.setattr(verify, "SubwordOracle", make_oracle)
    monkeypatch.setattr(verify, "_SUITES", (t, g, suite_b, r, s, m))
    payload = verify.run_verify("B3")
    assert [s["checked"] for s in payload["suites"] if s["name"] == "B"] == [2304]
    assert freed == [True]  # one oracle, gone when suite B returns
    (sys,) = built
    assert sys._bruhat == {}
    assert bruhat_leq_lifting(sys, element_from_word(sys, (1,)), longest_element(sys))
    assert sys._bruhat


def test_suite_b_flags_an_index_row_that_lost_an_element():
    sys = build_system("A2")  # its own system, as the test plants a fault in its index
    comparable_rows(sys)  # builds the index
    w0, e = longest_element(sys), identity(sys)
    sys._below[w0.position] &= ~(1 << e.position)
    result = verify._suite_b(sys)
    assert (result.checked, result.failed) == (36, 1)
    assert result.witnesses == [
        {"x": "e", "y": "0,1,0", "recursive": True, "index": False, "oracle": True}
    ]


@pytest.mark.parametrize("text", PRESETS + ("B4",))
def test_suite_b_rows_match_the_recursion_and_the_oracle_pair_by_pair(text):
    # Suite B compares whole rows, so each bit of its lifting and oracle rows
    # is checked here against the single-pair routes, on a fresh system.
    sys = build_system(text)
    elems = enumerate_elements(sys)
    cap = ORACLE_BUDGET.bit_length() - 1
    subwords = SubwordOracle(sys)
    seen = []
    for y, index, lifting, oracle in verify._order_rows(sys):
        seen.append(y)
        for x in elems:
            assert bool(lifting >> x.position & 1) is bruhat_leq_lifting(sys, x, y)
            assert bool(oracle >> x.position & 1) is subwords.leq(x, y)
            assert bool(index >> x.position & 1) is bruhat_leq(sys, x, y)
    assert seen == [y for y in elems if y.length <= cap]


@pytest.mark.parametrize("text", ["A2", "B2"])
def test_suite_b_flags_an_oracle_row_that_lost_a_matrix(text, monkeypatch):
    # Every row above the identity loses the oracle's number for the
    # identity's matrix, so each y != e fails once, at x = e.  Only the
    # walk's own calls lose it: the oracle's recursion stays whole.
    sys = build_system(text)
    e = identity(sys)

    class Lossy:
        def __init__(self, sys):
            self.oracle = SubwordOracle(sys)
            self.numbered = self.oracle.numbered

        def products(self, y):
            products = self.oracle.products(y)
            return products - ({self.oracle.numbers[e.matrix]} if y is not e else set())

    monkeypatch.setattr(verify, "SubwordOracle", Lossy)
    result = verify._suite_b(sys)
    elems = enumerate_elements(sys)
    assert (result.checked, result.failed) == (len(elems) ** 2, len(elems) - 1)
    assert result.witnesses == [
        {"x": "e", "y": word_text(sys, elems[1]), "recursive": True, "index": True,
         "oracle": False}
    ]


def test_suite_b_counts_each_pair_an_index_row_lost():
    sys = build_system("A3")  # its own system, as the test plants a fault in its index
    w0 = longest_element(sys)
    lower = dict(comparable_rows(sys))[w0]  # which builds the index
    lost = lower[7], lower[3]
    sys._below[w0.position] &= ~(1 << lost[0].position | 1 << lost[1].position)
    result = verify._suite_b(sys)
    assert (result.checked, result.failed) == (24 * 24, 2)
    assert result.witnesses == [
        {"x": word_text(sys, lost[1]), "y": "0,1,2,0,1,0", "recursive": True,
         "index": False, "oracle": True}
    ]


def test_pick_descent_on_identity_raises(system):
    for text in ["A1", "B3", "G2"]:
        sys = system(text)
        for policy in DESCENT_POLICIES:
            with pytest.raises(InvariantViolation):
                pick_descent(sys, identity(sys), policy)
        w0 = longest_element(sys)
        assert pick_descent(sys, w0, "smallest") == 0
        assert pick_descent(sys, w0, "largest") == sys.rank - 1


@pytest.mark.parametrize("command", ["rpoly", "vspace"])
def test_e7_single_pair_queries_stay_lazy(command, monkeypatch, capsys):
    def refuse(sys):
        raise AssertionError("a single-pair query enumerated the whole group")

    for module in (cli, coxeter, verify):
        monkeypatch.setattr(module, "enumerate_elements", refuse)
    x, y = "0,1,2,3,4,5,6,0,1,2,3,4", "1,2,3"
    argv = [command, "--type", "E7", "--budget", "3000000", x, y, "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    e7 = build_system("E7", budget=3_000_000)
    for asked, answered in [(x, payload["x"]), (y, payload["y"])]:
        got = element_from_word(e7, parse_word(answered))
        assert got == element_from_word(e7, parse_word(asked))
