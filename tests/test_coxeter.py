"""Group construction, word handling, and Bruhat order.

Expected values are frozen from independent sources: group orders and root
counts are classical, and every Bruhat answer is cross-checked against the
exhaustive subword oracle inside the tests themselves.
"""

from __future__ import annotations

import json

import pytest

from verma_ext import cli, coxeter, verify
from verma_ext.cli import main
from verma_ext.coxeter import (
    DEFAULT_BUDGET,
    DESCENT_POLICIES,
    TypeDescriptor,
    braid_order,
    bruhat_leq,
    bruhat_leq_oracle,
    build_cartan,
    build_system,
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
)
from verma_ext.errors import BudgetExceeded, InvalidType, InvariantViolation, ParseError, RankOverflow
from verma_ext.verify import PRESETS


# ---------------------------------------------------------------------------
# type descriptors


def test_descriptor_parse_round_trip():
    d = TypeDescriptor.parse("a1xB3xg2")
    assert str(d) == "A1xB3xG2"
    assert d.factors == (("A", 1), ("B", 3), ("G", 2))


@pytest.mark.parametrize(
    "text",
    ["", "Q9", "A0", "B1", "C2", "D3", "E5", "E9", "F5", "G3", "A2x", "A-1", "AA2"],
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
    for bad in ["x", "0,,1", "0;1", "1.5"]:
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


@pytest.mark.parametrize("text", ["A2", "B2", "A3"])
def test_bruhat_recursion_matches_subword_oracle(text, system):
    sys = system(text)
    elems = enumerate_elements(sys)
    for x in elems:
        for y in elems:
            assert bruhat_leq(sys, x, y) == bruhat_leq_oracle(sys, x, y)


def test_subword_oracle_refuses_words_past_its_budget():
    # 2**12 subwords fit ORACLE_BUDGET = 4096 and 2**13 do not; D5's
    # longest element, of length 20, is far past the cap
    d5 = build_system("D5")
    e, w0 = identity(d5), longest_element(d5)
    assert w0.length == 20
    by_length = {g.length: g for g in enumerate_elements(d5)}
    assert bruhat_leq_oracle(d5, e, by_length[12])
    for y in (by_length[13], w0):
        with pytest.raises(BudgetExceeded):
            bruhat_leq_oracle(d5, e, y)


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


@pytest.mark.parametrize("text", PRESETS + ("F4",))
def test_descent_bitmask_matches_column_signs(text, system):
    sys = system(text)
    for g in enumerate_elements(sys):
        scanned = _column_descents(g.matrix)
        assert g.descents == sum(1 << i for i in scanned)


@pytest.mark.parametrize("text", PRESETS + ("F4",))
def test_cached_reduced_word_matches_a_fresh_walk(text, system):
    sys = system(text)
    for g in enumerate_elements(sys):
        word = reduced_word(sys, g)
        assert word == _walk_word(sys, g)
        assert reduced_word(sys, g) is word
        assert element_from_word(sys, word) == g


def test_elements_of_another_system_are_interned_on_use(system):
    a3 = system("A3")
    other = build_system("A3")
    for g in enumerate_elements(other):
        own = element_from_word(a3, reduced_word(other, g))
        assert own == g
        for i in range(a3.rank):
            assert right_multiply(a3, g, i) is right_multiply(a3, own, i)


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
