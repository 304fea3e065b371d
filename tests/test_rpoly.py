"""R-polynomials: arithmetic, recursion values, invariants, persistence.

Small-group values are frozen from hand computation (A1, A2) and from the
closed form R = (q-1)^gap that holds whenever the pair is joined by a
maximal chain of distinct-reflection steps; the general-case safety net is
the invariant block plus the cross-recursion agreement test.
``polynomial_r`` takes the ascent step as (q-1) R(y, xs) + q R(ys, xs) in
coefficient-tuple arithmetic kept in this file, a second route to every
table entry.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from verma_ext import rpoly as rpoly_module
from verma_ext.coxeter import (
    bruhat_leq,
    build_system,
    comparable_pairs,
    descend,
    element_from_word,
    enumerate_elements,
    identity,
    longest_element,
)
from verma_ext.errors import InvalidType, IoError, LiftingViolation, NotComparable, ParseError
from verma_ext.rpoly import (
    ONE,
    ZERO,
    IntPolynomial,
    RTable,
    gj_coefficient,
    r_coeff_direct,
)
from verma_ext.verify import PRESETS, RunConfig, _suite_r, _suite_t
from verma_ext.vtable import compute_all


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_polynomial_trims_and_measures():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert ZERO.degree == -1
    assert ZERO.coeffs == ()
    assert ONE.coeffs == (1,)


def test_polynomial_coeff_out_of_range_is_zero():
    p = IntPolynomial((3, 4))
    assert p.coeff(0) == 3
    assert p.coeff(5) == 0


def _add(a, b):
    """Sum of two coefficient tuples (ascending in q)."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(u + v for u, v in zip(a, b + (0,) * (len(a) - len(b))))


def _mul(a, b):
    """Product of two coefficient tuples (ascending in q)."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return tuple(out)


Q = (0, 1)
Q_MINUS_ONE = (-1, 1)


def test_polynomial_eval():
    square = IntPolynomial(_mul(Q_MINUS_ONE, Q_MINUS_ONE))
    assert square.eval_at(1) == 0
    assert square.eval_at(3) == 4
    assert ZERO.eval_at(7) == 0


def test_polynomial_str():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(IntPolynomial(Q)) == "q"
    assert str(IntPolynomial(Q_MINUS_ONE)) == "q-1"
    assert str(IntPolynomial((-1, 2, -2, 1))) == "q^3-2q^2+2q-1"


# ---------------------------------------------------------------------------
# recursion values


def test_r_of_equal_elements_is_one(system):
    a2 = system("A2")
    for g in enumerate_elements(a2):
        assert RTable(a2).r(g, g) == ONE


def test_r_of_incomparable_pair_is_zero(system):
    b2 = system("B2")
    x = element_from_word(b2, (0, 1, 0))
    y = element_from_word(b2, (1, 0, 1))
    assert RTable(b2).r(x, y) == ZERO
    assert RTable(b2).r(y, x) == ZERO


def test_a1_value():
    from verma_ext.coxeter import build_system

    a1 = build_system("A1")
    s = element_from_word(a1, (0,))
    assert RTable(a1).r(identity(a1), s) == IntPolynomial(Q_MINUS_ONE)


def test_a2_longest_pair_value(system):
    a2 = system("A2")
    poly = RTable(a2).r(identity(a2), longest_element(a2))
    assert poly.coeffs == (-1, 2, -2, 1)


def test_a3_reflection_pair_is_fourth_power(system):
    # the pair behind the frozen divergence below: R = (q-1)^4
    a3 = system("A3")
    x = element_from_word(a3, (0, 1, 2, 1, 0))
    y = element_from_word(a3, (1,))
    expected = _mul(_mul(Q_MINUS_ONE, Q_MINUS_ONE), _mul(Q_MINUS_ONE, Q_MINUS_ONE))
    assert expected == (1, -4, 6, -4, 1)
    assert RTable(a3).r(y, x) == IntPolynomial(expected)


@pytest.mark.parametrize("text", ["A2", "B2", "G2"])
def test_invariants_on_all_pairs(text, system, rtable):
    sys = system(text)
    table = rtable(text)
    elems = enumerate_elements(sys)
    for x in elems:
        for y in elems:
            poly = table.r(y, x)
            if not bruhat_leq(sys, y, x):
                assert poly == ZERO
                continue
            gap = x.length - y.length
            assert poly.degree == gap
            assert poly.coeff(gap) == 1
            assert poly.coeff(0) == (-1) ** gap
            if gap > 0:
                assert poly.eval_at(1) == 0


def test_policy_independence(system, rtable):
    for text in PRESETS:
        sys = system(text)
        small = rtable(text)
        large = RTable(sys, policy="largest")
        elems = enumerate_elements(sys)
        for x in elems:
            for y in elems:
                assert small.r(y, x) == large.r(y, x), (text, x, y)


def polynomial_r(sys, y, x, memo):
    """R(y, x) by the recursion with the ascent step in polynomial arithmetic."""
    if y == x:
        return ONE
    if not bruhat_leq(sys, y, x):
        return ZERO
    key = (y, x)
    if key not in memo:
        _, xs, ys, down = descend(sys, x, y, "smallest")
        if down:
            memo[key] = polynomial_r(sys, ys, xs, memo)
        else:
            a = polynomial_r(sys, y, xs, memo).coeffs
            b = polynomial_r(sys, ys, xs, memo).coeffs
            memo[key] = IntPolynomial(_add(_mul(Q_MINUS_ONE, a), _mul(Q, b)))
    return memo[key]


@pytest.mark.parametrize("text", ["A3", "B3"])
def test_ascent_step_matches_polynomial_arithmetic(text, system):
    sys = system(text)
    table = RTable(sys)
    memo = {}
    for x, y in comparable_pairs(sys):
        assert table.r(y, x) == polynomial_r(sys, y, x, memo)
    assert table.entries == memo


def test_bad_policy_rejected(system):
    with pytest.raises(InvalidType):
        RTable(system("A2"), policy="middle")


# ---------------------------------------------------------------------------
# the two coefficient routes


def test_gj_coefficient_frozen_values(system):
    a2 = system("A2")
    w0 = longest_element(a2)
    e = identity(a2)
    table = RTable(a2)
    assert gj_coefficient(a2, w0, e, table) == 2
    assert gj_coefficient(a2, w0, w0, table) == 0
    s0 = element_from_word(a2, (0,))
    assert gj_coefficient(a2, s0, e, table) == 1


def test_gj_coefficient_requires_comparability(system):
    b2 = system("B2")
    x = element_from_word(b2, (0, 1, 0))
    y = element_from_word(b2, (1, 0, 1))
    with pytest.raises(NotComparable):
        gj_coefficient(b2, x, y, RTable(b2))
    with pytest.raises(NotComparable):
        r_coeff_direct(b2, x, y)


@pytest.mark.parametrize("text", ["A2", "B2", "G2", "A1xA2"])
def test_coefficient_routes_agree(text, system, rtable):
    sys = system(text)
    table = rtable(text)
    elems = enumerate_elements(sys)
    for x in elems:
        for y in elems:
            if bruhat_leq(sys, y, x):
                assert gj_coefficient(sys, x, y, table) == r_coeff_direct(sys, x, y)


def _direct_pass(sys, table):
    """The direct-route memo a whole-group verify leaves after suites T and R."""
    config = RunConfig(str(sys.descriptor), policy=table.policy)
    memo = {}
    _suite_t(sys, table, compute_all(sys, policy=table.policy), config, memo)
    _suite_r(sys, table, None, config, memo)
    return memo


@pytest.mark.parametrize(
    "text, policy",
    [(t, p) for t in PRESETS for p in ("smallest", "largest") if (t, p) != ("D4", "largest")],
)
def test_direct_memo_matches_a_fresh_chain_walk(text, policy, system):
    # A lone call has no memo, so it walks its chain down to the diagonal;
    # the pass stops each chain at the first pair it already counted.
    sys = system(text)
    memo = _direct_pass(sys, RTable(sys, policy=policy))
    assert len(memo) == len(comparable_pairs(sys))
    for (x, y), count in memo.items():
        assert r_coeff_direct(sys, x, y, policy) == count


def test_direct_pass_takes_one_descent_step_per_pair(monkeypatch):
    # In length order every off-diagonal pair is one step above a counted
    # pair, so the pass takes exactly one step from each.
    sys = build_system("B3")
    steps = []

    def counted(sys, x, y, policy):
        steps.append((x, y))
        return descend(sys, x, y, policy)

    table = RTable(sys)
    _fill(table, sys)  # first, because the R recursion takes rpoly's descend too
    monkeypatch.setattr(rpoly_module, "descend", counted)
    _direct_pass(sys, table)
    off_diagonal = [(x, y) for x, y in comparable_pairs(sys) if x != y]
    assert len(off_diagonal) == 799
    assert steps == off_diagonal


def test_direct_step_off_the_order_is_a_lifting_violation(monkeypatch, system):
    # With the entry check skipped, s1 over s0 reaches the step, whose
    # lifting check fires with or without a memo.
    a2 = system("A2")
    x = element_from_word(a2, (0,))
    y = element_from_word(a2, (1,))
    monkeypatch.setattr(rpoly_module, "check_below", lambda sys, y, x: None)
    with pytest.raises(LiftingViolation):
        r_coeff_direct(a2, x, y)
    with pytest.raises(LiftingViolation):
        r_coeff_direct(a2, x, y, memo={(identity(a2), identity(a2)): 0})


# ---------------------------------------------------------------------------
# persistence


def _fill(table, sys):
    elems = enumerate_elements(sys)
    for x in elems:
        for y in elems:
            table.r(y, x)


def test_cache_round_trip(tmp_path, system):
    a2 = system("A2")
    table = RTable(a2)
    _fill(table, a2)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path)

    fresh = RTable(a2)
    loaded = fresh.load_csv(path)
    assert loaded == len(table.entries) > 0
    assert fresh.computed == 0
    assert fresh.entries == table.entries
    # a warm table answers without recomputing anything
    _fill(fresh, a2)
    assert fresh.computed == 0


def test_cache_rejects_wrong_system(tmp_path, system):
    a2 = system("A2")
    table = RTable(a2)
    _fill(table, a2)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path)
    with pytest.raises(ParseError):
        RTable(system("B2")).load_csv(path)


def test_cache_rejects_corrupt_coefficients(tmp_path, system):
    a2 = system("A2")
    table = RTable(a2)
    _fill(table, a2)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path)
    text = path.read_text()
    # break one row's leading coefficient: invariants must catch it
    bad = text.replace("e;0,1,0;-1,2,-2,1", "e;0,1,0;-1,2,-2,2")
    assert bad != text
    path.write_text(bad)
    with pytest.raises(ParseError):
        RTable(a2).load_csv(path)


@pytest.mark.parametrize("row", ["0;1;1", "1;1;1"])
def test_cache_rejects_pairs_not_below(tmp_path, system, row):
    # both rows pass the gap-0 degree and term checks: s1 and s0 have the
    # same length but are not comparable, and diagonal pairs are never stored
    b2 = system("B2")
    table = RTable(b2)
    _fill(table, b2)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path)
    lines = path.read_text().splitlines() + [row]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        RTable(b2).load_csv(path)
    assert str(info.value).startswith(f"{path}:{len(lines)}: ")


def test_cache_load_builds_each_word_once(tmp_path, system, monkeypatch):
    a3 = system("A3")
    table = RTable(a3)
    _fill(table, a3)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path)
    calls = Counter()
    build = rpoly_module.element_from_word

    def counted(sys, word):
        calls[word] += 1
        return build(sys, word)

    monkeypatch.setattr(rpoly_module, "element_from_word", counted)
    fresh = RTable(a3)
    assert fresh.load_csv(path) == len(table.entries) > len(enumerate_elements(a3))
    assert fresh.entries == table.entries
    assert set(calls.values()) == {1}


def test_failed_cache_write_keeps_the_old_file(tmp_path, system, monkeypatch):
    a2 = system("A2")
    path = tmp_path / "rpoly.csv"
    small = RTable(a2)
    small.r(identity(a2), element_from_word(a2, (0,)))
    small.save_csv(path)
    before = path.read_bytes()
    full = RTable(a2)
    _fill(full, a2)
    write_text = Path.write_text

    def torn(target, data, *args, **kwargs):
        write_text(target, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", torn)
    with pytest.raises(IoError, match=f"cannot write {path}: "):
        full.save_csv(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rpoly.csv"]


def test_cache_file_shape(tmp_path, system):
    a2 = system("A2")
    table = RTable(a2)
    _fill(table, a2)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# r-polynomial cache"
    assert lines[1].startswith("# system: A2-")
    assert lines[2] == "# policy: smallest"
    assert "e;0,1,0;-1,2,-2,1" in lines
