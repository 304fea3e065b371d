"""R-polynomials: arithmetic, recursion values, invariants, persistence.

Small-group values are frozen from hand computation (A1, A2) and from the
closed form R = (q-1)^gap that holds whenever the pair is joined by a
maximal chain of distinct-reflection steps; the general-case safety net is
the invariant block plus the cross-recursion agreement test.
"""

from __future__ import annotations

import pytest

from verma_ext.coxeter import (
    bruhat_leq,
    element_from_word,
    enumerate_elements,
    identity,
    longest_element,
)
from verma_ext.errors import InvalidType, NotComparable, ParseError
from verma_ext.rpoly import (
    ONE,
    Q,
    Q_MINUS_ONE,
    ZERO,
    IntPolynomial,
    RTable,
    gj_coefficient,
    r_coeff_direct,
)


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


def test_polynomial_arithmetic():
    assert Q + ONE == IntPolynomial((1, 1))
    assert Q_MINUS_ONE * Q_MINUS_ONE == IntPolynomial((1, -2, 1))
    assert (Q + ONE) * (Q_MINUS_ONE) == IntPolynomial((-1, 0, 1))
    assert ZERO * Q == ZERO
    assert Q * ONE == Q


def test_polynomial_eval():
    square = Q_MINUS_ONE * Q_MINUS_ONE
    assert square.eval_at(1) == 0
    assert square.eval_at(3) == 4
    assert ZERO.eval_at(7) == 0


def test_polynomial_str():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(Q_MINUS_ONE) == "q-1"
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
    assert RTable(a1).r(identity(a1), s) == Q_MINUS_ONE


def test_a2_longest_pair_value(system):
    a2 = system("A2")
    poly = RTable(a2).r(identity(a2), longest_element(a2))
    assert poly.coeffs == (-1, 2, -2, 1)


def test_a3_reflection_pair_is_fourth_power(system):
    # the pair behind the frozen divergence below: R = (q-1)^4
    a3 = system("A3")
    x = element_from_word(a3, (0, 1, 2, 1, 0))
    y = element_from_word(a3, (1,))
    expected = Q_MINUS_ONE * Q_MINUS_ONE * Q_MINUS_ONE * Q_MINUS_ONE
    assert RTable(a3).r(y, x) == expected
    assert expected.coeffs == (1, -4, 6, -4, 1)


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


def test_policy_independence(system):
    b2 = system("B2")
    small = RTable(b2, policy="smallest")
    large = RTable(b2, policy="largest")
    elems = enumerate_elements(b2)
    for x in elems:
        for y in elems:
            assert small.r(y, x) == large.r(y, x)


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
