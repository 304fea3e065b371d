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
from sys import getrefcount

import pytest

from conftest import comparable_pairs, filled_pairs, run_layered, strict_pairs
from verma_ext import rpoly as rpoly_module
from verma_ext.coxeter import (
    bruhat_leq,
    build_system,
    comparable_rows,
    descend,
    element_from_word,
    enumerate_elements,
    identity,
    longest_element,
    slot,
)
from verma_ext.errors import (
    InvalidType,
    InvariantViolation,
    IoError,
    LiftingViolation,
    NotComparable,
    ParseError,
)
from verma_ext.rpoly import (
    ONE,
    ZERO,
    IntPolynomial,
    RTable,
    ascent_memo,
    direct_rows,
    gj_coefficient,
    r_coeff_direct,
)
from verma_ext.verify import PRESETS, _suite_r


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
    # R(1) is the sum of the coefficients
    square = IntPolynomial(_mul(Q_MINUS_ONE, Q_MINUS_ONE))
    assert sum(square.coeffs) == 0
    assert sum(ZERO.coeffs) == 0


def test_signed_coefficient_and_r_shape_are_read_off_the_polynomial():
    # gj is the q^1 coefficient times (-1)**(degree + 1); r_shaped needs
    # degree >= 1, leading 1, constant (-1)**degree, R(1) = 0 and gj >= 0
    assert (ZERO.gj, ZERO.r_shaped) == (0, False)
    assert (ONE.gj, ONE.r_shaped) == (0, False)
    power = (1,)
    for k in range(1, 5):
        power = _mul(power, Q_MINUS_ONE)
        poly = IntPolynomial(power)
        assert (poly.degree, poly.gj, poly.r_shaped) == (k, k, True), power
    well_shaped_wrong = IntPolynomial((-1, 3, -3, 1))  # R(e, w0) of A2 with gj 3, not 2
    assert (well_shaped_wrong.gj, well_shaped_wrong.r_shaped) == (3, True)
    negative = IntPolynomial((-1, -1, 1, 1))
    assert (negative.gj, negative.r_shaped) == (-1, False)
    off_at_one = IntPolynomial((-1, 1, 0, 1))
    assert sum(off_at_one.coeffs) != 0
    assert (off_at_one.gj, off_at_one.r_shaped) == (1, False)


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
                assert sum(poly.coeffs) == 0
                assert poly.r_shaped


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
    # each row also holds its diagonal; no strict pair has the identity above it
    expected = {}
    for (y, x), poly in memo.items():
        expected.setdefault(x, {x: ONE})[y] = poly
    assert table._memo == expected and not hasattr(table, "rows")


@pytest.mark.parametrize("text", PRESETS + ("B4",))
@pytest.mark.parametrize("policy", ["smallest", "largest"])
def test_row_fill_matches_a_fresh_recursion(text, policy):
    # A fresh table has nothing stored, so each query recurses down from its
    # pair; the fill reads the row of xs instead.  B4 takes a fresh table
    # per row, not per pair, to keep the test's time down.
    sys = build_system(text)
    table = RTable(sys, policy=policy)
    rows = table.fill()
    elems, pairs = enumerate_elements(sys), len(list(comparable_pairs(sys)))
    assert table.computed == pairs - len(elems) and sum(map(len, rows)) == pairs
    fresh = last = None
    for x, y, poly in filled_pairs(sys, rows):
        if text != "B4" or x is not last:
            fresh, last = RTable(sys, policy=policy), x
        assert fresh.r(y, x) == poly, (text, policy, x, y)


def test_fill_after_a_cache_load_computes_only_what_is_missing(tmp_path, system):
    a3 = system("A3")
    full = RTable(a3).fill()
    strict = [(y, x) for x, y, _ in filled_pairs(a3, full) if y is not x]  # the file's pairs
    for name, keep in (("full", strict), ("part", strict[::3])):
        path = tmp_path / f"{name}.csv"
        partial = RTable(a3)
        for y, x in keep:
            partial.r(y, x)
        partial.save_csv(path, partial.memo_pairs())
        warm = RTable(a3)
        loaded = warm.load_csv(path)
        kept = {x: dict(row) for x, row in warm._memo.items()}
        rows = warm.fill()
        assert warm.computed == len(strict) - loaded
        assert rows == full and warm._memo == {}  # the fill took the memo's entries
        assert all(rows[x.position][slot(a3, x, y)] is poly for x, row in kept.items() for y, poly in row.items())
    assert loaded < len(strict)


def test_suite_r_flags_wrong_entries_and_never_sees_stray_ones():
    sys = build_system("A2")  # its own system, as the test plants entries
    # an entry for the incomparable pair s1, s0, planted in the lazy memo before the fill
    x, y = element_from_word(sys, (0,)), element_from_word(sys, (1,))
    stray = IntPolynomial((-1, 1))
    rtable = RTable(sys)
    rtable._memo[x] = {x: ONE, y: stray}
    rows = rtable.fill()
    assert rtable.computed == 13 and rtable._memo == {}
    assert not any(poly is stray for row in rows for poly in row)
    assert rtable.r(y, x) is ZERO
    direct = direct_rows(sys)
    clean = run_layered(_suite_r, sys, None, rows, direct)
    assert (clean.checked, clean.failed) == (36, 0)
    # a wrong polynomial that keeps every term invariant but not the coefficient
    w0, e = longest_element(sys), identity(sys)
    rows[w0.position][slot(sys, w0, e)] = IntPolynomial((-1, 3, -3, 1))
    wrong = run_layered(_suite_r, sys, None, rows, direct)
    assert (wrong.checked, wrong.failed) == (36, 1)
    assert wrong.witnesses == [{"x": "0,1,0", "y": "e", "coeffs": [-1, 3, -3, 1]}]


def test_suite_r_counts_a_negative_coefficient_row_as_a_failure():
    # every other invariant holds, but the signed q-coefficient is -1
    sys = build_system("A2")  # its own system, as the test plants an entry
    rows = RTable(sys).fill()
    w0, e = longest_element(sys), identity(sys)
    rows[w0.position][slot(sys, w0, e)] = IntPolynomial((-1, -1, 1, 1))
    result = run_layered(_suite_r, sys, None, rows, direct_rows(sys))
    assert (result.checked, result.failed) == (36, 1)
    assert result.witnesses == [{"x": "0,1,0", "y": "e", "coeffs": [-1, -1, 1, 1]}]


def test_gj_coefficient_of_a_negative_coefficient_row_is_an_invariant_violation():
    sys = build_system("A2")  # its own system, as the test plants an entry
    rtable = RTable(sys)
    w0, e = longest_element(sys), identity(sys)
    rtable._memo[w0] = {e: IntPolynomial((-1, -1, 1, 1))}
    with pytest.raises(InvariantViolation, match=r"signed q-coefficient -1 < 0 at pair \(0,1,0, e\)"):
        gj_coefficient(sys, w0, e, rtable)


def test_lazy_table_holds_one_object_per_distinct_polynomial():
    # r() keeps the table's ascent memo across queries, so pairs filled one
    # query at a time share polynomials as filled rows do
    sys = build_system("B3")
    table = RTable(sys)
    for x, y in comparable_pairs(sys):
        table.r(y, x)
    values = [poly for x, row in table._memo.items() for y, poly in row.items() if y is not x]
    assert len(values) == 799
    assert len({id(poly) for poly in values}) == len({poly.coeffs for poly in values}) == 19


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


@pytest.mark.parametrize("text, policy", [(t, p) for t in PRESETS for p in ("smallest", "largest")])
def test_direct_memo_matches_a_fresh_chain_walk(text, policy, system):
    # A lone call walks its chain down to the diagonal; the whole-group
    # fill takes one step from each pair to the counted pair below it.
    sys = system(text)
    rows = direct_rows(sys, policy)
    assert all(type(row) is bytes for row in rows)
    entries = list(filled_pairs(sys, rows))
    assert len(entries) == len(list(comparable_pairs(sys)))
    for x, y, count in entries:
        assert r_coeff_direct(sys, x, y, policy) == count


def test_direct_step_off_the_order_is_a_lifting_violation(monkeypatch, system):
    # With the entry check skipped, s1 over s0 reaches the lone chain's
    # step, whose lifting check fires.
    a2 = system("A2")
    x = element_from_word(a2, (0,))
    y = element_from_word(a2, (1,))
    with monkeypatch.context() as patch:
        patch.setattr(rpoly_module, "check_below", lambda sys, y, x: None)
        with pytest.raises(LiftingViolation):
            r_coeff_direct(a2, x, y)
    # With the index rows of length 1 emptied to their diagonal, the fill's
    # first step from a row of length 2 to the identity fails the same check
    # (a lookup in the positions below xs).
    sys = build_system("A3")
    sys._below = [1 << g.position if g.length == 1 else mask
                  for (g, _), mask in zip(comparable_rows(sys), sys._below)]
    with pytest.raises(LiftingViolation, match="x="):
        direct_rows(sys)


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
    table.save_csv(path, table.memo_pairs())
    # blank and blank-looking lines are skipped
    path.write_text(path.read_text().replace("\n", "\n\n", 3) + "  \n")

    fresh = RTable(a2)
    loaded = fresh.load_csv(path)
    # no row's diagonal is in the file
    assert loaded == sum(len(row) - 1 for row in table._memo.values()) > 0
    assert fresh.computed == 0
    assert fresh._memo == table._memo
    # a warm table answers without recomputing anything
    _fill(fresh, a2)
    assert fresh.computed == 0


A2_CACHE = """\
# r-polynomial cache
# system: A2-e036c5aaa6cc
# policy: smallest
e;0;-1,1
e;1;-1,1
e;1,0;1,-2,1
0;1,0;-1,1
1;1,0;-1,1
e;0,1;1,-2,1
0;0,1;-1,1
1;0,1;-1,1
e;0,1,0;-1,2,-2,1
0;0,1,0;1,-2,1
1;0,1,0;1,-2,1
1,0;0,1,0;-1,1
0,1;0,1,0;-1,1
"""


def test_cache_rows_are_sorted_by_x_then_y(tmp_path):
    # Filled longest x first, so the file's order is the sort's, not the fill's.
    a2 = build_system("A2")
    table = RTable(a2)
    elems = enumerate_elements(a2)
    for x in reversed(elems):
        for y in reversed(elems):
            table.r(y, x)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path, table.memo_pairs())
    assert path.read_text() == A2_CACHE


def test_cache_rejects_wrong_system(tmp_path, system):
    a2 = system("A2")
    table = RTable(a2)
    _fill(table, a2)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path, table.memo_pairs())
    with pytest.raises(ParseError):
        RTable(system("B2")).load_csv(path)


def test_cache_rejects_corrupt_coefficients(tmp_path, system):
    a2 = system("A2")
    table = RTable(a2)
    _fill(table, a2)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path, table.memo_pairs())
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
    table.save_csv(path, table.memo_pairs())
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
    table.save_csv(path, table.memo_pairs())
    calls = Counter()
    build = rpoly_module.element_from_word

    def counted(sys, word):
        calls[word] += 1
        return build(sys, word)

    monkeypatch.setattr(rpoly_module, "element_from_word", counted)
    fresh = RTable(a3)
    loaded = fresh.load_csv(path)
    assert loaded == sum(len(row) - 1 for row in table._memo.values()) > len(enumerate_elements(a3))
    assert fresh._memo == table._memo
    assert set(calls.values()) == {1}


def test_cache_coefficient_list_is_checked_at_each_gap(tmp_path, system):
    # 1,-2,1 is (q-1)^2: right for the gap-2 pair (e, 1,0), wrong for the gap-3 pair (e, 0,1,0)
    lines = A2_CACHE.replace("e;0,1,0;-1,2,-2,1", "e;0,1,0;1,-2,1").splitlines()
    assert lines.index("e;1,0;1,-2,1") < lines.index("e;0,1,0;1,-2,1")
    path = tmp_path / "rpoly.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        RTable(system("A2")).load_csv(path)
    lineno = lines.index("e;0,1,0;1,-2,1") + 1
    assert str(info.value) == f"{path}:{lineno}: row violates degree or term invariants for gap 3"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("# system: A2-e036c5aaa6cc", "# system: B2-000000000000",
         "cache was built for B2-000000000000, this system is A2-e036c5aaa6cc"),
        (None, "e;0", "expected 3 fields, got 2"),
        (None, "0,x;0,1,0;-1,1", "bad word letter 'x' in '0,x'"),
        (None, "e;2;-1,1", "word letter 2 outside 0..1"),
        (None, "1;0;-1,1", "1 is not strictly below 0"),
        (None, "0;0;-1,1", "0 is not strictly below 0"),
        (None, "e;0;-1,one", "bad coefficient list"),
        (None, "e;0;-1,+1", "bad coefficient list"),
        (None, "e;0;-1,١", "bad coefficient list"),
        (None, "e;0;-1,2", "row violates degree or term invariants for gap 1"),
        (None, "e;1,0;1,-3,1", "row has R(1) != 0 or a negative signed q-coefficient"),
        (None, "e;0,1,0;-1,-1,1,1", "row has R(1) != 0 or a negative signed q-coefficient"),
    ],
    ids=["system", "fields", "letter", "range", "not-below", "diagonal", "coefficients",
         "plus-sign", "non-ascii-digit", "degree", "r-at-1", "gj"],
)
def test_each_bad_cache_row_names_its_line(tmp_path, system, old, new, message):
    lines = A2_CACHE.splitlines()
    if old is None:
        lines.append(new)
    else:
        lines[lines.index(old)] = new
    path = tmp_path / "rpoly.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        RTable(system("A2")).load_csv(path)
    assert str(info.value) == f"{path}:{lines.index(new) + 1}: {message}"


@pytest.mark.parametrize("text", ["A3", "B3", "D4"])
@pytest.mark.parametrize("policy", ["smallest", "largest"])
def test_cache_file_is_the_same_from_filled_rows_and_from_the_lazy_memo(tmp_path, text, policy):
    # Filled rows are written zipped with the index rows, a lazy table's
    # sparse memo by its sort, and a warm fill takes the memo it loaded: one
    # file, byte for byte.
    sys = build_system(text)
    filled, lazy = RTable(sys, policy=policy), RTable(sys, policy=policy)
    rows = filled.fill()
    for x, y in comparable_pairs(sys):
        lazy.r(y, x)
    filled.save_csv(tmp_path / "filled.csv", strict_pairs(sys, rows))
    lazy.save_csv(tmp_path / "lazy.csv", lazy.memo_pairs())
    warm = RTable(sys, policy=policy)
    warm.load_csv(tmp_path / "filled.csv")
    warm_rows = warm.fill()
    assert warm.computed == 0
    warm.save_csv(tmp_path / "warm.csv", strict_pairs(sys, warm_rows))
    data = (tmp_path / "filled.csv").read_bytes()
    assert data.count(b"\n") == 3 + len(list(comparable_pairs(sys))) - len(enumerate_elements(sys))
    assert (tmp_path / "lazy.csv").read_bytes() == data
    assert (tmp_path / "warm.csv").read_bytes() == data


def test_lazy_queries_match_the_fill_across_fills_and_reloads(tmp_path):
    # r() keeps its ascent memo across a fill that lets the loaded entries
    # go.  The memo keys on ids and holds its inputs, so no new polynomial
    # can take the id of one it keys on and read a stale result.
    ascent, a = ascent_memo(), IntPolynomial((-1, 1))
    refs = getrefcount(a)
    assert ascent(a, ONE).coeffs == (1, -1, 1)
    assert getrefcount(a) == refs + 1  # the memo's own reference
    sys = build_system("B3")
    full = RTable(sys).fill()
    path = tmp_path / "rpoly.csv"
    RTable(sys).save_csv(path, strict_pairs(sys, full))
    table = RTable(sys)
    for _ in range(3):
        table.load_csv(path)
        for x in list(table._memo)[::2]:
            del table._memo[x]  # so the lazy path steps from loaded entries
        assert all(table.r(y, x) == poly for x, y, poly in filled_pairs(sys, full))
        assert table.fill() == full


def test_warm_load_keeps_one_polynomial_per_coefficient_list(tmp_path):
    d4 = build_system("D4")
    table = RTable(d4)
    rows = table.fill()
    path = tmp_path / "rpoly.csv"
    table.save_csv(path, strict_pairs(d4, rows))
    warm = RTable(d4)
    assert warm.load_csv(path) == sum(len(row) - 1 for row in rows)
    polys = [p for row in warm._memo.values() for p in row.values()]
    assert len({id(p) for p in polys}) == len({p.coeffs for p in polys}) < len(polys) // 100


@pytest.mark.parametrize(
    "type_text, tail",
    [("A2", b"\xff"), ("A2", b"e;0;-1,1\xe2\x82\ne;1;-1,1\n"), ("D4", b"\xff")],
    ids=["byte", "cut-char", "past-the-first-block"],
)
def test_non_utf8_byte_after_valid_rows_names_its_file_offset(tmp_path, type_text, tail):
    sys = build_system(type_text)
    table = RTable(sys)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path, strict_pairs(sys, table.fill()))
    data = path.read_bytes() + tail
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    with pytest.raises(ParseError) as info:
        RTable(sys).load_csv(path)
    # the position counts from the start of the file, as a decode of all of it says
    assert str(info.value) == f"{path}: not UTF-8 text: {whole.value}"


def test_failed_cache_write_keeps_the_old_file(tmp_path, system, request):
    a2 = system("A2")
    path = tmp_path / "rpoly.csv"
    small = RTable(a2)
    small.r(identity(a2), element_from_word(a2, (0,)))
    small.save_csv(path, small.memo_pairs())
    before = path.read_bytes()
    full = RTable(a2)
    _fill(full, a2)
    request.getfixturevalue("torn_writes")  # from here on, every write tears halfway
    with pytest.raises(IoError, match=f"cannot write {path}: "):
        full.save_csv(path, full.memo_pairs())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rpoly.csv"]


def test_cache_file_shape(tmp_path, system):
    a2 = system("A2")
    table = RTable(a2)
    _fill(table, a2)
    path = tmp_path / "rpoly.csv"
    table.save_csv(path, table.memo_pairs())
    lines = path.read_text().splitlines()
    assert lines[0] == "# r-polynomial cache"
    assert lines[1].startswith("# system: A2-")
    assert lines[2] == "# policy: smallest"
    assert "e;0,1,0;-1,2,-2,1" in lines
