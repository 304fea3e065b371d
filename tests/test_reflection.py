"""Exact rational linear algebra and the reflection action.

``reference_rref`` is the reduced row echelon form over ``Fraction``, the
route the integer echelon kernel replaced; it stays here as the reference
that kernel is compared against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from verma_ext.coxeter import (
    build_system,
    element_from_word,
    identity,
)
from verma_ext.errors import IndexOutOfRange, RankMismatch
from verma_ext.reflection import (
    RationalSubspace,
    apply_element,
    basis_vector,
    coroot_pairing,
    reflect,
    vector,
)


@pytest.fixture(scope="module")
def a2():
    return build_system("A2")


@pytest.fixture(scope="module")
def b2():
    return build_system("B2")


# ---------------------------------------------------------------------------
# vectors and the action


def test_vector_coerces_to_fractions():
    v = vector([1, Fraction(1, 2), "2/3"])
    assert all(isinstance(c, Fraction) for c in v)
    assert v == (Fraction(1), Fraction(1, 2), Fraction(2, 3))


def test_basis_vector_bounds(a2):
    assert basis_vector(a2, 0) == (1, 0)
    assert basis_vector(a2, 1) == (0, 1)
    with pytest.raises(IndexOutOfRange):
        basis_vector(a2, 2)


def test_pairing_of_simple_coroot_with_own_root(a2, b2):
    for sys in (a2, b2):
        for i in range(sys.rank):
            assert coroot_pairing(sys, i, basis_vector(sys, i)) == 2


def test_reflect_negates_own_basis_vector(a2):
    for i in range(2):
        e_i = basis_vector(a2, i)
        assert reflect(a2, i, e_i) == vector([-c for c in e_i])


def test_reflect_matches_cartan_column(a2, b2):
    # s_i sends e_j to e_j - a(i, j) e_i
    assert reflect(a2, 0, basis_vector(a2, 1)) == vector([1, 1])
    assert reflect(b2, 1, basis_vector(b2, 0)) == vector([1, 2])
    assert reflect(b2, 0, basis_vector(b2, 1)) == vector([1, 1])


def test_reflections_are_involutions_on_rational_input(b2):
    v = vector([Fraction(3, 7), Fraction(-5, 2)])
    for i in range(2):
        assert reflect(b2, i, reflect(b2, i, v)) == v


def test_apply_element_agrees_with_iterated_reflections(a2):
    g = element_from_word(a2, (0, 1, 0))
    v = vector([Fraction(2, 3), -1])
    by_matrix = apply_element(a2, g, v)
    # the matrix acts on coordinates; composing generator reflections
    # right-to-left along the word gives the same map
    by_steps = reflect(a2, 0, reflect(a2, 1, reflect(a2, 0, v)))
    assert by_matrix == by_steps


def test_apply_identity_is_identity(a2):
    v = vector([5, Fraction(1, 3)])
    assert apply_element(a2, identity(a2), v) == v


# ---------------------------------------------------------------------------
# subspaces


def test_rref_is_canonical(a2):
    s1 = RationalSubspace(2, [vector([1, 1]), vector([0, 1])])
    s2 = RationalSubspace(2, [vector([0, 3]), vector([2, 0])])
    full = RationalSubspace(2, [basis_vector(a2, 0), basis_vector(a2, 1)])
    assert s1 == s2 == full
    assert hash(s1) == hash(s2)


def test_dependent_rows_collapse():
    s = RationalSubspace(3, [vector([1, 2, 3]), vector([2, 4, 6])])
    assert s.dim == 1
    assert s.rows == (vector([1, 2, 3]),)


def test_contains():
    s = RationalSubspace(3, [vector([1, 0, 1]), vector([0, 1, 1])])
    assert s.contains(vector([1, 1, 2]))
    assert s.contains(vector([0, 0, 0]))
    assert not s.contains(vector([0, 0, 1]))
    with pytest.raises(RankMismatch):
        s.contains(vector([1, 0]))


def test_zero_and_full(a2):
    assert RationalSubspace(3).dim == 0
    assert RationalSubspace(a2.rank).dim == 0
    assert RationalSubspace(a2.rank).ncols == 2
    assert RationalSubspace(2, [basis_vector(a2, 0), basis_vector(a2, 1)]).dim == 2


def test_root_set_with_a_non_integer_echelon_form():
    # G2's highest root (3, 2) spans the line whose reduced row is (1, 2/3)
    g2 = build_system("G2")
    assert (3, 2) in g2.positive_roots
    line = RationalSubspace(2, [(3, 2)])
    assert line.basis == ((3, 2),)
    assert line.rows == ((1, Fraction(2, 3)),)
    assert line == RationalSubspace(2, [(-6, -4)]) == RationalSubspace(2, [vector([1, "2/3"])])


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction reference


def reference_rref(rows, ncols):
    """Reduced row echelon form over the rationals: the nonzero rows, pivots left to right."""
    mat = [list(vector(row)) for row in rows]
    pivot_rows = []
    col = 0
    while mat and col < ncols:
        pivot_idx = next((k for k, row in enumerate(mat) if row[col] != 0), None)
        if pivot_idx is None:
            col += 1
            continue
        row = mat.pop(pivot_idx)
        inv = 1 / row[col]
        row = [entry * inv for entry in row]
        for other in mat + pivot_rows:
            factor = other[col]
            if factor:
                for j in range(col, ncols):
                    other[j] -= factor * row[j]
        pivot_rows.append(row)
        col += 1
    return tuple(tuple(row) for row in pivot_rows)


def reference_contains(rref, v):
    residual = list(vector(v))
    for row in rref:
        pivot = next(j for j, entry in enumerate(row) if entry != 0)
        factor = residual[pivot]
        if factor:
            residual = [r - factor * e for r, e in zip(residual, row)]
    return not any(residual)


def row_sets(seed):
    """Seeded row sets: small and wide integers, zero, duplicate and negated
    rows, rational entries, and subsets of the G2, B2 and C3 root sets."""
    rng = random.Random(seed)
    sets = []
    for text in ("G2", "B2", "C3"):
        roots = build_system(text).positive_roots
        sets.extend(list(combo) for k in (1, 2, 3) for combo in itertools.combinations(roots, k))
    for _ in range(300):
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
        if rows and rng.random() < 0.5:
            rows.append(list(rng.choice(rows)))
        if rows and rng.random() < 0.5:
            rows.append([-v for v in rng.choice(rows)])
        if rng.random() < 0.3:
            rows.append([0] * ncols)
        if rng.random() < 0.2:
            rows.append([rng.randint(-10**12, 10**12) for _ in range(ncols)])
        if rows and rng.random() < 0.4:
            rows = [[Fraction(v, rng.randint(1, 6)) for v in row] for row in rows]
        rng.shuffle(rows)
        sets.append(rows)
    return sets


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integer_kernel_matches_the_fraction_reference(seed):
    rng = random.Random(seed)
    spaces = {}
    for rows in row_sets(seed):
        ncols = len(rows[0]) if rows else rng.randint(1, 5)
        space = RationalSubspace(ncols, rows)
        want = reference_rref(rows, ncols)
        assert space.rows == want, rows
        assert space.dim == len(want)
        # the same span from other rows: scaled, negated, reordered
        other = [[c * v for v in row] for row in reversed(rows) for c in [rng.choice((-3, -1, 2))]]
        twin = RationalSubspace(ncols, other + [[0] * ncols])
        assert twin == space and hash(twin) == hash(space)
        # equality is equality of the reference forms
        for seen_want, seen in spaces.get(ncols, ()):
            assert (seen == space) is (seen_want == want)
        spaces.setdefault(ncols, []).append((want, space))
        coeffs = [rng.randint(-2, 2) for _ in rows]
        inside = [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*rows)] or [0] * ncols
        assert space.contains(inside) and space.contains([Fraction(v, 7) for v in inside])
        for _ in range(3):
            probe = [rng.randint(-2, 2) for _ in range(ncols)]
            assert space.contains(probe) is reference_contains(want, probe), (rows, probe)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    s = RationalSubspace(2, [vector([1, Fraction(1, 2)])])
    blob = s.to_json_dict()
    assert blob == {"dim": 1, "basis": [["1", "1/2"]]}
