"""Exact rational linear algebra and the reflection action."""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    s = RationalSubspace(2, [vector([1, Fraction(1, 2)])])
    blob = s.to_json_dict()
    assert blob == {"dim": 1, "basis": [["1", "1/2"]]}
