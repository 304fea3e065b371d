"""The edge-root route, the "how far" decomposition, the inverse identities and Dyer's R on every pair of F4.

On each pair y <= x, V(x, y) is the span of the Bruhat-graph edge roots
{beta : y < y s_beta <= x}, and dim V <= gj <= l(x) - l(y) <= #edges, so
the distance gj - dim V splits into (#edges - rank of the edge roots) -
(#edges - gj).  Every pair also keeps R(y, x) = R(y⁻¹, x⁻¹) and
V(x⁻¹, y⁻¹) = y V(x, y), read through the inverse pair's descent chain,
and R(y, x) is Dyer's sum over the increasing paths from y to x in a
reflection order, which reads no recursion.  One ``walk`` with
``v_fill``, and one with ``RTable.row_fill``, give the rows (conftest's
``table_rows``).
F4 has 395,657 strict pairs and the tests take about fifteen seconds, so this
file stays out of the default collection (its name does not match
``test_*.py``) and CI runs it as a step of its own:

    PYTHONPATH=src python -m pytest -q tests/whole_group_f4_edges.py
"""

from __future__ import annotations

import pytest

from conftest import table_rows
from test_vtable import dyer_breaks, edge_root_decomposition, inverse_pair_breaks, reflection_order, split, two_terms

from verma_ext.coxeter import build_system
from verma_ext.rpoly import RTable
from verma_ext.vtable import v_fill

# divergent pairs (gj != dim V) by (gj - dim V, #edges - gj)
F4_HISTOGRAM = {
    **dict(zip([(1, k) for k in range(10)],
               [9_012, 9_254, 8_848, 7_708, 5_676, 3_430, 1_612, 568, 140, 16])),
    **dict(zip([(2, k) for k in range(6)], [1_008, 976, 604, 240, 58, 2])),
    (3, 0): 8,
}


@pytest.fixture(scope="module")
def f4():
    """The F4 system and its V rows, filled once for both tests."""
    sys = build_system("F4")
    return sys, table_rows(sys, v_fill(sys))


@pytest.fixture(scope="module")
def f4_rrows(f4):
    """The R rows of the F4 system, filled once for the tests that read them."""
    sys, _ = f4
    return table_rows(sys, RTable(sys).row_fill())


def test_f4_v_is_spanned_by_edge_roots_and_the_divergence_splits(f4):
    divergent = split(edge_root_decomposition(*f4), two_terms)
    assert sum(divergent.values()) == 49_160
    assert divergent == F4_HISTOGRAM


def test_f4_r_and_v_keep_the_inverse_identities(f4, f4_rrows):
    sys, vrows = f4
    breaks, involutions = inverse_pair_breaks(sys, vrows, f4_rrows)
    assert breaks == []
    assert (involutions, sum(map(len, vrows))) == (6_873, 396_809)


def test_f4_r_is_dyers_sum_over_increasing_paths(f4, f4_rrows):
    sys, _ = f4
    assert dyer_breaks(sys, f4_rrows, reflection_order(sys)) == []
