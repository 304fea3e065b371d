"""The edge-root route and the "how far" decomposition on every strict pair of F4.

On each pair y <= x, V(x, y) is the span of the Bruhat-graph edge roots
{beta : y < y s_beta <= x}, and dim V <= gj <= l(x) - l(y) <= #edges, so
the distance gj - dim V splits into (#edges - rank of the edge roots) -
(#edges - gj).  ``compute_all`` gives the V rows.
F4 has 395,657 strict pairs and the walk takes about ten seconds, so this
file stays out of the default collection (its name does not match
``test_*.py``) and CI runs it as a step of its own:

    PYTHONPATH=src python -m pytest -q tests/whole_group_f4_edges.py
"""

from __future__ import annotations

from test_vtable import edge_root_decomposition

from verma_ext.coxeter import build_system
from verma_ext.vtable import compute_all

# divergent pairs (gj != dim V) by (gj - dim V, #edges - gj)
F4_HISTOGRAM = {
    **dict(zip([(1, k) for k in range(10)],
               [9_012, 9_254, 8_848, 7_708, 5_676, 3_430, 1_612, 568, 140, 16])),
    **dict(zip([(2, k) for k in range(6)], [1_008, 976, 604, 240, 58, 2])),
    (3, 0): 8,
}


def test_f4_v_is_spanned_by_edge_roots_and_the_divergence_splits():
    sys = build_system("F4")
    divergent = edge_root_decomposition(sys, compute_all(sys))
    assert sum(divergent.values()) == 49_160
    assert divergent == F4_HISTOGRAM
