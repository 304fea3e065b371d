"""Frozen suite counts of whole D5 and A6 verifies.

D5 (1,920 elements, 745,377 comparable pairs) runs under both descent
policies: the counts are the same, which checks at whole-group scale that no
table depends on the descent each step strips.  A6 (5,040 elements,
3,550,919 comparable pairs) is the largest group whole-group work admits; it
runs under the default policy, so the shared descent rows, the fills and
every suite are checked at that size.  Each verify takes over ten seconds, so
this file stays out of the default collection (its name does not match
``test_*.py``) and CI runs it as a step of its own:

    PYTHONPATH=src python -m pytest -q tests/whole_group_d5.py
"""

from __future__ import annotations

import pytest

from verma_ext import verify
from verma_ext.coxeter import DESCENT_POLICIES

# (checked, failed) per suite
COUNTS = {
    "D5": {
        "T": (745_377, 81_057),
        "G": (51, 0),
        "B": (2_795_520, 0),
        "R": (3_686_400, 0),
        "S": (32, 0),
        "M": (69, 0),
    },
    "A6": {
        "T": (3_550_919, 358_251),
        "G": (70, 0),
        "B": (18_264_960, 0),
        "R": (25_401_600, 0),
        "S": (64, 0),
        "M": (96, 0),
    },
}


@pytest.mark.parametrize(
    "text, policy", [("D5", p) for p in DESCENT_POLICIES] + [("A6", DESCENT_POLICIES[0])]
)
def test_verify_counts_are_frozen(text, policy):
    payload = verify.run_verify(verify.RunConfig(text, policy=policy))
    assert {s["name"]: (s["checked"], s["failed"]) for s in payload["suites"]} == COUNTS[text]
