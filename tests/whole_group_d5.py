"""Frozen suite counts of a whole D5 verify (1,920 elements, 745,377 comparable pairs).

The counts are the same under both descent policies, which checks at
whole-group scale that no table depends on the descent each step strips.
A whole D5 verify takes over ten seconds, so this file stays out of the
default collection (its name does not match ``test_*.py``) and CI runs it
as a step of its own:

    PYTHONPATH=src python -m pytest -q tests/whole_group_d5.py
"""

from __future__ import annotations

import pytest

from verma_ext import verify
from verma_ext.coxeter import DESCENT_POLICIES

# (checked, failed) per suite
D5_COUNTS = {
    "T": (745_377, 81_057),
    "G": (51, 0),
    "B": (2_795_520, 0),
    "R": (3_686_400, 0),
    "S": (32, 0),
    "M": (69, 0),
}


@pytest.mark.parametrize("policy", DESCENT_POLICIES)
def test_verify_d5_counts_are_frozen(policy):
    payload = verify.run_verify(verify.RunConfig("D5", policy=policy))
    assert {s["name"]: (s["checked"], s["failed"]) for s in payload["suites"]} == D5_COUNTS
