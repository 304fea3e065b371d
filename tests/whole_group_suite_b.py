"""Frozen suite B counts of B5 (3,840 elements) and A6 (5,040), with suite B run alone.

Suite B compares the index row of every y whose subwords fit the oracle's
budget with the lifting and subword rows that ``coxeter.order_rows`` gives
for y, by position, so it checks |W| pairs per such y.  The
two groups build their index first and then run the suite by itself, which
takes about ten seconds, so this file stays out of the default collection
(its name does not match ``test_*.py``) and CI runs it as a step of its own:

    PYTHONPATH=src python -m pytest -q tests/whole_group_suite_b.py
"""

from __future__ import annotations

import pytest

from verma_ext import verify
from verma_ext.coxeter import bruhat_index, build_system

# (checked, failed)
SUITE_B_COUNTS = {
    "B5": (7_372_800, 0),
    "A6": (18_264_960, 0),
}


@pytest.mark.parametrize("text", sorted(SUITE_B_COUNTS))
def test_suite_b_counts_are_frozen(text):
    sys = build_system(text)
    bruhat_index(sys)  # as a verify pass builds it before its suites
    result = verify._suite_b(sys)
    assert (result.checked, result.failed) == SUITE_B_COUNTS[text]
    assert result.as_dict()["witnesses"] == []
