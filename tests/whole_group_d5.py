"""Frozen suite counts of whole D5 and A6 verifies, and A6's peak memory.

D5 (1,920 elements, 745,377 comparable pairs) runs under both descent
policies: the counts are the same, which checks at whole-group scale that no
table depends on the descent each step strips.  A6 (5,040 elements,
3,550,919 comparable pairs) is the largest group whole-group work admits; it
runs under the default policy, so the walk, the fills it makes and
every suite are checked at that size.  It runs as ``verma-ext verify`` does,
through ``cli.main``, in a child process of its own, whose peak RSS must
stay under ``A6_PEAK_MB``.  Each verify takes over ten seconds, so this file
stays out of the default collection (its name does not match
``test_*.py``) and CI runs it as a step of its own:

    PYTHONPATH=src python -m pytest -q tests/whole_group_d5.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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

# A whole A6 verify peaked at 147 MB (CPython 3.11, Linux x86-64); the
# bound leaves room for other interpreters and stays under 206 MB, the peak
# when suite B ran after the fills.
A6_PEAK_MB = 130

CHILD = """
import contextlib, io, json, resource
from verma_ext import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.main(["verify", "--type", "A6", "--format", "json"])
print(json.dumps({"rc": rc, "payload": json.loads(out.getvalue()),
                  "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def _suite_counts(payload: dict) -> dict:
    return {s["name"]: (s["checked"], s["failed"]) for s in payload["suites"]}


@pytest.mark.parametrize("policy", DESCENT_POLICIES)
def test_verify_counts_are_frozen(policy):
    payload = verify.run_verify("D5", policy=policy)
    assert _suite_counts(payload) == COUNTS["D5"]


def test_a6_verify_counts_are_frozen_and_its_peak_rss_bounded():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=600)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["rc"] == 3  # suite T's frozen divergences fail the run
    assert _suite_counts(got["payload"]) == COUNTS["A6"]
    assert got["peak_kb"] / 1024 < A6_PEAK_MB
