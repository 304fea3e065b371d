"""Whole runs through the command line, against a checked-in golden file.

``golden_runs.json`` holds, for the presets and B4 under both descent
policies, the exit code and the ``verify --format json`` payload without
``elapsed_ms``; and for A3, B3 and D4 under both policies, the exit code,
the cold ``report --format json`` payload without ``paths``, and the
sha256 of each file the report writes, its ``# generated_at`` line dropped.
A refactor that keeps the verifier's behaviour leaves all of it as it is.

After a change that is meant to alter these outputs, rewrite the file with

    PYTHONPATH=src python tests/test_golden_runs.py

and review its diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from verma_ext.cli import main
from verma_ext.coxeter import DESCENT_POLICIES
from verma_ext.verify import PRESETS

GOLDEN = Path(__file__).with_name("golden_runs.json")
VERIFY_TYPES = (*PRESETS, "B4")
REPORT_TYPES = ("A3", "B3", "D4")


def _json_run(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


def verify_run(text: str, policy: str) -> dict:
    code, payload = _json_run("verify", "--type", text, "--descent-policy", policy)
    del payload["elapsed_ms"]
    return {"exit": code, "payload": payload}


def _digest(path: str) -> str:
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(b"# generated_at:"))).hexdigest()


def report_run(text: str, policy: str, out_dir: Path) -> dict:
    code, payload = _json_run("report", "--type", text, "--descent-policy", policy,
                              "--cache-dir", str(out_dir))
    files = {name: _digest(path) for name, path in payload.pop("paths").items()}
    return {"exit": code, "payload": payload, "files": files}


def _key(text: str, policy: str) -> str:
    return f"{text}/{policy}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _no_cache_env(monkeypatch):
    monkeypatch.delenv("VERMA_EXT_CACHE", raising=False)  # it would outrank --cache-dir


@pytest.mark.parametrize("policy", DESCENT_POLICIES)
@pytest.mark.parametrize("text", VERIFY_TYPES)
def test_verify_matches_the_golden_run(text, policy, golden):
    assert verify_run(text, policy) == golden["verify"][_key(text, policy)]


@pytest.mark.parametrize("policy", DESCENT_POLICIES)
@pytest.mark.parametrize("text", REPORT_TYPES)
def test_report_matches_the_golden_run(text, policy, golden, tmp_path):
    assert report_run(text, policy, tmp_path) == golden["report"][_key(text, policy)]


def collect() -> dict:
    """Every golden run, made afresh."""
    runs = {"verify": {}, "report": {}}
    for text in VERIFY_TYPES:
        for policy in DESCENT_POLICIES:
            runs["verify"][_key(text, policy)] = verify_run(text, policy)
    for text in REPORT_TYPES:
        for policy in DESCENT_POLICIES:
            with tempfile.TemporaryDirectory() as out_dir:
                runs["report"][_key(text, policy)] = report_run(text, policy, Path(out_dir))
    return runs


if __name__ == "__main__":
    os.environ.pop("VERMA_EXT_CACHE", None)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
