"""A warm ``report --type F4`` rewrites exactly the files of the cold run that primed its cache.

F4 has 1,152 elements and 396,809 comparable pairs, and the cold and warm
reports together take several seconds, so this file stays out of the
default collection (its name does not match ``test_*.py``) and CI runs it
as a step of its own:

    PYTHONPATH=src python -m pytest -q tests/warm_cache_f4.py
"""

from __future__ import annotations

import json

from verma_ext.cli import main


def _files(directory) -> dict[str, str]:
    """The report files by name, with the dimension table's generated_at line dropped."""
    return {
        path.name: "".join(line for line in path.read_text().splitlines(True)
                           if not line.startswith("# generated_at:"))
        for path in sorted(directory.iterdir())
    }


def test_warm_f4_report_equals_the_cold_one(capsys, tmp_path):
    argv = ["report", "--type", "F4", "--cache-dir", str(tmp_path), "--format", "json"]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append((json.loads(capsys.readouterr().out), _files(tmp_path)))
    (cold, cold_files), (warm, warm_files) = runs
    assert cold["rtable_computed"] > 0
    assert warm["rtable_computed"] == 0
    assert len(warm_files) == 3
    assert warm_files == cold_files
    assert {**warm, "rtable_computed": None} == {**cold, "rtable_computed": None}
