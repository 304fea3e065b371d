"""End-to-end command line behavior: output shapes, exit codes, caching."""

from __future__ import annotations

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import comparable_pairs
from verma_ext import cli, verify
from verma_ext.cli import main
from verma_ext.coxeter import DESCENT_POLICIES, build_system, fingerprint, word_text
from verma_ext.errors import InvariantViolation, LiftingViolation
from verma_ext.rpoly import RTable, gj_coefficient
from verma_ext.vtable import VTable

A2_ENUMERATE_TEXT = """\
type: A2
group order: 6
longest length: 3
  0  e
  1  0
  1  1
  2  1,0
  2  0,1
  3  0,1,0"""

A2_REPORT_JSON = """\
{
  "comparable_pairs": 19,
  "gj_histogram": {
    "0": 6,
    "1": 8,
    "2": 5
  },
  "group_order": 6,
  "longest_length": 3,
  "max_dim_v": 2,
  "paths": {
    "dims": "DIR/dims_A2-e036c5aaa6cc.csv",
    "rpoly": "DIR/rpoly_A2-e036c5aaa6cc.csv",
    "summary": "DIR/summary_A2-e036c5aaa6cc.json"
  },
  "rtable_computed": 13,
  "system": "A2-e036c5aaa6cc",
  "type": "A2",
  "vtable_computed": 13
}
"""


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parser basics


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "enumerate" in out


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate", "--type", "A2")
    assert code == 1


def test_missing_type_is_usage_error(capsys):
    code, _, _ = run(capsys, "enumerate")
    assert code == 1


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_text_golden(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "A2")
    assert code == 0
    assert out.rstrip("\n") == A2_ENUMERATE_TEXT


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "B2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "B2"
    assert payload["group_order"] == 8
    assert payload["longest_length"] == 4
    assert payload["system"].startswith("B2-")
    assert len(payload["elements"]) == 8
    assert payload["elements"][0] == {"word": "e", "length": 0}


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "A1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# system: A1-")
    assert lines[1] == "word;length"
    assert lines[2:] == ["e;0", "0;1"]


def test_enumerate_rejects_bad_type(capsys):
    code, _, err = run(capsys, "enumerate", "--type", "Q9")
    assert code == 1
    assert "bad factor" in err


def test_budget_overflow_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--type", "E7")
    assert code == 1
    assert "budget" in err.lower() or "order" in err.lower()


@pytest.mark.parametrize("type_text", ["A2000", "A2000000"])
def test_huge_rank_is_over_budget_before_its_order_is_computed(capsys, type_text):
    started = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--type", type_text)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (1, "")
    assert "over budget" in err


# ---------------------------------------------------------------------------
# rpoly


def test_rpoly_text_golden(capsys):
    code, out, _ = run(capsys, "rpoly", "--type", "A2", "0,1,0", "e")
    assert code == 0
    assert out.rstrip("\n") == "q^3-2q^2+2q-1, gj=2"


def test_rpoly_csv_golden(capsys):
    code, out, _ = run(capsys, "rpoly", "--type", "A2", "0,1,0", "e", "--format", "csv")
    assert code == 0
    assert out.rstrip("\n") == "e;0,1,0;-1,2,-2,1"


def test_rpoly_json(capsys):
    code, out, _ = run(capsys, "rpoly", "--type", "A2", "0,1,0", "e", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [-1, 2, -2, 1]
    assert payload["poly"] == "q^3-2q^2+2q-1"
    assert payload["gj"] == 2
    assert payload["x"] == "0,1,0"
    assert payload["y"] == "e"


def test_rpoly_identity_pair(capsys):
    code, out, _ = run(capsys, "rpoly", "--type", "A2", "e", "e")
    assert code == 0
    assert out.rstrip("\n") == "1, gj=0"


def test_rpoly_incomparable_is_domain_error(capsys):
    code, _, err = run(capsys, "rpoly", "--type", "B2", "0,1,0", "1,0,1")
    assert code == 2
    assert "not below" in err


def test_rpoly_bad_word_is_domain_error(capsys):
    code, _, err = run(capsys, "rpoly", "--type", "A2", "0,x", "e")
    assert code == 2
    assert "error" in err


def test_rpoly_non_ascii_digit_letter_is_domain_error(capsys):
    # "²".isdigit() is true, but int("²") raises ValueError
    code, out, err = run(capsys, "rpoly", "--type", "A2", "0,²", "e")
    assert (code, out) == (2, "")
    assert "bad word letter" in err


def test_rpoly_policy_flag_changes_nothing(capsys):
    _, small, _ = run(capsys, "rpoly", "--type", "B2", "0,1,0,1", "e")
    _, large, _ = run(
        capsys, "rpoly", "--type", "B2", "0,1,0,1", "e", "--descent-policy", "largest"
    )
    assert small == large


# ---------------------------------------------------------------------------
# vspace


def test_vspace_text_with_singular(capsys):
    code, out, _ = run(capsys, "vspace", "--type", "A2", "0,1,0", "e", "--singular", "0")
    assert code == 0
    assert out.splitlines() == [
        "dim: 2",
        "basis: 1,0",
        "basis: 0,1",
        "singular 0: dim 1",
        "  basis: 1",
    ]


def test_vspace_json_multiple_singular(capsys):
    code, out, _ = run(
        capsys,
        "vspace", "--type", "A2", "0,1,0", "e",
        "--singular", "0", "--singular", "0,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["space"] == {"dim": 2, "basis": [["1", "0"], ["0", "1"]]}
    assert payload["singular"] == [
        {"subset": "0", "image": {"dim": 1, "basis": [["1"]]}},
        {"subset": "0,1", "image": {"dim": 0, "basis": []}},
    ]


def test_vspace_csv_shape(capsys):
    code, out, _ = run(
        capsys,
        "vspace", "--type", "A2", "0,1,0", "e",
        "--singular", "1", "--singular", "0,1",
        "--format", "csv",
    )
    assert code == 0
    # a zero-dimensional image still gets one row, with empty row and entries
    assert out.splitlines() == [
        "# system: A2-e036c5aaa6cc",
        "x_word;y_word;subset;dim;row;entries",
        "0,1,0;e;;2;0;1,0",
        "0,1,0;e;;2;1;0,1",
        "0,1,0;e;1;1;0;1",
        "0,1,0;e;0,1;0;;",
    ]


def test_vspace_zero_space_renders(capsys):
    code, out, _ = run(capsys, "vspace", "--type", "A2", "e", "e")
    assert code == 0
    assert out.rstrip("\n") == "dim: 0"


def test_vspace_incomparable_is_domain_error(capsys):
    code, _, _ = run(capsys, "vspace", "--type", "B2", "1,0,1", "0,1,0")
    assert code == 2


def test_singular_index_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "vspace", "--type", "A2", "0,1,0", "e", "--singular", "5")
    assert code == 1
    assert "singular index" in err


def test_singular_garbage_is_domain_error(capsys):
    code, _, _ = run(capsys, "vspace", "--type", "A2", "0,1,0", "e", "--singular", "x")
    assert code == 2


@pytest.mark.parametrize("subset", ["١", "1_0"])
def test_singular_non_ascii_digit_index_is_domain_error(capsys, subset):
    code, out, err = run(capsys, "vspace", "--type", "A2", "0,1,0", "e", "--singular", subset)
    assert code == 2
    assert out == ""
    assert "bad singular subset" in err


LONG_DIGITS = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("place", ["word", "singular", "rpoly-cache", "report-cache"])
def test_a_digit_run_past_the_int_limit_is_a_domain_error(capsys, tmp_path, place):
    # Each parser refuses the run itself: exit 2 and one line on stderr, no traceback.
    cache = tmp_path / "cache"
    argv = {
        "word": ("rpoly", "--type", "A2", LONG_DIGITS, "e"),
        "singular": ("vspace", "--type", "A2", "0,1,0", "e", "--singular", LONG_DIGITS),
        "rpoly-cache": ("rpoly", "--type", "A2", "0,1,0", "e", "--cache-dir", str(cache)),
        "report-cache": ("report", "--type", "A2", "--cache-dir", str(cache)),
    }[place]
    if place.endswith("-cache"):
        assert run(capsys, "rpoly", "--type", "A2", "0", "e", "--cache-dir", str(cache))[0] == 0
        (path,) = cache.glob("rpoly_A2-*.csv")
        path.write_text(path.read_text() + f"e;0,1;1,-2,{LONG_DIGITS}\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if place.endswith("-cache"):
        assert err.startswith(f"error: {path}:5: bad coefficient list")


# ---------------------------------------------------------------------------
# verify


def test_verify_clean_group_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("system: A2-")
    assert "T: checked=19 failed=0" in lines
    assert "G: checked=12 failed=0" in lines
    assert "B: checked=36 failed=0" in lines
    assert "R: checked=36 failed=0" in lines
    assert "S: checked=4 failed=0" in lines
    assert "M: checked=12 failed=0" in lines
    assert lines[-1].startswith("result: PASS")

    code, out, _ = run(capsys, "verify", "--type", "A2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "# system: A2-e036c5aaa6cc",
        "suite;checked;failed",
        "T;19;0",
        "G;12;0",
        "B;36;0",
        "R;36;0",
        "S;4;0",
        "M;12;0",
    ]


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"system", "suites", "elapsed_ms"}
    assert [s["name"] for s in payload["suites"]] == ["T", "G", "B", "R", "S", "M"]
    for suite in payload["suites"]:
        assert list(suite) == ["name", "checked", "failed", "witnesses"]
        assert suite["failed"] == 0


def test_verify_reports_the_rank_three_divergence(capsys):
    # the verifier's entire point: it finds the pairs where the dimension
    # and the coefficient disagree, reports them, and signals via the exit
    # code
    code, out, _ = run(capsys, "verify", "--type", "A3")
    assert code == 3
    lines = out.splitlines()
    assert "T: checked=213 failed=1" in lines
    assert lines[lines.index("T: checked=213 failed=1") + 1] == (
        '  witness: {"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], '
        '"dim": 3, "direct": 4, "gj": 4, "x": "0,1,2,1,0", "y": "1"}'
    )
    assert lines[-1].startswith("result: FAIL")
    # every other suite is clean
    for name, checked in [("G", 22), ("B", 576), ("R", 576), ("S", 8), ("M", 27)]:
        assert f"{name}: checked={checked} failed=0" in lines


def test_verify_b4_counts_are_frozen(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B4", "--format", "json")
    assert code == 3
    counts = {s["name"]: (s["checked"], s["failed"]) for s in json.loads(out)["suites"]}
    assert counts == {
        "T": (40_249, 2_790),
        "G": (35, 0),
        "B": (135_936, 0),
        "R": (147_456, 0),
        "S": (16, 0),
        "M": (54, 0),
    }


def test_verify_singular_out_of_range_fails_before_filling(capsys, monkeypatch):
    # verify takes no --singular: the parser refuses it before any table is filled
    def fill(*args, **kwargs):
        raise AssertionError("a table was filled for a refused command line")

    monkeypatch.setattr(verify, "walk", fill)
    code, out, err = run(capsys, "verify", "--type", "A2", "--singular", "9")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --singular 9" in err


def test_verify_suite_s_checks_every_subset(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B2")
    assert code == 0
    assert "S: checked=4 failed=0" in out.splitlines()


# ---------------------------------------------------------------------------
# caching and report files


def test_rpoly_cache_write_through(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, first, _ = run(
        capsys, "rpoly", "--type", "A2", "0,1,0", "e", "--cache-dir", str(cache)
    )
    assert code == 0
    files = list(cache.glob("rpoly_A2-*.csv"))
    assert len(files) == 1
    code, second, _ = run(
        capsys, "rpoly", "--type", "A2", "0,1,0", "e", "--cache-dir", str(cache)
    )
    assert code == 0
    assert first == second


@pytest.mark.parametrize(
    "corruption",
    [b"e;0;1,1\n", b"e;0,1,0;-1,-2,2,1\n", b"e;0,1,0;-1,1,1,1\n", "²;0;-1,1\n".encode(),
     b"\xff\xfe"],
    ids=["row-breaks-invariants", "negative-signed-q-coefficient", "nonzero-at-one",
         "superscript-word", "not-utf8"],
)
def test_corrupt_rpoly_cache_is_domain_error(capsys, tmp_path, corruption):
    cache = tmp_path / "cache"
    argv = ("rpoly", "--type", "A2", "0,1,0", "e", "--cache-dir", str(cache))
    assert run(capsys, *argv)[0] == 0
    (path,) = cache.glob("rpoly_A2-*.csv")
    path.write_bytes(path.read_bytes() + corruption)
    before = path.read_bytes()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}")
    assert path.read_bytes() == before


def test_well_shaped_wrong_cache_row_is_caught_by_verify_not_report(capsys, tmp_path):
    # Each planted row has the degree, end terms, R(1) = 0 and sign the
    # loader checks.  On A2 it also moves the q-coefficient of R(e, w0);
    # on A3 it keeps that of R(e, 1,2,1,0), so only the recursion check of
    # suite R can see it.  rpoly and report print the loaded row as loaded.
    cases = [  # type, x, right row, wrong row, rendered, dims line, |W|^2
        ("A2", "0,1,0", "-1,2,-2,1", "-1,4,-4,1", "q^3-4q^2+4q-1", "0,1,0;e;2;4;0", 36),
        ("A3", "1,2,1,0", "1,-3,4,-3,1", "1,-3,5,-4,1", "q^4-4q^3+5q^2-3q+1", "1,2,1,0;e;3;3;1", 576),
    ]
    for text, x, right, wrong, rendered, dims_line, squared in cases:
        cache = tmp_path / text
        assert run(capsys, "report", "--type", text, "--cache-dir", str(cache))[0] == 0
        (path,) = cache.glob(f"rpoly_{text}-*.csv")
        rows = path.read_text()
        assert f"\ne;{x};{right}\n" in rows
        path.write_text(rows.replace(f"\ne;{x};{right}\n", f"\ne;{x};{wrong}\n"))
        assert run(capsys, "report", "--type", text, "--cache-dir", str(cache))[0] == 0
        (dims,) = cache.glob(f"dims_{text}-*.csv")
        assert dims_line in dims.read_text().splitlines()
        code, out, _ = run(capsys, "rpoly", "--type", text, x, "e", "--cache-dir", str(cache))
        assert (code, out.split(",")[0]) == (0, rendered)
        code, out, _ = run(capsys, "verify", "--type", text, "--cache-dir", str(cache))
        assert code == 3
        assert f"\nR: checked={squared} failed=1\n" in out
        coeffs = wrong.replace(",", ", ")
        assert f'  witness: {{"coeffs": [{coeffs}], "x": "{x}", "y": "e"}}\n' in out


@pytest.mark.parametrize("command", [("rpoly", "0,1,0", "e"), ("verify",), ("report",)],
                         ids=["rpoly", "verify", "report"])
def test_a_cache_that_gives_a_pair_two_r_polynomials_is_a_domain_error(capsys, tmp_path, command):
    # The appended row is well shaped, but the file already gives its pair
    # another polynomial: whichever command loads it fails at that line,
    # and no rewrite runs, so the file stays as it was.
    assert run(capsys, "report", "--type", "A2", "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.glob("rpoly_A2-*.csv")
    rows = path.read_text()
    assert "\ne;0,1,0;-1,2,-2,1\n" in rows
    path.write_text(rows + "e;0,1,0;-1,4,-4,1\n")
    before = path.read_bytes()
    code, out, err = run(capsys, command[0], "--type", "A2", *command[1:], "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    lineno = len(rows.splitlines()) + 1
    assert err == (f"error: {path}:{lineno}: e < 0,1,0 already has R-polynomial q^3-2q^2+2q-1, "
                   "not q^3-4q^2+4q-1\n")
    assert path.read_bytes() == before


def test_a_cache_row_repeated_with_the_same_polynomial_still_loads(capsys, tmp_path):
    argv = ("report", "--type", "A2", "--format", "json", "--cache-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    (path,) = tmp_path.glob("rpoly_A2-*.csv")
    path.write_text(path.read_text() + "e;0,1,0;-1,2,-2,1\n")
    before = path.read_bytes()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["rtable_computed"] == 0
    assert path.read_bytes() == before  # every strict pair was loaded, so nothing is rewritten


def test_env_var_beats_cache_flag(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("VERMA_EXT_CACHE", str(env_dir))
    code, _, _ = run(
        capsys, "rpoly", "--type", "A2", "0,1,0", "e", "--cache-dir", str(flag_dir)
    )
    assert code == 0
    assert list(env_dir.glob("rpoly_*.csv"))
    assert not flag_dir.exists()


@pytest.mark.parametrize("command", ["verify", "report"])
def test_whole_group_commands_refuse_groups_over_the_limit(command, capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--type", "E6", "--cache-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert err == "error: group of type E6 has order 51840, over the whole-group limit 10000\n"
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


def test_rpoly_unwritable_cache_is_usage_error(capsys, tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code, _, err = run(
        capsys, "rpoly", "--type", "A2", "0,1,0", "e", "--cache-dir", str(blocker)
    )
    assert code == 1
    assert "cannot create cache dir" in err


def test_unreadable_cache_is_one_line_and_exit_1(capsys, tmp_path):
    cache = tmp_path / f"rpoly_{fingerprint(build_system('A2'))}.csv"
    cache.mkdir()  # exists, so the run loads it, but it cannot be read as a file
    code, out, err = run(capsys, "verify", "--type", "A2", "--cache-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {cache}: ") and err.count("\n") == 1


def test_report_unusable_output_dir_fails_before_filling(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")

    def fill(*args, **kwargs):
        raise AssertionError("a table was filled before the output dir was made")

    monkeypatch.setattr(verify, "walk", fill)
    code, _, err = run(capsys, "report", "--type", "A2", "--cache-dir", str(blocker))
    assert code == 1
    assert "cannot create output dir" in err


def test_verify_unusable_cache_dir_fails_before_the_whole_group_work(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")

    def walk(*args, **kwargs):
        raise AssertionError("the group was walked before the cache dir was made")

    monkeypatch.setattr(verify, "bruhat_index", walk)  # suite B's index build
    monkeypatch.setattr(verify, "walk", walk)
    code, out, err = run(capsys, "verify", "--type", "A2", "--cache-dir", str(blocker))
    assert (code, out) == (1, "")
    assert "cannot create cache dir" in err


def test_report_writes_three_files(capsys, tmp_path):
    code, out, _ = run(capsys, "report", "--type", "A2", "--cache-dir", str(tmp_path))
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 3
    assert names[0].startswith("dims_A2-")
    assert names[1].startswith("rpoly_A2-")
    assert names[2].startswith("summary_A2-")
    assert "comparable pairs: 19" in out

    summary = json.loads((tmp_path / names[2]).read_text())
    assert summary["group_order"] == 6
    assert summary["comparable_pairs"] == 19
    assert summary["gj_histogram"] == {"0": 6, "1": 8, "2": 5}

    dims = (tmp_path / names[0]).read_text().splitlines()
    assert dims[3] == "x_word;y_word;dimV;gj_coeff;match"
    assert "0,1,0;e;2;2;1" in dims
    # A2 has no divergent pairs
    assert all(line.endswith(";1") for line in dims[4:])
    assert out.splitlines()[-3:] == [
        f"wrote: {tmp_path / names[1]}",
        f"wrote: {tmp_path / names[0]}",
        f"wrote: {tmp_path / names[2]}",
    ]

    code, out, _ = run(
        capsys, "report", "--type", "A2", "--cache-dir", str(tmp_path / "csv"), "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "# system: A2-e036c5aaa6cc",
        "key;value",
        "group_order;6",
        "longest_length;3",
        "comparable_pairs;19",
        "max_dim_v;2",
        "gj_0;6",
        "gj_1;8",
        "gj_2;5",
    ]

    json_dir = tmp_path / "json"
    code, out, _ = run(
        capsys, "report", "--type", "A2", "--cache-dir", str(json_dir), "--format", "json"
    )
    assert code == 0
    assert out.replace(str(json_dir), "DIR") == A2_REPORT_JSON


def test_report_is_deterministic_modulo_stamp(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for target in (a, b):
        code, _, _ = run(capsys, "report", "--type", "B2", "--cache-dir", str(target))
        assert code == 0

    def stripped(d):
        out = {}
        for p in sorted(d.iterdir()):
            body = "\n".join(
                line for line in p.read_text().splitlines()
                if not line.startswith("# generated_at:")
            )
            out[p.name] = body
        return out

    assert stripped(a) == stripped(b)


def test_report_without_cache_dir_reads_back_its_rpoly_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VERMA_EXT_CACHE", raising=False)
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "report", "--type", "A3", "--format", "json")
        assert code == 0
        out_dir = tmp_path / "verma_ext_cache"
        files = {
            p.name: [line for line in p.read_text().splitlines()
                     if not line.startswith("# generated_at:")]
            for p in sorted(out_dir.iterdir())
        }
        runs.append((json.loads(out), files))
    (first, first_files), (second, second_files) = runs
    assert first["rtable_computed"] > 0
    assert second["rtable_computed"] == 0
    assert len(second_files) == 3
    assert second_files == first_files


@pytest.mark.parametrize("warm, exit_code", [
    (("report", "--type", "A3", "--format", "json"), 0),
    (("verify", "--type", "A3"), 3),  # suite T's known divergence on A3
    (("rpoly", "--type", "A3", "1,2,1,0", "e"), 0),  # a pair the report's cache file holds
], ids=["report", "verify", "rpoly"])
def test_warm_report_leaves_the_rpoly_file_alone(capsys, tmp_path, warm, exit_code):
    code, _, _ = run(capsys, "report", "--type", "A3", "--cache-dir", str(tmp_path))
    assert code == 0
    (rpoly,) = tmp_path.glob("rpoly_A3-*.csv")
    body = rpoly.read_bytes()
    # an old stamp, so a rewrite shows whatever the file system's resolution
    os.utime(rpoly, ns=(10**18, 10**18))
    code, out, _ = run(capsys, *warm, "--cache-dir", str(tmp_path))
    assert code == exit_code
    if warm[0] == "report":
        assert json.loads(out)["rtable_computed"] == 0
    assert rpoly.stat().st_mtime_ns == 10**18
    assert rpoly.read_bytes() == body


def _reference_dimension_rows(type_text: str, policy: str) -> list[str]:
    """The dimension table's rows, pair by pair from the guarded routes on a fresh system."""
    group = build_system(type_text)
    vtable, rtable = VTable(group, policy), RTable(group, policy)
    rows = []
    for x, y in comparable_pairs(group):
        d, g = vtable.v(x, y).dim, gj_coefficient(group, x, y, rtable)
        rows.append(f"{word_text(group, x)};{word_text(group, y)};{d};{g};{int(d == g)}")
    return rows


@pytest.mark.parametrize("policy", DESCENT_POLICIES)
@pytest.mark.parametrize("type_text", [*verify.PRESETS, "B4"])
def test_dimension_table_matches_the_pair_by_pair_reference(capsys, tmp_path, type_text, policy):
    reference = _reference_dimension_rows(type_text, policy)
    argv = ("report", "--type", type_text, "--descent-policy", policy, "--cache-dir", str(tmp_path))
    for warm in (False, True):  # the second run loads the first one's R-polynomials
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert (json.loads(out)["rtable_computed"] == 0) == warm
        (dims,) = tmp_path.glob("dims_*.csv")
        assert dims.read_text().splitlines()[4:] == reference


def test_failed_report_write_leaves_the_old_files(capsys, tmp_path, request):
    code, _, _ = run(capsys, "report", "--type", "A2", "--cache-dir", str(tmp_path))
    assert code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    request.getfixturevalue("torn_writes")  # from here on, every write tears halfway
    code, out, err = run(capsys, "report", "--type", "A2", "--cache-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert "cannot write" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("victim", ["rpoly", "dims"])
def test_a_cold_report_names_the_file_it_failed_to_write_and_leaves_no_temp_file(
        capsys, tmp_path, monkeypatch, victim):
    # A cold report writes the cache and the dimension table during one
    # walk, so both temp files are open at once; a write that fails in the
    # middle of either is reported against its own file, and no temp file
    # is left.
    class FailsAfterTwoWrites:
        def __init__(self, handle):
            self.handle, self.writes = handle, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 2:
                raise OSError(28, "No space left on device")
            self.handle.write(data)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    real_open = Path.open

    def open_failing(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        return FailsAfterTwoWrites(handle) if path.name.startswith(f".{victim}_") else handle

    monkeypatch.setattr(Path, "open", open_failing)
    code, out, err = run(capsys, "report", "--type", "A2", "--cache-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {tmp_path / victim}_A2-")
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


def test_singular_is_refused_where_it_means_nothing(capsys):
    for argv in (
        ["rpoly", "--type", "A2", "0,1,0", "e"],
        ["enumerate", "--type", "A1"],
        ["report", "--type", "A1"],
    ):
        code, out, err = run(capsys, *argv, "--singular", "9")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --singular 9" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--type", "A1", "--descent-policy", "largest"],
        ["enumerate", "--type", "A1", "--cache-dir", "D"],
        ["vspace", "--type", "A2", "0,1,0", "e", "--cache-dir", "D"],
    ],
)
def test_flags_a_command_never_reads_are_refused(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert not (tmp_path / "D").exists()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_keeps_no_state_between_calls(capsys):
    argv = ["vspace", "--type", "A2", "0,1,0", "e", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--singular", "0")
    assert code == 0 and "singular" in json.loads(out)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "singular" not in json.loads(out)


# ---------------------------------------------------------------------------
# interrupts and a closed stdout


def test_interrupt_is_one_line_and_exit_130(capsys, monkeypatch):
    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_verify", interrupted)
    assert run(capsys, "verify", "--type", "A2") == (130, "", "interrupted\n")


@pytest.mark.parametrize("error", [LiftingViolation, InvariantViolation])
def test_broken_guarantee_is_one_line_and_exit_3(capsys, monkeypatch, error):
    def broken(config):
        raise error("guarantee broken at pair (0,1,0, e)")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    assert run(capsys, "verify", "--type", "A2") == (
        3, "", "verification failure: guarantee broken at pair (0,1,0, e)\n"
    )


# B4's json is more than a buffer, so print fails; A2's text fits, so the flush does.
@pytest.mark.parametrize("argv", [["--type", "B4", "--format", "json"], ["--type", "A2"]],
                         ids=["print", "flush"])
def test_closed_stdout_exits_141_without_traceback(capsys, monkeypatch, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone, as after ``| head -1``
    with open(write_end, "w") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        code = main(["enumerate", *argv])
        # the interpreter's last flush of stdout now lands in devnull
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    assert code == 141
    assert capsys.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# start-up footprint

# Run under -I -S, so no site .pth file preloads a module and hides a new import.
_FOOTPRINT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from verma_ext.coxeter import build_system
build_system("E7", budget=3_000_000)
print(*sorted(set(sys.modules) - before))
import verma_ext.cli
print(*sorted(set(sys.modules) - before))
import contextlib, io


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = verma_ext.cli.main(list(argv))
    return f"{argv[0]}:{code}:{'verma_ext.verify' in sys.modules}"


print(run("rpoly", "--type", "A2", "0,1,0", "e"), run("vspace", "--type", "A2", "0,1,0", "e"),
      run("verify", "--type", "A2"))
"""


def test_start_up_imports_only_what_a_command_runs():
    """Building a group loads none of these; the CLI loads json for its output and fingerprints.

    The suites load with the first whole-group command, not with the CLI or a single-pair query.
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _FOOTPRINT, src],
                          capture_output=True, text=True, check=True)
    core, whole, commands = (line.split() for line in proc.stdout.splitlines())
    assert not set(core) & {"dataclasses", "inspect", "hashlib", "json", "datetime"}
    assert not set(whole) & {"dataclasses", "inspect", "datetime", "verma_ext.verify"}
    assert commands == ["rpoly:0:False", "vspace:0:False", "verify:0:True"]


# ---------------------------------------------------------------------------
# installed entry point


def _not_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return True
    return False


# Runs wherever the distribution is installed; a source checkout on
# PYTHONPATH has no console script to test.  Keyed on the distribution, not
# on the script being on PATH, so an install that lost its script still fails.
@pytest.mark.skipif(
    _not_installed("verma-ext"),
    reason="the verma-ext distribution is not installed (PackageNotFoundError)",
)
def test_console_script_is_installed():
    exe = shutil.which("verma-ext")
    assert exe, "console script not on PATH"
    proc = subprocess.run(
        [exe, "rpoly", "--type", "A2", "0,1,0", "e"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "q^3-2q^2+2q-1, gj=2"
