"""The three workloads, their inputs and the checks on their outputs.

Every operation goes through the program's public entry point
``verma_ext.cli.main`` in this process, one call at a time, with stdout
captured.  A workload is a sequence of passes: one ``verify`` run, one warm
``report`` run, or one block of single-pair queries.  Checks run outside
the timed calls; a wrong or crashed operation counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import Group, query_block
from tracing import LAYERS

# Frozen results at the commit that introduced the benchmark.
D4_PAIRS = 9817
VERIFY_D4_EXIT = 3
VERIFY_D4_SUITES = [
    ("T", 9817, 377), ("G", 35, 0), ("B", 36864, 0),
    ("R", 36864, 0), ("S", 16, 0), ("M", 46, 0),
]
VERIFY_D4_FIRST_T_WITNESS = {
    "x": "0,1,2,1,0", "y": "1", "dim": 3, "gj": 4, "direct": 4,
    "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]],
}
REPORT_D4_HISTOGRAM = {"0": 192, "1": 790, "2": 1808, "3": 2956, "4": 3742, "5": 324, "6": 5}
REPORT_D4_MISMATCHES = 377

E7_BUDGET = "3000000"
E7_MAX_GAP = 20  # R-polynomial cost explodes past this: seconds at gap 30
E7_MIN_BLOCKS = 10  # 200 samples per kind, so the tail is p95 ...
E7_MAX_BLOCKS = 25  # ... and stays p95 however fast a block gets
PROBE_BLOCKS = 24  # D4 latency probe: 288 queries per kind, gaps 1..12, so p95

MODULES = LAYERS + ("errors",)

CLI_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from verma_ext.cli import main; raise SystemExit(main(sys.argv[2:]))"
)


def invoke(cli, argv: list[str]) -> tuple[object, float, str]:
    """(exit code, seconds, stdout) of one ``main`` call; a crash is its repr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            rc = f"raised {exc!r}"
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue()


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Checker:
    """Second routes for single-pair answers, on a system of its own per query."""

    def __init__(self, type_text: str, budget: str | None):
        from verma_ext.coxeter import build_system, element_from_word, parse_word
        from verma_ext.rpoly import r_coeff_direct
        from verma_ext.vtable import VTable

        self._build = lambda: build_system(type_text, **({"budget": int(budget)} if budget else {}))
        self._elem = lambda sys_, w: element_from_word(sys_, parse_word(w))
        self._direct = r_coeff_direct
        self._vtable = VTable

    def query(self, kind: str, x_word: str, y_word: str, gap: int, rc, out: str) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        try:
            return self._query(kind, x_word, y_word, gap, rc, out)
        except Exception as exc:  # a malformed answer can break the check itself
            return f"{kind} {x_word} {y_word}: check raised {exc!r}"

    def _query(self, kind, x_word, y_word, gap, rc, out):
        got = _json(out)
        if rc != 0 or not isinstance(got, dict):
            return f"{kind} {x_word} {y_word}: exit {rc}"
        sys_ = self._build()
        x, y = self._elem(sys_, x_word), self._elem(sys_, y_word)
        if self._elem(sys_, got.get("x", "?")) != x or self._elem(sys_, got.get("y", "?")) != y:
            return f"{kind} {x_word} {y_word}: answered for another pair"
        if kind == "rpoly":
            c = got["coeffs"]
            if not (len(c) == gap + 1 and c[-1] == 1 and c[0] == (-1) ** gap and sum(c) == 0):
                return f"rpoly {x_word} {y_word}: coefficients {c} break the invariants"
            direct = self._direct(sys_, x, y, policy="largest")
            if got["gj"] != direct:
                return f"rpoly {x_word} {y_word}: gj {got['gj']} != direct {direct}"
        else:
            want = self._vtable(sys_, policy="largest").v(x, y).to_json_dict()
            if got["space"] != want:
                return f"vspace {x_word} {y_word}: {got['space']} != {want}"
        return None


class Workload:
    """One workload: inputs from a seed, passes, and the checks on them."""

    group = "D4"
    budget: str | None = None
    min_passes = 1
    max_passes = 1000
    has_probe = True  # single-pair latency comes from a D4 probe around the passes

    def __init__(self, cli, root: Path, seed: int):
        self.cli = cli
        self.root = root
        self.rng = random.Random(seed)
        self.failures: list[str] = []
        self.attempted = 0
        self._answers: list[tuple] = []  # (kind, x, y, gap, exit code, stdout)
        self.latency: dict[str, list[float]] = {"rpoly": [], "vspace": []}  # ms, scaled
        self.raw_latency: dict[str, list[float]] = {"rpoly": [], "vspace": []}  # ms, as measured
        self.pass_walls: list[float] = []  # seconds, as measured
        self.pass_factors: list[float] = []  # speed factor of each pass

    def note(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def pairs(self, k: int) -> int:
        return D4_PAIRS

    def run_pass(self, k: int) -> tuple[float, int]:
        """Run pass k; returns (seconds in main, stdout bytes)."""
        raise NotImplementedError

    def check_pending(self) -> None:
        """Check the single-pair answers, held back until peak RSS was read."""
        checker = Checker(self.group, self.budget)
        for answer in self._answers:
            self.note(checker.query(*answer))
        self._answers = []

    def probe(self) -> None:
        """One block of 24 seeded single-pair queries on D4, for their latency."""
        group = Group("D4")
        for kind, xw, yw, gap in query_block(group, self.rng, group.longest):
            rc, seconds, out = invoke(self.cli, [kind, "--type", "D4", "--format", "json", xw, yw])
            self.latency[kind].append(seconds * 1000)
            self._answers.append((kind, xw, yw, gap, rc, out))


class VerifyD4(Workload):
    argv = ["verify", "--type", "D4", "--format", "json"]

    def run_pass(self, k):
        rc, seconds, out = invoke(self.cli, self.argv)
        self.note(self._check(rc, out))
        return seconds, len(out.encode())

    @staticmethod
    def _check(rc, out: str) -> str | None:
        if rc != VERIFY_D4_EXIT:
            return f"verify D4 exited {rc}, expected {VERIFY_D4_EXIT}"
        got = _json(out)
        if not isinstance(got, dict) or "suites" not in got:
            return "verify D4 printed no report"
        counts = [(s["name"], s["checked"], s["failed"]) for s in got["suites"]]
        if counts != VERIFY_D4_SUITES:
            return f"verify D4 suites {counts}"
        witnesses = [s["witnesses"] for s in got["suites"]]
        if witnesses[0][:1] != [VERIFY_D4_FIRST_T_WITNESS] or any(witnesses[1:]):
            return f"verify D4 witnesses {witnesses}"
        return None


class ReportWarmD4(Workload):
    def prepare(self):
        work = self.root / ".perfbench_work"
        work.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=work)
        self.dir = Path(self._tmp.name)
        self.argv = ["report", "--type", "D4", "--cache-dir", str(self.dir), "--format", "json"]
        # One cold report in a child process primes the cache, so that its
        # tables do not count towards this process's peak RSS.
        cold = subprocess.run(
            [sys.executable, "-c", CLI_CHILD, str(self.root / "src"), *self.argv],
            capture_output=True, text=True, timeout=170,
        )
        self.cold = _json(cold.stdout)
        self.cold_files = self._files()
        problem = None
        if cold.returncode != 0 or not isinstance(self.cold, dict):
            problem = f"cold report exited {cold.returncode}: {cold.stderr[-500:]}"
        else:
            problem = self._check_summary(self.cold)
            rows = [r for r in self.cold_files.get("dims", "").splitlines() if not r.startswith("#")][1:]
            mismatches = sum(1 for row in rows if row.endswith(";0"))
            if problem is None and (len(rows), mismatches) != (D4_PAIRS, REPORT_D4_MISMATCHES):
                problem = f"cold dims table has {len(rows)} rows, {mismatches} mismatches"
        self.note(problem)

    def _files(self) -> dict[str, str]:
        """The report files by kind, with the generated_at line dropped."""
        files = {}
        for path in sorted(self.dir.iterdir()):
            kind = path.name.split("_", 1)[0]
            text = path.read_text()
            files[kind] = "".join(
                line for line in text.splitlines(True) if not line.startswith("# generated_at:")
            )
        return files

    @staticmethod
    def _check_summary(got: dict) -> str | None:
        if got.get("comparable_pairs") != D4_PAIRS:
            return f"report D4 has {got.get('comparable_pairs')} pairs"
        if got.get("gj_histogram") != REPORT_D4_HISTOGRAM:
            return f"report D4 histogram {got.get('gj_histogram')}"
        return None

    def run_pass(self, k):
        rc, seconds, out = invoke(self.cli, self.argv)
        got = _json(out)
        problem = None
        if rc != 0 or not isinstance(got, dict):
            problem = f"warm report exited {rc}"
        else:
            problem = self._check_summary(got)
            if problem is None and got.get("rtable_computed") != 0:
                problem = f"warm report computed {got.get('rtable_computed')} R-polynomials"
            drop = ("paths", "rtable_computed")
            same = {k: v for k, v in got.items() if k not in drop} == {
                k: v for k, v in self.cold.items() if k not in drop}
            if problem is None and not same:
                problem = "warm report summary differs from the cold one"
            if problem is None and self._files() != self.cold_files:
                problem = "warm report files differ from the cold ones"
        self.note(problem)
        return seconds, len(out.encode())

    def close(self):
        if hasattr(self, "_tmp"):
            self._tmp.cleanup()
        with contextlib.suppress(OSError):
            (self.root / ".perfbench_work").rmdir()


class QueryE7(Workload):
    """Blocks of 40 single-pair queries on E7, one per gap 1..20 and kind."""

    group = "E7"
    budget = E7_BUDGET
    min_passes = E7_MIN_BLOCKS
    max_passes = E7_MAX_BLOCKS
    has_probe = False

    def prepare(self):
        self.e7 = Group("E7")
        self.blocks: list[list] = []

    def pairs(self, k):
        return len(self.blocks[k])

    def run_pass(self, k):
        while len(self.blocks) <= k:
            self.blocks.append(query_block(self.e7, self.rng, E7_MAX_GAP))
        total, out_bytes = 0.0, 0
        for kind, xw, yw, gap in self.blocks[k]:
            rc, seconds, out = invoke(
                self.cli, [kind, "--type", "E7", "--budget", E7_BUDGET, "--format", "json", xw, yw])
            total += seconds
            out_bytes += len(out.encode())
            self.latency[kind].append(seconds * 1000)
            self._answers.append((kind, xw, yw, gap, rc, out))
        return total, out_bytes


WORKLOADS = {"verify_d4": VerifyD4, "report_warm_d4": ReportWarmD4, "query_e7": QueryE7}


def environment(root: Path) -> dict:
    """Python version, usable cores, load average and git commit of the checkout."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def line_counts(src: Path) -> dict[str, int]:
    """Lines in each module of the package (0 once it is gone), and in all of src/."""
    package = src / "verma_ext"
    counts = {
        f"{name}.loc": (package / f"{name}.py").read_bytes().count(b"\n")
        if (package / f"{name}.py").is_file() else 0
        for name in MODULES
    }
    counts["src.loc"] = sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))
    return counts
