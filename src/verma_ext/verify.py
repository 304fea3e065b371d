"""Whole-group verification suites and report files.

``run_verify`` builds one group, fills the R-polynomial and subspace tables,
and runs six suites:

    T  dim V(x, y) against both first-order coefficient routes, all pairs
    G  reflection representation sanity: involutions, braid orders, pairings
    B  recursive Bruhat order against the exponential subword oracle
    R  R-polynomial degree/term invariants and route agreement
    S  quotient dimensions for the configured singular subsets
    M  membership of v_s in V(x, y) against the order prediction, on the
       rows where the prediction is asserted to be exact

Each suite reports how many atomic checks ran and how many failed, plus a
witness for the first failure.  Besides the run's tables, every suite takes
``memo``, the run's ``r_coeff_direct`` values, so that suites T and R compute
the direct route once per pair between them.  Each computation stops its
descent chain at the first pair in ``memo``, so suite T, walking the pairs
in length order, takes one step per pair.  ``run_report`` writes the
dimension table, the R-polynomial cache, and a summary; everything written
is deterministic except an explicit generated_at comment line.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from .coxeter import (
    DEFAULT_BUDGET,
    ORACLE_BUDGET,
    DESCENT_POLICIES,
    CoxeterSystem,
    GroupElement,
    braid_order,
    bruhat_leq,
    bruhat_leq_oracle,
    build_system,
    comparable_pairs,
    enumerate_elements,
    fingerprint,
    identity,
    longest_element,
    multiply,
    simple_reflection,
    word_text,
)
from .errors import IoError
from .reflection import apply_element, basis_vector, coroot_pairing, reflect
from .rpoly import DirectMemo, RTable, ZERO, gj_coefficient, r_coeff_direct, write_atomic
from .vtable import SingularSpec, VTable, compute_all, membership_report, singular_v

PRESETS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1xA1", "A1xA2")


@dataclass
class RunConfig:
    """All knobs for one verification or report run."""

    type_text: str
    budget: int = DEFAULT_BUDGET
    policy: str = DESCENT_POLICIES[0]
    singular: tuple[SingularSpec, ...] = ()
    cache_dir: Path | None = None


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failed: int = 0
    witnesses: list = field(default_factory=list)

    def note_failure(self, witness: dict) -> None:
        """Count a failure, keeping only the first witness."""
        self.failed += 1
        if not self.witnesses:
            self.witnesses.append(witness)


def _direct(sys, config: RunConfig, memo: DirectMemo, x: GroupElement, y: GroupElement) -> int:
    """r_coeff_direct of y <= x, computed on first use from ``memo`` and kept there."""
    value = memo.get((x, y))
    if value is None:
        value = memo[(x, y)] = r_coeff_direct(sys, x, y, policy=config.policy, memo=memo)
    return value


# ---------------------------------------------------------------------------
# suites


def _suite_t(
    sys, rtable: RTable, vtable: VTable, config: RunConfig, memo: DirectMemo
) -> SuiteResult:
    """dim V(x, y) == signed q-coefficient == direct recursion, on every pair."""
    out = SuiteResult("T")
    for x, y in comparable_pairs(sys):
        d = vtable.v(x, y).dim
        g = gj_coefficient(sys, x, y, rtable)
        direct = _direct(sys, config, memo, x, y)
        out.checked += 1
        if not (d == g == direct):
            out.note_failure(
                {
                    "x": word_text(sys, x),
                    "y": word_text(sys, y),
                    "dim": d,
                    "gj": g,
                    "direct": direct,
                    "basis": vtable.v(x, y).to_json_dict()["basis"],
                }
            )
    return out


def _suite_g(sys, rtable, vtable, config, memo) -> SuiteResult:
    """Reflection representation properties, checked from the Cartan data up."""
    out = SuiteResult("G")
    e = identity(sys)
    for i in range(sys.rank):
        s = simple_reflection(sys, i)
        out.checked += 1
        if multiply(sys, s, s) != e:
            out.note_failure({"check": "involution", "i": i})
        v = basis_vector(sys, i)
        out.checked += 1
        if coroot_pairing(sys, i, v) != 2:
            out.note_failure({"check": "pairing", "i": i})
        out.checked += 1
        if reflect(sys, i, v) != tuple(-c for c in v):
            out.note_failure({"check": "negates-own-root", "i": i})
        # reflect() must agree with the matrix action on every basis vector
        for j in range(sys.rank):
            out.checked += 1
            w = basis_vector(sys, j)
            if reflect(sys, i, w) != apply_element(sys, s, w):
                out.note_failure({"check": "matrix-agreement", "i": i, "j": j})
    for i in range(sys.rank):
        for j in range(i + 1, sys.rank):
            m = braid_order(sys, i, j)
            t = multiply(sys, simple_reflection(sys, i), simple_reflection(sys, j))
            power = t
            order = 1
            while power != e and order <= m:
                power = multiply(sys, power, t)
                order += 1
            out.checked += 1
            if order != m:
                out.note_failure({"check": "braid-order", "i": i, "j": j, "got": order, "want": m})
    # faithfulness: only the identity element acts as the identity matrix
    out.checked += 1
    fixed = sum(1 for g in enumerate_elements(sys) if g.matrix == e.matrix)
    if fixed != 1:
        out.note_failure({"check": "faithful", "identity_count": fixed})
    return out


def _suite_b(sys, rtable, vtable, config: RunConfig, memo) -> SuiteResult:
    """Recursive Bruhat order vs the subword oracle on every pair within budget."""
    out = SuiteResult("B")
    cap = ORACLE_BUDGET.bit_length() - 1  # longest y whose 2**length subwords fit the budget
    elements = enumerate_elements(sys)
    for y in elements:
        if y.length > cap:
            continue
        for x in elements:
            rec = bruhat_leq(sys, x, y)
            oracle = bruhat_leq_oracle(sys, x, y)
            out.checked += 1
            if rec != oracle:
                out.note_failure(
                    {
                        "x": word_text(sys, x),
                        "y": word_text(sys, y),
                        "recursive": rec,
                        "oracle": oracle,
                    }
                )
    return out


def _suite_r(sys, rtable: RTable, vtable, config: RunConfig, memo: DirectMemo) -> SuiteResult:
    """Degree, leading and constant term, vanishing at 1, and route agreement."""
    out = SuiteResult("R")
    elements = enumerate_elements(sys)
    for upper in elements:
        for lower in elements:
            poly = rtable.r(lower, upper)
            out.checked += 1
            if bruhat_leq(sys, lower, upper):
                gap = upper.length - lower.length
                ok = (
                    poly.degree == gap
                    and poly.coeff(gap) == 1
                    and poly.coeff(0) == (-1) ** gap
                    and (gap == 0 or poly.eval_at(1) == 0)
                )
                if ok:
                    gj = gj_coefficient(sys, upper, lower, rtable)
                    ok = gj == _direct(sys, config, memo, upper, lower)
                if not ok:
                    out.note_failure(
                        {
                            "x": word_text(sys, upper),
                            "y": word_text(sys, lower),
                            "coeffs": list(poly.coeffs),
                        }
                    )
            elif poly != ZERO:
                out.note_failure(
                    {
                        "x": word_text(sys, upper),
                        "y": word_text(sys, lower),
                        "coeffs": list(poly.coeffs),
                        "reason": "nonzero for incomparable pair",
                    }
                )
    return out


def _suite_s(sys, rtable, vtable: VTable, config: RunConfig, memo) -> SuiteResult:
    """Quotient dimension of V(longest, identity) for each singular subset."""
    out = SuiteResult("S")
    if config.singular:
        subsets = list(config.singular)
    else:
        indices = range(sys.rank)
        subsets = [
            SingularSpec(frozenset(i for i in indices if mask >> i & 1))
            for mask in range(1 << sys.rank)
        ]
        subsets.sort(key=lambda s: (len(s.indices), sorted(s.indices)))
    w0 = longest_element(sys)
    e = identity(sys)
    for spec in subsets:
        space = singular_v(sys, vtable, spec, w0, e)
        expected = sys.rank - len(spec.indices)
        out.checked += 1
        if space.dim != expected:
            out.note_failure(
                {"subset": str(spec), "dim": space.dim, "expected": expected}
            )
    return out


def _suite_m(sys, rtable, vtable: VTable, config, memo) -> SuiteResult:
    """On flagged report rows, membership of v_s must equal the prediction x >= ys."""
    out = SuiteResult("M")
    for row in membership_report(sys, vtable):
        out.checked += 1
        if row.in_v != row.x_ge_ys:
            out.note_failure(
                {
                    "x": word_text(sys, row.x),
                    "y": word_text(sys, row.y),
                    "s": row.s,
                    "in_v": row.in_v,
                    "x_ge_ys": row.x_ge_ys,
                }
            )
    return out


_SUITES = (_suite_t, _suite_g, _suite_b, _suite_r, _suite_s, _suite_m)


def _rpoly_cache_path(directory: Path, sys: CoxeterSystem) -> Path:
    return Path(directory) / f"rpoly_{fingerprint(sys)}.csv"


def load_rtable(config: RunConfig, sys: CoxeterSystem) -> RTable:
    """An R-polynomial table for the run, warm-loaded from the cache dir when it holds one."""
    rtable = RTable(sys, policy=config.policy)
    if config.cache_dir is not None:
        cache = _rpoly_cache_path(config.cache_dir, sys)
        if cache.exists():
            rtable.load_csv(cache)
    return rtable


def _make_dir(path: Path, what: str) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {what} dir {path}: {exc}") from exc


def save_rtable(config: RunConfig, sys: CoxeterSystem, rtable: RTable) -> None:
    """Write the R-polynomial table into the cache dir, if the run has one.

    A cache file the run computed nothing beyond already holds these rows,
    so it is left as it is.
    """
    if config.cache_dir is None:
        return
    cache = _rpoly_cache_path(config.cache_dir, sys)
    if rtable.computed == 0 and cache.exists():
        return
    _make_dir(cache.parent, "cache")
    rtable.save_csv(cache)


def fill_tables(config: RunConfig, sys: CoxeterSystem) -> tuple[RTable, VTable]:
    """R-polynomial and subspace tables of one system, warm-loading the R cache."""
    return load_rtable(config, sys), compute_all(sys, policy=config.policy)


def build_tables(config: RunConfig) -> tuple[CoxeterSystem, RTable, VTable]:
    """System plus its filled R-polynomial and subspace tables.

    The singular subsets are checked against the system first, so a bad
    index fails the run before the whole-group work.
    """
    sys = build_system(config.type_text, budget=config.budget)
    for spec in config.singular:
        spec.validate(sys)
    return (sys, *fill_tables(config, sys))


def run_verify(config: RunConfig) -> dict:
    """Run every suite on one group and persist the R-polynomial cache.

    Returns the ``verify`` command's JSON payload: the system fingerprint,
    each suite's counts and first witness, and the elapsed milliseconds.
    """
    started = time.perf_counter()
    sys, rtable, vtable = build_tables(config)
    memo: DirectMemo = {}
    suites = [suite(sys, rtable, vtable, config, memo) for suite in _SUITES]
    save_rtable(config, sys, rtable)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return {
        "system": fingerprint(sys),
        "suites": [asdict(s) for s in suites],
        "elapsed_ms": elapsed_ms,
    }


# ---------------------------------------------------------------------------
# report files


def dimension_rows(
    sys: CoxeterSystem, rtable: RTable, vtable: VTable
) -> list[tuple[str, str, int, int, int]]:
    """(x_word, y_word, dim, coefficient, match) for every comparable pair."""
    rows = []
    for x, y in comparable_pairs(sys):
        d = vtable.v(x, y).dim
        g = gj_coefficient(sys, x, y, rtable)
        rows.append((word_text(sys, x), word_text(sys, y), d, g, 1 if d == g else 0))
    return rows


def run_report(config: RunConfig) -> dict:
    """Compute both tables for one group and write cache, dimension, summary files.

    Returns the dict written to ``summary_*.json`` plus ``paths`` (the three
    files written) and ``rtable_computed`` and ``vtable_computed`` (table
    entries computed rather than loaded).

    The output dir is made before any table is filled, so an unusable one
    fails the run before the whole-group work.  It is also the run's cache
    dir, so a second report warm-loads the R-polynomials the first wrote.
    """
    sys = build_system(config.type_text, budget=config.budget)
    out_dir = Path(config.cache_dir) if config.cache_dir is not None else Path("verma_ext_cache")
    _make_dir(out_dir, "output")
    config = replace(config, cache_dir=out_dir)
    rtable, vtable = fill_tables(config, sys)
    rows = dimension_rows(sys, rtable, vtable)
    histogram = Counter(row[3] for row in rows)
    fp = fingerprint(sys)
    summary = {
        "system": fp,
        "type": str(sys.descriptor),
        "group_order": sys.group_order,
        "longest_length": longest_element(sys).length,
        "comparable_pairs": len(rows),
        "max_dim_v": max((r[2] for r in rows), default=0),
        "gj_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    save_rtable(config, sys, rtable)
    rpoly_path = _rpoly_cache_path(out_dir, sys)
    dims_path = out_dir / f"dims_{fp}.csv"
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [
        "# dimension table",
        f"# system: {fp}",
        f"# generated_at: {stamp}",
        "x_word;y_word;dimV;gj_coeff;match",
    ]
    lines.extend(";".join(str(v) for v in row) for row in rows)
    write_atomic(dims_path, "\n".join(lines) + "\n")
    summary_path = out_dir / f"summary_{fp}.json"
    write_atomic(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {
        **summary,
        "paths": {
            "rpoly": str(rpoly_path),
            "dims": str(dims_path),
            "summary": str(summary_path),
        },
        "rtable_computed": rtable.computed,
        "vtable_computed": vtable.computed,
    }
