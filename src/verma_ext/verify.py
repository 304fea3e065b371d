"""Whole-group verification suites and report files.

``run_verify`` builds one group, fills the subspace and R-polynomial tables
by walking the rows of its Bruhat index, and runs six suites:

    T  dim V(x, y) against both first-order coefficient routes, all pairs
    G  reflection representation sanity: involutions, braid orders, pairings
    B  Bruhat order: lifting recursion, bitmask index and subword oracle agree
    R  R-polynomial shape, route agreement and one recursion step per pair
    S  quotient dimensions for the configured singular subsets
    M  membership of v_s in V(x, y) against the order prediction, on the
       rows where the prediction is asserted to be exact

Each suite reports how many atomic checks ran and how many failed, plus a
witness for the first failure.  Every suite takes the run's three filled
tables: V, R and the direct route's counts (``rpoly.direct_rows``).  Suites
T and R read their rows along the rows of the Bruhat index, so no pair is
re-tested against the order, and read each R-polynomial's shape and signed
q-coefficient off the polynomial (``r_shaped`` and ``gj``, computed once
per distinct polynomial).  ``run_report`` writes the R-polynomial cache,
the dimension table, streamed row by row, and a summary; everything
written is deterministic except an explicit generated_at comment line.
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
    braid_order,
    bruhat_leq,
    bruhat_leq_lifting,
    build_system,
    comparable_rows,
    descend_lower,
    drop_order_memos,
    enumerate_elements,
    fingerprint,
    identity,
    longest_element,
    multiply,
    pick_descent,
    right_multiply,
    simple_reflection,
    subword_products,
    word_text,
)
from .errors import IoError
from .reflection import apply_element, basis_vector, coroot_pairing, reflect
from .rpoly import ZERO, RTable, ascent_memo, direct_rows, write_atomic
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

    def note_failure(self, witness: dict | None) -> None:
        """Count a failure, keeping only the first witness; later ones may be None."""
        self.failed += 1
        if not self.witnesses:
            self.witnesses.append(witness)


# ---------------------------------------------------------------------------
# suites


def _witness(sys, x, y, **fields) -> dict:
    """A failing pair's witness: the words of x and y, then the suite's own fields."""
    return {"x": word_text(sys, x), "y": word_text(sys, y), **fields}


def _suite_t(sys, rtable: RTable, vtable: VTable, config: RunConfig, direct: dict) -> SuiteResult:
    """dim V(x, y) == signed q-coefficient == direct recursion, on every pair."""
    out = SuiteResult("T")
    for x, lower in comparable_rows(sys):
        vrow, rrow, drow = vtable.rows[x], rtable.rows[x], direct[x]
        out.checked += len(lower)
        for y in lower:
            d, g = vrow[y].dim, rrow[y].gj
            if not (d == g == drow[y]):
                out.note_failure(
                    None  # only the first witness is kept, so only the first is built
                    if out.failed
                    else _witness(sys, x, y, dim=d, gj=g, direct=drow[y],
                                  basis=vrow[y].to_json_dict()["basis"])
                )
    return out


def _suite_g(sys, rtable, vtable, config, direct) -> SuiteResult:
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


def _suite_b(sys, rtable, vtable, config: RunConfig, direct) -> SuiteResult:
    """Lifting recursion, Bruhat index and subword oracle agree on every pair within budget."""
    out = SuiteResult("B")
    cap = ORACLE_BUDGET.bit_length() - 1  # longest y whose 2**length subwords fit the budget
    elements = enumerate_elements(sys)
    for y, lower in comparable_rows(sys):
        if y.length > cap:
            continue
        below, products = set(lower), subword_products(sys, y)
        for x in elements:
            rec = bruhat_leq_lifting(sys, x, y)
            index = x in below
            oracle = x.matrix in products
            out.checked += 1
            if not rec == index == oracle:
                out.note_failure(_witness(sys, x, y, recursive=rec, index=index, oracle=oracle))
    drop_order_memos(sys)  # no later suite reads the memos this one filled
    return out


def _suite_r(sys, rtable: RTable, vtable, config: RunConfig, direct: dict) -> SuiteResult:
    """Each stored R(y, x): its shape, its count against the direct route, and one recursion step.

    An entry passes when its degree is the pair's gap, it is ``r_shaped``,
    its ``gj`` is the direct count and it equals the recursion's step.  The
    comparable pairs are read off the index rows; R is 0 on all other pairs
    when the table's row holds no more than its index row.  Each R(y, x)
    must equal the recursion's step from the row of xs, so by induction
    every row, loaded or computed, is the recursion's.  ``checked`` counts
    |W|^2.
    """
    out = SuiteResult("R", checked=len(enumerate_elements(sys)) ** 2)
    ascent = ascent_memo()
    for upper, lower in comparable_rows(sys):
        bad, row, drow = [], rtable.rows[upper], direct[upper]
        if upper.length:  # the identity has no pair below it
            s = pick_descent(sys, upper, rtable.policy)
            xs = right_multiply(sys, upper, s)
            below = rtable.rows[xs]
        for y in lower[:-1]:  # upper ends its row; the table makes its diagonal R(upper, upper) = 1
            ys, down = descend_lower(sys, upper, s, xs, y)
            if down:
                step = below.get(ys, ZERO)
            else:  # R(ys, xs) is 0 unless ys <= xs, whatever a stray entry says
                b = below.get(ys, ZERO) if bruhat_leq(sys, ys, xs) else ZERO
                step = ascent(below.get(y, ZERO), b)
            poly = row.get(y, ZERO)
            if not (poly.degree == upper.length - y.length and poly.r_shaped
                    and poly.gj == drow[y] and poly.coeffs == step.coeffs):
                bad.append((y, poly, {}))
        if len(row) > len(lower):  # the row holds more than its index row
            reason = {"reason": "nonzero for incomparable pair"}
            bad += [(y, p, reason) for y, p in row.items() if not bruhat_leq(sys, y, upper)]
        for y, poly, extra in sorted(bad, key=lambda b: b[0].position):
            out.note_failure(_witness(sys, upper, y, coeffs=list(poly.coeffs), **extra))
    return out


def _suite_s(sys, rtable, vtable: VTable, config: RunConfig, direct) -> SuiteResult:
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


def _suite_m(sys, rtable, vtable: VTable, config, direct) -> SuiteResult:
    """On flagged report rows, membership of v_s must equal the prediction x >= ys."""
    out = SuiteResult("M")
    for row in membership_report(sys, vtable):
        out.checked += 1
        if row.in_v != row.x_ge_ys:
            out.note_failure(
                _witness(sys, row.x, row.y, s=row.s, in_v=row.in_v, x_ge_ys=row.x_ge_ys)
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
    """R-polynomial and subspace tables of one system, warm-loading the R cache.

    The V fill walks the index rows first, which builds the index, so the
    cache load's y < x check on every row is one bit test.  The R fill then
    computes only the pairs the cache did not hold.
    """
    vtable = compute_all(sys, policy=config.policy)
    rtable = load_rtable(config, sys)
    rtable.fill()
    return rtable, vtable


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
    direct = direct_rows(sys, config.policy)
    suites = [suite(sys, rtable, vtable, config, direct) for suite in _SUITES]
    save_rtable(config, sys, rtable)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return {
        "system": fingerprint(sys),
        "suites": [asdict(s) for s in suites],
        "elapsed_ms": elapsed_ms,
    }


# ---------------------------------------------------------------------------
# report files


def run_report(config: RunConfig) -> dict:
    """Compute both tables for one group and write cache, dimension, summary files.

    Returns the dict written to ``summary_*.json`` plus ``paths`` (the three
    files written) and ``rtable_computed`` and ``vtable_computed`` (table
    entries computed rather than loaded).

    The output dir is made before any table is filled, so an unusable one
    fails the run before the whole-group work.  It is also the run's cache
    dir, so a second report warm-loads the R-polynomials the first wrote.
    The dimension table is streamed from the index rows, reading both
    filled tables' rows directly, and its lines also give the summary's counts.
    """
    sys = build_system(config.type_text, budget=config.budget)
    out_dir = Path(config.cache_dir) if config.cache_dir is not None else Path("verma_ext_cache")
    _make_dir(out_dir, "output")
    config = replace(config, cache_dir=out_dir)
    rtable, vtable = fill_tables(config, sys)
    save_rtable(config, sys, rtable)
    fp = fingerprint(sys)
    histogram, dims = Counter(), Counter()

    def dimension_lines():
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        yield f"# dimension table\n# system: {fp}\n# generated_at: {stamp}\n"
        yield "x_word;y_word;dimV;gj_coeff;match\n"
        words = [word_text(sys, g) for g in enumerate_elements(sys)]  # by position
        for x, lower in comparable_rows(sys):
            xw, vrow, rrow = words[x.position], vtable.rows[x], rtable.rows[x]
            for y in lower:  # the index row's own pairs, so none is re-tested
                d, g = vrow[y].dim, rrow[y].gj
                dims[d] += 1
                histogram[g] += 1
                yield f"{xw};{words[y.position]};{d};{g};{int(d == g)}\n"

    dims_path = out_dir / f"dims_{fp}.csv"
    write_atomic(dims_path, dimension_lines())
    summary = {
        "system": fp,
        "type": str(sys.descriptor),
        "group_order": sys.group_order,
        "longest_length": longest_element(sys).length,
        "comparable_pairs": dims.total(),
        "max_dim_v": max(dims, default=0),
        "gj_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    summary_path = out_dir / f"summary_{fp}.json"
    write_atomic(summary_path, [json.dumps(summary, indent=2, sort_keys=True) + "\n"])
    return {
        **summary,
        "paths": {
            "rpoly": str(_rpoly_cache_path(out_dir, sys)),
            "dims": str(dims_path),
            "summary": str(summary_path),
        },
        "rtable_computed": rtable.computed,
        "vtable_computed": vtable.computed,
    }
