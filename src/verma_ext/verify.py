"""Whole-group verification suites and report files.

``run_verify`` builds one group, fills the subspace and R-polynomial tables
by walking the rows of its Bruhat index, and runs six suites, listed in
output order (B, which reads no table, runs before the fills):

    T  dim V(x, y) against both first-order coefficient routes, all pairs
    G  reflection representation sanity: involutions, braid orders, pairings
    B  Bruhat order: lifting recursion, bitmask index and subword oracle agree,
       compared as one mask of the x <= y per y
    R  R-polynomial shape, route agreement and one recursion step per pair,
       the step read off the fills' shared descent rows
    S  quotient dimensions for every singular subset
    M  membership of v_s in V(x, y) against the order prediction, on the
       rows where the prediction is asserted to be exact

Each suite reports how many atomic checks ran and how many failed, plus a
witness for the first failure.  Every suite takes the run's three filled
tables: V, R and the direct route's counts (``rpoly.direct_rows``), each a
list of rows aligned with the rows of the Bruhat index.  Suites T and R and
the dimension table zip those rows with the index rows, so no pair is
looked up by element or re-tested against the order, and read each
R-polynomial's shape and signed q-coefficient off the polynomial
(``r_shaped`` and ``gj``, computed once per distinct polynomial).
``run_report`` writes the R-polynomial cache, the dimension table, streamed
row by row, and a summary; everything written is deterministic except an
explicit generated_at comment line.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

from .coxeter import (
    DEFAULT_BUDGET,
    ORACLE_BUDGET,
    DESCENT_POLICIES,
    CoxeterSystem,
    GroupElement,
    braid_order,
    build_system,
    comparable_rows,
    descent_rows,
    drop_order_memos,
    enumerate_elements,
    fingerprint,
    identity,
    longest_element,
    multiply,
    simple_reflection,
    subword_products,
    word_text,
    _right_image,
    _right_steps,
)
from .errors import IoError
from .reflection import apply_element, basis_vector, coroot_pairing, reflect
from .rpoly import RTable, ascent_memo, direct_rows, r_steps, write_atomic
from .vtable import SingularSpec, VTable, compute_all, membership_report, singular_v

PRESETS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1xA1", "A1xA2")


@dataclass
class RunConfig:
    """All knobs for one run of a command; ``singular`` is read only by ``vspace``."""

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

    def note_failure(self, witness: dict | None, count: int = 1) -> None:
        """Count failures, keeping only the first witness; later ones may be None."""
        self.failed += count
        if not self.witnesses:
            self.witnesses.append(witness)


# ---------------------------------------------------------------------------
# suites


def _witness(sys, x, y, **fields) -> dict:
    """A failing pair's witness: the words of x and y, then the suite's own fields."""
    return {"x": word_text(sys, x), "y": word_text(sys, y), **fields}


def _suite_t(sys, rtable: RTable, vtable: VTable, config: RunConfig, direct: list) -> SuiteResult:
    """dim V(x, y) == signed q-coefficient == direct recursion, on every pair."""
    out = SuiteResult("T")
    for (x, lower), vrow, rrow, drow in zip(comparable_rows(sys), vtable.rows, rtable.rows, direct):
        out.checked += len(lower)
        for y, space, poly, count in zip(lower, vrow, rrow, drow):
            d, g = space.dim, poly.gj
            if not (d == g == count):
                out.note_failure(
                    None  # only the first witness is kept, so only the first is built
                    if out.failed
                    else _witness(sys, x, y, dim=d, gj=g, direct=count,
                                  basis=space.to_json_dict()["basis"])
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


def _order_rows(sys) -> Iterator[tuple[GroupElement, int, int, int]]:
    """(y, index, lifting, oracle) for each y within the oracle's budget, by position.

    Each row is the bitmask of the positions of the x <= y, by one route:
    y's index tuple from ``comparable_rows``; the lifting property on the
    lifting row L of ys, for s the largest descent of y (x <= y iff x <= ys
    when xs > x, iff xs <= ys when xs < x), that is A | A s for A the
    elements of L with ascent s, where the index takes the smallest descent
    and D(ws) | D(ws) s; and y's subword products, each oracle number mapped
    to a position once, where distinct numbers make the sum of bits an OR.
    """
    rows = comparable_rows(sys)  # refuses a group too large to walk, before anything else
    cap = ORACLE_BUDGET.bit_length() - 1  # longest y whose 2**length subwords fit the budget
    elements = enumerate_elements(sys)
    steps = _right_steps(sys)
    has_descent = [sum(1 << g.position for g in elements if g.descents >> s & 1)
                   for s in range(sys.rank)]
    position = {g.matrix: g.position for g in elements}
    to_position: list[int] = []  # by the oracle's number
    lifting = [1]  # by position: the identity is below itself alone
    for y, lower in rows:  # in length order, so the first y past the cap ends the walk
        if y.length > cap:
            break
        if y.descents:
            s = y.descents.bit_length() - 1
            ascents = lifting[steps[s][y.position]] & ~has_descent[s]
            lifting.append(ascents | _right_image(ascents, steps[s]))
        index = 0
        for x in lower:
            index |= 1 << x.position
        products = subword_products(sys, y)
        to_position += map(position.__getitem__, sys._numbered[len(to_position):])
        oracle = sum(map((1).__lshift__, map(to_position.__getitem__, products)))
        yield y, index, lifting[y.position], oracle


def _suite_b(sys, rtable, vtable, config: RunConfig, direct) -> SuiteResult:
    """Lifting recursion, Bruhat index and subword oracle agree on every pair within budget.

    The routes are compared as one mask per y (``_order_rows``), which checks
    |W| pairs; each set bit of (index ^ lifting) | (index ^ oracle) is a failed
    pair, and the witness is the first, by position of y and then of x.
    """
    out = SuiteResult("B")
    elements = enumerate_elements(sys)
    for y, index, lifting, oracle in _order_rows(sys):
        out.checked += len(elements)
        wrong = (index ^ lifting) | (index ^ oracle)
        if wrong:
            k = (wrong & -wrong).bit_length() - 1
            out.note_failure(
                None  # only the first witness is kept, so only the first is built
                if out.failed
                else _witness(sys, elements[k], y, recursive=bool(lifting >> k & 1),
                              index=bool(index >> k & 1), oracle=bool(oracle >> k & 1)),
                wrong.bit_count(),
            )
    drop_order_memos(sys)  # no later suite reads the subword products this one filled
    return out


def _suite_r(sys, rtable: RTable, vtable, config: RunConfig, direct: list) -> SuiteResult:
    """Each stored R(y, x): its shape, its count against the direct route, and one recursion step.

    An entry passes when its degree is the pair's gap, it is ``r_shaped``,
    its ``gj`` is the direct count and it equals the recursion's step.  The
    rows are aligned with the index rows, so they hold the comparable pairs
    and no other: R is 0 on every other pair.  Each R(y, x) must equal the
    recursion's step from the row of xs, so by induction every row, loaded
    or computed, is the recursion's.  The step's slots into the row of xs
    are read off the table policy's ``descent_rows``, which the fills
    already took, by ``rpoly.r_steps`` with an ascent memo of the suite's
    own.  ``checked`` counts |W|^2.
    """
    out = SuiteResult("R", checked=len(enumerate_elements(sys)) ** 2)
    ascent, rows = ascent_memo(), rtable.rows
    for (upper, lower), (_, xs, first, second), row, drow in zip(
            comparable_rows(sys), descent_rows(sys, rtable.policy), rows, direct):
        steps = r_steps(ascent, None if xs is None else rows[xs.position], first, second)
        # the steps end before upper, which ends its row; the table makes R(upper, upper) = 1
        for y, step, poly, count in zip(lower, steps, row, drow):
            if not (poly.degree == upper.length - y.length and poly.r_shaped and poly.gj == count
                    and poly.coeffs == step.coeffs):
                out.note_failure(
                    None  # only the first witness is kept, so only the first is built
                    if out.failed
                    else _witness(sys, upper, y, coeffs=list(poly.coeffs))
                )
    return out


def _suite_s(sys, rtable, vtable: VTable, config: RunConfig, direct) -> SuiteResult:
    """Quotient dimension of V(longest, identity) for every singular subset."""
    out = SuiteResult("S")
    w0, e = longest_element(sys), identity(sys)
    for k in range(sys.rank + 1):  # by size, then lexicographically
        for subset in combinations(range(sys.rank), k):
            spec = SingularSpec(frozenset(subset))
            space = singular_v(sys, vtable, spec, w0, e)
            out.checked += 1
            if space.dim != sys.rank - k:
                out.note_failure({"subset": str(spec), "dim": space.dim, "expected": sys.rank - k})
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


# In output order; suite B runs first, so its subword products are freed before the tables exist.
_SUITES = (_suite_t, _suite_g, _suite_b, _suite_r, _suite_s, _suite_m)
_ORDER_SUITE = _SUITES.index(_suite_b)


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

    The V fill walks the index rows first, which builds the index if suite
    B has not, so the cache load's y < x check on every row is one bit
    test.  The R fill then computes only the pairs the cache did not hold.
    """
    vtable = compute_all(sys, policy=config.policy)
    rtable = load_rtable(config, sys)
    rtable.fill()
    return rtable, vtable


def run_verify(config: RunConfig) -> dict:
    """Run every suite on one group and persist the R-polynomial cache.

    Returns the ``verify`` command's JSON payload: the system fingerprint,
    each suite's counts and first witness, and the elapsed milliseconds.
    """
    started = time.perf_counter()
    sys = build_system(config.type_text, budget=config.budget)
    order = _SUITES[_ORDER_SUITE](sys, None, None, config, None)
    rtable, vtable = fill_tables(config, sys)
    direct = direct_rows(sys, config.policy)
    suites = [order if k == _ORDER_SUITE else suite(sys, rtable, vtable, config, direct)
              for k, suite in enumerate(_SUITES)]
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
    files written) and ``rtable_computed`` and ``vtable_computed`` (strict
    pairs computed rather than loaded).

    The output dir is made before any table is filled, so an unusable one
    fails the run before the whole-group work.  It is also the run's cache
    dir, so a second report warm-loads the R-polynomials the first wrote.
    The dimension table is streamed from the index rows zipped with both
    filled tables' rows, and its lines also give the summary's counts.
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
        for (x, lower), vrow, rrow in zip(comparable_rows(sys), vtable.rows, rtable.rows):
            xw = words[x.position]
            for y, space, poly in zip(lower, vrow, rrow):  # the index row's own pairs
                d, g = space.dim, poly.gj
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
