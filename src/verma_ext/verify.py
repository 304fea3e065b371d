"""Whole-group verification suites and report files.

``run_verify`` builds one group, fills the subspace, R-polynomial and direct
count rows by walking the rows of its Bruhat index, and runs six suites,
listed in output order (B, which reads no rows, runs before the fills):

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
witness for the first failure, in a ``SuiteResult``.  Each suite takes the
system and only what it reads of the run's V, R and direct count rows
(``compute_all``, ``RTable.fill``, ``direct_rows``), each a list aligned
with the rows of the Bruhat index, and of the policy.
Suites T and R, the dimension table and the R cache zip those rows with the
index rows, so no pair is looked up by element or re-tested against the
order, and read each R-polynomial's shape and signed q-coefficient off the
polynomial (``r_shaped`` and ``gj``, computed once per distinct polynomial).
The R cache file is ``rpoly``'s (``load_rtable``, ``save_rtable``);
``run_report`` writes it, the dimension table, streamed row by row, and a
summary; everything written is deterministic except an explicit
generated_at comment line.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Iterator
from itertools import combinations
from pathlib import Path

from .coxeter import (
    DEFAULT_BUDGET,
    ORACLE_BUDGET,
    DESCENT_POLICIES,
    CoxeterSystem,
    GroupElement,
    SubwordOracle,
    braid_order,
    build_system,
    comparable_rows,
    descent_rows,
    enumerate_elements,
    fingerprint,
    identity,
    longest_element,
    multiply,
    simple_reflection,
    word_text,
    _right_image,
    _right_steps,
)
# load_rtable and save_rtable by attribute: perfbench's tracer spans a function imported by
# name, and a span around them would hide the RTable.load_csv and save_csv spans inside
from . import rpoly
from .reflection import apply_element, basis_vector, coroot_pairing, reflect
from .rpoly import _make_dir, _rpoly_cache_path, ascent_memo, direct_rows, r_steps, write_atomic
from .vtable import SingularSpec, compute_all, membership_report, singular_v

PRESETS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1xA1", "A1xA2")


class SuiteResult:
    """One suite's counts and first witness; ``as_dict`` gives its payload entry."""

    __slots__ = ("name", "checked", "failed", "witnesses")

    def __init__(self, name: str, checked: int = 0):
        self.name, self.checked, self.failed, self.witnesses = name, checked, 0, []

    def as_dict(self) -> dict:
        """The four fields by name, in declaration order."""
        return {"name": self.name, "checked": self.checked, "failed": self.failed,
                "witnesses": self.witnesses}

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


def _suite_t(sys, vrows: list, rrows: list, drows: list) -> SuiteResult:
    """dim V(x, y) == signed q-coefficient == direct recursion, on every pair."""
    out = SuiteResult("T")
    for (x, lower), vrow, rrow, drow in zip(comparable_rows(sys), vrows, rrows, drows):
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


def _suite_g(sys) -> SuiteResult:
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
    and D(ws) | D(ws) s; and y's subword products from one ``SubwordOracle``
    for the walk, each oracle number mapped to a position once, where
    distinct numbers make the sum of bits an OR.
    """
    rows = comparable_rows(sys)  # refuses a group too large to walk, before anything else
    cap = ORACLE_BUDGET.bit_length() - 1  # longest y whose 2**length subwords fit the budget
    elements = enumerate_elements(sys)
    steps = _right_steps(sys)
    has_descent = [sum(1 << g.position for g in elements if g.descents >> s & 1)
                   for s in range(sys.rank)]
    position = {g.matrix: g.position for g in elements}
    oracle = SubwordOracle(sys)  # freed with the walk
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
        products = oracle.products(y)
        to_position += map(position.__getitem__, oracle.numbered[len(to_position):])
        by_oracle = sum(map((1).__lshift__, map(to_position.__getitem__, products)))
        yield y, index, lifting[y.position], by_oracle


def _suite_b(sys) -> SuiteResult:
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
    return out


def _suite_r(sys, rrows: list, drows: list, policy: str) -> SuiteResult:
    """Each stored R(y, x): its shape, its count against the direct route, and one recursion step.

    An entry passes when its degree is the pair's gap, it is ``r_shaped``,
    its ``gj`` is the direct count and it equals the recursion's step.  The
    rows are aligned with the index rows, so they hold the comparable pairs
    and no other: R is 0 on every other pair.  Each R(y, x) must equal the
    recursion's step from the row of xs, so by induction every row, loaded
    or computed, is the recursion's.  The step's slots into the row of xs
    are read off the policy's ``descent_rows``, which the fills
    already took, by ``rpoly.r_steps`` with an ascent memo of the suite's
    own.  ``checked`` counts |W|^2.
    """
    out = SuiteResult("R", checked=len(enumerate_elements(sys)) ** 2)
    ascent = ascent_memo()
    for (upper, lower), (_, xs, first, second), row, drow in zip(
            comparable_rows(sys), descent_rows(sys, policy), rrows, drows):
        steps = r_steps(ascent, None if xs is None else rrows[xs.position], first, second)
        # the steps end before upper, which ends its row; the fill makes R(upper, upper) = 1
        for y, step, poly, count in zip(lower, steps, row, drow):
            if not (poly.degree == upper.length - y.length and poly.r_shaped and poly.gj == count
                    and poly.coeffs == step.coeffs):
                out.note_failure(
                    None  # only the first witness is kept, so only the first is built
                    if out.failed
                    else _witness(sys, upper, y, coeffs=list(poly.coeffs))
                )
    return out


def _suite_s(sys, vrows: list) -> SuiteResult:
    """Quotient dimension of V(longest, identity) for every singular subset."""
    out = SuiteResult("S")
    top = vrows[longest_element(sys).position][0]  # V(w0, e): the identity is first in every row
    for k in range(sys.rank + 1):  # by size, then lexicographically
        for subset in combinations(range(sys.rank), k):
            spec = SingularSpec(frozenset(subset))
            space = singular_v(sys, top, spec)
            out.checked += 1
            if space.dim != sys.rank - k:
                out.note_failure({"subset": str(spec), "dim": space.dim, "expected": sys.rank - k})
    return out


def _suite_m(sys, vrows: list) -> SuiteResult:
    """On flagged report rows, membership of v_s must equal the prediction x >= ys."""
    out = SuiteResult("M")
    for row in membership_report(sys, vrows):
        out.checked += 1
        if row.in_v != row.x_ge_ys:
            out.note_failure(
                _witness(sys, row.x, row.y, s=row.s, in_v=row.in_v, x_ge_ys=row.x_ge_ys)
            )
    return out


# In output order; run_verify runs suite B first, so its oracle is freed before the fills.
_SUITES = (_suite_t, _suite_g, _suite_b, _suite_r, _suite_s, _suite_m)


def _strict_pairs(sys: CoxeterSystem, rows: list) -> Iterator[tuple]:
    """(x, y, entry) for each strict pair y < x of filled rows, in the index rows' order."""
    for (x, lower), row in zip(comparable_rows(sys), rows):
        for y, entry in zip(lower[:-1], row):
            yield x, y, entry


def fill_tables(sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0],
                cache_dir: Path | None = None) -> tuple[list, list, int]:
    """(V rows, R rows, R pairs computed) of one system; the R fill reads and writes the cache.

    The V fill walks the index rows first, which builds the index if suite
    B has not, so the cache load's y < x check on every row is one bit
    test.  The R fill then computes only the pairs the cache did not hold.
    """
    vrows = compute_all(sys, policy=policy)
    rtable = rpoly.load_rtable(sys, policy, cache_dir)
    rrows = rtable.fill()
    rpoly.save_rtable(rtable, cache_dir, _strict_pairs(sys, rrows))
    return vrows, rrows, rtable.computed


def run_verify(type_text: str, budget: int = DEFAULT_BUDGET, policy: str = DESCENT_POLICIES[0],
               cache_dir: Path | None = None) -> dict:
    """Run every suite on one group and persist the R-polynomial cache.

    Returns the ``verify`` command's JSON payload: the system fingerprint,
    each suite's counts and first witness, and the elapsed milliseconds.
    The cache dir is made before any suite runs, so an unusable one fails
    the run before the whole-group work.
    """
    started = time.perf_counter()
    sys = build_system(type_text, budget=budget)
    if cache_dir is not None:
        _make_dir(Path(cache_dir), "cache")
    t, g, b, r, s, m = _SUITES  # read at call time, so a wrapper set on _SUITES sees each call
    order = b(sys)
    vrows, rrows, _ = fill_tables(sys, policy, cache_dir)
    drows = direct_rows(sys, policy)
    suites = [t(sys, vrows, rrows, drows), g(sys), order, r(sys, rrows, drows, policy),
              s(sys, vrows), m(sys, vrows)]
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return {
        "system": fingerprint(sys),
        "suites": [suite.as_dict() for suite in suites],
        "elapsed_ms": elapsed_ms,
    }


# ---------------------------------------------------------------------------
# report files


def run_report(type_text: str, budget: int = DEFAULT_BUDGET, policy: str = DESCENT_POLICIES[0],
               cache_dir: Path | None = None) -> dict:
    """Compute both tables for one group and write cache, dimension, summary files.

    Returns the dict written to ``summary_*.json`` plus ``paths`` (the three
    files written) and ``rtable_computed`` and ``vtable_computed`` (strict
    pairs computed rather than loaded).

    The output dir is made before any row is filled, so an unusable one
    fails the run before the whole-group work.  It is also the run's cache
    dir, so a second report warm-loads the R-polynomials the first wrote.
    The dimension table is streamed from the index rows zipped with the V
    and R rows, and its lines also give the summary's counts.
    """
    sys = build_system(type_text, budget=budget)
    out_dir = Path(cache_dir) if cache_dir is not None else Path("verma_ext_cache")
    _make_dir(out_dir, "output")
    vrows, rrows, rtable_computed = fill_tables(sys, policy, out_dir)
    fp = fingerprint(sys)
    histogram, dims = Counter(), Counter()

    def dimension_lines():
        from datetime import datetime, timezone  # here, so only a report loads it

        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        yield f"# dimension table\n# system: {fp}\n# generated_at: {stamp}\n"
        yield "x_word;y_word;dimV;gj_coeff;match\n"
        words = [word_text(sys, g) for g in enumerate_elements(sys)]  # by position
        for (x, lower), vrow, rrow in zip(comparable_rows(sys), vrows, rrows):
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
        "rtable_computed": rtable_computed,
        "vtable_computed": sum(map(len, vrows)) - len(vrows),
    }
