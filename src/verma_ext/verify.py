"""Whole-group verification suites and report files.

``run_verify`` builds one group and runs six suites, listed in output
order:

    T  dim V(x, y) against both first-order coefficient routes, all pairs
    G  reflection representation sanity: involutions, braid orders, pairings
    B  Bruhat order: lifting recursion, bitmask index and subword oracle agree,
       compared as one mask of the x <= y per y
    R  R-polynomial shape, route agreement and one recursion step per pair,
       the step read off the walk's descent slots
    S  quotient dimensions for every singular subset
    M  membership of v_s in V(x, y) against the order prediction, on the
       rows where the prediction is asserted to be exact

Each suite reports how many atomic checks ran and how many failed, plus a
witness for the first failure, in a ``SuiteResult``, which formats that
witness only when the payload is built.  Suite B, which reads
no rows, runs first.  Then one ``coxeter.walk`` fills the V, R and direct
count rows, handed over one row at a time (``_rows``): suites T and R check
each row and are summed by ``SuiteResult.add``, and the V rows of the
``membership_elements`` are kept for suites S and M.  No pair is looked up
by element or re-tested against the order, and each R-polynomial's shape
and signed q-coefficient are read off the polynomial (``r_shaped`` and
``gj``, computed once per distinct polynomial).  The walk also rewrites the
R cache file, ``rpoly``'s; ``run_report`` writes it, the dimension table,
during the same walk, and a summary; everything written is deterministic
except an explicit generated_at comment line.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import nullcontext
from functools import partial
from itertools import combinations
from pathlib import Path

from .coxeter import (
    DEFAULT_BUDGET,
    DESCENT_POLICIES,
    GroupElement,
    braid_order,
    bruhat_index,
    build_system,
    enumerate_elements,
    fingerprint,
    identity,
    longest_element,
    multiply,
    simple_reflection,
    subword_rows,
    walk,
    word_text,
    _right_image,
    _right_steps,
)
# load_rtable by attribute: perfbench's tracer spans a function imported by name, and a
# span around it would hide the RTable.load_csv span inside
from . import rpoly
from .reflection import apply_element, basis_vector, coroot_pairing, reflect
from .rpoly import RTable, _make_dir, _rpoly_cache_path, atomic_file, direct_row, r_steps
from .vtable import SingularSpec, membership_elements, membership_report, singular_v, v_fill

PRESETS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A1xA1", "A1xA2")


class SuiteResult:
    """One suite's counts and first witness; ``as_dict`` gives its payload entry."""

    __slots__ = ("name", "checked", "failed", "witness")

    def __init__(self, name: str, checked: int = 0):
        self.name, self.checked, self.failed, self.witness = name, checked, 0, None

    def as_dict(self) -> dict:
        """The four fields by name, in declaration order, the first witness built here."""
        w = self.witness
        return {"name": self.name, "checked": self.checked, "failed": self.failed,
                "witnesses": [] if w is None else [w() if callable(w) else w]}

    def note_failure(self, witness: dict | Callable[[], dict], count: int = 1) -> None:
        """Count failures and keep the first witness: a dict, or a function of values bound now."""
        self.failed += count
        if self.witness is None:
            self.witness = witness

    def add(self, other: SuiteResult) -> None:
        """Sum in the counts of a later run of the suite, keeping the first witness."""
        self.checked += other.checked
        if other.failed:
            self.note_failure(other.witness, other.failed)


# ---------------------------------------------------------------------------
# suites


def _witness(sys, x, y, space=None, **fields) -> dict:
    """A failing pair's witness: the words of x and y, the suite's fields, then a subspace's basis."""
    basis = {} if space is None else {"basis": space.to_json_dict()["basis"]}
    return {"x": word_text(sys, x), "y": word_text(sys, y), **fields, **basis}


def _suite_t(sys, row: tuple) -> SuiteResult:
    """dim V(x, y) == signed q-coefficient == direct recursion, on every pair of a walk row."""
    x, lower, *_, (vrow, rrow, drow) = row
    out = SuiteResult("T", checked=len(lower))
    for y, space, poly, count in zip(lower, vrow, rrow, drow):
        d, g = space.dim, poly.gj
        if not (d == g == count):
            out.note_failure(partial(_witness, sys, x, y, space, dim=d, gj=g, direct=count))
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
    """(y, index, lifting, oracle) for each y that ``subword_rows`` reaches, by position.

    Each row is the bitmask of the positions of the x <= y, by one route:
    y's index mask, from ``bruhat_index``; the lifting property on the
    lifting row L of ys, for s the largest descent of y (x <= y iff x <= ys
    when xs > x, iff xs <= ys when xs < x), that is A | A s for A the
    elements of L with ascent s, where the index takes the smallest descent
    and D(ws) | D(ws) s; and y's subword products from ``subword_rows``,
    each oracle number mapped to a position once, where distinct numbers
    make the sum of bits an OR.
    """
    index = bruhat_index(sys)  # or refuses a group too large to walk, first
    elements = enumerate_elements(sys)
    steps = _right_steps(sys)
    has_descent = [sum(1 << g.position for g in elements if g.descents >> s & 1)
                   for s in range(sys.rank)]
    position = {g.matrix: g.position for g in elements}
    to_position: list[int] = []  # by the oracle's number
    lifting = [1]  # by position: the identity is below itself alone
    for y, products, numbered in subword_rows(sys):  # the oracle's tables go with the generator
        if y.descents:
            s = y.descents.bit_length() - 1
            ascents = lifting[steps[s][y.position]] & ~has_descent[s]
            lifting.append(ascents | _right_image(ascents, steps[s]))
        to_position += map(position.__getitem__, numbered[len(to_position):])
        by_oracle = sum(map((1).__lshift__, map(to_position.__getitem__, products)))
        yield y, index[y.position], lifting[y.position], by_oracle


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
            out.note_failure(partial(_witness, sys, elements[k], y, recursive=bool(lifting >> k & 1),
                                     index=bool(index >> k & 1), oracle=bool(oracle >> k & 1)),
                             wrong.bit_count())
    return out


def _suite_r(sys, row: tuple, ascent: Callable) -> SuiteResult:
    """Each R(y, x) of a walk row: its shape, its count against the direct route, and one recursion step.

    An entry passes when its degree is the pair's gap, it is ``r_shaped``,
    its ``gj`` is the direct count and it equals the recursion's step.  The
    rows are aligned with the index rows, so they hold the comparable pairs
    and no other: R is 0 on every other pair.  Each R(y, x) must equal the
    recursion's step from the row of xs, so by induction every row, loaded
    or computed, is the recursion's.  The step is taken by ``rpoly.r_steps``
    from the walk's slots into the row of xs, with the caller's ascent memo,
    one per walk.  ``checked`` counts |W| per row, so |W|^2 over the walk.
    """
    upper, lower, _, first, second, (_, below, _), (_, rrow, drow) = row
    out = SuiteResult("R", checked=sys.group_order)
    steps = r_steps(ascent, below, first, second)
    # the steps end before upper, which ends its row; the fill makes R(upper, upper) = 1
    for y, step, poly, count in zip(lower, steps, rrow, drow):
        if not (poly.degree == upper.length - y.length and poly.r_shaped and poly.gj == count
                and poly.coeffs == step.coeffs):
            out.note_failure(partial(_witness, sys, upper, y, coeffs=list(poly.coeffs)))
    return out


def _suite_s(sys, vrows: dict) -> SuiteResult:
    """Quotient dimension of V(longest, identity) for every singular subset."""
    out = SuiteResult("S")
    top = vrows[longest_element(sys)][0]  # V(w0, e): the identity is first in every row
    for k in range(sys.rank + 1):  # by size, then lexicographically
        for subset in combinations(range(sys.rank), k):
            spec = SingularSpec(frozenset(subset))
            space = singular_v(sys, top, spec)
            out.checked += 1
            if space.dim != sys.rank - k:
                out.note_failure({"subset": str(spec), "dim": space.dim, "expected": sys.rank - k})
    return out


def _suite_m(sys, vrows: dict) -> SuiteResult:
    """On flagged report rows, membership of v_s must equal the prediction x >= ys."""
    out = SuiteResult("M")
    for row in membership_report(sys, vrows):
        out.checked += 1
        if row.in_v != row.x_ge_ys:
            out.note_failure(partial(_witness, sys, row.x, row.y, s=row.s, in_v=row.in_v,
                                     x_ge_ys=row.x_ge_ys))
    return out


# In output order; run_verify runs suite B first, so its oracle is freed before the walk.
_SUITES = (_suite_t, _suite_g, _suite_b, _suite_r, _suite_s, _suite_m)


def _rows(sys, rtable: RTable, cache_dir: Path | None, *fills) -> Iterator[tuple]:
    """The rows of one ``walk`` with the V and R fills, then ``fills``, passed on as they come.

    ``rtable`` is loaded from the cache dir after the index was built.  The
    cache file is rewritten, a row's strict pairs once the row was taken,
    unless the loaded file already holds every strict pair of the index, so
    that the walk computes nothing; that is decided before the walk.
    """
    index = bruhat_index(sys)
    stale = rtable.loaded < sum(map(int.bit_count, index)) - len(index)
    cache = _rpoly_cache_path(cache_dir, sys) if cache_dir is not None and stale else None
    with nullcontext() if cache is None else atomic_file(cache) as out:
        if out is not None:
            out.write(rtable.csv_header())
        for row in walk(sys, rtable.policy, v_fill(sys), rtable.row_fill(), *fills):
            yield row
            if out is not None:
                x, lower, *_, (_, rrow, *_) = row
                out.writelines(rtable.csv_lines((x, y, poly) for y, poly in zip(lower[:-1], rrow)))


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
    bruhat_index(sys)  # builds the index, so each cache row's order check is one bit test
    rtable = rpoly.load_rtable(sys, policy, cache_dir)
    pairs, steps, ascent = SuiteResult("T"), SuiteResult("R"), rtable.ascent  # r's memo, unused here
    vrows = dict.fromkeys(membership_elements(sys))  # V rows kept for suites S and M
    for row in _rows(sys, rtable, cache_dir, direct_row):
        pairs.add(t(sys, row))
        steps.add(r(sys, row, ascent))
        if row[0] in vrows:
            vrows[row[0]] = row[-1][0]
    suites = [pairs, g(sys), order, steps, s(sys, vrows), m(sys, vrows)]
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
    The dimension table is written during the walk, a row at a time, and
    its lines also give the summary's counts.
    """
    from datetime import datetime, timezone  # here, so only a report loads it

    sys = build_system(type_text, budget=budget)
    out_dir = Path(cache_dir) if cache_dir is not None else Path("verma_ext_cache")
    _make_dir(out_dir, "output")
    fp = fingerprint(sys)
    bruhat_index(sys)  # builds the index, so each cache row's order check is one bit test
    rtable = rpoly.load_rtable(sys, policy, out_dir)
    words = [word_text(sys, g) for g in enumerate_elements(sys)]  # by position
    histogram, dims = Counter(), Counter()
    dims_path = out_dir / f"dims_{fp}.csv"
    with atomic_file(dims_path) as out:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        out.write(f"# dimension table\n# system: {fp}\n# generated_at: {stamp}\n")
        out.write("x_word;y_word;dimV;gj_coeff;match\n")
        for x, lower, *_, (vrow, rrow) in _rows(sys, rtable, out_dir):
            xw = words[x.position]
            for y, space, poly in zip(lower, vrow, rrow):  # the index row's own pairs
                d, g = space.dim, poly.gj
                dims[d] += 1
                histogram[g] += 1
                out.write(f"{xw};{words[y.position]};{d};{g};{int(d == g)}\n")
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
    with atomic_file(summary_path) as out:
        out.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {
        **summary,
        "paths": {
            "rpoly": str(_rpoly_cache_path(out_dir, sys)),
            "dims": str(dims_path),
            "summary": str(summary_path),
        },
        "rtable_computed": rtable.computed,
        "vtable_computed": dims.total() - sys.group_order,
    }
