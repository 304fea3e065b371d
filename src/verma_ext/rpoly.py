"""R-polynomials and the first-order coefficient they carry.

``RTable(sys).r(y, x)`` computes the classical recursion on the upper
element: for a right descent s of x,

    R(y, x) = R(ys, xs)                       if ys < y
    R(y, x) = (q-1) R(y, xs) + q R(ys, xs)    if ys > y

with R(x, x) = 1 and R(y, x) = 0 unless y <= x.  For comparable pairs the
polynomial has degree length(x) - length(y), leading coefficient 1, constant
term (-1)**(length(x) - length(y)), and vanishes at q = 1 when y < x.
``RTable.r`` recurses from one pair into a sparse memo; ``RTable.row_fill``
gives the row function by which ``coxeter.walk`` takes the same step once
per pair, in rows aligned with the Bruhat index; each keeps an ascent memo
of its own.

``IntPolynomial.gj`` is the q^1 coefficient with the sign that makes it a
dimension count; ``r_coeff_direct`` (one pair) and ``direct_row`` (every
pair, a row at a time, a row function for ``coxeter.walk``) recompute it by
a first-order recursion that never builds polynomials.  The routes must
agree; the verification suites check that they do.  ``load_rtable`` and
``save_rtable`` read and write the R cache, one csv file per system in a
cache dir, by ``RTable.load_csv`` and ``RTable.save_csv``, whose
``RTable.csv_lines`` a whole-group pass also calls a row at a time, with
word and coefficient memos kept for the table's life; ``atomic_file`` is
the one way a file is written.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import TextIO

from .coxeter import (
    DESCENT_POLICIES,
    CoxeterSystem,
    GroupElement,
    bruhat_leq,
    check_below,
    check_policy,
    descend,
    element_from_word,
    fingerprint,
    parse_word,
    word_text,
)
from .errors import InvariantViolation, IoError, ParseError


class IntPolynomial:
    """Integer polynomial in q, coefficients stored ascending and trimmed.

    The coefficients are taken as given, so they must already be ints: the
    recursion makes them so, and the cache loader parses them.  ``gj`` is
    the q^1 coefficient times (-1)**(degree + 1), 0 below degree 1;
    ``r_shaped`` is the R-polynomial rule: degree >= 1, leading coefficient
    1, constant term (-1)**degree, value 0 at q = 1 and ``gj`` >= 0.
    """

    __slots__ = ("coeffs", "gj", "r_shaped")

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs
        degree = len(coeffs) - 1
        self.gj = (coeffs[1] if degree % 2 else -coeffs[1]) if degree >= 1 else 0
        self.r_shaped = (degree >= 1 and coeffs[-1] == 1 and coeffs[0] == (-1) ** degree
                         and not sum(coeffs) and self.gj >= 0)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        """Render like ``q^3-2q^2+2q-1``; the zero polynomial prints as ``0``."""
        if not self.coeffs:
            return "0"
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if pieces else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "q" if k == 1 else f"q^{k}"
                body = power if mag == 1 else f"{mag}{power}"
            pieces.append(sign + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs})"


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))


@contextlib.contextmanager
def atomic_file(path: Path | str) -> Iterator[TextIO]:
    """A text file to write that replaces the file at ``path`` in one step when the block ends.

    The text goes to a temp file beside the target as it is written, which
    ``os.replace`` then moves onto it, so a crashed or concurrent run never
    leaves a half-written target; on any failure the temp file is removed
    and the target keeps its old content.  No fsync: this guards against a
    crashed process, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as out:
            yield out
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # already gone after a successful replace
            tmp.unlink()


class RTable:
    """R-polynomials of one system, bound to a descent policy.

    ``r`` and ``load_csv`` keep R(y, x) in a sparse memo, ``_memo[x][y]``,
    one row per upper element x keyed by the lower element y; each row
    starts as {x: ONE}, so it holds its diagonal.  ``row_fill`` fills every
    pair's R(y, x) as rows and takes each row out of the memo.  ``computed``
    counts the strict pairs y < x the recursion produced, so tests see that
    a warm cache recomputes nothing, and ``loaded`` the distinct strict
    pairs that cache loads added.  Incomparable lookups return the zero
    polynomial without touching the table.  The cache file holds the
    strict pairs only.
    """

    def __init__(self, sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0]):
        check_policy(policy)
        self.sys = sys
        self.policy = policy
        self._memo: dict[GroupElement, dict[GroupElement, IntPolynomial]] = {}
        self.computed = self.loaded = 0
        self.ascent = ascent_memo()  # the lazy path's: ``row_fill`` makes its own
        self._words = functools.cache(functools.partial(word_text, sys))  # csv_lines' memos
        self._coeffs: dict[int, tuple[str, IntPolynomial]] = {}  # by id, with the polynomial

    def r(self, y: GroupElement, x: GroupElement) -> IntPolynomial:
        if y is x:
            return ONE
        if not bruhat_leq(self.sys, y, x):
            return ZERO
        row = self._memo.get(x) or self._memo.setdefault(x, {x: ONE})
        hit = row.get(y)
        if hit is not None:
            return hit
        _, xs, ys, down = descend(self.sys, x, y, self.policy)
        # the recursion only reaches shorter x, so it leaves x's row as it is
        value = row[y] = self.r(ys, xs) if down else self.ascent(self.r(y, xs), self.r(ys, xs))
        self.computed += 1
        return value

    def row_fill(self) -> Callable:
        """The row function by which ``coxeter.walk`` fills R(y, x) for every pair y <= x.

        Each row ends with ONE.  A pair the memo holds takes that entry, every
        other pair one step from the row of xs, counted in ``computed``; an
        ascent memo of the fill's own shares the results (F4: 435 objects in
        all).  Each row is taken out of the memo as it is filled.
        """
        ascent, memo = ascent_memo(), self._memo

        def fill(x, lower, s, below, first, second):
            loaded = memo.pop(x, None)
            if loaded is None:
                row = r_steps(ascent, below, first, second)
                row.append(ONE)
                self.computed += len(first)
                return row
            row = list(map(loaded.get, lower))  # x's index row, as the memo holds it
            row[-1] = ONE
            missing = [k for k, poly in enumerate(row) if poly is None]
            if missing:
                steps = r_steps(ascent, below, first, second)
                for k in missing:
                    row[k] = steps[k]
                self.computed += len(missing)
            return row

        return fill

    def memo_pairs(self) -> Iterator[tuple[GroupElement, GroupElement, IntPolynomial]]:
        """The memo's strict pairs as (x, y, R(y, x)), by (length, matrix) on x, then on y."""
        memo = self._memo
        order = lambda g: (g.length, g.matrix)  # noqa: E731
        for x in sorted(memo, key=order):
            row = memo[x]
            for y in sorted(row, key=order):
                if y is not x:
                    yield x, y, row[y]

    # -- persistence -------------------------------------------------------

    def save_csv(self, path: Path | str, pairs: Iterable[tuple]) -> None:
        """Write strict pairs (x, y, R(y, x)) to a cache file by ``csv_header`` and ``csv_lines``."""
        with atomic_file(path) as out:
            out.write(self.csv_header())
            out.writelines(self.csv_lines(pairs))

    def csv_header(self) -> str:
        return f"# r-polynomial cache\n# system: {fingerprint(self.sys)}\n# policy: {self.policy}\n"

    def csv_lines(self, pairs: Iterable[tuple]) -> Iterator[str]:
        """Strict pairs (x, y, R(y, x)) as ``y_word;x_word;c0,c1,...,cd`` rows, streamed.

        The pairs come by (length, matrix) on x, then on y, as ``memo_pairs``
        and filled rows zipped with the index rows give them, in one call or
        a row per call.  Each element's word text and each polynomial
        object's coefficient text is formatted once for the table's life;
        the text memo keeps each polynomial it holds, so no id it keys on is
        reused.
        """
        word, coeffs = self._words, self._coeffs
        for x, y, poly in pairs:
            hit = coeffs.get(id(poly))
            if hit is None:
                hit = coeffs[id(poly)] = ",".join(map(str, poly.coeffs)), poly
            yield f"{word(y)};{word(x)};{hit[0]}\n"

    def load_csv(self, path: Path | str) -> int:
        """Merge entries from a cache file into the memo, streamed, validating each row.

        Load before ``row_fill``, which takes its entries.  Returns the number of
        rows loaded; ``loaded`` grows by the pairs that were new.  A row must
        name a pair y < x, carry an ``r_shaped`` polynomial of degree
        length(x) - length(y) and agree with the memo's entry for its pair,
        if any; a row that does not, or a system fingerprint mismatch, is a
        ParseError that names ``path:lineno``, as is a byte that is not
        UTF-8 (by file offset).
        Each distinct coefficient list is parsed and checked once per gap,
        and the rows that carry it share one polynomial.  A row that passes
        all of these can still be wrong: ``verify``'s suite R checks it
        against the recursion; ``rpoly`` and ``report`` print it as loaded.
        """
        sys, rows = self.sys, self._memo
        fp = fingerprint(sys)
        words: dict[str, GroupElement] = {}  # word text -> element, for this load only
        polys: dict[tuple[str, int], IntPolynomial] = {}  # (coefficient text, gap) -> checked
        held, loaded = sum(map(len, rows.values())) - len(rows), 0  # strict pairs in the memo, rows
        for lineno, line in enumerate(_text_lines(path), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    found = line.split(":", 1)[-1].strip()
                    if line.startswith("# system:") and found != fp:
                        raise ParseError(f"cache was built for {found}, this system is {fp}")
                    continue
                parts = line.split(";")
                if len(parts) != 3:
                    raise ParseError(f"expected 3 fields, got {len(parts)}")
                yw, xw, cs = parts
                y = words.get(yw) or words.setdefault(yw, element_from_word(sys, parse_word(yw)))
                x = words.get(xw) or words.setdefault(xw, element_from_word(sys, parse_word(xw)))
                if y is x or not bruhat_leq(sys, y, x):
                    raise ParseError(f"{yw} is not strictly below {xw}")
                key = (cs, x.length - y.length)
                poly = polys.get(key) or polys.setdefault(key, _parse_checked(*key))
                row = rows.get(x) or rows.setdefault(x, {x: ONE})
                known = row.setdefault(y, poly)
                if known is not poly and known.coeffs != poly.coeffs:
                    raise ParseError(f"{yw} < {xw} already has R-polynomial {known}, not {poly}")
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            loaded += 1
        self.loaded += sum(map(len, rows.values())) - len(rows) - held
        return loaded


def _rpoly_cache_path(directory: Path | str, sys: CoxeterSystem) -> Path:
    return Path(directory) / f"rpoly_{fingerprint(sys)}.csv"


def _make_dir(path: Path, what: str) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {what} dir {path}: {exc}") from exc


def load_rtable(sys: CoxeterSystem, policy: str, cache_dir: Path | None) -> RTable:
    """An R-polynomial table, warm-loaded from the cache dir when it holds this system's file."""
    rtable = RTable(sys, policy=policy)
    if cache_dir is not None:
        cache = _rpoly_cache_path(cache_dir, sys)
        if cache.exists():
            rtable.load_csv(cache)
    return rtable


def save_rtable(rtable: RTable, cache_dir: Path | None) -> None:
    """Write the memo's pairs (``memo_pairs``) into the cache dir by ``save_csv``, if there is one.

    A cache file the table computed nothing beyond already holds these rows,
    so it is left as it is.
    """
    if cache_dir is None:
        return
    cache = _rpoly_cache_path(cache_dir, rtable.sys)
    if rtable.computed == 0 and cache.exists():
        return
    _make_dir(cache.parent, "cache")
    rtable.save_csv(cache, rtable.memo_pairs())


def _text_lines(path: Path | str) -> Iterator[str]:
    """The lines of a UTF-8 file as ``str.splitlines`` cuts its text, read about 64 KB at a time.

    Each block is whole lines, decoded on its own, so a byte that is not
    UTF-8 raises a ParseError whose position counts from the start of the
    file, as a decode of the whole text would.
    """
    try:
        with Path(path).open("rb") as data:
            offset = 0
            while block := data.readlines(1 << 16):
                raw = b"".join(block)
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    start, end = offset + exc.start, offset + exc.end - 1
                    where = (f"byte 0x{raw[exc.start]:02x} in position {start}" if start == end
                             else f"bytes in position {start}-{end}")
                    raise ParseError(
                        f"{path}: not UTF-8 text: '{exc.encoding}' codec can't decode "
                        f"{where}: {exc.reason}"
                    ) from exc
                yield from text.splitlines()
                offset += len(raw)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _parse_checked(text: str, gap: int) -> IntPolynomial:
    """The polynomial of a cache row's coefficient list, checked against the pair's gap."""
    pieces = [c.strip() for c in text.split(",")]  # int() would also take "+1" and "١"
    try:
        if not all(c.removeprefix("-").isascii() and c.removeprefix("-").isdigit() for c in pieces):
            raise ValueError(text)
        poly = IntPolynomial(map(int, pieces))  # int() raises ValueError past its digit limit too
    except ValueError:
        raise ParseError("bad coefficient list") from None
    if poly.degree != gap or poly.coeff(gap) != 1 or poly.coeff(0) != (-1) ** gap:
        raise ParseError(f"row violates degree or term invariants for gap {gap}")
    if not poly.r_shaped:
        raise ParseError("row has R(1) != 0 or a negative signed q-coefficient")
    return poly


def ascent_memo() -> Callable[[IntPolynomial, IntPolynomial], IntPolynomial]:
    """R(y, x) = (q-1) a + q b = q (a + b) - a on an ascent, a = R(y, xs), b = R(ys, xs).

    Memoised on the ids of the inputs, which it keeps alive so that no id it
    holds is reused, whatever its caller drops; one object per result.
    """
    by_ids: dict[tuple[int, int], tuple[IntPolynomial, IntPolynomial, IntPolynomial]] = {}
    shared: dict[tuple[int, ...], IntPolynomial] = {}

    def ascent(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
        hit = by_ids.get((id(a), id(b)))
        if hit is None:
            u, v = a.coeffs, b.coeffs
            v += (0,) * (len(u) - len(v))
            value = IntPolynomial([i + j - k for i, j, k in zip((0,) + u, (0,) + v, u + (0,))])
            hit = by_ids[id(a), id(b)] = (shared.setdefault(value.coeffs, value), a, b)
        return hit[0]

    return ascent


def gj_coefficient(sys: CoxeterSystem, x: GroupElement, y: GroupElement, table: RTable) -> int:
    """q^1 coefficient of the signed R-polynomial of y <= x; always nonnegative.

    The sign (-1)**(length(x) - length(y) + 1) cancels the alternation of the
    raw coefficients, so the result counts something.  A negative value here
    is not a data error but a broken structural guarantee, hence InvariantViolation.
    """
    check_below(sys, y, x)
    value = table.r(y, x).gj
    if value < 0:
        raise InvariantViolation(
            f"signed q-coefficient {value} < 0 at pair ({word_text(sys, x)}, {word_text(sys, y)})"
        )
    return value


def r_coeff_direct(
    sys: CoxeterSystem, x: GroupElement, y: GroupElement, policy: str = DESCENT_POLICIES[0]
) -> int:
    """The same first-order coefficient by a direct descent recursion.

    Strips one descent s from x per step (never building a polynomial):
    with x' = xs, the count for (x, y) is the count for (x', ys) when
    ys < y; the count for (x', y) when ys > y and x' >= ys; and one more
    than the count for (x', y) otherwise.  Each step shortens x, so the
    recursion is one chain of at most length(x) - length(y) steps.
    """
    check_policy(policy)
    check_below(sys, y, x)
    total = 0
    while x is not y:
        _, xs, ys, down = descend(sys, x, y, policy)
        if down:
            y = ys
        elif not bruhat_leq(sys, ys, xs):
            total += 1
        x = xs
    return total


def r_steps(ascent: Callable, below: list | None, first, second) -> list[IntPolynomial]:
    """R(y, x) for each strict pair of x's row, one step from the row of xs, below.

    first and second are the pairs' slots into below (``coxeter.walk``):
    R(ys, xs) when they are equal, as ys < y, and otherwise the ascent of
    R(y, xs) and R(ys, xs), which is 0 when second is -1, as ys is not below xs.
    """
    return [below[a] if a == b else ascent(below[a], below[b] if b >= 0 else ZERO)
            for a, b in zip(first, second)]


def direct_row(x, lower, s, below, first, second) -> bytes:
    """``r_coeff_direct``'s count for each pair of x's row, a row function for ``coxeter.walk``.

    Each pair takes one step to the counted pair below, and counts one more
    when it ascends to a ys that is not below xs: then its second slot is -1.
    """
    return bytes([below[a] + (b < 0) for a, b in zip(first, second)] + [0])
