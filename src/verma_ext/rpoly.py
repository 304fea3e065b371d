"""R-polynomials and the first-order coefficient they carry.

``RTable(sys).r(y, x)`` computes the classical recursion on the upper
element: for a right descent s of x,

    R(y, x) = R(ys, xs)                       if ys < y
    R(y, x) = (q-1) R(y, xs) + q R(ys, xs)    if ys > y

with R(x, x) = 1 and R(y, x) = 0 unless y <= x.  For comparable pairs the
polynomial has degree length(x) - length(y), leading coefficient 1, constant
term (-1)**(length(x) - length(y)), and vanishes at q = 1 when y < x.

``gj_coefficient`` extracts the q^1 coefficient with the sign that makes it
a dimension count, and ``r_coeff_direct`` recomputes that number by an
independent first-order recursion that never builds polynomials.  The two
must agree; the verification suites check that they do.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

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
    """Integer polynomial in q, coefficients stored ascending and trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(int(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def eval_at(self, value: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

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


def write_atomic(path: Path | str, text: str) -> None:
    """Replace the file at ``path`` by ``text`` in one step.

    The text goes to a temp file beside the target, which ``os.replace``
    then moves onto it, so a crashed or concurrent run never leaves a
    half-written target; on any failure the temp file is removed and the
    target keeps its old content.  There is no fsync: this guards against
    a crashed process, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # already gone after a successful replace
            tmp.unlink()


class RTable:
    """Memo table of R-polynomials for one system, bound to a descent policy.

    ``computed`` counts entries produced by the recursion (cache loads do not
    count), which is how tests observe that a warm cache recomputes nothing.
    Only comparable pairs are stored; incomparable lookups return the zero
    polynomial without touching the table.
    """

    def __init__(self, sys: CoxeterSystem, policy: str = DESCENT_POLICIES[0]):
        check_policy(policy)
        self.sys = sys
        self.policy = policy
        self.entries: dict[tuple[GroupElement, GroupElement], IntPolynomial] = {}
        self.computed = 0

    def r(self, y: GroupElement, x: GroupElement) -> IntPolynomial:
        if y == x:
            return ONE
        if not bruhat_leq(self.sys, y, x):
            return ZERO
        key = (y, x)
        hit = self.entries.get(key)
        if hit is not None:
            return hit
        _, xs, ys, down = descend(self.sys, x, y, self.policy)
        if down:
            value = self.r(ys, xs)
        else:  # (q-1) a + q b = q (a + b) - a in one pass; b is zero or a degree below a
            a, b = self.r(y, xs).coeffs, self.r(ys, xs).coeffs
            b += (0,) * (len(a) - len(b))
            value = IntPolynomial([u + v - w for u, v, w in zip((0,) + a, (0,) + b, a + (0,))])
        # the recursion only reaches shorter x, so key is not stored yet
        self.entries[key] = value
        self.computed += 1
        return value

    # -- persistence -------------------------------------------------------

    def save_csv(self, path: Path | str) -> None:
        """Write all stored entries as ``y_word;x_word;c0,c1,...,cd`` rows."""
        sys = self.sys
        lines = [
            "# r-polynomial cache",
            f"# system: {fingerprint(sys)}",
            f"# policy: {self.policy}",
        ]
        items = sorted(
            self.entries.items(),
            key=lambda kv: (
                kv[0][1].length,
                kv[0][1].matrix,
                kv[0][0].length,
                kv[0][0].matrix,
            ),
        )
        for (y, x), poly in items:
            yw = word_text(sys, y)
            xw = word_text(sys, x)
            cs = ",".join(str(c) for c in poly.coeffs)
            lines.append(f"{yw};{xw};{cs}")
        write_atomic(path, "\n".join(lines) + "\n")

    def load_csv(self, path: Path | str) -> int:
        """Merge entries from a cache file, validating each row's invariants.

        Returns the number of rows loaded.  A row must name a pair y < x and
        carry the degree, leading coefficient, and constant term forced by
        the lengths; a row that does not is a ParseError, as is a system
        fingerprint mismatch.
        """
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc
        sys = self.sys
        expected_fp = fingerprint(sys)
        elements: dict[str, GroupElement] = {}  # word text -> element, for this load only
        loaded = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# system:") and line.split(":", 1)[1].strip() != expected_fp:
                    raise ParseError(
                        f"{path}:{lineno}: cache was built for {line.split(':', 1)[1].strip()}, "
                        f"this system is {expected_fp}"
                    )
                continue
            parts = line.split(";")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            for word in parts[:2]:
                if word not in elements:
                    elements[word] = element_from_word(sys, parse_word(word))
            y, x = elements[parts[0]], elements[parts[1]]
            if y == x or not bruhat_leq(sys, y, x):
                raise ParseError(f"{path}:{lineno}: {parts[0]} is not strictly below {parts[1]}")
            try:
                coeffs = tuple(int(c) for c in parts[2].split(","))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad coefficient list") from exc
            poly = IntPolynomial(coeffs)
            gap = x.length - y.length
            if poly.degree != gap or poly.coeff(gap) != 1 or poly.coeff(0) != (-1) ** gap:
                raise ParseError(
                    f"{path}:{lineno}: row violates degree or term invariants for gap {gap}"
                )
            key = (y, x)
            if key not in self.entries:
                self.entries[key] = poly
            loaded += 1
        return loaded


def gj_coefficient(sys: CoxeterSystem, x: GroupElement, y: GroupElement, table: RTable) -> int:
    """q^1 coefficient of the signed R-polynomial of y <= x; always nonnegative.

    The sign (-1)**(length(x) - length(y) + 1) cancels the alternation of the
    raw coefficients, so the result counts something.  A negative value here
    is not a data error but a broken structural guarantee, hence InvariantViolation.
    """
    check_below(sys, y, x)
    poly = table.r(y, x)
    sign = -1 if (x.length - y.length + 1) % 2 else 1
    value = sign * poly.coeff(1)
    if value < 0:
        raise InvariantViolation(
            f"signed q-coefficient {value} < 0 at pair ({word_text(sys, x)}, {word_text(sys, y)})"
        )
    return value


# Direct-route counts by pair (x, y), under one descent policy.
DirectMemo = dict[tuple[GroupElement, GroupElement], int]


def r_coeff_direct(
    sys: CoxeterSystem,
    x: GroupElement,
    y: GroupElement,
    policy: str = DESCENT_POLICIES[0],
    memo: DirectMemo | None = None,
) -> int:
    """The same first-order coefficient by a direct descent recursion.

    Strips one descent s from x per step (never building a polynomial):
    with x' = xs, the count for (x, y) is the count for (x', ys) when
    ys < y; the count for (x', y) when ys > y and x' >= ys; and one more
    than the count for (x', y) otherwise.  Each step shortens x, so the
    recursion is one chain of at most length(x) - length(y) steps.

    ``memo`` holds counts of pairs already counted under this policy.  The
    chain stops at the first pair ``memo`` holds and adds its count, so a
    whole-group pass in length order takes one step per pair.  Without it
    the chain runs down to the diagonal.
    """
    check_policy(policy)
    check_below(sys, y, x)
    total = 0
    while x != y:
        _, xs, ys, down = descend(sys, x, y, policy)
        if down:
            y = ys
        elif not bruhat_leq(sys, ys, xs):
            total += 1
        x = xs
        if memo and (x, y) in memo:
            return total + memo[(x, y)]
    return total
