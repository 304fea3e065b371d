"""Shared fixtures: built systems, filled V rows and lazy R tables are cached per session.

Group construction is cheap but whole-group fills are quadratic in |W|, so
tests share one fill per type through the factory fixtures below.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from verma_ext.coxeter import build_system, slot, walk
from verma_ext.rpoly import RTable, ascent_memo
from verma_ext.verify import _suite_r
from verma_ext.vtable import membership_elements, v_fill


def index_rows(sys):
    """The rows (x, the tuple of the y <= x) of one ``walk`` with no tables, by position: x ends its row."""
    return ((x, lower) for x, lower, *_ in walk(sys, "smallest"))


def table_rows(sys, fill, policy="smallest"):
    """The rows that the row function ``fill`` gives over one ``walk``, by position."""
    return [rows[0] for *_, rows in walk(sys, policy, fill)]


def comparable_pairs(sys):
    """The pairs (x, y) with y <= x, read off the rows of the Bruhat index as they are asked for."""
    return ((x, y) for x, lower in index_rows(sys) for y in lower)


def reader(sys, rows):
    """``read(x, y)``: the entry of filled rows for the pair y <= x, found by ``slot``."""
    return lambda x, y: rows[x.position][slot(sys, x, y)]


def filled_pairs(sys, rows):
    """(x, y, entry) for every pair y <= x of a filled table's rows, checking they align with the index."""
    index = list(index_rows(sys))
    assert len(rows) == len(index)
    for (x, lower), row in zip(index, rows):
        assert len(row) == len(lower)
        yield from ((x, y, entry) for y, entry in zip(lower, row))


def strict_pairs(sys, rows):
    """(x, y, entry) for each strict pair y < x of filled rows, in index-row order: a cache file's pairs."""
    return ((x, y, entry) for x, y, entry in filled_pairs(sys, rows) if y is not x)


def membership_rows(sys, vrows):
    """The V rows of ``membership_elements(sys)``, keyed by element, as suites S and M read them."""
    return {x: vrows[x.position] for x in membership_elements(sys)}


def run_rows(suite, sys, vrows, rrows, drows, policy="smallest"):
    """Suite T or R over one walk whose V, R and direct tables are the given filled rows, summed.

    The walk hands the suite one row at a time, as a verify pass does, and
    suite R one ascent memo for the whole walk; a table given as None fills
    its rows with None.
    """
    fills = [lambda x, *_, rows=rows: rows and rows[x.position] for rows in (vrows, rrows, drows)]
    extra = (ascent_memo(),) if suite is _suite_r else ()
    rows = walk(sys, policy, *fills)
    result = suite(sys, next(rows), *extra)
    for row in rows:
        result.add(suite(sys, row, *extra))
    return result


_SYSTEMS: dict[str, object] = {}
_VTABLES: dict[str, object] = {}
_RTABLES: dict[str, object] = {}


@pytest.fixture(scope="session")
def system():
    """Factory returning a memoized CoxeterSystem for a type string."""

    def get(type_text: str):
        key = type_text.upper()
        if key not in _SYSTEMS:
            _SYSTEMS[key] = build_system(type_text)
        return _SYSTEMS[key]

    return get


@pytest.fixture(scope="session")
def vtable(system):
    """Factory returning the ``v_fill`` rows of a type (smallest-descent policy), aligned with the index rows."""

    def get(type_text: str):
        key = type_text.upper()
        if key not in _VTABLES:
            sys = system(type_text)
            _VTABLES[key] = table_rows(sys, v_fill(sys))
        return _VTABLES[key]

    return get


@pytest.fixture(scope="session")
def rtable(system):
    """Factory returning a session-shared lazy RTable, whose memo fills as callers query it."""

    def get(type_text: str):
        key = type_text.upper()
        if key not in _RTABLES:
            _RTABLES[key] = RTable(system(type_text))
        return _RTABLES[key]

    return get


class _TornFile:
    """A file open for writing that takes half of the first piece, then fails as a full disk does."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


@pytest.fixture
def torn_writes(monkeypatch):
    """Make every file opened for writing through ``Path.open`` tear on its first write."""
    real_open = Path.open

    def torn_open(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        return _TornFile(handle) if "w" in mode else handle

    monkeypatch.setattr(Path, "open", torn_open)
