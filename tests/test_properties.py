"""Property tests: text from outside the program parses or fails as a package error.

Each parser of outside input (words, type descriptors, singular subsets and
R-cache files) gets generated input; any exception that is not a
VermaExtError subclass, which the command line would print as a traceback,
fails the test.  Runs are derandomized and keep no example database, so the
suite stays deterministic.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from verma_ext.coxeter import (  # noqa: E402
    TypeDescriptor,
    bruhat_leq,
    build_system,
    enumerate_elements,
    format_word,
    parse_word,
)
from verma_ext.errors import VermaExtError  # noqa: E402
from verma_ext.rpoly import ONE, RTable  # noqa: E402
from verma_ext.vtable import SingularSpec  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# Free text, and text drawn from the characters each grammar is made of,
# including digits str.isdigit() accepts and int() does not.
WORDS = st.one_of(st.text(), st.text(alphabet="0123456789,e ²١_\n"))
TYPES = st.one_of(st.text(), st.text(alphabet="ABCDEFGQabdgxX0123456789 ²"))


@PROPERTY
@given(WORDS)
def test_parse_word_round_trips_or_raises_a_package_error(text):
    try:
        word = parse_word(text)
    except VermaExtError:
        return
    assert parse_word(format_word(word)) == word


@PROPERTY
@given(TYPES, st.integers(min_value=-10, max_value=10**7))
def test_type_parse_and_build_raise_only_package_errors(text, budget):
    try:
        sys = build_system(TypeDescriptor.parse(text), budget=budget)
    except VermaExtError:
        return
    assert sys.group_order <= budget
    assert TypeDescriptor.parse(str(sys.descriptor)) == sys.descriptor


@PROPERTY
@given(st.one_of(WORDS, st.sampled_from(["١", "1_0", "0,١", "1_0,2"])))
def test_singular_parse_raises_only_package_errors(text):
    try:
        spec = SingularSpec.parse(text)
    except VermaExtError:
        return
    pieces = [p.strip() for p in text.split(",")]
    assert all(p.isascii() and p.isdigit() for p in pieces if p)
    assert spec.indices == {int(p) for p in pieces if p}


@pytest.fixture(scope="module")
def a2_cache(tmp_path_factory):
    """An A2 system and the bytes of its full R-polynomial cache file."""
    sys = build_system("A2")
    table = RTable(sys)
    elements = enumerate_elements(sys)
    for x in elements:
        for y in elements:
            table.r(y, x)
    path = tmp_path_factory.mktemp("cache") / "rpoly.csv"
    table.save_csv(path, table.memo_pairs())
    return sys, path.read_bytes(), path


@st.composite
def byte_edits(draw, size):
    """Up to four (position, replacement) edits: deletions, overwrites, insertions."""
    edits = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=size))
        stop = draw(st.integers(min_value=start, max_value=min(size, start + 3)))
        edits.append((start, stop, draw(st.binary(max_size=3))))
    return edits


@PROPERTY
@given(data=st.data())
def test_mutated_cache_loads_checked_rows_or_raises_a_package_error(a2_cache, data):
    sys, clean, path = a2_cache
    mutated = bytearray(clean)
    for start, stop, insert in data.draw(byte_edits(len(clean))):
        mutated[start:stop] = insert
    path.write_bytes(bytes(mutated))
    table = RTable(sys)
    try:
        table.load_csv(path)
    except VermaExtError:
        return
    for x, row in table._memo.items():
        for y, poly in row.items():
            if y is x:  # each row holds its diagonal, which the file never carries
                assert poly == ONE
                continue
            gap = x.length - y.length
            assert y is not x and bruhat_leq(sys, y, x)
            assert poly.degree == gap and poly.coeff(gap) == 1 and poly.coeff(0) == (-1) ** gap
