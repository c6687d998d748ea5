from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cliffideals.linalg import Echelon

KEYS = 12

coefficients = st.sampled_from(
    [Fraction(c) for c in (-2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]
)
vectors = st.dictionaries(st.integers(0, KEYS - 1), coefficients, max_size=5)
vector_lists = st.lists(vectors, max_size=14)


def naive_rref(vecs):
    """Dense Gauss-Jordan elimination, keys in ascending order."""
    rows = [[Fraction(v.get(k, 0)) for k in range(KEYS)] for v in vecs]
    out = []
    for col in range(KEYS):
        pick = next((r for r in rows if r[col]), None)
        if pick is None:
            continue
        rows.remove(pick)
        pick = [x / pick[col] for x in pick]
        rows = [[x - r[col] * y for x, y in zip(r, pick)] for r in rows]
        out = [[x - r[col] * y for x, y in zip(r, pick)] for r in out]
        out.append(pick)
    return [{k: x for k, x in enumerate(r) if x} for r in out]


def check_echelon(ech):
    rows = ech._rows
    for p, row in rows.items():
        assert min(row) == p and row[p] == 1
        assert not any(k in rows for k in row if k != p)
    index = {}
    for p, row in rows.items():
        for k in row:
            if k != p:
                index.setdefault(k, set()).add(p)
    assert ech._cols == index


def fill(ech, vecs):
    for v in vecs:
        before = ech.rank
        assert ech.add(v) == (ech.rank == before + 1)
        check_echelon(ech)


@settings(max_examples=200, deadline=None)
@given(vecs=vector_lists)
def test_add_keeps_rref_and_index(vecs):
    ech = Echelon()
    fill(ech, vecs)
    assert ech.rows() == naive_rref(vecs)


@settings(max_examples=200, deadline=None)
@given(
    first=vector_lists,
    start=st.integers(0, KEYS),
    more_copy=vector_lists,
    more_taken=vector_lists,
)
def test_copy_and_take_carry_consistent_indexes(first, start, more_copy, more_taken):
    ech = Echelon()
    fill(ech, first)
    rows = [dict(row) for row in ech.rows()]  # taken keeps the originals
    part = Echelon.from_rref([dict(row) for row in ech.rows() if min(row) >= start])
    check_echelon(part)
    kept = [row for row in rows if min(row) >= start]
    assert part.rows() == kept
    taken = ech.take()
    check_echelon(taken)
    assert taken.rows() == rows
    assert ech.rank == 0 and ech._cols == {}
    fill(part, more_copy)
    fill(taken, more_taken)
    assert part.rows() == naive_rref(kept + more_copy)
    assert taken.rows() == naive_rref(rows + more_taken)
    fill(ech, more_copy)
    assert ech.rows() == naive_rref(more_copy)


@settings(max_examples=200, deadline=None)
@given(vecs=vector_lists)
def test_from_rref_rebuilds_the_index_and_unit_lookup_matches_contains(vecs):
    ech = Echelon()
    fill(ech, vecs)
    rebuilt = Echelon.from_rref([dict(row) for row in ech.rows()])
    check_echelon(rebuilt)
    assert rebuilt.rows() == ech.rows()
    units = ech.unit_pivots()
    for key in range(KEYS):
        assert (key in units) == ech.contains({key: Fraction(1)})


def test_from_rref_refuses_rows_not_in_rref():
    one, two = Fraction(1), Fraction(2)
    for rows in (
        [{0: two, 1: one}],  # pivot not normalised
        [{0: one}, {0: one, 1: one}],  # repeated pivot
        [{0: one, 1: one}, {1: one}],  # a row holds another row's pivot
    ):
        with pytest.raises(ValueError, match="RREF"):
            Echelon.from_rref(rows)
