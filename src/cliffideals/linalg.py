"""Incremental reduced row echelon forms over sparse rational vectors.

Vectors are dicts mapping a coordinate key (a blade mask, or a shifted
mask for stacked systems) to a nonzero Fraction.  Coordinates are ordered
by ascending key; a row's pivot is its smallest key.  The container keeps
full RREF at all times: pivots are normalised to 1, each pivot coordinate
is zero in every other row, and rows iterate in ascending pivot order.
This makes membership tests, spans and subspace intersections exact and
deterministic.

Beside its rows, an echelon keeps a column index: each non-pivot key
maps to the set of pivots whose row holds it.  A new row with pivot k
only has to be eliminated from the rows the index lists under k, so an
insert costs the rows it touches instead of a scan of every row.  A unit
row (its pivot alone), such as every row of a nil radical, adds nothing
to the index.
"""

from __future__ import annotations

from fractions import Fraction

Vec = dict


def vec_sub_scaled(v: Vec, row: Vec, c: Fraction) -> None:
    """In place: v -= c * row."""
    for k, x in row.items():
        s = v.get(k, 0) - c * x
        if s:
            v[k] = s
        else:
            v.pop(k, None)


class Echelon:
    """A growing RREF basis of a subspace."""

    def __init__(self):
        self._rows: dict = {}  # pivot key -> row vector
        self._cols: dict = {}  # non-pivot key -> pivots of the rows holding it

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[Vec]:
        """Basis rows in ascending pivot order."""
        return [self._rows[p] for p in sorted(self._rows)]

    def pivots(self) -> list:
        return sorted(self._rows)

    @classmethod
    def from_rref(cls, rows: list[Vec]) -> "Echelon":
        """An echelon holding rows that are already in RREF.

        Checks, in one pass over the keys, that each row's pivot is its
        smallest key with coefficient 1, that pivots are distinct and
        that no row holds another row's pivot; raises ValueError if not.
        """
        out = cls()
        by_pivot, cols = out._rows, out._cols
        for row in rows:
            pivot = min(row)
            if row[pivot] != 1 or pivot in by_pivot:
                raise ValueError(f"rows are not in RREF at pivot {pivot!r}")
            by_pivot[pivot] = row
            for k in row:
                if k != pivot:
                    cols.setdefault(k, set()).add(pivot)
        if not cols.keys().isdisjoint(by_pivot):
            raise ValueError("rows are not in RREF: a pivot key is held by another row")
        return out

    def take(self) -> "Echelon":
        """Move every row into a new echelon and leave this one empty (O(1))."""
        out = Echelon()
        out._rows, self._rows = self._rows, {}
        out._cols, self._cols = self._cols, {}
        return out

    def reduce(self, v: Vec) -> Vec:
        """Fully reduce a copy of v against the basis.

        RREF rows are zero in every other pivot coordinate, so one pass
        over the pivot coordinates initially present in v suffices.  A
        unit row (its pivot alone) just clears its coordinate.
        """
        rows = self._rows
        out = dict(v)
        for k in [k for k in out if k in rows]:
            c = out.get(k)
            if c:
                row = rows[k]
                if len(row) == 1:
                    del out[k]
                else:
                    vec_sub_scaled(out, row, c)
        return out

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def unit_pivots(self) -> set:
        """The keys whose unit vector lies in the span.

        Those are exactly the pivots of unit rows: reducing the unit
        vector at any other key leaves a nonzero residue.
        """
        return {p for p, row in self._rows.items() if len(row) == 1}

    def add(self, v: Vec) -> bool:
        """Insert v's residue; returns True if the rank grew.

        The residue is zero at every stored pivot, so its other keys are
        non-pivot keys; the rows that hold its pivot come from the column
        index, and the index follows every key a row gains or loses.
        """
        red = self.reduce(v)
        if not red:
            return False
        pivot = min(red)
        lead = red[pivot]
        if lead != 1:
            red = {k: x / lead for k, x in red.items()}
        rows, cols = self._rows, self._cols
        tail = [(k, x) for k, x in red.items() if k != pivot]
        for k, _ in tail:
            cols.setdefault(k, set()).add(pivot)
        for p in cols.pop(pivot, ()):
            row = rows[p]
            c = row.pop(pivot)
            for k, x in tail:
                old = row.get(k)
                if old is None:
                    row[k] = -c * x
                    cols[k].add(p)
                else:
                    s = old - c * x
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        cols[k].remove(p)
        rows[pivot] = red
        return True

    def add_unit(self, key) -> bool:
        """Insert the unit coordinate vector at key.

        The library no longer calls this; perfbench/tracer.py traces it
        by name.
        """
        return self.add({key: Fraction(1)})


def intersect_spans(rows_a: list[Vec], rows_b: list[Vec], offset) -> list[Vec]:
    """Basis of span(rows_a) & span(rows_b) via the double-echelon method.

    Stack rows (u | u) for u in A and (v | 0) for v in B, with the right
    block's keys shifted by `offset` (which must exceed every left key).
    Echelon rows whose left block vanished carry intersection vectors in
    their right block.
    """
    ech = Echelon()
    for u in rows_a:
        stacked = dict(u)
        for k, c in u.items():
            stacked[k + offset] = c
        ech.add(stacked)
    for v in rows_b:
        ech.add(dict(v))
    out = []
    for pivot in ech.pivots():
        if pivot >= offset:
            out.append({k - offset: c for k, c in ech._rows[pivot].items()})
    return out
