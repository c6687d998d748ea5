"""Brute-force reference implementations used only by the test suite.

Everything here recomputes results of the main modules by a different
algorithm: blade products by literal bubble sorting of index words,
closures both by fixpoint iteration and by one pass over all blade
pairs, and nilpotency by unbounded repeated powering.  Row reduction
here is forward elimination with largest-mask pivots and unnormalised
leading coefficients -- deliberately not the RREF the main path uses --
so that agreement between the two paths is evidence rather than
tautology.  Size caps keep the brute force affordable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .blades import Signature
from .multivector import Multivector

_CLOSURE_CAP = 8
_TABLE_CAP = 10


def _check_cap(sig: Signature, cap: int, what: str) -> None:
    if sig.n > cap:
        raise ValueError(f"{what} brute force is capped at {cap} generators")


@cache
def _squares(sig: Signature) -> tuple[int, ...]:
    """The generator squares of a signature, read once from its roles."""
    return tuple(sig.square(i) for i in range(sig.n))


def oracle_blade_mul(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """Blade product by bubble-sorting the concatenated index word.

    Every adjacent swap flips the sign; adjacent equal indices contract
    to the generator's square.  Annihilation returns (0, 0).
    """
    _check_cap(sig, _TABLE_CAP, "blade product")
    sig.check_blade(a)
    sig.check_blade(b)
    squares = _squares(sig)
    n = len(squares)
    word = [i for i in range(n) if (a >> i) & 1]
    word += [i for i in range(n) if (b >> i) & 1]
    sign = 1
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                swapped = True
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == word[i + 1]:
            sq = squares[word[i]]
            if sq == 0:
                return 0, 0
            sign *= sq
            i += 2
        else:
            out.append(word[i])
            i += 1
    mask = 0
    for i in out:
        mask |= 1 << i
    return sign, mask


class DenseTable:
    """Full 2**n x 2**n blade multiplication table."""

    def __init__(self, sig: Signature):
        _check_cap(sig, _TABLE_CAP, "dense table")
        self.sig = sig
        dim = sig.dim
        self.signs = [0] * (dim * dim)
        self.blades = [0] * (dim * dim)
        for a in range(dim):
            base = a * dim
            for b in range(dim):
                s, m = oracle_blade_mul(sig, a, b)
                self.signs[base + b] = s
                self.blades[base + b] = m

    def entry(self, a: int, b: int) -> tuple[int, int]:
        k = a * self.sig.dim + b
        return self.signs[k], self.blades[k]

    def multiply(self, dense_a: list, dense_b: list) -> list:
        """Dense multivector product from the full table."""
        dim = self.sig.dim
        out = [Fraction(0)] * dim
        for a, ca in enumerate(dense_a):
            if not ca:
                continue
            base = a * dim
            for b, cb in enumerate(dense_b):
                if not cb:
                    continue
                s = self.signs[base + b]
                if s:
                    out[self.blades[base + b]] += s * ca * cb
        return out


def to_dense(u: Multivector) -> list:
    out = [Fraction(0)] * u.sig.dim
    for m, c in u.terms.items():
        out[m] = c
    return out


def from_dense(sig: Signature, dense: list) -> Multivector:
    return Multivector(sig, {m: c for m, c in enumerate(dense) if c})


class _RowSpan:
    """Forward-eliminated span with largest-mask pivots (oracle-local)."""

    def __init__(self):
        self.rows: dict[int, dict] = {}

    def _residue(self, vec: dict) -> dict:
        vec = dict(vec)
        while vec:
            pivot = max(vec)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            factor = vec[pivot] / row[pivot]
            for m, c in row.items():
                s = vec.get(m, 0) - factor * c
                if s:
                    vec[m] = s
                else:
                    vec.pop(m, None)
        return vec

    def add(self, vec: dict) -> bool:
        red = self._residue(vec)
        if not red:
            return False
        self.rows[max(red)] = red
        return True

    def contains(self, vec: dict) -> bool:
        return not self._residue(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _word_image(sig: Signature, gen: int, terms: dict, left: bool) -> dict:
    out: dict[int, Fraction] = {}
    gmask = 1 << gen
    for m, c in terms.items():
        s, mm = (
            oracle_blade_mul(sig, gmask, m)
            if left
            else oracle_blade_mul(sig, m, gmask)
        )
        if s:
            out[mm] = out.get(mm, 0) + (c if s > 0 else -c)
            if not out[mm]:
                del out[mm]
    return out


def oracle_closure_fixpoint(sig: Signature, gens) -> list[Multivector]:
    """Two-sided ideal closure by fixpoint iteration.

    Worklist form of span <- span + generator*span + span*generator:
    every vector that enlarges the span is queued and later multiplied by
    every algebra generator on both sides, until nothing new appears.
    """
    _check_cap(sig, _CLOSURE_CAP, "closure")
    span = _RowSpan()
    worklist = []
    for g in gens:
        if g.sig != sig:
            raise ValueError(f"generator signature {g.sig} != {sig}")
        vec = dict(g.terms)
        if vec and span.add(vec):
            worklist.append(vec)
    while worklist:
        vec = worklist.pop()
        for gen in range(sig.n):
            for left in (True, False):
                image = _word_image(sig, gen, vec, left)
                if image and span.add(image):
                    worklist.append(image)
    return [Multivector(sig, row) for row in span.rows.values()]


def oracle_closure_sandwich(sig: Signature, gens) -> list[Multivector]:
    """Two-sided ideal closure as the span of e_a * g * e_b.

    One pass over all pairs of basis blades e_a, e_b for each generator
    g: the blades span the algebra, so these products span every x*g*y
    and hence the smallest two-sided ideal containing g.
    """
    _check_cap(sig, _CLOSURE_CAP, "closure")
    span = _RowSpan()
    for g in gens:
        if g.sig != sig:
            raise ValueError(f"generator signature {g.sig} != {sig}")
        for a in range(sig.dim):
            left = _dict_mul(sig, {a: Fraction(1)}, g.terms)
            if not left:
                continue
            for b in range(sig.dim):
                prod = _dict_mul(sig, left, {b: Fraction(1)})
                if prod:
                    span.add(prod)
    return [Multivector(sig, row) for row in span.rows.values()]


def oracle_nilpotency(sig: Signature, basis) -> int | None:
    """Smallest n with (span of basis)**n == 0 by repeated full powering.

    The n-th power is the span of all products u*v with u from the
    previous power and v from the ideal; no pigeonhole shortcut is used,
    only the dimension bound dim+1.
    """
    _check_cap(sig, _CLOSURE_CAP, "nilpotency")
    base = [dict(v.terms) for v in basis if v]
    if not base:
        return 1
    current = base
    for k in range(1, sig.dim + 2):
        if not current:
            return k
        if k > sig.dim:
            break
        nxt = _RowSpan()
        for u in current:
            for v in base:
                prod = _dict_mul(sig, u, v)
                if prod:
                    nxt.add(prod)
        current = [dict(r) for r in nxt.rows.values()]
    return None


def _dict_mul(sig: Signature, a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            s, m = oracle_blade_mul(sig, ma, mb)
            if not s:
                continue
            acc = out.get(m, 0) + (ca * cb if s > 0 else -ca * cb)
            if acc:
                out[m] = acc
            else:
                del out[m]
    return out
