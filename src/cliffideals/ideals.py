"""Exact two-sided ideal computations.

An `Ideal` owns the reduced-row-echelon form of its span over the blade
coordinates (ascending mask order).  Its one constructor runs the closure
certificate, then takes the echelon's rows: g*v and v*g must lie in the
span for every generator g and row v, or SelfCheckError is raised.  So
every `Ideal` is certified closed, and no uncertified one can exist.  A
unit row (its pivot alone) has images +-one blade, which lies in the span
exactly when it is the pivot of a unit row, so for those rows the
certificate is a pivot lookup.  Membership, equality, sums, products and
intersections are exact rational linear algebra on the echelon, which
nothing changes afterwards.

Closures run in the core algebra (see core.py): Cl(p,q,z) = M (x) C with
M central simple and C = Cl(r,s,z), r+s <= 1, and every ideal is M (x) J
for an ideal J of C.  A generator x = sum_A e_A * lambda_A contributes the
lambda_A to J, which is computed by generator saturation in C: every
vector that enlarges the span is multiplied once by each core generator
on the left and on the right, and the images go back into the echelon.
The RREF of M (x) J is then written block by block and certified in the
full algebra.  When p+q <= 1 the core is the whole algebra and the lift
is the identity.  The oracle module re-derives closures independently, by
its own fixpoint and by a blade-pair sweep, in the full algebra.

The null generators take the top z bits, so the nil radical is the blade
tail at masks >= 2**(p+q), and the RREF rows of I with a pivot there are
the RREF of I & radical.  Each split prime is the closure of its central
idempotent alone, which already contains the radical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations

from .blades import Signature, blade_mul
from .core import CoreSplit
from .linalg import Echelon, intersect_spans
from .multivector import Multivector, SignatureMismatchError, _check_same_sig
from .structure import check_failed, central_idempotents, is_split_signature


class IdealVerdict(enum.Enum):
    ZERO = "zero"
    CONTAINED_IN_RADICAL = "contained-in-radical"
    COMPONENT1_PLUS_RADICAL_PART = "c1-plus-radical-part"
    COMPONENT2_PLUS_RADICAL_PART = "c2-plus-radical-part"
    WHOLE_ALGEBRA = "whole-algebra"


class Ideal:
    """Two-sided ideal, held as the certified echelon of its span.

    `Ideal(sig, ech, context)` runs the closure certificate on `ech`, naming
    `context` if it fails, and then moves its rows out, leaving `ech`
    empty: inserting into `ech` later cannot change the ideal.
    """

    def __init__(self, sig: Signature, ech: Echelon, context: str):
        _certify_closed(sig, ech, context)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_ech", ech.take())

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    @cached_property
    def basis(self) -> tuple[Multivector, ...]:
        """The RREF rows in ascending pivot order, sharing the echelon's dicts."""
        return tuple(Multivector._raw(self.sig, row) for row in self._ech.rows())

    @property
    def dim(self) -> int:
        return self._ech.rank

    def is_zero(self) -> bool:
        return not self._ech.rank

    def is_whole_algebra(self) -> bool:
        return self.dim == self.sig.dim

    def contains(self, u: Multivector) -> bool:
        """True iff u reduces to zero against the echelon."""
        _check_same_sig(u, self)
        return self._ech.contains(u.terms)

    def contains_ideal(self, other: "Ideal") -> bool:
        _check_same_sig(self, other)
        return all(self._ech.contains(row) for row in other._ech.rows())

    def contained_in_radical(self) -> bool:
        """True iff every pivot is a radical blade (mask >= 2**(p+q))."""
        start = 1 << (self.sig.p + self.sig.q)
        return all(p >= start for p in self._ech.pivots())

    def basis_strings(self) -> list[str]:
        return [str(v) for v in self.basis]

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.sig == other.sig and self.basis == other.basis

    def __hash__(self):
        return hash((self.sig, self.basis))

    def __repr__(self) -> str:
        return f"Ideal({self.sig}, dim={self.dim})"


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict for one ideal plus the witnessing decomposition."""

    verdict: IdealVerdict
    radical_intersection: Ideal
    dims: tuple[int, int]  # (dim I, dim I & radical)


# -- internal span machinery ------------------------------------------


def _blade_image(sig: Signature, mask: int, terms: dict, left: bool) -> dict:
    """Multiply a term map by the blade e_mask on the given side.

    No accumulation is needed: distinct input masks map to distinct
    output masks (the product mask is the symmetric difference).
    """
    out = {}
    for m, c in terms.items():
        s, mm = blade_mul(sig, mask, m) if left else blade_mul(sig, m, mask)
        if s:
            out[mm] = c if s > 0 else -c
    return out


def _certify_closed(sig: Signature, ech: Echelon, context: str) -> None:
    """Verify two-sided closure under generator multiplication.

    For a unit row e_X, both images e_i*e_X and e_X*e_i are +-e_(X^bit i)
    (or both zero when they share a null generator), and such a blade lies
    in the span exactly when it is the pivot of a unit row.
    """
    null = sig.null_mask
    units = ech.unit_pivots()
    for row in ech.rows():
        if len(row) == 1:
            (mask,) = row
            for i in range(sig.n):
                bit = 1 << i
                if mask ^ bit not in units and not mask & bit & null:
                    raise check_failed(
                        sig, context, f"not closed under left multiplication by e{i}"
                    )
            continue
        for i in range(sig.n):
            for left in (True, False):
                if not ech.contains(_blade_image(sig, 1 << i, row, left)):
                    side = "left" if left else "right"
                    raise check_failed(
                        sig, context, f"not closed under {side} multiplication by e{i}"
                    )


def _saturate(sig: Signature, ech: Echelon, terms: dict) -> None:
    """Add the two-sided ideal generated by `terms` to a closed span.

    Each vector that raises the rank is queued once; its images under
    every generator, on both sides, are then inserted in turn.  Stops
    early once the span is the whole algebra.
    """
    if not ech.add(terms):
        return
    worklist = [terms]
    while worklist and ech.rank < sig.dim:
        vec = worklist.pop()
        for i in range(sig.n):
            for left in (True, False):
                image = _blade_image(sig, 1 << i, vec, left)
                if image and ech.add(image):
                    worklist.append(image)


# -- construction ------------------------------------------------------


def ideal_closure(sig: Signature, gens) -> Ideal:
    """Smallest two-sided ideal containing the generators.

    Saturates the core components of every generator in the core algebra
    and lifts the core ideal J to M (x) J.  Each generator must then lie
    in the certified result, or SelfCheckError is raised.
    """
    gens = list(gens)
    for g in gens:
        if g.sig != sig:
            raise SignatureMismatchError(f"generator signature {g.sig} != {sig}")
    split = CoreSplit(sig)
    ech = Echelon()
    for g in gens:
        for part in split.components(g.terms):
            _saturate(split.core, ech, part)
    ideal = Ideal(sig, split.lift(ech.rows()), "ideal_closure")
    for i, g in enumerate(gens):
        if not ideal._ech.contains(g.terms):
            raise check_failed(
                sig, "ideal_closure", f"generator {i} is not in the closure"
            )
    return ideal


def zero_ideal(sig: Signature) -> Ideal:
    return Ideal(sig, Echelon(), "zero_ideal")


def whole_algebra(sig: Signature) -> Ideal:
    return ideal_closure(sig, [Multivector.scalar(sig, 1)])


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    """Span of both ideals (a sum of ideals is one).

    Starts from a copy of the larger echelon's rows and inserts the other's.
    """
    _check_same_sig(a, b)
    big, small = (a, b) if a.dim >= b.dim else (b, a)
    ech = Echelon.from_rref([dict(row) for row in big._ech.rows()])
    for row in small._ech.rows():
        ech.add(row)
    return Ideal(a.sig, ech, "ideal_sum")


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Span of pairwise basis products u*v.

    The span is already two-sided (x*u in a and v*y in b expand over the
    bases), which the constructor's closure certificate re-verifies.
    """
    _check_same_sig(a, b)
    ech = Echelon()
    for u in a.basis:
        for v in b.basis:
            prod = u * v
            if prod:
                ech.add(prod.terms)
    return Ideal(a.sig, ech, "ideal_product")


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    """Subspace intersection via the double-echelon (stacked) method."""
    _check_same_sig(a, b)
    out = Echelon()
    for row in intersect_spans(a._ech.rows(), b._ech.rows(), a.sig.dim):
        out.add(row)
    return Ideal(a.sig, out, "ideal_intersect")


# -- radicals ----------------------------------------------------------


def ideal_from_null_set(sig: Signature, null_indices) -> Ideal:
    """Ideal generated by the null generators with the given indices.

    Verified against the direct description: the span of all blades whose
    null part meets the index set.
    """
    idx = sorted(set(null_indices))
    for i in idx:
        if i not in sig.null_indices():
            raise ValueError(f"generator e{i} is not a null generator of {sig}")
    ideal = ideal_closure(sig, [Multivector.generator(sig, i) for i in idx])
    smask = 0
    for i in idx:
        smask |= 1 << i
    expected = [m for m in range(sig.dim) if m & smask]
    rows = ideal._ech.rows()
    if [min(row) for row in rows] != expected or any(len(row) != 1 for row in rows):
        raise check_failed(
            sig, "ideal_from_null_set", f"ideal of null set {idx} is not its blade span"
        )
    return ideal


def nil_radical(sig: Signature) -> Ideal:
    """The nil radical: the ideal generated by all null generators.

    Its basis is verified to be exactly the blades with a nonempty null
    part; the dimension is 2**(p+q) * (2**z - 1).
    """
    ideal = ideal_from_null_set(sig, sig.null_indices())
    expected_dim = (1 << (sig.p + sig.q)) * ((1 << sig.z) - 1)
    if ideal.dim != expected_dim:
        raise check_failed(
            sig, "nil_radical", f"dim {ideal.dim}, expected {expected_dim}"
        )
    return ideal


# -- classification ----------------------------------------------------


def _component_rows(sig: Signature, idempotent: Multivector) -> list[dict]:
    """Spanning rows of (idempotent * non-degenerate subalgebra)."""
    rows = []
    for m in range(1 << (sig.p + sig.q)):
        prod = idempotent * Multivector.blade(sig, m)
        if prod:
            rows.append(prod.terms)
    return rows


def component_ideal(sig: Signature, which: int) -> Ideal:
    """The ideal generated by one of the two split idempotents (which in {1, 2})."""
    e1, e2 = central_idempotents(sig)
    return ideal_closure(sig, [e1 if which == 1 else e2])


def ideal_classify(ideal: Ideal) -> ClassificationReport:
    """Sort an ideal into the five possible positions in the lattice.

    In the simple class a nonzero proper ideal must sit inside the nil
    radical; any other outcome raises SelfCheckError because it would
    contradict the classification the whole module is built on.  In the
    split class the component verdicts come with a verified direct-sum
    decomposition (component span + radical intersection rebuilds the
    ideal, with matching dimension).
    """
    sig = ideal.sig
    fail = partial(check_failed, sig, "ideal_classify")
    start = 1 << (sig.p + sig.q)  # radical: blades at masks >= start
    rad_rows = [dict(row) for row in ideal._ech.rows() if min(row) >= start]
    inter = Ideal(sig, Echelon.from_rref(rad_rows), "ideal_classify")
    dims = (ideal.dim, inter.dim)
    if ideal.dim == 0:
        return ClassificationReport(IdealVerdict.ZERO, inter, dims)
    if inter.dim == ideal.dim:
        return ClassificationReport(IdealVerdict.CONTAINED_IN_RADICAL, inter, dims)
    if not is_split_signature(sig):
        if ideal.is_whole_algebra():
            return ClassificationReport(IdealVerdict.WHOLE_ALGEBRA, inter, dims)
        raise fail("a proper nonzero ideal escaped the radical of a simple class")
    e1, e2 = central_idempotents(sig)
    in1 = ideal.contains(e1)
    in2 = ideal.contains(e2)
    if in1 and in2:
        if not ideal.is_whole_algebra():
            raise fail("ideal contains 1 but is not the whole algebra")
        return ClassificationReport(IdealVerdict.WHOLE_ALGEBRA, inter, dims)
    if in1 or in2:
        comp = e1 if in1 else e2
        half = start // 2
        if ideal.dim != half + inter.dim:
            raise fail(
                f"component direct-sum dimension identity failed: "
                f"{ideal.dim} != {half} + {inter.dim}"
            )
        ech = Echelon()
        for row in _component_rows(sig, comp):
            if not ideal._ech.contains(row):
                raise fail("component span escapes the ideal")
            ech.add(row)
        if ech.rank != half:
            raise fail(f"split component has rank {ech.rank}, expected {half}")
        for row in inter._ech.rows():
            ech.add(row)
        if ech.rank != ideal.dim:
            raise fail("component + radical intersection does not rebuild the ideal")
        verdict = (
            IdealVerdict.COMPONENT1_PLUS_RADICAL_PART
            if in1
            else IdealVerdict.COMPONENT2_PLUS_RADICAL_PART
        )
        return ClassificationReport(verdict, inter, dims)
    raise fail("ideal escapes the radical but contains neither split idempotent")


def prime_ideals(sig: Signature) -> list[Ideal]:
    """All prime ideals: the radical alone (simple class) or the two
    component-plus-radical ideals (split class), each the closure of its
    central idempotent e.  In the split class p+q is odd, so each null
    generator e_k anticommutes with omega and e_k = e_k*e + e*e_k: each
    closure already holds the radical."""
    if not is_split_signature(sig):
        return [nil_radical(sig)]
    return [ideal_closure(sig, [e]) for e in central_idempotents(sig)]


# -- nilpotency --------------------------------------------------------


def _core_ideal(ideal: Ideal) -> Ideal:
    """The ideal J of the core algebra with ideal = M (x) J.

    Each RREF row of the ideal with its pivot in block 0 is e_0 * y for
    an RREF row y of J, so J is read off as the span of those rows' core
    components.  Any row x generates M (x) (the ideal of its components),
    so M (x) J lies in the ideal whatever the rows hold, and the dimension
    check proves equality; a row that left block 0 and enlarged J fails it.
    """
    split = CoreSplit(ideal.sig)
    ech = Echelon()
    for row in ideal._ech.rows():
        if not split._block(min(row)):
            for part in split.components(row):
                ech.add(part)
    core = Ideal(split.core, ech, "ideal_nilpotency_index")
    if core.dim << split.shift != ideal.dim:
        raise check_failed(
            ideal.sig,
            "ideal_nilpotency_index",
            f"core ideal of dim {core.dim} does not lift to dim {ideal.dim}",
        )
    return core


def ideal_nilpotency_index(ideal: Ideal):
    """Smallest n with ideal**n == 0, or None if none exists.

    With ideal = M (x) J, ideal**k = M (x) J**k, so the powers are taken
    in the core.  The search is bounded by z+1: a (z+1)-fold product of
    radical elements repeats a null generator, so surviving that bound
    certifies the None verdict.
    """
    core = _core_ideal(ideal)
    bound = core.sig.z + 1
    power = core
    for k in range(1, bound + 1):
        if power.is_zero():
            return k
        if k <= bound - 1:
            power = ideal_product(power, core)
    return None


def null_support_of_ideal(ideal: Ideal) -> tuple[frozenset, frozenset]:
    """(canonical, minimal) null-support sets of an ideal inside the radical.

    canonical: the union of the null supports of the basis vectors; the
    ideal always lies inside the ideal generated by those null
    generators.  minimal: a smallest-cardinality set of null generators
    whose generated ideal still contains this one, found by exhaustive
    hitting-set search over the null parts of the basis blades (ties
    broken towards smallest indices).
    """
    sig = ideal.sig
    if not ideal.contained_in_radical():
        raise ValueError("null support is defined for ideals inside the nil radical")
    nm = sig.null_mask
    kparts = {m & nm for row in ideal._ech.rows() for m in row}
    if not kparts:
        return frozenset(), frozenset()
    acc = 0
    for kp in kparts:
        acc |= kp
    canonical = frozenset(i for i in range(sig.n) if (acc >> i) & 1)
    indices = sorted(canonical)
    for size in range(1, len(indices) + 1):
        for combo in combinations(indices, size):
            cmask = 0
            for i in combo:
                cmask |= 1 << i
            if all(kp & cmask for kp in kparts):
                return canonical, frozenset(combo)
    raise check_failed(
        sig, "null_support_of_ideal", "hitting-set search failed on a nonempty support"
    )


def finite_generating_witness(ideal: Ideal) -> list[Multivector]:
    """A finite generator list whose closure reproduces the ideal.

    Walks the basis, keeping a vector only if the kept ones do not
    already generate it, then prunes backwards so no kept vector is
    generated by the rest.
    """
    sig = ideal.sig
    if not ideal.contained_in_radical():
        raise ValueError("generating witness is computed for nilpotent ideals only")
    kept: list[Multivector] = []
    span = zero_ideal(sig)
    for v in ideal.basis:
        if not span.contains(v):
            kept.append(v)
            span = ideal_closure(sig, kept)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1 :]
        if ideal_closure(sig, rest).dim == ideal.dim:
            kept.pop(i)
        else:
            i += 1
    return kept


# -- chain demonstrations ----------------------------------------------


def descending_chain(sig: Signature, k: int) -> list[Ideal]:
    """Strictly shrinking ideals generated by growing null-blade products.

    The i-th ideal is generated by the product of the first i+1 null
    generators; strictness of every inclusion is verified.
    """
    if k < 0 or k > sig.z:
        raise ValueError(f"chain length {k} must lie in 0..z = {sig.z}")
    nulls = list(sig.null_indices())
    chain = []
    mask = 0
    for i in range(k):
        mask |= 1 << nulls[i]
        chain.append(ideal_closure(sig, [Multivector.blade(sig, mask)]))
    for big, small in zip(chain, chain[1:]):
        if not (big.contains_ideal(small) and small.dim < big.dim):
            raise check_failed(sig, "descending_chain", "not strictly decreasing")
    return chain


def ascending_chain(sig: Signature, k: int) -> list[Ideal]:
    """Strictly growing ideals generated by growing sets of null generators."""
    if k < 0 or k > sig.z:
        raise ValueError(f"chain length {k} must lie in 0..z = {sig.z}")
    nulls = list(sig.null_indices())
    chain = [ideal_from_null_set(sig, nulls[: i + 1]) for i in range(k)]
    for small, big in zip(chain, chain[1:]):
        if not (big.contains_ideal(small) and small.dim < big.dim):
            raise check_failed(sig, "ascending_chain", "not strictly increasing")
    return chain
