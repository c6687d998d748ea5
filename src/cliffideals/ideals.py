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

Ideals generated by blades are written directly, with no saturation.
A blade e_g is an invertible body blade times the null monomial e_k,
k = g & null_mask, so the ideal of a set of blades is the span of the
blades e_X with X containing the null part k of one of them (the
monomial law).  The radical (every null generator), the ideal of a set
of null generators, each step of the descending chain (one null
monomial) and the whole algebra (k = 0) are ideals of this kind.  Each
row e_X comes with an exact witness e_X = +-e_(X^g) * e_g, which puts
the span inside the ideal; the generators are rows and the certificate
proves the span closed, which gives the other inclusion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations

from .blades import Signature, blade_mul, blade_str, int_in
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
        return self._ech.contains(u._terms)

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


def _blade_span_ideal(sig: Signature, blades, context: str) -> Ideal:
    """The ideal generated by the blades e_g (g in `blades`), written as unit rows.

    By the monomial law its rows are the blades e_X, in ascending order,
    with X containing k = g & null_mask for some g.  Each row is put in
    the ideal by the witness e_X = +-e_(X^g) * e_g for the first such g,
    which `blade_mul` must confirm.  The span is then certified closed by
    `Ideal(...)`, and each generator must be one of its rows, so the span
    is exactly the ideal.  SelfCheckError names `context` otherwise.
    """
    null = sig.null_mask
    parts = [(g & null, g) for g in blades]
    one = Fraction(1)
    rows = []
    for x in range(sig.dim):
        for k, g in parts:
            if x & k == k:
                sign, product = blade_mul(sig, x ^ g, g)
                if not sign or product != x:
                    raise check_failed(
                        sig,
                        context,
                        f"witness {blade_str(x ^ g)} * {blade_str(g)} does not "
                        f"give row {blade_str(x)}",
                    )
                rows.append({x: one})
                break
    ideal = Ideal(sig, Echelon.from_rref(rows), context)
    for g in blades:
        if not ideal._ech.contains({g: one}):
            raise check_failed(sig, context, f"generator {blade_str(g)} is not a row")
    return ideal


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
    and lifts the core ideal J to M (x) J.  The components of each
    generator must rebuild it exactly through the core blade map, and each
    generator must lie in the certified result, or SelfCheckError is
    raised.
    """
    gens = list(gens)
    for g in gens:
        if g.sig != sig:
            raise SignatureMismatchError(f"generator signature {g.sig} != {sig}")
    split = CoreSplit(sig)
    ech = Echelon()
    for i, g in enumerate(gens):
        parts = split.components(g._terms)
        if split.compose(parts) != g._terms:
            raise check_failed(
                sig,
                "ideal_closure",
                f"core components of generator {i} do not recompose",
            )
        for part in parts.values():
            _saturate(split.core, ech, part)
    ideal = Ideal(sig, split.lift(ech.rows()), "ideal_closure")
    for i, g in enumerate(gens):
        if not ideal._ech.contains(g._terms):
            raise check_failed(
                sig, "ideal_closure", f"generator {i} is not in the closure"
            )
    return ideal


def zero_ideal(sig: Signature) -> Ideal:
    return Ideal(sig, Echelon(), "zero_ideal")


def whole_algebra(sig: Signature) -> Ideal:
    """The whole algebra: the blade span of the scalar blade, whose null
    part is empty, so every blade is a row (e_X = e_X * 1)."""
    return _blade_span_ideal(sig, [0], "whole_algebra")


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
                ech.add(prod._terms)
    return Ideal(a.sig, ech, "ideal_product")


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    """Subspace intersection via the double-echelon (stacked) method.

    The stacked echelon's rows with a pivot past the offset are already
    in RREF, so they are taken as they are.
    """
    _check_same_sig(a, b)
    rows = intersect_spans(a._ech.rows(), b._ech.rows(), a.sig.dim)
    return Ideal(a.sig, Echelon.from_rref(rows), "ideal_intersect")


# -- radicals ----------------------------------------------------------


def ideal_from_null_set(sig: Signature, null_indices) -> Ideal:
    """Ideal generated by the null generators with the given indices.

    By the monomial law it is the span of the blades that meet the index
    set S, written by `_blade_span_ideal` with no saturation: each row
    e_X is +-e_(X minus k) * e_k for the lowest k in X & S.
    """
    idx = list(null_indices)
    for i in idx:
        if not int_in(i, sig.p + sig.q, sig.n - 1):
            raise ValueError(f"generator index {i!r} is not a null generator of {sig}")
    masks = [1 << i for i in sorted(set(idx))]
    return _blade_span_ideal(sig, masks, "ideal_from_null_set")


def nil_radical(sig: Signature) -> Ideal:
    """The nil radical: the ideal generated by all null generators.

    Built by `ideal_from_null_set` as the blades with a nonempty null
    part, the masks >= 2**(p+q); the dimension must be
    2**(p+q) * (2**z - 1).
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
            rows.append(prod._terms)
    return rows


def component_ideal(sig: Signature, which: int) -> Ideal:
    """The ideal generated by one of the two split idempotents (which in {1, 2})."""
    if not int_in(which, 1, 2):
        raise ValueError(f"component must be 1 or 2, got {which!r}")
    return ideal_closure(sig, [central_idempotents(sig)[which - 1]])


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
    if ideal.is_zero():
        verdict = IdealVerdict.ZERO
    elif inter.dim == ideal.dim:
        verdict = IdealVerdict.CONTAINED_IN_RADICAL
    elif ideal.is_whole_algebra():
        verdict = IdealVerdict.WHOLE_ALGEBRA
    elif not is_split_signature(sig):
        raise fail("a proper nonzero ideal escaped the radical of a simple class")
    else:
        e1, e2 = central_idempotents(sig)
        in1, in2 = ideal.contains(e1), ideal.contains(e2)
        if in1 and in2:
            raise fail("ideal contains 1 but is not the whole algebra")
        if not (in1 or in2):
            raise fail(
                "ideal escapes the radical but contains neither split idempotent"
            )
        half = start // 2
        if ideal.dim != half + inter.dim:
            raise fail(
                f"component direct-sum dimension identity failed: "
                f"{ideal.dim} != {half} + {inter.dim}"
            )
        ech = Echelon()
        for row in _component_rows(sig, e1 if in1 else e2):
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
    return ClassificationReport(verdict, inter, (ideal.dim, inter.dim))


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
            for part in split.components(row).values():
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

    A nilpotent ideal lies in the radical, since Cl(p,q,z) modulo it is
    the semisimple Cl(p,q): an ideal outside it is answered None from its
    pivots, with no products.  (Elements differ: (e0+e1)**2 == 0 in
    Cl(1,1,0).)  The powers of a radical ideal M (x) J are M (x) J**k,
    taken in the core, and J**(z+1) == 0, since a (z+1)-fold product of
    radical elements repeats a null generator; a power that outlasts that
    bound raises SelfCheckError.
    """
    if not ideal.contained_in_radical():
        return None
    core = _core_ideal(ideal)
    power = core
    for k in range(1, core.sig.z + 2):
        if power.is_zero():
            return k
        power = ideal_product(power, core)
    raise check_failed(
        ideal.sig, "ideal_nilpotency_index", f"radical ideal**{k} is not zero"
    )


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
    already generate it, then walks the kept vectors forwards, dropping
    each one the others still generate, so no kept vector is generated
    by the rest.
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

    The i-th ideal is generated by f_S, the product of the set S of the
    first i+1 null generators.  By the monomial law it is the span of the
    blades that contain S, written by `_blade_span_ideal` with no
    saturation: each row e_X is +-e_(X minus S) * f_S.  Strictness of
    every inclusion is verified.
    """
    if not int_in(k, 0, sig.z):
        raise ValueError(f"chain length {k!r} must lie in 0..z = {sig.z}")
    nulls = list(sig.null_indices())
    chain = []
    mask = 0
    for i in range(k):
        mask |= 1 << nulls[i]
        chain.append(_blade_span_ideal(sig, [mask], "descending_chain"))
    for big, small in zip(chain, chain[1:]):
        if not (big.contains_ideal(small) and small.dim < big.dim):
            raise check_failed(sig, "descending_chain", "not strictly decreasing")
    return chain


def ascending_chain(sig: Signature, k: int) -> list[Ideal]:
    """Strictly growing ideals generated by growing sets of null generators."""
    if not int_in(k, 0, sig.z):
        raise ValueError(f"chain length {k!r} must lie in 0..z = {sig.z}")
    nulls = list(sig.null_indices())
    chain = [ideal_from_null_set(sig, nulls[: i + 1]) for i in range(k)]
    for small, big in zip(chain, chain[1:]):
        if not (big.contains_ideal(small) and small.dim < big.dim):
            raise check_failed(sig, "ascending_chain", "not strictly increasing")
    return chain
