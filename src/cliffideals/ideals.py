"""Exact two-sided ideal computations.

An ideal is stored as a reduced-row-echelon basis over the blade
coordinates (ascending mask order), together with a closure certificate:
the `closed` flag is set only after verifying that g*v and v*g reduce to
zero against the basis for every generator g and basis vector v.  With
that representation, membership, equality, sums, products and
intersections are all exact rational linear algebra.

Closures are computed by generator saturation: every vector that
enlarges the span is multiplied once by each algebra generator on the
left and on the right, and the images go back into the echelon.  The
generators generate the algebra, so the saturated span is the smallest
two-sided ideal containing the input.  The oracle module re-derives
closures independently, by its own fixpoint and by a blade-pair sweep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .blades import Signature, blade_mul
from .linalg import Echelon, intersect_spans, reduce_against
from .multivector import Multivector, SignatureMismatchError
from .structure import SelfCheckError, central_idempotents, is_split_signature


class IdealVerdict(enum.Enum):
    ZERO = "zero"
    CONTAINED_IN_RADICAL = "contained-in-radical"
    COMPONENT1_PLUS_RADICAL_PART = "c1-plus-radical-part"
    COMPONENT2_PLUS_RADICAL_PART = "c2-plus-radical-part"
    WHOLE_ALGEBRA = "whole-algebra"


@dataclass(frozen=True)
class Ideal:
    """Two-sided ideal as an echelonized subspace basis."""

    sig: Signature
    basis: tuple[Multivector, ...]
    closed: bool = field(compare=False)

    def __post_init__(self):
        for v in self.basis:
            if v.sig != self.sig:
                raise SignatureMismatchError("basis vector signature mismatch")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_whole_algebra(self) -> bool:
        return self.dim == self.sig.dim

    @cached_property
    def _pivot_rows(self) -> dict:
        return {min(v.terms): v.terms for v in self.basis}

    def contains(self, u: Multivector) -> bool:
        """True iff u reduces to zero against the echelon basis."""
        if u.sig != self.sig:
            raise SignatureMismatchError(f"signature mismatch: {u.sig} vs {self.sig}")
        return not reduce_against(u.terms, self._pivot_rows)

    def contains_ideal(self, other: "Ideal") -> bool:
        if other.sig != self.sig:
            raise SignatureMismatchError("signature mismatch")
        return all(self.contains(v) for v in other.basis)

    def contained_in_radical(self) -> bool:
        nm = self.sig.null_mask
        return all(m & nm for v in self.basis for m in v.terms)

    def basis_strings(self) -> list[str]:
        return [str(v) for v in self.basis]

    def __repr__(self) -> str:
        return f"Ideal({self.sig}, dim={self.dim})"


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict for one ideal plus the witnessing decomposition."""

    verdict: IdealVerdict
    radical_intersection: Ideal
    dims: tuple[int, int]  # (dim I, dim I & radical)


# -- internal span machinery ------------------------------------------


def _basis_from_echelon(sig: Signature, ech: Echelon) -> tuple[Multivector, ...]:
    return tuple(Multivector(sig, row) for row in ech.rows())


def _echelon_from_ideals(*ideals: Ideal) -> Echelon:
    ech = Echelon()
    for ideal in ideals:
        for v in ideal.basis:
            ech.add(v.terms)
    return ech


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
    """Verify two-sided closure under generator multiplication."""
    for row in ech.rows():
        for i in range(sig.n):
            gmask = 1 << i
            for left in (True, False):
                image = _blade_image(sig, gmask, row, left)
                if not ech.contains(image):
                    raise SelfCheckError(
                        f"{context}: span is not closed under e{i} "
                        f"({'left' if left else 'right'} multiplication)"
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
    """Smallest two-sided ideal containing the generators."""
    ech = Echelon()
    gens = list(gens)
    for g in gens:
        if g.sig != sig:
            raise SignatureMismatchError(f"generator signature {g.sig} != {sig}")
    for g in gens:
        _saturate(sig, ech, g.terms)
    _certify_closed(sig, ech, "ideal_closure")
    return Ideal(sig, _basis_from_echelon(sig, ech), closed=True)


def zero_ideal(sig: Signature) -> Ideal:
    return Ideal(sig, (), closed=True)


def whole_algebra(sig: Signature) -> Ideal:
    return ideal_closure(sig, [Multivector.scalar(sig, 1)])


def _require_closed(*ideals: Ideal) -> None:
    for ideal in ideals:
        if not ideal.closed:
            raise ValueError("operation requires certified-closed ideals")


def _require_same_sig(a: Ideal, b: Ideal) -> None:
    if a.sig != b.sig:
        raise SignatureMismatchError(f"signature mismatch: {a.sig} vs {b.sig}")


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    """Echelon span of the concatenated bases (a sum of ideals is one)."""
    _require_same_sig(a, b)
    _require_closed(a, b)
    ech = _echelon_from_ideals(a, b)
    _certify_closed(a.sig, ech, "ideal_sum")
    return Ideal(a.sig, _basis_from_echelon(a.sig, ech), closed=True)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Span of pairwise basis products u*v.

    The span is already two-sided (x*u in a and v*y in b expand over the
    bases), which the closure certificate re-verifies before the flag is
    set.
    """
    _require_same_sig(a, b)
    _require_closed(a, b)
    ech = Echelon()
    for u in a.basis:
        for v in b.basis:
            prod = u * v
            if prod:
                ech.add(prod.terms)
    _certify_closed(a.sig, ech, "ideal_product")
    return Ideal(a.sig, _basis_from_echelon(a.sig, ech), closed=True)


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    """Subspace intersection via the double-echelon (stacked) method."""
    _require_same_sig(a, b)
    _require_closed(a, b)
    rows = intersect_spans(
        [u.terms for u in a.basis], [v.terms for v in b.basis], a.sig.dim
    )
    out = Echelon()
    for row in rows:
        out.add(row)
    _certify_closed(a.sig, out, "ideal_intersect")
    return Ideal(a.sig, _basis_from_echelon(a.sig, out), closed=True)


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
    got = [min(v.terms) for v in ideal.basis]
    if got != expected or any(len(v.terms) != 1 for v in ideal.basis):
        raise SelfCheckError(
            f"ideal generated by null set {idx} does not match its blade span"
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
        raise SelfCheckError(
            f"nil radical of {sig} has dim {ideal.dim}, expected {expected_dim}"
        )
    return ideal


def jacobson_radical(sig: Signature) -> Ideal:
    """The Jacobson radical, which coincides with the nil radical here."""
    return nil_radical(sig)


# -- classification ----------------------------------------------------


def _component_rows(sig: Signature, idempotent: Multivector) -> list[dict]:
    """Spanning rows of (idempotent * non-degenerate subalgebra)."""
    nullmask = sig.null_mask
    rows = []
    for m in range(sig.dim):
        if m & nullmask:
            continue
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
    _require_closed(ideal)
    sig = ideal.sig
    radical = nil_radical(sig)
    inter = ideal_intersect(ideal, radical)
    dims = (ideal.dim, inter.dim)
    if ideal.dim == 0:
        return ClassificationReport(IdealVerdict.ZERO, inter, dims)
    if ideal.contained_in_radical():
        return ClassificationReport(
            IdealVerdict.CONTAINED_IN_RADICAL, inter, dims
        )
    if not is_split_signature(sig):
        if ideal.is_whole_algebra():
            return ClassificationReport(IdealVerdict.WHOLE_ALGEBRA, inter, dims)
        raise SelfCheckError(
            "a proper nonzero ideal escaped the radical although the "
            f"non-degenerate part of {sig} is simple"
        )
    e1, e2 = central_idempotents(sig)
    in1 = ideal.contains(e1)
    in2 = ideal.contains(e2)
    if in1 and in2:
        if not ideal.is_whole_algebra():
            raise SelfCheckError("ideal contains 1 but is not the whole algebra")
        return ClassificationReport(IdealVerdict.WHOLE_ALGEBRA, inter, dims)
    if in1 or in2:
        comp = e1 if in1 else e2
        half = (1 << (sig.p + sig.q)) // 2
        if ideal.dim != half + inter.dim:
            raise SelfCheckError(
                f"component direct-sum dimension identity failed: "
                f"{ideal.dim} != {half} + {inter.dim}"
            )
        ech = Echelon()
        for row in _component_rows(sig, comp):
            if not ideal.contains(Multivector(sig, row)):
                raise SelfCheckError("component span escapes the ideal")
            ech.add(row)
        if ech.rank != half:
            raise SelfCheckError(
                f"split component has rank {ech.rank}, expected {half}"
            )
        for v in inter.basis:
            ech.add(v.terms)
        if ech.rank != ideal.dim:
            raise SelfCheckError(
                "component + radical intersection does not rebuild the ideal"
            )
        verdict = (
            IdealVerdict.COMPONENT1_PLUS_RADICAL_PART
            if in1
            else IdealVerdict.COMPONENT2_PLUS_RADICAL_PART
        )
        return ClassificationReport(verdict, inter, dims)
    raise SelfCheckError(
        "ideal escapes the radical but contains neither split idempotent"
    )


def prime_ideals(sig: Signature) -> list[Ideal]:
    """All prime ideals: the radical alone (simple class) or the two
    component-plus-radical ideals (split class)."""
    radical = nil_radical(sig)
    if not is_split_signature(sig):
        return [radical]
    return [
        ideal_sum(component_ideal(sig, 1), radical),
        ideal_sum(component_ideal(sig, 2), radical),
    ]


# -- nilpotency --------------------------------------------------------


def ideal_nilpotency_index(ideal: Ideal):
    """Smallest n with ideal**n == 0, or None if none exists.

    The search is bounded by z+1: a (z+1)-fold product of radical
    elements repeats a null generator, so surviving that bound certifies
    the None verdict.
    """
    _require_closed(ideal)
    bound = ideal.sig.z + 1
    power = ideal
    for k in range(1, bound + 1):
        if power.is_zero():
            return k
        if k <= bound - 1:
            power = ideal_product(power, ideal)
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
    _require_closed(ideal)
    sig = ideal.sig
    if not ideal.contained_in_radical():
        raise ValueError("null support is defined for ideals inside the nil radical")
    nm = sig.null_mask
    kparts = {m & nm for v in ideal.basis for m in v.terms}
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
    raise SelfCheckError("hitting-set search failed on a nonempty support")


def finite_generating_witness(ideal: Ideal) -> list[Multivector]:
    """A finite generator list whose closure reproduces the ideal.

    Walks the basis, keeping a vector only if the kept ones do not
    already generate it, then prunes backwards so no kept vector is
    generated by the rest.
    """
    _require_closed(ideal)
    sig = ideal.sig
    if not ideal.contained_in_radical():
        raise ValueError("generating witness is computed for nilpotent ideals only")
    kept: list[Multivector] = []
    ech = Echelon()
    for v in ideal.basis:
        if not ech.contains(v.terms):
            kept.append(v)
            _saturate(sig, ech, v.terms)
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
            raise SelfCheckError("descending chain is not strictly decreasing")
    return chain


def ascending_chain(sig: Signature, k: int) -> list[Ideal]:
    """Strictly growing ideals generated by growing sets of null generators."""
    if k < 0 or k > sig.z:
        raise ValueError(f"chain length {k} must lie in 0..z = {sig.z}")
    nulls = list(sig.null_indices())
    chain = [ideal_from_null_set(sig, nulls[: i + 1]) for i in range(k)]
    for small, big in zip(chain, chain[1:]):
        if not (big.contains_ideal(small) and small.dim < big.dim):
            raise SelfCheckError("ascending chain is not strictly increasing")
    return chain
