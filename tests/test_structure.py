import random
from fractions import Fraction

import pytest

from cliffideals import (
    AlgebraKind,
    Multivector,
    SelfCheckError,
    Signature,
    central_idempotents,
    classify_pq,
    component_ideal,
    ideal_product,
    is_split_signature,
    nil_radical,
    split_decompose,
    structure,
    volume_element,
)

from helpers import random_multivector, signatures_up_to


def split_signatures(max_pq, z=0):
    return [
        s
        for s in signatures_up_to(max_pq + z)
        if s.z == z and s.p + s.q <= max_pq and is_split_signature(s)
    ]


class TestClassify:
    def test_split_one_zero(self):
        assert classify_pq(Signature(1, 0, 0)) is AlgebraKind.SPLIT

    def test_simple_balanced(self):
        assert classify_pq(Signature(1, 1, 1)) is AlgebraKind.SIMPLE

    def test_split_negative_difference(self):
        # p - q = -3 is 5 mod 8
        assert classify_pq(Signature(0, 3, 0)) is AlgebraKind.SPLIT

    def test_witness_only_for_split(self):
        assert classify_pq(Signature(1, 1, 0)) is AlgebraKind.SIMPLE
        with pytest.raises(ValueError):
            central_idempotents(Signature(1, 1, 0))
        witness = central_idempotents(Signature(1, 0, 0))
        assert classify_pq(Signature(1, 0, 0)) is AlgebraKind.SPLIT
        assert len(witness) == 2

    def test_mod8_rule(self):
        for sig in signatures_up_to(6):
            expected = (sig.p - sig.q) % 8 in (1, 5)
            assert is_split_signature(sig) == expected
            assert (classify_pq(sig) is AlgebraKind.SPLIT) == expected


class TestVolumeElement:
    def test_single_generator(self):
        sig = Signature(1, 0, 0)
        assert volume_element(sig) == Multivector.generator(sig, 0)

    def test_ascending_product(self):
        sig = Signature(1, 1, 0)
        assert volume_element(sig) == Multivector.blade(sig, 0b11)

    def test_null_generators_excluded(self):
        sig = Signature(0, 0, 2)
        assert volume_element(sig) == Multivector.scalar(sig, 1)


class TestCentralIdempotents:
    def test_one_zero(self):
        sig = Signature(1, 0, 0)
        e1, e2 = central_idempotents(sig)
        half = Fraction(1, 2)
        one = Multivector.scalar(sig, 1)
        e0 = Multivector.generator(sig, 0)
        assert e1 == (one + e0) * half
        assert e2 == (one - e0) * half

    def test_two_one(self):
        sig = Signature(2, 1, 0)
        e1, e2 = central_idempotents(sig)
        omega = Multivector.blade(sig, 0b111)
        one = Multivector.scalar(sig, 1)
        assert omega * omega == one
        assert e1 == (one + omega) * Fraction(1, 2)
        assert e2 == (one - omega) * Fraction(1, 2)

    def test_simple_class_rejected(self):
        with pytest.raises(ValueError):
            central_idempotents(Signature(1, 1, 0))

    def test_identities_exhaustive(self):
        # all split signatures with p+q <= 7, with and without nulls
        sigs = split_signatures(7, z=0) + split_signatures(5, z=1)
        assert sigs
        for sig in sigs:
            one = Multivector.scalar(sig, 1)
            omega = volume_element(sig)
            assert omega * omega == one
            for i in range(sig.p + sig.q):
                g = Multivector.generator(sig, i)
                assert omega * g == g * omega
            e1, e2 = central_idempotents(sig)
            assert e1 * e1 == e1
            assert e2 * e2 == e2
            assert e1 * e2 == Multivector.zero(sig)
            assert e2 * e1 == Multivector.zero(sig)
            assert e1 + e2 == one


class TestSplitDecompose:
    def test_unit(self):
        sig = Signature(1, 0, 0)
        e1, e2 = central_idempotents(sig)
        c1, c2, rad = split_decompose(Multivector.scalar(sig, 1))
        assert (c1, c2, rad) == (e1, e2, Multivector.zero(sig))

    def test_pure_radical(self):
        sig = Signature(1, 0, 1)
        u = Multivector.generator(sig, 1)
        c1, c2, rad = split_decompose(u)
        assert c1.is_zero() and c2.is_zero() and rad == u

    def test_generator_projections(self):
        # e1*e0 = e1 and e2*e0 = -e2 for the (1,0,0) idempotents
        sig = Signature(1, 0, 0)
        e1, e2 = central_idempotents(sig)
        c1, c2, rad = split_decompose(Multivector.generator(sig, 0))
        assert c1 == e1
        assert c2 == -e2
        assert rad.is_zero()

    def test_simple_class_rejected(self):
        with pytest.raises(ValueError):
            split_decompose(Multivector.scalar(Signature(1, 1, 0), 1))

    def test_linear_and_idempotent(self):
        rng = random.Random(23)
        for sig in split_signatures(3, z=1):
            for _ in range(20):
                u = random_multivector(sig, rng)
                v = random_multivector(sig, rng)
                cu = split_decompose(u)
                cv = split_decompose(v)
                cw = split_decompose(u + v)
                assert all(cw[k] == cu[k] + cv[k] for k in range(3))
                assert sum(cu, Multivector.zero(sig)) == u
                # projecting a projection changes nothing
                c1_again = split_decompose(cu[0])
                assert c1_again[0] == cu[0]
                assert c1_again[1].is_zero() and c1_again[2].is_zero()


def test_component_ideals_of_nondegenerate_algebra():
    # in the z = 0 algebra the idempotents generate the two simple
    # two-sided ideals: half dimension each, zero pairwise product
    for sig in split_signatures(5, z=0):
        c1 = component_ideal(sig, 1)
        c2 = component_ideal(sig, 2)
        half = sig.dim // 2
        assert c1.dim == half and c2.dim == half
        assert ideal_product(c1, c2).is_zero()
        assert ideal_product(c2, c1).is_zero()


def test_component_spans_annihilate_with_radical_present():
    # the pure split components of the non-degenerate part multiply to
    # zero inside the full algebra even when null generators exist
    sig = Signature(1, 0, 1)
    e1, e2 = central_idempotents(sig)
    body_blades = [
        Multivector.blade(sig, m) for m in range(sig.dim) if not m & sig.null_mask
    ]
    span1 = [e1 * b for b in body_blades]
    span2 = [e2 * b for b in body_blades]
    for u in span1:
        for v in span2:
            assert (u * v).is_zero()


def test_component_closures_absorb_radical():
    # with z > 0 the closed ideal generated by an idempotent contains the
    # whole radical (null generators swap the idempotents)
    sig = Signature(1, 0, 1)
    c1 = component_ideal(sig, 1)
    radical = nil_radical(sig)
    assert c1.contains_ideal(radical)
    assert c1.dim == 1 + radical.dim


@pytest.mark.parametrize(
    "fake, failure",
    [
        (
            lambda sig: Multivector.blade(sig, 0b011, 2),
            "idempotent identities failed",
        ),
        # e0 squares to 1, so (1 +- e0)/2 are orthogonal idempotents, but
        # they do not commute with e1
        (
            lambda sig: Multivector.generator(sig, 0),
            "idempotents fail to commute with e1",
        ),
    ],
)
def test_central_idempotent_failures_name_signature(monkeypatch, fake, failure):
    monkeypatch.setattr(structure, "volume_element", fake)
    with pytest.raises(SelfCheckError) as caught:
        central_idempotents(Signature(2, 1, 1))
    assert str(caught.value) == f"central_idempotents at signature 2,1,1: {failure}"
