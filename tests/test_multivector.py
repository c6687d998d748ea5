import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from cliffideals import Multivector, Signature, SignatureMismatchError, blade_mul
from cliffideals.oracle import DenseTable, _dict_mul, from_dense, to_dense

from helpers import random_multivector, sig_and_multivector, signatures_up_to

S111 = Signature(1, 1, 1)


def mv(sig, text_terms):
    return Multivector(sig, text_terms)


class TestAdd:
    def test_cancellation(self):
        e0 = Multivector.generator(S111, 0)
        e2 = Multivector.generator(S111, 2)
        assert (e0 + e2) + (-e2) == e0

    def test_zero_identity(self):
        u = mv(S111, {0: 3, 0b101: Fraction(1, 2)})
        assert u + Multivector.zero(S111) == u

    def test_rational_halves(self):
        half_e0 = Multivector.blade(S111, 1, Fraction(1, 2))
        assert half_e0 + half_e0 == Multivector.generator(S111, 0)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            Multivector.scalar(S111, 1) + Multivector.scalar(Signature(1, 0, 0), 1)

    def test_coefficients_must_be_rational(self):
        # as in x + 0.5: no rounding of 0.1 to 3602879701896397/2**55 and
        # no parsing of "1/2"
        for bad in (0.1, 0.5, "1/2", "1"):
            with pytest.raises(TypeError, match=f"coefficient {bad!r}"):
                Multivector.scalar(S111, bad)
            with pytest.raises(TypeError):
                Multivector.blade(S111, 0b101, bad)
            with pytest.raises(TypeError):
                Multivector(S111, {0b001: bad})
            with pytest.raises(TypeError):
                Multivector.scalar(S111, 1) + bad
        assert Multivector.scalar(S111, Fraction(1, 2)).terms == {0: Fraction(1, 2)}


class TestMul:
    def test_null_square_collapses(self):
        one = Multivector.scalar(S111, 1)
        e2 = Multivector.generator(S111, 2)
        assert (one + e2) * (one - e2) == one

    def test_idempotent_against_dense_oracle(self):
        sig = Signature(1, 0, 0)
        u = (Multivector.scalar(sig, 1) + Multivector.generator(sig, 0)) * Fraction(
            1, 2
        )
        table = DenseTable(sig)
        dense_sq = table.multiply(to_dense(u), to_dense(u))
        assert from_dense(sig, dense_sq) == u
        assert u * u == u

    def test_generator_times_biblade(self):
        e0 = Multivector.generator(S111, 0)
        e1e2 = Multivector.blade(S111, 0b110)
        assert e0 * e1e2 == Multivector.blade(S111, 0b111)

    def test_scalar_multiplication(self):
        u = mv(S111, {1: 2})
        assert u * Fraction(1, 2) == Multivector.generator(S111, 0)
        assert 3 * u == mv(S111, {1: 6})
        assert mv(S111, {0: 1, 1: Fraction(1, 3)}) * Fraction(3, 2) == mv(
            S111, {0: Fraction(3, 2), 1: Fraction(1, 2)}
        )
        assert 0 * u == Multivector.zero(S111)

    def test_non_rational_operand_is_not_implemented(self):
        u = mv(S111, {1: 2})
        for other in (1.5, "e0", None):
            assert u.__mul__(other) is NotImplemented
            assert u.__rmul__(other) is NotImplemented
            with pytest.raises(TypeError):
                u * other

    def test_signature_mismatch(self):
        u = Multivector.generator(S111, 0)
        other = Multivector.generator(Signature(1, 0, 0), 0)
        with pytest.raises(
            SignatureMismatchError, match=r"^signature mismatch: 1,1,1 vs 1,0,0$"
        ):
            u * other
        # an equal signature that is a different object is no mismatch
        same = Multivector.generator(Signature(1, 1, 1), 0)
        assert u * same == Multivector.scalar(S111, 1)


class TestRadicalSplit:
    def test_mixed(self):
        u = mv(S111, {0: 3, 0b001: 2, 0b100: 5, 0b101: 1})
        body, rad = u.radical_split()
        assert body == mv(S111, {0: 3, 0b001: 2})
        assert rad == mv(S111, {0b100: 5, 0b101: 1})
        assert body + rad == u

    def test_body_only(self):
        u = mv(S111, {0: 1, 0b011: Fraction(7, 3)})
        assert u.radical_split() == (u, Multivector.zero(S111))

    def test_pure_radical(self):
        sig = Signature(1, 1, 2)
        u = Multivector.blade(sig, 0b1100)  # e2*e3, both null here
        assert u.radical_split() == (Multivector.zero(sig), u)


class TestNullSupport:
    def test_no_null_factors(self):
        u = Multivector.scalar(S111, 1) + Multivector.generator(S111, 0)
        assert u.null_support() == frozenset()

    def test_mixed_terms(self):
        sig = Signature(1, 0, 3)  # nulls are 1, 2, 3
        u = Multivector.blade(sig, 0b0011) + Multivector.blade(sig, 0b1000)
        assert u.null_support() == {1, 3}

    def test_zero(self):
        assert Multivector.zero(S111).null_support() == frozenset()


class TestRadicalGradeComponent:
    SIG = Signature(1, 1, 2)

    def u(self):
        # e2 + e2e3 + e0e2 with nulls at 2, 3
        return mv(self.SIG, {0b0100: 1, 0b1100: 1, 0b0101: 1})

    def test_grade_one(self):
        assert self.u().radical_grade_component(1) == mv(
            self.SIG, {0b0100: 1, 0b0101: 1}
        )

    def test_grade_two(self):
        assert self.u().radical_grade_component(2) == mv(self.SIG, {0b1100: 1})

    def test_above_z_is_zero(self):
        assert self.u().radical_grade_component(3) == Multivector.zero(self.SIG)

    def test_zero_grade_rejected(self):
        # True == 1 and 1.0 == 1, but neither is a grade
        for bad in (0, True, 1.0):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                self.u().radical_grade_component(bad)

    def test_components_recover_u(self):
        rng = random.Random(7)
        for sig in signatures_up_to(5, min_z=1):
            u = random_multivector(sig, rng, max_terms=6)
            body, _ = u.radical_split()
            total = body
            for i in range(1, sig.z + 1):
                total = total + u.radical_grade_component(i)
            assert total == u


class TestNilpotencyIndex:
    def test_null_generator(self):
        assert Multivector.generator(S111, 2).nilpotency_index() == 2

    def test_unit_not_nilpotent(self):
        assert Multivector.scalar(S111, 1).nilpotency_index() is None

    def test_sum_of_two_nulls(self):
        # brute force first: cross terms cancel by anticommutation, so
        # (e0+e1)^2 = 0 and the index is 2
        sig = Signature(0, 0, 2)
        u = Multivector.generator(sig, 0) + Multivector.generator(sig, 1)
        assert (u * u).is_zero()
        assert u.nilpotency_index() == 2

    def test_index_not_bounded_by_z_plus_one(self):
        # z = 0, yet e0 + e1 squares to e0^2 + e1^2 = 1 - 1 = 0
        sig = Signature(1, 1, 0)
        u = Multivector.generator(sig, 0) + Multivector.generator(sig, 1)
        assert u.nilpotency_index() == 2

    def test_zero_has_index_one(self):
        assert Multivector.zero(S111).nilpotency_index() == 1

    def test_radical_index_bounded_by_z_plus_one(self):
        rng = random.Random(11)
        for sig in signatures_up_to(4, min_z=1):
            for _ in range(25):
                u = random_multivector(sig, rng, radical_only=True)
                idx = u.nilpotency_index()
                assert idx is not None and idx <= sig.z + 1


class TestPow:
    def test_zeroth_power_is_one(self):
        u = Multivector(S111, {0: 2, 0b101: 3})
        assert u ** 0 == Multivector.scalar(S111, 1)

    def test_cube_is_three_products(self):
        u = Multivector(S111, {0: 2, 0b001: -1, 0b110: Fraction(1, 3)})
        assert u ** 3 == u * u * u
        assert u ** 1 == u

    def test_nilpotent_power_reaches_zero(self):
        # e0*e2 + e2 squares to zero, its first power does not
        u = Multivector(S111, {0b100: 1, 0b101: 1})
        assert not (u ** 1).is_zero()
        assert (u ** 2).is_zero()

    def test_bad_exponents_rejected(self):
        u = Multivector.generator(S111, 0)
        for bad in (-1, 2.0, Fraction(1, 2), True, False, 1.0):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                u ** bad


class TestUnipotentInverse:
    def test_single_null(self):
        one = Multivector.scalar(S111, 1)
        e2 = Multivector.generator(S111, 2)
        assert (one + e2).unipotent_inverse() == one - e2

    def test_identity(self):
        one = Multivector.scalar(S111, 1)
        assert one.unipotent_inverse() == one

    def test_null_pair(self):
        # x = e0 + e0e1 has x^2 = 0, so the inverse is exactly 1 - x
        sig = Signature(0, 0, 2)
        x = Multivector.generator(sig, 0) + Multivector.blade(sig, 0b11)
        u = Multivector.scalar(sig, 1) + x
        inv = u.unipotent_inverse()
        assert inv == Multivector.scalar(sig, 1) - x
        assert u * inv == Multivector.scalar(sig, 1)
        assert inv * u == Multivector.scalar(sig, 1)

    def test_rejects_non_unipotent(self):
        with pytest.raises(ValueError):
            Multivector.generator(S111, 0).unipotent_inverse()
        with pytest.raises(ValueError):
            (Multivector.scalar(S111, 2) + Multivector.generator(S111, 2)).unipotent_inverse()

    def test_two_sided_inverse_random(self):
        rng = random.Random(13)
        for sig in signatures_up_to(4, min_z=1):
            one = Multivector.scalar(sig, 1)
            for _ in range(20):
                x = random_multivector(sig, rng, radical_only=True)
                u = one + x
                v = u.unipotent_inverse()
                assert u * v == one and v * u == one


def test_ring_axioms_randomized():
    # exact associativity, distributivity and unit laws, 1000 triples per
    # signature with p+q+z <= 6
    rng = random.Random(2024)
    for sig in signatures_up_to(6):
        one = Multivector.scalar(sig, 1)
        for _ in range(1000):
            a = random_multivector(sig, rng, max_terms=3, coeff_range=3)
            b = random_multivector(sig, rng, max_terms=3, coeff_range=3)
            c = random_multivector(sig, rng, max_terms=3, coeff_range=3)
            ab = a * b
            bc = b * c
            assert ab * c == a * bc
            assert (a + b) * c == a * c + b * c
            assert c * (a + b) == c * a + c * b
            assert one * a == a and a * one == a


def test_body_projection_is_multiplicative():
    rng = random.Random(5)
    for sig in signatures_up_to(5, min_z=1):
        for _ in range(30):
            u = random_multivector(sig, rng)
            v = random_multivector(sig, rng)
            ub, ur = u.radical_split()
            vb, vr = v.radical_split()
            # the radical is a two-sided ideal: products with one radical
            # factor have zero body
            assert (ub * vr).radical_split()[0].is_zero()
            assert (vr * ub).radical_split()[0].is_zero()
            # on body-only elements the split is multiplicative
            assert (ub * vb).radical_split()[0] == ub * vb


def test_null_support_submultiplicative():
    rng = random.Random(17)
    for sig in signatures_up_to(5):
        for _ in range(40):
            u = random_multivector(sig, rng, max_terms=5)
            v = random_multivector(sig, rng, max_terms=5)
            assert (u * v).null_support() <= u.null_support() | v.null_support()


@settings(max_examples=200)
@given(pair=sig_and_multivector(max_total=5))
def test_equality_and_hash(pair):
    sig, u = pair
    again = Multivector(sig, dict(u.terms))
    assert u == again
    assert hash(u) == hash(again)


def _blade_sum(sig, a, b):
    """u*v as the term-by-term sum of blade products."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            s, m = blade_mul(sig, ma, mb)
            if s:
                out[m] = out.get(m, 0) + s * ca * cb
    return {m: c for m, c in out.items() if c}


def _reference_product(sig, a, b):
    # the bubble-sort oracle where its cap allows, blade_mul beyond it
    return _dict_mul(sig, a, b) if sig.n <= 10 else _blade_sum(sig, a, b)


@st.composite
def _cancelling_operands(draw):
    """(sig, u, v): up to 12 terms each, numerators above 2**64 over
    denominators 1..12, and u adjusted so that the coefficient of
    e_ma*e_mb in u*v cancels to 0 although that pair contributes."""
    n = draw(st.integers(1, 16))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    sig = Signature(p, q, n - p - q)
    null = sig.null_mask
    masks = st.integers(0, sig.dim - 1)
    coeffs = st.builds(
        Fraction,
        st.integers(2**68, 2**72) | st.integers(-(2**72), -(2**68)),
        st.integers(1, 12),
    )
    u = draw(st.dictionaries(masks, coeffs, min_size=1, max_size=11))
    v = draw(st.dictionaries(masks, coeffs, min_size=0, max_size=10))
    # mb2 brings e_k (k = ma^mb^mb2) onto the same output blade; its null
    # bits must lie in that blade's, or e_k*e_mb2 vanishes
    ma = next(iter(u))
    mb = draw(masks) & ~(ma & null)
    mb2 = draw(masks) & (~null | (ma ^ mb))
    assume(mb != mb2)
    v[mb], v[mb2] = draw(coeffs), draw(coeffs)
    target, k = ma ^ mb, ma ^ mb ^ mb2
    sign, _ = blade_mul(sig, k, mb2)
    u[k] = u.get(k, 0) - _reference_product(sig, u, v).get(target, 0) / (sign * v[mb2])
    return sig, Multivector(sig, u), Multivector(sig, v)


@settings(max_examples=100, deadline=None)
@given(_cancelling_operands())
def test_product_kernel_matches_reference(case):
    sig, u, v = case
    product = (u * v).terms
    assert product == _reference_product(sig, u.terms, v.terms)
    assert all(type(c) is Fraction and c for c in product.values())
    # again, with v's factor rows kept from the first product
    assert (u * v).terms == product
