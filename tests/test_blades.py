import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cliffideals import (
    GENERATOR_CAP,
    Multivector,
    Signature,
    blade_mul,
    blade_str,
)
from cliffideals.oracle import oracle_blade_mul

from helpers import signatures_up_to


class TestSignature:
    def test_role_partition(self):
        sig = Signature(2, 3, 1)
        squares = [sig.square(i) for i in range(sig.n)]
        assert squares.count(1) == 2
        assert squares.count(-1) == 3
        assert squares.count(0) == 1
        assert squares == sorted(squares, key=[1, -1, 0].index)

    def test_canonical_blocks(self):
        sig = Signature(1, 2, 3)
        assert sig.square(0) == 1
        assert sig.square(1) == -1
        assert sig.square(2) == -1
        assert all(sig.square(i) == 0 for i in range(3, 6))
        assert list(sig.null_indices()) == [3, 4, 5]

    def test_dim(self):
        assert Signature(1, 1, 1).dim == 8
        assert Signature(0, 0, 0).dim == 1

    def test_cap(self):
        Signature(8, 8, 0)  # exactly at the cap
        with pytest.raises(ValueError):
            Signature(8, 8, 1)
        assert GENERATOR_CAP == 16

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Signature(-1, 0, 0)

    def test_bool_counts_rejected(self):
        # True == 1, but the signature would print as "True,0,1" in reports
        # and SelfCheckError messages
        for counts in ((True, 0, 1), (0, False, 1), (1, 0, True), (1.0, 0, 1)):
            with pytest.raises(ValueError):
                Signature(*counts)

    def test_index_errors(self):
        sig = Signature(1, 1, 1)
        with pytest.raises(IndexError):
            sig.square(3)
        with pytest.raises(IndexError):
            sig.square(-1)
        # a float or bool index is refused even where its value is in range
        for index in (1.5, 1.0, True):
            with pytest.raises(IndexError):
                sig.square(index)
            with pytest.raises(IndexError):
                Multivector.generator(sig, index)


class TestGeneratorSquare:
    def test_plus(self):
        assert Signature(1, 1, 1).square(0) == 1

    def test_minus(self):
        assert Signature(1, 1, 1).square(1) == -1

    def test_null(self):
        assert Signature(1, 1, 1).square(2) == 0


class TestBladeMul:
    def test_square_plus(self):
        sig = Signature(1, 1, 1)
        assert blade_mul(sig, 0b001, 0b001) == (1, 0)

    def test_single_transposition(self):
        sig = Signature(1, 1, 1)
        assert blade_mul(sig, 0b010, 0b001) == (-1, 0b011)

    def test_null_annihilates(self):
        sig = Signature(1, 1, 1)
        assert blade_mul(sig, 0b100, 0b100) == (0, 0)

    def test_mixed_blades(self):
        # (e0e1)*(e1e2): the sorted index word (0,1,1,2) needs no swaps
        # and contracts e1*e1 = -1, so the product is -e0e2
        sig = Signature(1, 1, 1)
        assert blade_mul(sig, 0b011, 0b110) == (-1, 0b101)
        assert oracle_blade_mul(sig, 0b011, 0b110) == (-1, 0b101)

    def test_identity_blade(self):
        sig = Signature(2, 0, 1)
        for mask in range(sig.dim):
            assert blade_mul(sig, 0, mask) == (1, mask)
            assert blade_mul(sig, mask, 0) == (1, mask)

    def test_mask_out_of_range(self):
        sig = Signature(1, 0, 0)
        with pytest.raises(IndexError):
            blade_mul(sig, 0b10, 0b01)
        # a float or bool mask is refused even where its value is in range
        for mask in (0.5, 1.0, 2.0, True, False):
            with pytest.raises(IndexError):
                sig.check_blade(mask)
            with pytest.raises(IndexError):
                Multivector(sig, {mask: 1})
            with pytest.raises(IndexError):
                blade_mul(sig, mask, 0)
            with pytest.raises(IndexError):
                blade_mul(sig, 0, mask)


def role_parts(sig, mask):
    """A blade split by generator role through the masks blade_mul reads."""
    minus, null = mask & sig.minus_mask, mask & sig.null_mask
    return mask ^ minus ^ null, minus, null


class TestBladeParts:
    def test_full_blade(self):
        sig = Signature(1, 1, 1)
        assert role_parts(sig, 0b111) == (0b001, 0b010, 0b100)

    def test_scalar_blade(self):
        sig = Signature(1, 1, 1)
        assert role_parts(sig, 0) == (0, 0, 0)

    def test_role_partition(self):
        sig = Signature(2, 0, 1)
        assert role_parts(sig, 0b101) == (0b001, 0, 0b100)
        sig = Signature(2, 3, 2)
        for part, square in zip(role_parts(sig, sig.full_mask), (1, -1, 0)):
            assert {sig.square(i) for i in range(sig.n) if part >> i & 1} == {square}

    def test_grade(self):
        sig = Signature(2, 1, 1)
        assert sum(part.bit_count() for part in role_parts(sig, 0b1011)) == 3


class TestBladeStr:
    def test_forms(self):
        assert blade_str(0) == "1"
        assert blade_str(0b1) == "e0"
        assert blade_str(0b111) == "e0*e1*e2"
        assert blade_str(1 << 12) == "e12"


def test_anticommutation_small_exhaustive():
    # distinct generators anticommute in every signature with n <= 4
    for sig in signatures_up_to(4):
        for i in range(sig.n):
            for j in range(sig.n):
                if i == j:
                    continue
                ci, mi = blade_mul(sig, 1 << i, 1 << j)
                cj, mj = blade_mul(sig, 1 << j, 1 << i)
                assert mi == mj and ci == -cj


def test_squares_small_exhaustive():
    for sig in signatures_up_to(4):
        for i in range(sig.n):
            expected = sig.square(i)
            coeff, mask = blade_mul(sig, 1 << i, 1 << i)
            assert coeff == expected
            assert mask == 0


def test_associativity_exhaustive_tiny():
    for sig in signatures_up_to(3):
        for a in range(sig.dim):
            for b in range(sig.dim):
                cab, mab = blade_mul(sig, a, b)
                for c in range(sig.dim):
                    cbc, mbc = blade_mul(sig, b, c)
                    if cab:
                        left_c, left_m = blade_mul(sig, mab, c)
                        left = (cab * left_c, left_m)
                    else:
                        left = (0, 0)
                    if left[0] == 0:
                        left = (0, 0)
                    if cbc:
                        right_c, right_m = blade_mul(sig, a, mbc)
                        right = (cbc * right_c, right_m)
                    else:
                        right = (0, 0)
                    if right[0] == 0:
                        right = (0, 0)
                    assert left == right, (sig, a, b, c)


def test_associativity_randomized_large():
    # exhaustive coverage stops at five generators; sample triples above
    rng = random.Random(73)
    for sig in signatures_up_to(8, min_total=6):
        dim = sig.dim
        for _ in range(120):
            a, b, c = rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)
            cab, mab = blade_mul(sig, a, b)
            cbc, mbc = blade_mul(sig, b, c)
            left = (0, 0)
            if cab:
                c2, m2 = blade_mul(sig, mab, c)
                if c2:
                    left = (cab * c2, m2)
            right = (0, 0)
            if cbc:
                c3, m3 = blade_mul(sig, a, mbc)
                if c3:
                    right = (cbc * c3, m3)
            assert left == right, (sig, a, b, c)


@settings(max_examples=300)
@given(
    sig=st.sampled_from(signatures_up_to(6)),
    data=st.data(),
)
def test_blade_mul_matches_oracle(sig, data):
    a = data.draw(st.integers(0, sig.dim - 1))
    b = data.draw(st.integers(0, sig.dim - 1))
    assert blade_mul(sig, a, b) == oracle_blade_mul(sig, a, b)


def _inversion_product(sig, a, b):
    # blade product from a direct count of the pairs (x in a, y in b), x > y
    if a & b & sig.null_mask:
        return 0, 0
    bits_a = [x for x in range(sig.n) if (a >> x) & 1]
    bits_b = [y for y in range(sig.n) if (b >> y) & 1]
    swaps = sum(1 for x in bits_a for y in bits_b if x > y)
    swaps += (a & b & sig.minus_mask).bit_count()
    return (-1) ** swaps, a ^ b


def test_blade_mul_matches_oracle_sampled_mid_sizes():
    # the exhaustive agreement stops at n = 4, where shifts of 1 and 2
    # already carry the prefix parity across every bit
    rng = random.Random(5)
    for sig in signatures_up_to(10, min_total=5):
        for _ in range(40):
            a, b = rng.randrange(sig.dim), rng.randrange(sig.dim)
            assert blade_mul(sig, a, b) == oracle_blade_mul(sig, a, b), (sig, a, b)


def test_blade_mul_matches_inversion_count_up_to_the_cap():
    rng = random.Random(11)
    for n in range(11, GENERATOR_CAP + 1):
        third = n // 3
        for sig in (
            Signature(n, 0, 0),
            Signature(0, n, 0),
            Signature(third, third, n - 2 * third),
        ):
            full = sig.full_mask
            top = 1 << (n - 1)
            pairs = [(full, full), (top, full), (full, top), (top, 1), (1, top)]
            pairs += [(rng.randrange(sig.dim), rng.randrange(sig.dim)) for _ in range(200)]
            if n == GENERATOR_CAP:
                pairs += [(1 << 15, b) for b in (1, 0x5555, 0x7FFF, 0xFFFF)]
            for a, b in pairs:
                assert blade_mul(sig, a, b) == _inversion_product(sig, a, b), (sig, a, b)
