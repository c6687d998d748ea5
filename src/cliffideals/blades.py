"""Signatures and basis blades for real Clifford algebras with null generators.

A signature (p, q, z) describes an algebra on p + q + z anticommuting
generators: p of them square to +1, q to -1 and z to 0.  Generators are
labelled canonically: indices 0..p-1 square to +1, p..p+q-1 to -1 and
p+q..p+q+z-1 to 0.  A basis blade is a product of distinct generators in
ascending index order, encoded as a bit mask over the generator indices
(bit i set means generator i participates; mask 0 is the scalar blade 1).
The 2**(p+q+z) blades form a linear basis of the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf

# Hard cap on p+q+z so 2**(p+q+z) blade masks stay addressable.
GENERATOR_CAP = 16


def int_in(value, low, high=inf) -> bool:
    """Whether value is an int, not a bool or a float, in low..high.

    The one rule for the library's integer arguments: counts, indices,
    masks, exponents and lengths.
    """
    return type(value) is int and low <= value <= high


@dataclass(frozen=True)
class Signature:
    """Generator counts (p, q, z) in canonical labelling."""

    p: int
    q: int
    z: int

    def __post_init__(self):
        for name in ("p", "q", "z"):
            v = getattr(self, name)
            if not int_in(v, 0):
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        if self.n > GENERATOR_CAP:
            raise ValueError(
                f"p+q+z = {self.n} exceeds the generator cap {GENERATOR_CAP}"
            )

    @property
    def n(self) -> int:
        """Total number of generators."""
        return self.p + self.q + self.z

    @property
    def dim(self) -> int:
        """Linear dimension of the algebra, 2**n."""
        return 1 << self.n

    @cached_property
    def minus_mask(self) -> int:
        return ((1 << self.q) - 1) << self.p

    @cached_property
    def null_mask(self) -> int:
        return ((1 << self.z) - 1) << (self.p + self.q)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def square(self, index: int) -> int:
        """Square of generator `index`: +1, -1 or 0."""
        self._check_index(index)
        if index < self.p:
            return 1
        return -1 if index < self.p + self.q else 0

    def null_indices(self) -> range:
        return range(self.p + self.q, self.n)

    def _check_index(self, index: int) -> None:
        if not int_in(index, 0, self.n - 1):
            raise IndexError(
                f"generator index {index!r} out of range for signature "
                f"({self.p},{self.q},{self.z})"
            )

    def check_blade(self, mask: int) -> None:
        if not int_in(mask, 0, self.full_mask):
            raise IndexError(
                f"blade mask {mask!r} invalid for signature "
                f"({self.p},{self.q},{self.z})"
            )

    def __str__(self) -> str:
        return f"{self.p},{self.q},{self.z}"


def sign_mask(sig: Signature, b: int) -> int:
    """The left-hand bits whose count decides the sign of a product with e_b.

    For blades a and b that share no null generator, e_a * e_b is
    (-1)**popcount(a & sign_mask(sig, b)) * e_(a^b).  The sign is
    (-1)**inversions, where `inversions` counts the pairs (x in a,
    y in b) with x > y -- exactly the adjacent transpositions a merge of
    the two ascending index lists performs -- times the squares of the
    repeated generators.  Bit x of the mask is therefore the parity of
    the b-bits below x, flipped when x is a minus generator of b.

    The prefix parity s of b starts as b << 1 and folds itself in by
    shifts of 1, 2, 4 and 8, which reach across the 16 bits of
    GENERATOR_CAP.
    """
    s = b << 1
    s ^= s << 1
    s ^= s << 2
    s ^= s << 4
    s ^= s << 8
    return s ^ (b & sig.minus_mask)


def blade_mul(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """Product of two basis blades in canonical form.

    Returns (coefficient, blade mask) with coefficient in {+1, -1, 0}; the
    sign is read off `sign_mask`.  The coefficient is 0 precisely when
    the blades share a null generator.  Annihilated products are
    normalised to (0, 0).
    """
    full = sig.full_mask  # int_in, spelled inline on this hot path
    if not (type(a) is int and type(b) is int and 0 <= a <= full and 0 <= b <= full):
        sig.check_blade(a)
        sig.check_blade(b)
    if a & b & sig.null_mask:
        return 0, 0
    if (a & sign_mask(sig, b)).bit_count() & 1:
        return -1, a ^ b
    return 1, a ^ b


def blade_str(mask: int) -> str:
    """Canonical text form: `1` for the scalar blade, else e.g. `e0*e2`."""
    if mask == 0:
        return "1"
    return "*".join(f"e{i}" for i in range(mask.bit_length()) if (mask >> i) & 1)
