"""Sparse multivectors over exact rational scalars.

A multivector is a finite linear combination of basis blades with
Fraction coefficients, stored as a mask -> Fraction map with no zero
entries.  All arithmetic is exact, so every algebraic identity in the
test suite is an equality, not an approximation.  Values are immutable
after construction.  Coefficients must be `numbers.Rational`, as in the
ring operations: a float or a string is a TypeError, never a rounded or
parsed value.

Coefficients are Fractions at the API only.  A product works over
integer numerators: each operand is scaled by the lcm of its
denominators, the term products accumulate as ints, and each output
coefficient becomes a Fraction once, over the product of the two
denominators.  Powers of integer elements, whose numerators grow to
hundreds of digits, thus never pay a gcd per term pair.  A value keeps
its integer form as a right-hand factor once computed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from types import MappingProxyType

from .blades import Signature, blade_str, int_in, sign_mask


class SignatureMismatchError(ValueError):
    """Operands live in algebras with different signatures."""


def _check_same_sig(a, b) -> None:  # any two objects with a .sig
    if a.sig != b.sig:
        raise SignatureMismatchError(f"signature mismatch: {a.sig} vs {b.sig}")


def _denominator(terms: dict) -> int:
    """The lcm of the coefficients' denominators (1 for no terms)."""
    d = 1
    for c in terms.values():
        d = lcm(d, c.denominator)
    return d


class Multivector:
    """Immutable sparse rational multivector."""

    __slots__ = ("sig", "_terms", "_rows")

    def __init__(self, sig: Signature, terms=None):
        self.sig = sig
        clean: dict[int, Fraction] = {}
        if terms:
            for mask, coeff in terms.items():
                sig.check_blade(mask)
                if not isinstance(coeff, Rational):
                    raise TypeError(f"coefficient {coeff!r} is not a rational number")
                c = Fraction(coeff)
                if c:
                    clean[mask] = c
        self._terms = clean
        self._rows = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, sig: Signature, terms: dict) -> "Multivector":
        # internal fast path: terms must already be normalised (valid
        # masks, Fraction values, no zeros)
        mv = object.__new__(cls)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "_terms", terms)
        object.__setattr__(mv, "_rows", None)
        return mv

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff=1) -> "Multivector":
        return cls(sig, {mask: coeff})

    @classmethod
    def generator(cls, sig: Signature, index: int) -> "Multivector":
        sig._check_index(index)
        return cls(sig, {1 << index: 1})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> MappingProxyType:
        """Read-only view of the blade mask -> coefficient map."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, Rational):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        _check_same_sig(self, other)
        out = dict(self._terms)
        for mask, c in other._terms.items():
            s = out.get(mask, 0) + c
            if s:
                out[mask] = s
            else:
                out.pop(mask, None)
        return Multivector._raw(self.sig, out)

    __radd__ = __add__

    def __neg__(self):
        return Multivector._raw(self.sig, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, Rational):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # Multivector first: the Rational ABC check is the slow one
        if type(other) is not Multivector:
            if isinstance(other, Rational):
                c = Fraction(other)
                if not c:
                    return Multivector._raw(self.sig, {})
                return Multivector._raw(
                    self.sig, {m: v * c for m, v in self._terms.items()}
                )
            if not isinstance(other, Multivector):
                return NotImplemented
        sig = self.sig
        if other.sig is not sig:
            _check_same_sig(self, other)
        # Over integer numerators: self and other are maps of ints over
        # the common denominators da and db.  The term products accumulate
        # as ints per output blade, and each sum is divided by da*db once.
        left = self._terms
        da = _denominator(left)
        db, rows = other._factor_rows()
        acc: dict[int, int] = {}
        for ma, c in left.items():
            na = c.numerator * (da // c.denominator)
            for mb, nb, null, flip in rows:
                if ma & null:
                    continue
                mask = ma ^ mb
                if (ma & flip).bit_count() & 1:
                    acc[mask] = acc.get(mask, 0) - na * nb
                else:
                    acc[mask] = acc.get(mask, 0) + na * nb
        d = da * db
        if d == 1:  # Fraction(v, 1) would run a gcd per coefficient
            return Multivector._raw(sig, {m: Fraction(v) for m, v in acc.items() if v})
        return Multivector._raw(sig, {m: Fraction(v, d) for m, v in acc.items() if v})

    def _factor_rows(self) -> tuple[int, list]:
        """(d, rows) for this value as a right-hand factor.

        d is the lcm of the denominators; each term gives (mask,
        d * coefficient, the mask's null bits, sign_mask(mask)).  A pair
        vanishes when the left blade meets the null bits; otherwise the
        parity of left blade & sign mask is its sign.  Computed on the
        first product and kept, since a value never changes and factors
        such as an ideal's basis vectors or a powered element are reused.
        """
        rows = self._rows
        if rows is None:
            sig = self.sig
            d = _denominator(self._terms)
            nullmask = sig.null_mask
            rows = self._rows = (d, [
                (m, c.numerator * (d // c.denominator), m & nullmask, sign_mask(sig, m))
                for m, c in self._terms.items()
            ])
        return rows

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not int_in(exponent, 0):
            raise ValueError(
                f"only non-negative integer powers are defined, got {exponent!r}"
            )
        acc = Multivector.scalar(self.sig, 1)
        for _ in range(exponent):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self._terms == other._terms

    def __hash__(self):
        return hash((self.sig, frozenset(self._terms.items())))

    # -- structure maps -----------------------------------------------

    def radical_split(self) -> tuple["Multivector", "Multivector"]:
        """Split into (body, rad): blades without / with null generators.

        The body is the non-degenerate-subalgebra component, rad lies in
        the nil radical; body + rad == self.
        """
        nm = self.sig.null_mask
        body = {m: c for m, c in self._terms.items() if not m & nm}
        rad = {m: c for m, c in self._terms.items() if m & nm}
        return Multivector._raw(self.sig, body), Multivector._raw(self.sig, rad)

    def null_support(self) -> frozenset:
        """Null generator indices occurring in the stored terms."""
        nm = self.sig.null_mask
        acc = 0
        for mask in self._terms:
            acc |= mask & nm
        return frozenset(i for i in range(self.sig.n) if (acc >> i) & 1)

    def radical_grade_component(self, i: int) -> "Multivector":
        """Terms whose null part has exactly i generators (i >= 1).

        The radical grading starts at 1; use radical_split for the body.
        """
        if not int_in(i, 1):
            raise ValueError(f"radical grade must be a positive integer, got {i!r}")
        nm = self.sig.null_mask
        picked = {m: c for m, c in self._terms.items() if (m & nm).bit_count() == i}
        return Multivector._raw(self.sig, picked)

    def nilpotency_index(self):
        """Smallest n >= 1 with self**n == 0, or None if there is none.

        The search stops at dim+1, which certifies the None verdict: left
        multiplication by a nilpotent x is a nilpotent linear map on the
        dim-dimensional algebra, so x**dim == 0.  (The index is not bounded
        by z+1: (e0+e1)**2 == 0 in Cl(1,1,0), where z = 0.)
        """
        power = self
        for k in range(1, self.sig.dim + 2):
            if power.is_zero():
                return k
            if k <= self.sig.dim:
                power = power * self
        return None

    def unipotent_inverse(self) -> "Multivector":
        """Inverse of 1 + x for x in the nil radical, by the geometric series.

        The series ends because x**(z+1) == 0.  Requires the body part to
        be exactly 1; raises ValueError otherwise.
        """
        body, rad = self.radical_split()
        if body != Multivector.scalar(self.sig, 1):
            raise ValueError("unipotent inverse needs body part exactly 1")
        neg = -rad
        acc = term = Multivector.scalar(self.sig, 1)
        while term:
            term = term * neg
            acc = acc + term
        return acc

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mask in sorted(self._terms):
            c = self._terms[mask]
            mag = abs(c)
            if mask == 0:
                body = str(mag)
            elif mag == 1:
                body = blade_str(mask)
            else:
                body = f"{mag}*{blade_str(mask)}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Multivector({self.sig}, {self})"
