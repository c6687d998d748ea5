"""Simple-vs-split structure of the non-degenerate part of the algebra.

The subalgebra generated by the +1 / -1 generators is a single full
matrix algebra unless p - q is congruent to 1 or 5 mod 8, in which case
it splits into two simple two-sided ideals.  The split is exhibited by
the central idempotents (1 +- omega)/2 built from the volume element
omega, the ascending product of all non-null generators: the congruence
forces p + q odd (so omega commutes with every non-null generator) and
omega**2 = +1.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .blades import Signature
from .multivector import Multivector


class SelfCheckError(RuntimeError):
    """An internally verified algebraic identity failed to hold."""


def check_failed(sig: Signature, operation: str, message: str) -> SelfCheckError:
    """A SelfCheckError that names the signature and the operation."""
    return SelfCheckError(f"{operation} at signature {sig}: {message}")


class AlgebraKind(enum.Enum):
    SIMPLE = "simple"
    SPLIT = "split"


def is_split_signature(sig: Signature) -> bool:
    return (sig.p - sig.q) % 8 in (1, 5)


def volume_element(sig: Signature) -> Multivector:
    """Ascending product of all +1/-1 generators (null ones excluded)."""
    mask = ((1 << (sig.p + sig.q)) - 1)
    return Multivector.blade(sig, mask)


def classify_pq(sig: Signature) -> AlgebraKind:
    """Classify the non-degenerate subalgebra as simple or split.

    The split witness is `central_idempotents(sig)`.
    """
    return AlgebraKind.SPLIT if is_split_signature(sig) else AlgebraKind.SIMPLE


def central_idempotents(sig: Signature) -> tuple[Multivector, Multivector]:
    """The orthogonal idempotent pair ((1+omega)/2, (1-omega)/2).

    Only defined in the split case.  The defining identities (idempotent,
    orthogonal, summing to 1, commuting with every non-null generator)
    are re-verified on every call and a failure raises SelfCheckError.
    """
    if not is_split_signature(sig):
        raise ValueError(
            f"signature {sig} has a simple non-degenerate part; "
            "no central idempotent pair exists"
        )
    omega = volume_element(sig)
    one = Multivector.scalar(sig, 1)
    half = Fraction(1, 2)
    e1 = (one + omega) * half
    e2 = (one - omega) * half
    checks = (
        e1 * e1 == e1,
        e2 * e2 == e2,
        e1 * e2 == Multivector.zero(sig),
        e2 * e1 == Multivector.zero(sig),
        e1 + e2 == one,
    )
    if not all(checks):
        raise check_failed(sig, "central_idempotents", "idempotent identities failed")
    for i in range(sig.p + sig.q):
        g = Multivector.generator(sig, i)
        if e1 * g != g * e1 or e2 * g != g * e2:
            raise check_failed(
                sig, "central_idempotents", f"idempotents fail to commute with e{i}"
            )
    return e1, e2


def split_decompose(
    u: Multivector,
) -> tuple[Multivector, Multivector, Multivector]:
    """Project u onto the two split components and the radical.

    Returns (c1, c2, rad) with c1 + c2 + rad == u; requires the split
    class (raises ValueError otherwise).
    """
    sig = u.sig
    e1, e2 = central_idempotents(sig)
    body, rad = u.radical_split()
    return e1 * body, e2 * body, rad
