"""Exact computation in real Clifford algebras with null generators.

Blades are bit masks, scalars are exact rationals, ideals are echelon
bases with closure certificates.  See the README for the mathematical
background and the CLI.
"""

from .blades import (
    GENERATOR_CAP,
    Signature,
    blade_mul,
    blade_str,
)
from .ideals import (
    ClassificationReport,
    Ideal,
    IdealVerdict,
    ascending_chain,
    component_ideal,
    descending_chain,
    finite_generating_witness,
    ideal_classify,
    ideal_closure,
    ideal_from_null_set,
    ideal_intersect,
    ideal_nilpotency_index,
    ideal_product,
    ideal_sum,
    nil_radical,
    null_support_of_ideal,
    prime_ideals,
    whole_algebra,
    zero_ideal,
)
from .multivector import Multivector, SignatureMismatchError
from .parsing import ExprSyntaxError, parse_expression, parse_signature
from .structure import (
    AlgebraKind,
    SelfCheckError,
    central_idempotents,
    classify_pq,
    is_split_signature,
    split_decompose,
    volume_element,
)

__version__ = "0.1.0"

__all__ = [
    "GENERATOR_CAP",
    "Signature",
    "blade_mul",
    "blade_str",
    "Multivector",
    "SignatureMismatchError",
    "AlgebraKind",
    "SelfCheckError",
    "central_idempotents",
    "classify_pq",
    "is_split_signature",
    "split_decompose",
    "volume_element",
    "ClassificationReport",
    "Ideal",
    "IdealVerdict",
    "ascending_chain",
    "component_ideal",
    "descending_chain",
    "finite_generating_witness",
    "ideal_classify",
    "ideal_closure",
    "ideal_from_null_set",
    "ideal_intersect",
    "ideal_nilpotency_index",
    "ideal_product",
    "ideal_sum",
    "nil_radical",
    "null_support_of_ideal",
    "prime_ideals",
    "whole_algebra",
    "zero_ideal",
    "ExprSyntaxError",
    "parse_expression",
    "parse_signature",
]
