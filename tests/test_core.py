"""The core splitting Cl(p,q,z) = M (x) Cl(r,s,z) and the closures lifted through it."""

import random

import pytest

from cliffideals import (
    Multivector,
    SelfCheckError,
    Signature,
    central_idempotents,
    ideal_closure,
    is_split_signature,
)
from cliffideals.core import CoreSplit
from cliffideals.ideals import _core_ideal, _saturate
from cliffideals.linalg import Echelon

from helpers import random_multivector, signatures_up_to


def _twisted_product(split, b):
    """g_b = g_j1 * ... * g_jt in the full algebra, ascending j."""
    sig = split.sig
    out = Multivector.scalar(sig, 1)
    for j in range(split.core.n):
        if b >> j & 1:
            g = Multivector.blade(sig, split.omega) * Multivector.generator(
                sig, split.shift + j
            )
            out = out * g
    return out


def test_core_signature_and_blade_map():
    # the map (M blade, core blade) -> +-blade is a bijection, and it is
    # the product e_a * g_b of the algebra
    for sig in signatures_up_to(6):
        split = CoreSplit(sig)
        core = split.core
        assert core.z == sig.z and core.p + core.q == (sig.p + sig.q) % 2
        assert split.shift + core.n == sig.n
        pairs = [(a, b) for a in range(1 << split.shift) for b in range(core.dim)]
        assert sorted(split.blade(a, b)[1] for a, b in pairs) == list(range(sig.dim))
        for b in range(core.dim):
            gb = _twisted_product(split, b)
            for a in range(1 << split.shift):
                sign, mask = split.blade(a, b)
                product = Multivector.blade(sig, a) * gb
                assert product == Multivector.blade(sig, mask, sign)


def test_identity_split_when_p_plus_q_at_most_one():
    for sig in (Signature(0, 0, 3), Signature(1, 0, 2), Signature(0, 1, 4)):
        split = CoreSplit(sig)
        assert split.core == sig and split.shift == 0
        assert all(split.blade(0, b) == (1, b) for b in range(sig.dim))


def _closure_cases(sig, rng):
    nulls = list(sig.null_indices())
    for subset in range(1 << len(nulls)):
        picked = [k for i, k in enumerate(nulls) if subset >> i & 1]
        yield [Multivector.generator(sig, k) for k in picked]
    if is_split_signature(sig):
        for e in central_idempotents(sig):
            yield [e]
    for _ in range(2):
        yield [random_multivector(sig, rng, max_terms=5)]
    yield [
        random_multivector(sig, rng),
        random_multivector(sig, rng, radical_only=True),
    ]


def test_lift_matches_full_algebra_saturation():
    # the RREF of a subspace is unique, so the lifted closure must give
    # the same rows as saturation in the full algebra
    rng = random.Random(67)
    for sig in signatures_up_to(7):
        for gens in _closure_cases(sig, rng):
            full = Echelon()
            for g in gens:
                _saturate(sig, full, g.terms)
            ideal = ideal_closure(sig, gens)
            assert [v.terms for v in ideal.basis] == full.rows(), (sig, gens)
            split = CoreSplit(sig)
            core = Echelon()
            for g in gens:
                for part in split.components(g.terms):
                    _saturate(split.core, core, part)
            assert [v.terms for v in _core_ideal(ideal).basis] == core.rows()


def test_wrong_twisted_sign_raises(monkeypatch):
    blade = CoreSplit.blade

    def wrong(self, a, b):
        sign, mask = blade(self, a, b)
        return (-sign if b.bit_count() == 2 else sign), mask

    monkeypatch.setattr(CoreSplit, "blade", wrong)
    sig = Signature(2, 1, 2)
    with pytest.raises(SelfCheckError) as caught:
        ideal_closure(sig, [Multivector.generator(sig, 3)])
    message = str(caught.value)
    assert "core split" in message and str(sig) in message


def test_core_rows_refuse_a_row_leaving_block_zero():
    sig = Signature(2, 0, 2)
    split = CoreSplit(sig)
    # e0*e1*e2 stands for (A, b) = (1, f2) and e3 for (e0*e1, f3): a row
    # holding both has its pivot in block 0 but leaves it
    with pytest.raises(SelfCheckError, match="2,0,2"):
        split.core_rows([{0b0111: 1, 0b1000: 1}])
