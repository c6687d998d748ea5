"""The core splitting Cl(p,q,z) = M (x) Cl(r,s,z) and the closures lifted through it."""

import random
from fractions import Fraction
from functools import cache, partial

import pytest

from cliffideals import (
    Multivector,
    SelfCheckError,
    Signature,
    central_idempotents,
    ideal_closure,
    ideal_nilpotency_index,
    is_split_signature,
)
from cliffideals.blades import blade_mul
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
                for part in split.components(g.terms).values():
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


def test_core_ideal_refuses_a_row_leaving_block_zero(monkeypatch):
    # at (2,0,2) the core is Cl(0,0,2) and the closure of e3 is M (x) (f1);
    # a block-0 row that also left block 0 would bring a second component,
    # here f0, which enlarges J to the core radical
    sig = Signature(2, 0, 2)
    ideal = ideal_closure(sig, [Multivector.generator(sig, 3)])
    components = CoreSplit.components

    def leaving(self, terms):
        parts = components(self, terms)
        if not self._block(min(terms)):
            parts[self.omega] = {0b01: Fraction(1)}
        return parts

    monkeypatch.setattr(CoreSplit, "components", leaving)
    with pytest.raises(SelfCheckError) as caught:
        ideal_nilpotency_index(ideal)
    assert str(caught.value) == (
        "ideal_nilpotency_index at signature 2,0,2: "
        "core ideal of dim 3 does not lift to dim 8"
    )


def test_closure_holds_its_generators(monkeypatch):
    # a lift that writes no rows yields the certified zero ideal, which
    # the generator check refuses
    sig = Signature(5, 2, 5)
    monkeypatch.setattr(CoreSplit, "lift", lambda self, core_rows: Echelon())
    x = Multivector.generator(sig, 0) + Multivector.generator(sig, 7)
    with pytest.raises(SelfCheckError) as caught:
        ideal_closure(sig, [x])
    assert str(caught.value) == (
        "ideal_closure at signature 5,2,5: generator 0 is not in the closure"
    )


def _components_without_the_flip(self, terms):
    # files each term under its low bits, also when its core part is odd
    parts = {}
    for x, c in terms.items():
        a, b = x & self.omega, x >> self.shift
        sign, _ = self.blade(a, b)
        parts.setdefault(a, {})[b] = c if sign > 0 else -c
    return parts


def test_closure_refuses_components_that_do_not_recompose(monkeypatch):
    # at (3,2,4) the core has h, and conjugating by h splits every part into
    # its even and odd core terms, so the misfiled parts generate the same
    # core ideal and the certified result holds the generators; only
    # rebuilding the generator through the blade map shows the fault
    sig = Signature(3, 2, 4)
    e = partial(Multivector.generator, sig)
    gens = [e(5) * e(6), e(5) + e(7) * e(8)]  # core parts even; odd and even
    monkeypatch.setattr(CoreSplit, "components", _components_without_the_flip)
    with pytest.raises(SelfCheckError) as caught:
        ideal_closure(sig, gens)
    assert str(caught.value) == (
        "ideal_closure at signature 3,2,4: "
        "core components of generator 1 do not recompose"
    )
    monkeypatch.setattr(CoreSplit, "components", lambda self, terms: {})
    sig = Signature(5, 2, 5)
    with pytest.raises(SelfCheckError) as caught:
        ideal_closure(sig, [Multivector.generator(sig, 0)])
    assert str(caught.value) == (
        "ideal_closure at signature 5,2,5: "
        "core components of generator 0 do not recompose"
    )


def test_truncation_maps_closures_onto_closures():
    # e_n -> 0 is an onto homomorphism Cl(p,q,z+1) -> Cl(p,q,z) that fixes
    # x, so it maps the closure of x onto the closure of x: dropping the
    # blades that hold e_n from the rows of the larger closure spans the
    # smaller one
    rng = random.Random(29)
    for p, q, z in (
        (3, 2, 4), (4, 1, 4), (2, 2, 5), (5, 2, 5),
        (3, 3, 4), (1, 0, 8), (0, 1, 9), (2, 1, 7),
    ):
        small, big = Signature(p, q, z), Signature(p, q, z + 1)
        for _ in range(3):
            x = random_multivector(small, rng, max_terms=4)
            truncated = Echelon()
            for v in ideal_closure(big, [Multivector(big, x.terms)]).basis:
                truncated.add({m: c for m, c in v.terms.items() if m < small.dim})
            expected = ideal_closure(small, [x]).basis
            assert truncated.rows() == [v.terms for v in expected], (small, x)


def test_lift_rows_are_composed_rows():
    # past the oracle's reach, each lifted row is e_A * g(y) written by
    # `compose`, divided by its pivot coefficient; the closures of
    # h*f0 + f1*f2 + h*f3 and h*f0 + f1 + f2 have core rows of several
    # terms, with pivots of every weight mod 4 and terms of both parities
    one = Fraction(1)
    for p, q, z in ((3, 2, 4), (5, 2, 5), (4, 3, 4), (2, 3, 6)):
        split = CoreSplit(Signature(p, q, z))
        for gen in ((0b00011, 0b01100, 0b10001), (0b0011, 0b0100, 0b1000)):
            ech = Echelon()
            _saturate(split.core, ech, dict.fromkeys(gen, one))
            expected = []
            for y in ech.rows():
                for a in range(1 << split.shift):
                    v = split.compose({a: y})
                    pivot = v[min(v)]
                    expected.append({x: c / pivot for x, c in v.items()})
            expected.sort(key=min)
            assert split.lift(ech.rows()).rows() == expected, (split.sig, gen)


def _twisted_swapped(self, b):
    # the odd-t block choice made for the even weights instead
    t = b.bit_count()
    sign = self.omega_square if t & 2 else 1
    return sign, (b << self.shift) | (0 if t & 1 else self.omega)


def _twisted_odd_power(self, b):
    # the omega'**2 power keyed on the low bit of t: the same map where
    # omega'**2 = +1, as at (5,2,5)
    t = b.bit_count()
    sign = self.omega_square if t & 1 else 1
    return sign, (b << self.shift) | (self.omega if t & 1 else 0)


@pytest.mark.parametrize(
    "mutant, cases",
    [
        (
            _twisted_swapped,
            [(sig, "twisted generator g0 does not commute with e0")
             for sig in ((3, 2, 4), (4, 1, 4), (5, 2, 5), (2, 3, 5), (4, 2, 4))],
        ),
        (
            _twisted_odd_power,
            [(sig, "g0*g1 disagrees with the core blade map")
             for sig in ((3, 2, 4), (4, 2, 4))],
        ),
    ],
    ids=["swapped", "odd_power"],
)
def test_wrong_twisted_map_raises_past_the_oracle(monkeypatch, mutant, cases):
    # lift, blade, _block and compose all read `twisted`, so the relations
    # checked when the split is built catch a wrong closed form at n >= 9
    monkeypatch.setattr(CoreSplit, "twisted", mutant)
    for counts, message in cases:
        sig = Signature(*counts)
        with pytest.raises(SelfCheckError) as caught:
            ideal_closure(sig, [Multivector.generator(sig, 0)])
        assert str(caught.value) == f"core split at signature {sig}: {message}"


def _grade_involution(sig):
    return lambda x: ((-1) ** x.bit_count(), x)


def _reversion(sig):
    return lambda x: ((-1) ** (x.bit_count() * (x.bit_count() - 1) // 2), x)


def _null_permutation(sig):
    # e_k -> e_pi(k) for a seeded permutation pi of the null generators,
    # extended to blades as the product of the images in ascending order
    nulls = list(sig.null_indices())
    pi = dict(zip(nulls, random.Random(7).sample(nulls, len(nulls))))

    def image(x):
        sign, out = 1, 0
        for i in range(sig.n):
            if x >> i & 1:
                s, out = blade_mul(sig, out, 1 << pi.get(i, i))
                sign *= s
        return sign, out

    return image


def _proper_element(sig, rng, radical_only):
    # a central idempotent plus 3 radical blades of weight <= 3 has a proper
    # closure with rows of several terms; times a product f_S of all but two
    # null generators, the closure shrinks into the blades that contain S
    masks = [m for m in range(sig.dim) if m.bit_count() <= 3 and m & sig.null_mask]
    x = central_idempotents(sig)[rng.randrange(2)] + Multivector(
        sig, {m: Fraction(rng.randint(1, 3)) for m in rng.sample(masks, 3)}
    )
    if radical_only:
        for k in rng.sample(list(sig.null_indices()), sig.z - 2):
            x = x * Multivector.generator(sig, k)
    return x


@pytest.mark.parametrize(
    "automorphism", [_grade_involution, _reversion, _null_permutation]
)
def test_automorphisms_map_closures_onto_closures(automorphism):
    # grade involution and null permutations are automorphisms, reversion an
    # anti-automorphism: each maps the two-sided ideal generated by x onto
    # the one generated by the image of x, so the mapped rows of closure(x)
    # span closure(image of x); every signature here is split, n = 9..13,
    # and general elements, whose closures are large, stop at n = 10
    rng = random.Random(83)
    for p, q, z in ((3, 2, 4), (1, 0, 9), (2, 1, 8), (3, 2, 7), (4, 3, 6)):
        sig = Signature(p, q, z)
        blade_image = cache(automorphism(sig))

        def mapped(terms):
            out = {}
            for x, c in terms.items():
                sign, y = blade_image(x)
                out[y] = c * sign
            return out

        for radical_only in (True, False) if sig.n <= 10 else (True,):
            x = _proper_element(sig, rng, radical_only)
            ech = Echelon()
            for v in ideal_closure(sig, [x]).basis:
                ech.add(mapped(v.terms))
            image = ideal_closure(sig, [Multivector(sig, mapped(x.terms))])
            assert ech.rows() == [v.terms for v in image.basis], (sig, x)
