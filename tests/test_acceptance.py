"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible with -s, and on every
failure) including its elapsed time against the criterion's runtime
budget.  Later criteria reuse expensive artifacts computed by earlier
ones through a module-level cache; standalone runs recompute them inside
their own budget.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from cliffideals import (
    IdealVerdict,
    Multivector,
    Signature,
    blade_mul,
    central_idempotents,
    component_ideal,
    finite_generating_witness,
    ideal_classify,
    ideal_closure,
    ideal_from_null_set,
    ideal_nilpotency_index,
    ideal_product,
    is_split_signature,
    nil_radical,
    parse_expression,
    prime_ideals,
)
from cliffideals.cli import build_parser, run
from cliffideals.oracle import (
    oracle_blade_mul,
    oracle_closure_fixpoint,
    oracle_nilpotency,
)

from helpers import (
    is_maximal_by_probe,
    is_prime_on_principal_blades,
    principal_blade_ideals,
    random_multivector,
    signatures_up_to,
)

CLASSIFY_SIGNATURES = [
    Signature(1, 1, 1),  # simple
    Signature(2, 0, 1),  # simple
    Signature(1, 0, 1),  # split
    Signature(2, 1, 1),  # split
    Signature(0, 3, 1),  # split
]
RANDOM_PRINCIPALS_PER_SIGNATURE = 200
SHARPNESS_SIGNATURES = [
    sig for sig in signatures_up_to(6, min_z=1) if sig.p + sig.q <= 2 and sig.z <= 4
]

_CACHE: dict = {}


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\ncriterion {number} ({label}): FAIL after {elapsed:.1f}s", flush=True)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_seconds
    status = "PASS" if ok else "FAIL (over runtime budget)"
    print(
        f"\ncriterion {number} ({label}): {status} "
        f"in {elapsed:.1f}s (budget {budget_seconds:.0f}s)",
        flush=True,
    )
    assert ok, f"criterion {number} took {elapsed:.1f}s > {budget_seconds}s"


def radical_inventory() -> dict:
    """nil_radical for every signature with p+q+z <= 8, z >= 1."""
    if "radicals" not in _CACHE:
        _CACHE["radicals"] = {
            sig: nil_radical(sig) for sig in signatures_up_to(8, min_z=1)
        }
    return _CACHE["radicals"]


def _random_principal_generator(sig, rng, split_witness):
    kind = rng.randrange(4)
    u = random_multivector(sig, rng, max_terms=3, coeff_range=5)
    if kind == 1:
        u = random_multivector(sig, rng, max_terms=3, radical_only=True)
    elif kind in (2, 3) and split_witness is not None:
        u = split_witness[kind - 2] * u
        if rng.random() < 0.5:
            u = u + random_multivector(sig, rng, max_terms=2, radical_only=True)
    if u.is_zero():
        u = Multivector.scalar(sig, 1)
    return u


def classified_principals() -> list:
    """(sig, generator, ideal, report) for every classified principal ideal."""
    if "classified" not in _CACHE:
        rng = random.Random(90210)
        out = []
        for sig in CLASSIFY_SIGNATURES:
            split_witness = (
                central_idempotents(sig) if is_split_signature(sig) else None
            )
            gens = [Multivector.blade(sig, m) for m in range(sig.dim)]
            gens += [
                _random_principal_generator(sig, rng, split_witness)
                for _ in range(RANDOM_PRINCIPALS_PER_SIGNATURE)
            ]
            for g in gens:
                ideal = ideal_closure(sig, [g])
                out.append((sig, g, ideal, ideal_classify(ideal)))
        _CACHE["classified"] = out
    return _CACHE["classified"]


def prime_inventory() -> dict:
    """prime_ideals for every signature with p+q+z <= 5."""
    if "primes" not in _CACHE:
        _CACHE["primes"] = {sig: prime_ideals(sig) for sig in signatures_up_to(5)}
    return _CACHE["primes"]


def null_set_nilpotency_cases() -> list:
    """(sig, subset, ideal, index) for every S subset of the nulls, z <= 4."""
    if "null_sets" not in _CACHE:
        out = []
        for sig in SHARPNESS_SIGNATURES:
            nulls = list(sig.null_indices())
            for size in range(len(nulls) + 1):
                for subset in combinations(nulls, size):
                    ideal = ideal_from_null_set(sig, subset)
                    out.append((sig, subset, ideal, ideal_nilpotency_index(ideal)))
        _CACHE["null_sets"] = out
    return _CACHE["null_sets"]


def radical_ideals_produced() -> list:
    """Every radical-contained ideal from criteria 2-4, with its signature."""
    out = [(sig, ideal) for sig, ideal in radical_inventory().items()]
    seen = set()
    for sig, _, ideal, report in classified_principals():
        if report.verdict in (IdealVerdict.ZERO, IdealVerdict.CONTAINED_IN_RADICAL):
            key = (sig, tuple(min(v.terms) for v in ideal.basis), ideal.dim)
            if key not in seen:
                seen.add(key)
                out.append((sig, ideal))
    return out


def test_criterion_1_generator_relations_and_associativity():
    with criterion(1, "generator relations, blade associativity", 30):
        sigs = signatures_up_to(8)
        assert len(sigs) == 165
        for sig in sigs:
            for i in range(sig.n):
                assert blade_mul(sig, 1 << i, 1 << i) == (
                    sig.square(i),
                    0,
                )
                for j in range(i + 1, sig.n):
                    cij, mij = blade_mul(sig, 1 << i, 1 << j)
                    cji, mji = blade_mul(sig, 1 << j, 1 << i)
                    assert mij == mji == (1 << i) | (1 << j)
                    assert cij == 1 and cji == -1
        for sig in signatures_up_to(5):
            dim = sig.dim
            for a in range(dim):
                for b in range(dim):
                    cab, mab = blade_mul(sig, a, b)
                    for c in range(dim):
                        cbc, mbc = blade_mul(sig, b, c)
                        if cab:
                            c2, m2 = blade_mul(sig, mab, c)
                            left = (cab * c2, m2) if c2 else (0, 0)
                        else:
                            left = (0, 0)
                        if cbc:
                            c3, m3 = blade_mul(sig, a, mbc)
                            right = (cbc * c3, m3) if c3 else (0, 0)
                        else:
                            right = (0, 0)
                        assert left == right, (sig, a, b, c)


def test_criterion_2_radical_is_null_blade_span():
    with criterion(2, "radical equals the null-part blade span", 60):
        radicals = radical_inventory()
        assert len(radicals) == 120
        for sig, radical in radicals.items():
            expected_dim = (1 << (sig.p + sig.q)) * ((1 << sig.z) - 1)
            assert radical.dim == expected_dim
            expected_masks = [m for m in range(sig.dim) if m & sig.null_mask]
            assert [min(v.terms) for v in radical.basis] == expected_masks
            assert all(
                len(v.terms) == 1 and v.terms[min(v.terms)] == 1
                for v in radical.basis
            )


def test_criterion_3_principal_ideal_classification():
    with criterion(3, "principal ideal classification", 120):
        records = classified_principals()
        per_sig = len(records) // len(CLASSIFY_SIGNATURES)
        assert per_sig >= RANDOM_PRINCIPALS_PER_SIGNATURE + 2
        component_seen = 0
        primes = {sig: prime_ideals(sig) for sig in CLASSIFY_SIGNATURES}
        for sig, _, ideal, report in records:
            split = is_split_signature(sig)
            dims = report.dims
            assert dims == (ideal.dim, dims[1])
            if report.verdict is IdealVerdict.ZERO:
                assert ideal.dim == 0
            elif report.verdict is IdealVerdict.CONTAINED_IN_RADICAL:
                assert ideal.contained_in_radical()
                assert dims[0] == dims[1]
            elif report.verdict is IdealVerdict.WHOLE_ALGEBRA:
                assert ideal.dim == sig.dim
            else:
                assert split, "component verdict in a simple signature"
                component_seen += 1
                half = (1 << (sig.p + sig.q)) // 2
                assert dims[0] == half + dims[1]
                assert ideal.contains_ideal(report.radical_intersection)
                # p+q is odd, so each null e_k = e_k*e + e*e_k lies in any
                # ideal that holds the idempotent e: the ideal is the prime
                # (e) and its radical part is the whole radical
                first = report.verdict is IdealVerdict.COMPONENT1_PLUS_RADICAL_PART
                assert ideal == primes[sig][0 if first else 1]
                assert report.radical_intersection == nil_radical(sig)
        assert component_seen > 0


def test_criterion_4_prime_ideals_and_probes():
    with criterion(4, "prime ideal lists, maximality, primality", 120):
        for sig, primes in prime_inventory().items():
            split = is_split_signature(sig)
            assert len(primes) == (2 if split else 1)
            principals = principal_blade_ideals(sig)
            radical = nil_radical(sig)
            for prime in primes:
                assert prime.contains_ideal(radical)
                assert is_maximal_by_probe(prime)
                assert is_prime_on_principal_blades(prime, principals)
            if split:
                # the radical is not prime: the two component closures
                # multiply into it while neither lies inside it
                c1 = component_ideal(sig, 1)
                c2 = component_ideal(sig, 2)
                assert radical.contains_ideal(ideal_product(c1, c2))
                assert not radical.contains_ideal(c1)
                assert not radical.contains_ideal(c2)


def test_criterion_5_unipotent_inverses():
    with criterion(5, "two-sided inverses of 1 + radical", 30):
        rng = random.Random(41606)
        for sig in signatures_up_to(4, min_z=1):
            radical = nil_radical(sig)
            one = Multivector.scalar(sig, 1)
            for _ in range(500):
                x = random_multivector(
                    sig, rng, max_terms=4, radical_only=True, coeff_range=6
                )
                assert radical.contains(x)
                u = one + x
                v = u.unipotent_inverse()
                assert u * v == one
                assert v * u == one


def test_criterion_6_strict_chains():
    with criterion(6, "strict descending/ascending chains", 30):
        from cliffideals import ascending_chain, descending_chain

        for p, q in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            for z in range(1, 7):
                sig = Signature(p, q, z)
                down = descending_chain(sig, z)
                up = ascending_chain(sig, z)
                assert len(down) == len(up) == z
                down_dims = [i.dim for i in down]
                up_dims = [i.dim for i in up]
                assert down_dims == sorted(down_dims, reverse=True)
                assert up_dims == sorted(up_dims)
                assert len(set(down_dims)) == z and len(set(up_dims)) == z
                assert up[-1] == nil_radical(sig)
                for big, small in zip(down, down[1:]):
                    assert big.contains_ideal(small)
                    assert not small.contains_ideal(big)
                for small, big in zip(up, up[1:]):
                    assert big.contains_ideal(small)
                    assert not small.contains_ideal(big)


def test_criterion_7_null_support_and_witnesses():
    with criterion(7, "null supports, nilpotency sharpness, witnesses", 120):
        support_cache = {}

        def null_set_ideal(sig, subset):
            key = (sig, frozenset(subset))
            if key not in support_cache:
                support_cache[key] = ideal_from_null_set(sig, subset)
            return support_cache[key]

        from cliffideals import null_support_of_ideal

        produced = radical_ideals_produced()
        # all 120 radicals plus the distinct radical-contained principals
        assert len(produced) > 120
        for sig, ideal in produced:
            canonical, minimal = null_support_of_ideal(ideal)
            assert minimal <= canonical
            assert null_set_ideal(sig, canonical).contains_ideal(ideal)
            assert null_set_ideal(sig, minimal).contains_ideal(ideal)
        for sig, subset, ideal, index in null_set_nilpotency_cases():
            assert index == len(subset) + 1
        for sig, ideal in produced:
            witness = finite_generating_witness(ideal)
            assert ideal_closure(sig, witness) == ideal


def test_criterion_8_oracle_agreement():
    with criterion(8, "oracle agreement on products, closures, indices", 300):
        # blade products, exhaustive to eight generators
        for sig in signatures_up_to(8):
            dim = sig.dim
            for a in range(dim):
                for b in range(dim):
                    assert blade_mul(sig, a, b) == oracle_blade_mul(sig, a, b)
        # closures from criterion 2 re-derived by fixpoint
        for sig, radical in radical_inventory().items():
            gens = [Multivector.generator(sig, i) for i in sig.null_indices()]
            fix = oracle_closure_fixpoint(sig, gens)
            assert len(fix) == radical.dim
            assert all(radical.contains(v) for v in fix)
        # closures from criterion 3 re-derived by fixpoint
        for sig, gen, ideal, _ in classified_principals():
            fix = oracle_closure_fixpoint(sig, [gen])
            assert len(fix) == ideal.dim
            assert all(ideal.contains(v) for v in fix)
        # closures from criterion 4 re-derived by fixpoint
        for sig, primes in prime_inventory().items():
            null_gens = [Multivector.generator(sig, i) for i in sig.null_indices()]
            if is_split_signature(sig):
                e1, e2 = central_idempotents(sig)
                gen_sets = [[e1] + null_gens, [e2] + null_gens]
            else:
                gen_sets = [null_gens]
            for prime, gens in zip(primes, gen_sets):
                fix = oracle_closure_fixpoint(sig, gens)
                assert len(fix) == prime.dim
                assert all(prime.contains(v) for v in fix)
        # nilpotency indices from criterion 7 re-derived by powering
        for sig, subset, ideal, index in null_set_nilpotency_cases():
            assert oracle_nilpotency(sig, ideal.basis) == index


def test_criterion_9_cli_goldens_and_round_trip():
    with criterion(9, "CLI goldens and expression round-trip", 60):
        import json
        from pathlib import Path

        from test_cli import GOLDEN_CASES

        golden_dir = Path(__file__).parent / "golden"
        parser = build_parser()
        for name, argv in GOLDEN_CASES.items():
            report = run(parser.parse_args(argv))
            expected = json.loads((golden_dir / f"{name}.json").read_text())
            report["elapsed_ms"] = expected["elapsed_ms"]
            assert report == expected, name
        rng = random.Random(314159)
        sigs = signatures_up_to(5)
        for _ in range(10_000):
            sig = rng.choice(sigs)
            u = random_multivector(sig, rng, max_terms=6, coeff_range=9)
            assert parse_expression(sig, str(u)) == u
