import random
from fractions import Fraction

import pytest

from cliffideals import (
    Ideal,
    IdealVerdict,
    Multivector,
    SelfCheckError,
    Signature,
    SignatureMismatchError,
    ascending_chain,
    blade_mul,
    central_idempotents,
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
    is_split_signature,
    nil_radical,
    null_support_of_ideal,
    parse_expression,
    prime_ideals,
    whole_algebra,
    zero_ideal,
)
from cliffideals import ideals
from cliffideals.ideals import _blade_span_ideal, _saturate
from cliffideals.linalg import Echelon
from cliffideals.oracle import (
    oracle_closure_fixpoint,
    oracle_closure_sandwich,
    oracle_nilpotency,
)

from helpers import random_multivector, signatures_up_to

S111 = Signature(1, 1, 1)


def closure_of_masks(sig, *masks):
    return ideal_closure(sig, [Multivector.blade(sig, m) for m in masks])


class TestClosure:
    def test_unit_generates_everything(self):
        for sig in [S111, Signature(0, 2, 1)]:
            assert whole_algebra(sig).dim == sig.dim

    def test_null_generator_principal(self):
        ideal = closure_of_masks(S111, 0b100)
        assert ideal.dim == 4
        # span = all blades containing e2
        assert [min(v.terms) for v in ideal.basis] == [0b100, 0b101, 0b110, 0b111]

    def test_empty_gens(self):
        ideal = ideal_closure(S111, [])
        assert ideal.is_zero()

    def test_matches_fixpoint_oracle_on_random_gens(self):
        rng = random.Random(31)
        for sig in signatures_up_to(4):
            for _ in range(10):
                gens = [random_multivector(sig, rng) for _ in range(rng.randint(1, 2))]
                ideal = ideal_closure(sig, gens)
                for oracle in (oracle_closure_fixpoint, oracle_closure_sandwich):
                    span = oracle(sig, gens)
                    assert len(span) == ideal.dim
                    assert all(ideal.contains(v) for v in span)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            ideal_closure(S111, [Multivector.scalar(Signature(2, 0, 0), 1)])


class TestConstruction:
    def test_unclosed_span_is_refused(self):
        # the span of e2 alone is not closed: e0*e2 lies outside it
        ech = Echelon()
        ech.add(Multivector.generator(S111, 2).terms)
        with pytest.raises(SelfCheckError) as caught:
            Ideal(S111, ech, "forged span")
        message = str(caught.value)
        assert "forged span" in message and str(S111) in message

    def test_unit_rows_need_unit_row_images(self):
        # e2, e0*e2 and e1*e2 as unit rows: e0 * (e1*e2) = e0*e1*e2 is
        # missing, and the pivot lookup must notice it
        ech = Echelon()
        for m in (0b100, 0b101, 0b110):
            ech.add(Multivector.blade(S111, m).terms)
        with pytest.raises(SelfCheckError, match="forged units"):
            Ideal(S111, ech, "forged units")

    def test_image_at_the_pivot_of_a_mixed_row_is_refused(self):
        # e0*e2 is the pivot of the mixed row e0*e2 + e1*e2 but is not in
        # the span, so the unit row e2 is not closed under e0
        ech = Echelon()
        ech.add(Multivector.blade(S111, 0b100).terms)
        ech.add({0b101: 1, 0b110: 1})
        ech.add(Multivector.blade(S111, 0b111).terms)
        with pytest.raises(SelfCheckError, match="by e0"):
            Ideal(S111, ech, "forged mixed")

    def test_unclosed_mixed_rows_are_refused(self):
        ech = Echelon()
        ech.add((Multivector.generator(S111, 2) + Multivector.blade(S111, 0b101)).terms)
        with pytest.raises(SelfCheckError, match="forged mixed"):
            Ideal(S111, ech, "forged mixed")

    def test_span_closed_on_one_side_only_is_refused(self):
        # the left ideal A*(1+e0) of Cl(2,0,0): every row is a multi-term
        # row, left images stay inside, but (1+e0)*e1 = e1 + e0*e1 escapes
        sig = Signature(2, 0, 0)
        ech = Echelon()
        for text in ("1 + e0", "e1 - e0*e1"):
            ech.add(parse_expression(sig, text).terms)
        with pytest.raises(SelfCheckError) as caught:
            Ideal(sig, ech, "forged left ideal")
        assert str(caught.value) == (
            "forged left ideal at signature 2,0,0: "
            "not closed under right multiplication by e1"
        )

    def test_basis_tuple_is_not_accepted(self):
        e0, e2 = Multivector.generator(S111, 0), Multivector.generator(S111, 2)
        with pytest.raises(TypeError):
            Ideal(S111, (e0 + e2, e0), closed=True)

    def test_closed_span_is_accepted(self):
        ech = Echelon()
        for m in (0b100, 0b101, 0b110, 0b111):
            ech.add(Multivector.blade(S111, m).terms)
        assert Ideal(S111, ech, "hand-built") == closure_of_masks(S111, 0b100)

    def test_immutable(self):
        ideal = closure_of_masks(S111, 0b100)
        with pytest.raises(AttributeError):
            ideal.sig = Signature(1, 1, 0)

    def test_basis_terms_are_read_only(self):
        # a basis vector's terms are the echelon's row, seen read-only
        sig = Signature(1, 0, 2)
        ideal = nil_radical(sig)
        with pytest.raises(TypeError):
            ideal.basis[0].terms[0] = Fraction(1)
        assert str(ideal.basis[0]) == "e1"
        assert ideal == nil_radical(sig)

    def test_constructor_takes_the_rows(self):
        # the caller's echelon is left empty, so inserting into it later
        # cannot change the certified ideal
        ech = Echelon()
        for m in (0b100, 0b101, 0b110, 0b111):
            ech.add(Multivector.blade(S111, m).terms)
        ideal = Ideal(S111, ech, "hand-built")
        e0 = Multivector.generator(S111, 0)
        ech.add(e0.terms)
        assert ideal.dim == 4
        assert len(ideal.basis) == 4
        assert not ideal.contains(e0)


class TestContains:
    def test_radical_absorbs(self):
        radical = nil_radical(S111)
        u = Multivector.generator(S111, 2) * (
            Multivector.scalar(S111, 1) + Multivector.generator(S111, 0)
        )
        assert radical.contains(u)

    def test_zero_ideal(self):
        assert not zero_ideal(S111).contains(Multivector.scalar(S111, 1))
        assert zero_ideal(S111).contains(Multivector.zero(S111))

    def test_principal_contains_left_multiple(self):
        ideal = closure_of_masks(S111, 0b100)
        assert ideal.contains(Multivector.blade(S111, 0b101))

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            nil_radical(S111).contains(Multivector.zero(Signature(1, 1, 0)))

    def test_contained_in_radical_matches_term_scan(self):
        rng = random.Random(53)
        for sig in signatures_up_to(5):
            ideals = [zero_ideal(sig), whole_algebra(sig), nil_radical(sig)]
            for radical_only in (False, True, False, True):
                gen = random_multivector(sig, rng, radical_only=radical_only)
                ideals.append(ideal_closure(sig, [gen]))
            for ideal in ideals:
                scan = all(m & sig.null_mask for v in ideal.basis for m in v.terms)
                assert ideal.contained_in_radical() == scan


class TestSumProductIntersect:
    def test_sum_with_zero(self):
        ideal = closure_of_masks(S111, 0b100)
        assert ideal_sum(ideal, zero_ideal(S111)) == ideal

    def test_component_product_zero_without_radical(self):
        sig = Signature(1, 0, 0)
        assert ideal_product(component_ideal(sig, 1), component_ideal(sig, 2)).is_zero()

    def test_component_closure_product_lands_in_radical(self):
        # with z > 0 both closures contain the radical, so their product
        # is the nonzero square of the radical... which for z = 1 is zero
        # again; use the containment statement, which holds for every z
        sig = Signature(1, 0, 1)
        prod = ideal_product(component_ideal(sig, 1), component_ideal(sig, 2))
        assert nil_radical(sig).contains_ideal(prod)

    def test_intersection_idempotent(self):
        ideal = closure_of_masks(S111, 0b100)
        assert ideal_intersect(ideal, ideal) == ideal

    def test_lattice_relations_random(self):
        rng = random.Random(37)
        for sig in signatures_up_to(4, min_z=1):
            for _ in range(6):
                a = ideal_closure(sig, [random_multivector(sig, rng)])
                b = ideal_closure(sig, [random_multivector(sig, rng)])
                total = ideal_sum(a, b)
                inter = ideal_intersect(a, b)
                prod = ideal_product(a, b)
                assert total.contains_ideal(a) and total.contains_ideal(b)
                assert a.contains_ideal(inter) and b.contains_ideal(inter)
                assert a.contains_ideal(prod) and b.contains_ideal(prod)
                assert total.dim + inter.dim == a.dim + b.dim

    def test_sum_leaves_operands_unchanged(self):
        rng = random.Random(39)
        for sig in signatures_up_to(4, min_z=1):
            a = ideal_closure(sig, [random_multivector(sig, rng)])
            b = ideal_closure(sig, [random_multivector(sig, rng)])
            before = (a.basis_strings(), b.basis_strings())
            total = ideal_sum(a, b)
            assert total == ideal_sum(b, a)
            assert total == ideal_closure(sig, list(a.basis) + list(b.basis))
            assert (a.basis_strings(), b.basis_strings()) == before

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            ideal_sum(zero_ideal(S111), zero_ideal(Signature(1, 1, 0)))


class TestNilRadical:
    def test_dim_counts_blades_with_null_part(self):
        assert nil_radical(S111).dim == 4

    def test_no_nulls_gives_zero(self):
        assert nil_radical(Signature(2, 1, 0)).is_zero()

    def test_two_nulls(self):
        radical = nil_radical(Signature(0, 0, 2))
        assert radical.dim == 3
        assert [str(v) for v in radical.basis] == ["e0", "e1", "e0*e1"]

    def test_dim_formula_small(self):
        for sig in signatures_up_to(5, min_z=1):
            assert nil_radical(sig).dim == (1 << (sig.p + sig.q)) * ((1 << sig.z) - 1)

    def test_quasi_regularity(self):
        # 1 + x must be invertible for every x in the radical
        rng = random.Random(41)
        for sig in signatures_up_to(4, min_z=1):
            radical = nil_radical(sig)
            one = Multivector.scalar(sig, 1)
            for _ in range(25):
                x = random_multivector(sig, rng, radical_only=True)
                assert radical.contains(x)
                v = (one + x).unipotent_inverse()
                assert (one + x) * v == one and v * (one + x) == one


class TestClassify:
    def test_radical_principal_in_simple(self):
        report = ideal_classify(closure_of_masks(S111, 0b100))
        assert report.verdict is IdealVerdict.CONTAINED_IN_RADICAL
        assert report.dims == (4, 4)

    def test_component_ideal_in_split(self):
        sig = Signature(1, 0, 1)
        report = ideal_classify(component_ideal(sig, 1))
        assert report.verdict is IdealVerdict.COMPONENT1_PLUS_RADICAL_PART
        # dim I = dim C1 + dim (I & radical) = 1 + 2
        assert report.dims == (3, 2)

    def test_whole_algebra(self):
        report = ideal_classify(whole_algebra(S111))
        assert report.verdict is IdealVerdict.WHOLE_ALGEBRA
        assert report.dims == (8, 4)

    def test_zero(self):
        report = ideal_classify(zero_ideal(S111))
        assert report.verdict is IdealVerdict.ZERO
        assert report.dims == (0, 0)

    def test_second_component(self):
        sig = Signature(1, 0, 1)
        report = ideal_classify(component_ideal(sig, 2))
        assert report.verdict is IdealVerdict.COMPONENT2_PLUS_RADICAL_PART

    def test_component_ideal_refuses_other_indices(self):
        sig = Signature(1, 0, 1)
        # True and 1.0 equal 1, but name no component
        for which in (0, 3, True, 1.0, 2.0):
            with pytest.raises(ValueError, match="component must be 1 or 2"):
                component_ideal(sig, which)

    def test_verdicts_consistent_on_random_principals(self):
        rng = random.Random(43)
        for sig in [S111, Signature(2, 0, 1), Signature(1, 0, 1), Signature(0, 3, 1)]:
            split = is_split_signature(sig)
            for _ in range(40):
                ideal = ideal_closure(sig, [random_multivector(sig, rng)])
                report = ideal_classify(ideal)
                if report.verdict in (
                    IdealVerdict.COMPONENT1_PLUS_RADICAL_PART,
                    IdealVerdict.COMPONENT2_PLUS_RADICAL_PART,
                ):
                    assert split
                    half = (1 << (sig.p + sig.q)) // 2
                    assert report.dims[0] == half + report.dims[1]
                elif report.verdict is IdealVerdict.CONTAINED_IN_RADICAL:
                    assert report.dims[0] == report.dims[1] > 0
                elif report.verdict is IdealVerdict.WHOLE_ALGEBRA:
                    assert report.dims[0] == sig.dim

    def test_radical_intersection_matches_intersect_reference(self):
        # I & radical read off I's echelon equals the double-echelon
        # intersection with the closed radical
        rng = random.Random(47)
        seen = set()
        for sig in signatures_up_to(5):
            radical = nil_radical(sig)
            ideals = [zero_ideal(sig), whole_algebra(sig), radical]
            if is_split_signature(sig):
                ideals += [component_ideal(sig, 1), component_ideal(sig, 2)]
            ideals += [
                ideal_closure(sig, [random_multivector(sig, rng)]) for _ in range(3)
            ]
            for ideal in ideals:
                report = ideal_classify(ideal)
                seen.add(report.verdict)
                assert report.radical_intersection == ideal_intersect(ideal, radical)
        assert seen == set(IdealVerdict)


class TestClassifySelfChecks:
    # Each SelfCheckError of ideal_classify, reached on the first prime of
    # Cl(2,1,1) through a patched collaborator.  That prime is a component
    # of dim 4 plus the radical, blades 8..15.  The direct-sum dimension
    # identity is reached through a forged certified Ideal instead.
    SIG = Signature(2, 1, 1)

    def fails(self, ideal, message):
        with pytest.raises(SelfCheckError) as caught:
            ideal_classify(ideal)
        assert str(caught.value) == f"ideal_classify at signature 2,1,1: {message}"

    def test_both_idempotents_inside(self, monkeypatch):
        prime = prime_ideals(self.SIG)[0]
        e1, _ = central_idempotents(self.SIG)
        monkeypatch.setattr(ideals, "central_idempotents", lambda sig: (e1, e1))
        self.fails(prime, "ideal contains 1 but is not the whole algebra")

    def test_neither_idempotent_inside(self, monkeypatch):
        prime = prime_ideals(self.SIG)[0]
        _, e2 = central_idempotents(self.SIG)
        monkeypatch.setattr(ideals, "central_idempotents", lambda sig: (e2, e2))
        self.fails(
            prime, "ideal escapes the radical but contains neither split idempotent"
        )

    def test_escape_in_a_simple_class(self, monkeypatch):
        prime = prime_ideals(self.SIG)[0]
        monkeypatch.setattr(ideals, "is_split_signature", lambda sig: False)
        self.fails(
            prime, "a proper nonzero ideal escaped the radical of a simple class"
        )

    def test_short_component(self, monkeypatch):
        prime = prime_ideals(self.SIG)[0]
        monkeypatch.setattr(ideals, "_component_rows", lambda sig, e: [])
        self.fails(prime, "split component has rank 0, expected 4")

    def test_escaping_component(self, monkeypatch):
        prime = prime_ideals(self.SIG)[0]
        rows = [{0: Fraction(1)}]
        monkeypatch.setattr(ideals, "_component_rows", lambda sig, e: rows)
        self.fails(prime, "component span escapes the ideal")

    def test_component_inside_the_radical(self, monkeypatch):
        prime = prime_ideals(self.SIG)[0]
        rows = [{m: Fraction(1)} for m in range(8, 12)]
        monkeypatch.setattr(ideals, "_component_rows", lambda sig, e: rows)
        self.fails(prime, "component + radical intersection does not rebuild the ideal")

    def test_direct_sum_dimension(self, monkeypatch):
        # a certified split-class ideal holding one idempotent always has
        # dim = half + radical part, so forge one: the component of e1 at
        # Cl(2,1,0) plus the blade e0, rank 5 with no radical part
        sig = Signature(2, 1, 0)
        e1, _ = central_idempotents(sig)
        ech = Echelon()
        for row in ideals._component_rows(sig, e1) + [{1: Fraction(1)}]:
            ech.add(row)
        monkeypatch.setattr(ideals, "_certify_closed", lambda *a: None)
        forged = Ideal(sig, ech, "forged")
        with pytest.raises(SelfCheckError) as caught:
            ideal_classify(forged)
        assert str(caught.value) == (
            "ideal_classify at signature 2,1,0: "
            "component direct-sum dimension identity failed: 5 != 4 + 0"
        )


class TestPrimeIdeals:
    def test_simple_gives_radical(self):
        primes = prime_ideals(S111)
        assert len(primes) == 1
        assert primes[0] == nil_radical(S111)
        assert primes[0].dim == 4

    def test_split_with_radical(self):
        primes = prime_ideals(Signature(1, 0, 1))
        assert [p.dim for p in primes] == [3, 3]

    def test_split_without_radical(self):
        primes = prime_ideals(Signature(1, 0, 0))
        assert [p.dim for p in primes] == [1, 1]

    def test_primes_contain_radical(self):
        for sig in signatures_up_to(4):
            radical = nil_radical(sig)
            for prime in prime_ideals(sig):
                assert prime.contains_ideal(radical)

    def test_split_primes_match_sum_reference(self):
        # each split prime is one closure; the reference sums the
        # component ideal and the radical
        sigs = [sig for sig in signatures_up_to(5) if is_split_signature(sig)]
        assert sigs
        for sig in sigs:
            radical = nil_radical(sig)
            assert prime_ideals(sig) == [
                ideal_sum(component_ideal(sig, w), radical) for w in (1, 2)
            ]


class TestIdealNilpotency:
    def test_principal_null_blade(self):
        assert ideal_nilpotency_index(closure_of_masks(S111, 0b100)) == 2

    def test_radical_of_two_nulls(self):
        assert ideal_nilpotency_index(nil_radical(Signature(0, 0, 2))) == 3

    def test_whole_algebra_not_nilpotent(self):
        assert ideal_nilpotency_index(whole_algebra(S111)) is None

    def test_zero_ideal_index_one(self):
        assert ideal_nilpotency_index(zero_ideal(S111)) == 1

    def test_outside_the_radical_takes_no_products(self, monkeypatch):
        whole = whole_algebra(Signature(1, 0, 8))
        prime = prime_ideals(Signature(3, 2, 4))[0]

        def refuse(*args):
            raise AssertionError("power walk reached")

        monkeypatch.setattr(ideals, "ideal_product", refuse)
        monkeypatch.setattr(ideals, "_core_ideal", refuse)
        assert ideal_nilpotency_index(whole) is None
        assert ideal_nilpotency_index(prime) is None

    def test_matches_oracle_powering(self):
        # the oracle powers the ideal in the full algebra up to dim + 1,
        # so its None verdicts need no semisimplicity argument
        rng = random.Random(53)
        verdicts = set()
        for sig in signatures_up_to(3):
            for _ in range(4):
                ideal = ideal_closure(sig, [random_multivector(sig, rng)])
                index = ideal_nilpotency_index(ideal)
                assert index == oracle_nilpotency(sig, ideal.basis), (sig, ideal)
                verdicts.add(index is None)
        assert verdicts == {True, False}

    def test_a_surviving_power_is_refused(self, monkeypatch):
        # a product that returns its left factor never reaches zero
        monkeypatch.setattr(ideals, "ideal_product", lambda a, b: a)
        with pytest.raises(SelfCheckError) as caught:
            ideal_nilpotency_index(nil_radical(Signature(0, 0, 2)))
        assert str(caught.value) == (
            "ideal_nilpotency_index at signature 0,0,2: radical ideal**3 is not zero"
        )


class TestIdealFromNullSet:
    def test_full_set_is_radical(self):
        sig = Signature(1, 1, 2)
        assert ideal_from_null_set(sig, [2, 3]) == nil_radical(sig)

    def test_empty_set(self):
        assert ideal_from_null_set(S111, []).is_zero()

    def test_single_null(self):
        ideal = ideal_from_null_set(Signature(0, 0, 2), [0])
        assert ideal.dim == 2
        assert [str(v) for v in ideal.basis] == ["e0", "e0*e1"]

    def test_non_null_index_rejected(self):
        with pytest.raises(ValueError):
            ideal_from_null_set(S111, [0])
        # True == 1 and 1.0 == 1 are not the null generator e1
        sig = Signature(1, 0, 3)
        for bad in (True, 1.0, 2.5):
            with pytest.raises(ValueError) as err:
                ideal_from_null_set(sig, [2, bad])
            assert str(err.value) == (
                f"generator index {bad!r} is not a null generator of 1,0,3"
            )


class TestNullSupport:
    def test_principal_null(self):
        canonical, minimal = null_support_of_ideal(closure_of_masks(S111, 0b100))
        assert canonical == {2} and minimal == {2}

    def test_null_biblade_minimal_is_singleton(self):
        sig = Signature(0, 0, 2)
        canonical, minimal = null_support_of_ideal(closure_of_masks(sig, 0b11))
        assert canonical == {0, 1}
        assert minimal == {0}  # smallest-index tie break

    def test_zero_ideal(self):
        assert null_support_of_ideal(zero_ideal(S111)) == (frozenset(), frozenset())

    def test_rejects_non_radical(self):
        with pytest.raises(ValueError):
            null_support_of_ideal(whole_algebra(S111))

    def test_containments(self):
        rng = random.Random(47)
        for sig in signatures_up_to(4, min_z=1):
            for _ in range(8):
                gen = random_multivector(sig, rng, radical_only=True)
                ideal = ideal_closure(sig, [gen])
                canonical, minimal = null_support_of_ideal(ideal)
                assert minimal <= canonical
                assert ideal_from_null_set(sig, canonical).contains_ideal(ideal)
                assert ideal_from_null_set(sig, minimal).contains_ideal(ideal)
                # minimality: no smaller support set contains the ideal
                if ideal.dim:
                    from itertools import combinations

                    for smaller in combinations(sorted(canonical), len(minimal) - 1):
                        assert not ideal_from_null_set(
                            sig, smaller
                        ).contains_ideal(ideal)


class TestChains:
    def test_descending_dims(self):
        chain = descending_chain(Signature(0, 0, 3), 3)
        assert [i.dim for i in chain] == [4, 2, 1]

    def test_descending_single(self):
        chain = descending_chain(Signature(0, 0, 3), 1)
        assert len(chain) == 1 and chain[0].dim == 4

    def test_empty_chains(self):
        assert descending_chain(Signature(0, 0, 3), 0) == []
        assert ascending_chain(Signature(0, 0, 3), 0) == []

    def test_ascending_dims(self):
        chain = ascending_chain(Signature(0, 0, 3), 3)
        assert [i.dim for i in chain] == [4, 6, 7]
        assert chain[-1] == nil_radical(Signature(0, 0, 3))

    def test_ascending_single(self):
        chain = ascending_chain(Signature(0, 0, 3), 1)
        assert chain == [ideal_from_null_set(Signature(0, 0, 3), [0])]

    def test_length_capped_by_z(self):
        with pytest.raises(ValueError):
            descending_chain(S111, 2)
        with pytest.raises(ValueError):
            ascending_chain(S111, 2)
        # a bool or float length is refused even where its value is in range
        sig = Signature(1, 0, 3)
        for bad in (True, 1.0, 2.0):
            for build in (descending_chain, ascending_chain):
                with pytest.raises(ValueError) as err:
                    build(sig, bad)
                assert str(err.value) == f"chain length {bad!r} must lie in 0..z = 3"


class TestBladeSpanIdeals:
    def test_null_sets_match_saturation(self):
        # every null-set ideal is written as a blade span; the reference
        # saturates in the full algebra, one more null generator into the
        # closure of the subset without it (test_core ties ideal_closure
        # to the same saturation for every null subset)
        for sig in signatures_up_to(7, min_z=1):
            nulls = list(sig.null_indices())
            reference = {0: []}
            for subset in range(1, 1 << len(nulls)):
                top = subset.bit_length() - 1
                rest = reference[subset ^ (1 << top)]
                ech = Echelon.from_rref([dict(row) for row in rest])
                _saturate(sig, ech, {1 << nulls[top]: Fraction(1)})
                reference[subset] = ech.rows()
            for subset, rows in reference.items():
                picked = [k for i, k in enumerate(nulls) if subset >> i & 1]
                ideal = ideal_from_null_set(sig, picked)
                assert [v.terms for v in ideal.basis] == rows, (sig, picked)

    def test_descending_chain_matches_closure_and_oracle(self):
        for sig in signatures_up_to(7, min_z=1):
            s = 0
            for k, ideal in zip(sig.null_indices(), descending_chain(sig, sig.z)):
                s |= 1 << k
                f = Multivector.blade(sig, s)
                assert ideal == ideal_closure(sig, [f]), (sig, s)
                if sig.n <= 6:
                    fix = oracle_closure_fixpoint(sig, [f])
                    assert len(fix) == ideal.dim
                    assert all(ideal.contains(v) for v in fix)

    def test_blade_spans_match_closure(self):
        # the monomial law: the ideal of blades is the span of the blades
        # that contain the null part of one of them
        rng = random.Random(61)
        for sig in signatures_up_to(5):
            cases = [[g] for g in range(sig.dim)]
            cases += [[rng.randrange(sig.dim) for _ in range(2)] for _ in range(4)]
            for blades in cases:
                gens = [Multivector.blade(sig, g) for g in blades]
                expected = ideal_closure(sig, gens)
                assert _blade_span_ideal(sig, blades, "span") == expected, (
                    sig,
                    blades,
                )

    def test_wrong_witness_is_refused(self, monkeypatch):
        sig = Signature(0, 0, 3)
        # a product that vanishes, as if the witness met a null generator twice
        monkeypatch.setattr(
            ideals,
            "blade_mul",
            lambda sig, a, b: (0, 0) if a ^ b == 0b101 else blade_mul(sig, a, b),
        )
        with pytest.raises(SelfCheckError) as caught:
            _blade_span_ideal(sig, [0b001], "null set")
        assert str(caught.value) == (
            "null set at signature 0,0,3: witness e2 * e0 does not give row e0*e2"
        )
        # a product that lands on another blade
        monkeypatch.setattr(ideals, "blade_mul", lambda sig, a, b: (1, a))
        with pytest.raises(SelfCheckError) as caught:
            _blade_span_ideal(sig, [0b011], "chain")
        assert str(caught.value) == (
            "chain at signature 0,0,3: witness 1 * e0*e1 does not give row e0*e1"
        )

    def test_missing_blade_is_refused_by_the_certificate(self, monkeypatch):
        drop_rows(monkeypatch, {0b011})
        with pytest.raises(SelfCheckError) as caught:
            _blade_span_ideal(Signature(0, 0, 3), [0b001], "null set")
        assert str(caught.value) == (
            "null set at signature 0,0,3: not closed under left multiplication by e1"
        )

    def test_generator_must_be_a_row(self, monkeypatch):
        # e0*e1 lies in the ideal of e0 and its span is closed, but it is
        # a smaller ideal than the one e0 generates
        drop_rows(monkeypatch, {0b001, 0b101})
        with pytest.raises(SelfCheckError) as caught:
            _blade_span_ideal(Signature(0, 0, 3), [0b001], "null set")
        assert str(caught.value) == (
            "null set at signature 0,0,3: generator e0 is not a row"
        )

    def test_no_saturation_at_large_z(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("saturation reached")

        monkeypatch.setattr(ideals, "_saturate", refuse)
        monkeypatch.setattr(ideals, "CoreSplit", refuse)
        sig = Signature(0, 0, 14)
        assert nil_radical(sig).dim == (1 << 14) - 1
        assert ideal_from_null_set(sig, [3, 7]).dim == (1 << 14) - (1 << 12)
        chain = descending_chain(sig, 14)
        assert [ideal.dim for ideal in chain] == [1 << (13 - i) for i in range(14)]
        assert whole_algebra(sig).dim == 1 << 14


def drop_rows(monkeypatch, pivots):
    """Make `Echelon.from_rref` leave out the rows with the given pivots."""
    real = Echelon.from_rref

    def from_rref(rows):
        return real([row for row in rows if min(row) not in pivots])

    monkeypatch.setattr(Echelon, "from_rref", staticmethod(from_rref))


class TestGeneratingWitness:
    def test_principal_prunes_to_one(self):
        witness = finite_generating_witness(closure_of_masks(S111, 0b100))
        assert [str(v) for v in witness] == ["e2"]

    def test_radical_recovers_null_generators(self):
        sig = Signature(0, 0, 2)
        witness = finite_generating_witness(nil_radical(sig))
        assert [str(v) for v in witness] == ["e0", "e1"]

    def test_zero(self):
        assert finite_generating_witness(zero_ideal(S111)) == []

    def test_rejects_non_radical(self):
        with pytest.raises(ValueError):
            finite_generating_witness(whole_algebra(S111))

    def test_prune_pass_drops_a_generated_vector(self):
        # the forward pass keeps e0*e2 + 1/4*e1*e3, then e0*e2*e4 (not yet
        # generated), then e3*e4; with e3*e4 kept, the first one generates
        # e0*e2*e4, so the prune pass must drop it
        sig = Signature(0, 0, 5)
        gens = [parse_expression(sig, t) for t in ("e0*e2 + 1/4*e1*e3", "e3*e4")]
        witness = finite_generating_witness(ideal_closure(sig, gens))
        assert witness == gens

    def test_closure_reproduces_ideal(self):
        rng = random.Random(53)
        for sig in signatures_up_to(4, min_z=1):
            for _ in range(6):
                gens = [
                    random_multivector(sig, rng, radical_only=True)
                    for _ in range(rng.randint(1, 2))
                ]
                ideal = ideal_closure(sig, gens)
                witness = finite_generating_witness(ideal)
                assert ideal_closure(sig, witness) == ideal
                # no witness vector is generated by the others
                for k in range(len(witness)):
                    rest = witness[:k] + witness[k + 1 :]
                    assert ideal_closure(sig, rest).dim < ideal.dim


def test_scalar_algebra_edge_case():
    sig = Signature(0, 0, 0)
    assert nil_radical(sig).is_zero()
    assert whole_algebra(sig).dim == 1
    primes = prime_ideals(sig)
    assert len(primes) == 1 and primes[0].is_zero()
    report = ideal_classify(whole_algebra(sig))
    assert report.verdict is IdealVerdict.WHOLE_ALGEBRA


def test_closure_certificates_hold():
    # spot-check the certificate property by hand on several ideals
    rng = random.Random(59)
    for sig in signatures_up_to(4, min_z=1):
        ideals = [
            nil_radical(sig),
            ideal_closure(sig, [random_multivector(sig, rng)]),
        ]
        for ideal in ideals:
            for v in ideal.basis:
                for i in range(sig.n):
                    g = Multivector.generator(sig, i)
                    assert ideal.contains(g * v)
                    assert ideal.contains(v * g)


def test_null_generator_span_description_small():
    # the ideal generated by the null generators is exactly the span of
    # blades with a nonempty null part
    for sig in signatures_up_to(5, min_z=1):
        radical = nil_radical(sig)
        expected = [m for m in range(sig.dim) if m & sig.null_mask]
        assert [min(v.terms) for v in radical.basis] == expected
        assert all(len(v.terms) == 1 for v in radical.basis)


def test_echelon_basis_is_canonical():
    # pivots strictly increase, leading coefficients are 1, and pivot
    # coordinates vanish in every other basis vector
    rng = random.Random(61)
    for sig in signatures_up_to(4):
        ideal = ideal_closure(
            sig, [random_multivector(sig, rng), random_multivector(sig, rng)]
        )
        pivots = [min(v.terms) for v in ideal.basis]
        assert pivots == sorted(pivots)
        for k, v in enumerate(ideal.basis):
            assert v.terms[pivots[k]] == 1
            for other_pivot in pivots:
                if other_pivot != pivots[k]:
                    assert other_pivot not in v.terms
