import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from cliffideals import (
    ExprSyntaxError,
    Multivector,
    Signature,
    parse_expression,
    parse_signature,
)
from cliffideals.parsing import MAX_NESTING, parse_count

from helpers import random_multivector, sig_and_multivector, signatures_up_to

S111 = Signature(1, 1, 1)


class TestParseSignature:
    def test_count_triple(self):
        sig, perm = parse_signature("1,1,1")
        assert sig == S111
        assert perm == (0, 1, 2)

    def test_role_string(self):
        sig, perm = parse_signature("+-0")
        assert sig == S111
        assert perm == (0, 1, 2)

    def test_role_string_relabels(self):
        sig, perm = parse_signature("+0-")
        assert sig == S111
        # user generator 1 is null -> canonical index 2, user 2 -> 1
        assert perm == (0, 2, 1)

    def test_role_string_blocks(self):
        sig, perm = parse_signature("0+0-+")
        assert sig == Signature(2, 1, 2)
        assert perm == (3, 0, 4, 2, 1)

    def test_missing_count(self):
        with pytest.raises(ValueError):
            parse_signature("1,1")

    def test_junk(self):
        # counts take ASCII digits only
        for bad in ["", "x", "1,1,1,1", "1,a,1", "+-1", "1_0,0,0", "١,٠,١",
                    "²,0,0", "+1,0,0", "--1,0,0"]:
            with pytest.raises(ValueError):
                parse_signature(bad)

    def test_whitespace_tolerated(self):
        assert parse_signature(" 2 , 0 , 1 ")[0] == Signature(2, 0, 1)

    def test_unicode_minus(self):
        assert parse_signature("+−0")[0] == S111

    def test_digit_run_past_the_limit(self):
        # int() alone would point at sys.set_int_max_str_digits()
        with pytest.raises(ValueError) as err:
            parse_signature("1" * 5000 + ",0,0")
        assert str(err.value) == "signature count has more than 4300 digits"


class TestParseCount:
    def test_ascii_integers(self):
        assert parse_count("12", "count") == 12
        assert parse_count(" 2 ", "count") == 2
        assert parse_count("-1", "count") == -1
        assert parse_count("007", "count") == 7

    def test_junk_names_the_value(self):
        # the same digit rule as signature counts: no "_", no "+", no
        # other scripts' digits
        for bad in ["", "-", "--", "1_0", "+2", "\u0661", "\u00b2", "2.0", "1 0"]:
            with pytest.raises(ValueError) as err:
                parse_count(bad, "chain length")
            assert str(err.value) == f"chain length {bad!r} is not an integer"

    def test_digit_run_limit(self):
        assert parse_count("0" * 4299 + "7", "chain length") == 7
        assert parse_count("-" + "0" * 4300, "chain length") == 0
        for bad in ["1" * 4301, "-" + "1" * 5000]:
            with pytest.raises(ValueError) as err:
                parse_count(bad, "chain length")
            assert str(err.value) == "chain length has more than 4300 digits"


class TestParseExpression:
    def test_literal_sum(self):
        u = parse_expression(S111, "3 + 2*e0 + 5/2*e2")
        assert u == Multivector(
            S111, {0: 3, 0b001: 2, 0b100: Fraction(5, 2)}
        )

    def test_generator_order_normalised(self):
        assert parse_expression(S111, "e1*e0") == Multivector.blade(S111, 0b011, -1)

    def test_repeated_null_annihilates(self):
        assert parse_expression(S111, "e2*e2").is_zero()

    def test_parenthesised_product(self):
        assert parse_expression(S111, "(1+e2)*(1-e2)") == Multivector.scalar(S111, 1)

    def test_leading_minus(self):
        assert parse_expression(S111, "-e0") == Multivector.blade(S111, 1, -1)

    def test_coefficient_touching_blade(self):
        assert parse_expression(S111, "2e0") == Multivector.blade(S111, 1, 2)

    def test_scalar_only(self):
        assert parse_expression(S111, "7/3") == Multivector.scalar(
            S111, Fraction(7, 3)
        )

    def test_whitespace_insensitive(self):
        a = parse_expression(S111, "1+2*e0-1/2*e1*e2")
        b = parse_expression(S111, "  1 + 2 * e0 - 1/2 * e1 * e2 ")
        assert a == b

    def test_repeated_plus_generator_squares(self):
        assert parse_expression(S111, "e0*e0") == Multivector.scalar(S111, 1)
        assert parse_expression(S111, "e1*e1") == Multivector.scalar(S111, -1)

    def test_syntax_errors_carry_position(self):
        # non-ASCII digits are not digits: e², e١, ٣*e0, e1²
        cases = [("e0 e1", 3), ("3*", 2), ("", 0), ("1/0", 2),
                 ("e\u00b2", 0), ("e\u0661", 0), ("\u0663*e0", 0), ("e1\u00b2", 2)]
        for text, pos in cases:
            with pytest.raises(ExprSyntaxError) as err:
                parse_expression(S111, text)
            assert err.value.position == pos

    def test_denominator_errors_carry_position(self):
        cases = [("1/", 2, "unexpected end of expression"),
                 ("1/e0", 2, "expected an integer denominator")]
        for text, pos, message in cases:
            with pytest.raises(ExprSyntaxError) as err:
                parse_expression(S111, text)
            assert err.value.position == pos
            assert str(err.value) == f"{message} (at position {pos})"

    def test_unicode_minus_is_minus(self):
        assert parse_expression(S111, "2 \u2212 e0") == parse_expression(S111, "2 - e0")

    def test_long_whitespace_run(self):
        # one token per whitespace run, so no rescanning of the run
        text = "e0" + " " * 100_000
        assert parse_expression(S111, text) == Multivector.generator(S111, 0)

    def test_nesting_limit(self):
        deepest = "(" * MAX_NESTING + "e0" + ")" * MAX_NESTING
        assert parse_expression(S111, deepest) == Multivector.generator(S111, 0)
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(S111, "(" + deepest + ")")
        assert err.value.position == MAX_NESTING

    def test_star_required_between_generators(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression(S111, "e1e2")

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            parse_expression(S111, "e7")

    def test_multi_digit_index(self):
        sig = Signature(13, 0, 0)
        assert parse_expression(sig, "e12") == Multivector.generator(sig, 12)

    def test_digit_runs_past_the_limit_carry_position(self):
        # a run of exactly MAX_DIGITS still parses
        assert parse_expression(S111, "0" * 4299 + "3") == Multivector.scalar(S111, 3)
        cases = [("0" * 4400 + "1", 0, "integer"),
                 ("2 + 1/" + "1" * 4301, 6, "integer"),
                 ("e0*e" + "0" * 4301, 4, "generator index")]
        for text, pos, what in cases:
            with pytest.raises(ExprSyntaxError) as err:
                parse_expression(S111, text)
            assert err.value.position == pos
            assert str(err.value) == (
                f"{what} has more than 4300 digits (at position {pos})"
            )


class TestRoundTrip:
    def test_seeded_random(self):
        rng = random.Random(67)
        for sig in signatures_up_to(5):
            for _ in range(50):
                u = random_multivector(sig, rng, max_terms=6, coeff_range=9)
                assert parse_expression(sig, str(u)) == u

    @settings(max_examples=300)
    @given(pair=sig_and_multivector(max_total=5, max_terms=6))
    def test_hypothesis(self, pair):
        sig, u = pair
        assert parse_expression(sig, str(u)) == u

    def test_edge_values(self):
        cases = [
            Multivector.zero(S111),
            Multivector.scalar(S111, 1),
            Multivector.scalar(S111, -1),
            Multivector.blade(S111, 0b111, Fraction(-22, 7)),
            Multivector(S111, {0: Fraction(1, 2), 0b110: -1}),
        ]
        for u in cases:
            assert parse_expression(S111, str(u)) == u
