import ast
from pathlib import Path

import pytest

import cliffideals.oracle
from cliffideals import Multivector, Signature, blade_mul, nil_radical, whole_algebra
from cliffideals.oracle import (
    DenseTable,
    from_dense,
    oracle_blade_mul,
    oracle_closure_fixpoint,
    oracle_closure_sandwich,
    oracle_nilpotency,
    to_dense,
)

from helpers import signatures_up_to


class TestOracleBladeMul:
    def test_one_swap(self):
        sig = Signature(2, 0, 0)
        assert oracle_blade_mul(sig, 0b10, 0b01) == (-1, 0b11)

    def test_null_square(self):
        sig = Signature(1, 1, 1)
        assert oracle_blade_mul(sig, 0b100, 0b100) == (0, 0)

    def test_sort_then_contract(self):
        # (e0e1)*(e0): word (0,1,0) sorts with one swap, e0e0 contracts to +1
        sig = Signature(2, 0, 0)
        assert oracle_blade_mul(sig, 0b11, 0b01) == (-1, 0b10)

    def test_cap(self):
        with pytest.raises(ValueError):
            oracle_blade_mul(Signature(6, 5, 0), 0, 0)


class TestDenseTable:
    def test_entries_match_main_path(self):
        for sig in [Signature(1, 1, 1), Signature(2, 0, 1)]:
            table = DenseTable(sig)
            for a in range(sig.dim):
                for b in range(sig.dim):
                    assert table.entry(a, b) == blade_mul(sig, a, b)

    def test_dense_product_round_trip(self):
        sig = Signature(1, 1, 1)
        table = DenseTable(sig)
        u = Multivector(sig, {0: 1, 0b100: 2})
        v = Multivector(sig, {0b001: 1, 0b100: -1})
        dense = table.multiply(to_dense(u), to_dense(v))
        assert from_dense(sig, dense) == u * v

    def test_cap(self):
        with pytest.raises(ValueError):
            DenseTable(Signature(6, 5, 0))


class TestClosureFixpoint:
    def test_unit_generates_everything(self):
        sig = Signature(1, 1, 1)
        rows = oracle_closure_fixpoint(sig, [Multivector.scalar(sig, 1)])
        assert len(rows) == sig.dim

    def test_null_generator_matches_main_closure(self):
        sig = Signature(1, 1, 1)
        gen = Multivector.generator(sig, 2)
        rows = oracle_closure_fixpoint(sig, [gen])
        main = nil_radical(sig)
        assert len(rows) == main.dim
        assert all(main.contains(v) for v in rows)

    def test_empty(self):
        assert oracle_closure_fixpoint(Signature(1, 1, 1), []) == []

    def test_cap(self):
        sig = Signature(5, 4, 0)
        for oracle in (oracle_closure_fixpoint, oracle_closure_sandwich):
            with pytest.raises(ValueError):
                oracle(sig, [Multivector.scalar(sig, 1)])


class TestOracleNilpotency:
    def test_principal_null_blade(self):
        sig = Signature(1, 1, 1)
        span = [Multivector.blade(sig, m) for m in (0b100, 0b101, 0b110, 0b111)]
        assert oracle_nilpotency(sig, span) == 2

    def test_whole_algebra(self):
        sig = Signature(1, 0, 1)
        assert oracle_nilpotency(sig, whole_algebra(sig).basis) is None

    def test_zero_ideal_is_one(self):
        assert oracle_nilpotency(Signature(1, 1, 1), []) == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            oracle_nilpotency(Signature(5, 4, 0), [])


def test_blade_agreement_exhaustive_small():
    for sig in signatures_up_to(4):
        for a in range(sig.dim):
            for b in range(sig.dim):
                assert blade_mul(sig, a, b) == oracle_blade_mul(sig, a, b)


def test_oracle_is_independent_of_the_main_path():
    # the oracle cross-checks linalg and ideals, so it must not import them
    source = Path(cliffideals.oracle.__file__).read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert not set(name.split(".")) & {"linalg", "ideals"}, name
