"""Seeded inputs for the benchmark workloads.

A workload is a *round*: a fixed list of operation slots.  A slot fixes
the verb, the rung n = p+q+z, the null count z and the shape of the
generators, so a round costs about the same for every seed.  The seed
picks the p/q split, which generators fill each shape, the order they
are written in and their coefficients.  Runs repeat whole rounds, so the
mix of operations in a run does not depend on where the clock stopped.

Each workload function takes the imported `cliffideals` package, so
that building the inputs is part of the timed set-up and no library
state outlives it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from checks import (
    blade_square,
    canonical_cli,
    check_cli,
    generator_squares,
    require,
    run_cli,
)


@dataclass
class Op:
    """One operation: `call` is timed, `check` and `canon` are not."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    canon: Callable[[object], str]
    inputs: list[str]
    reference: str | None = None


COEFFS = ["1", "2", "3", "-1", "-2", "1/2", "-1/2", "2/3", "-3/2"]


def _word(indices: list[int]) -> str:
    return "*".join(f"e{i}" for i in indices)


def _join(terms: list[str]) -> str:
    text = terms[0]
    for term in terms[1:]:
        text += " - " + term[1:] if term.startswith("-") else " + " + term
    return text


def _expression(rng: random.Random, sig: tuple, shapes: list[str]) -> str:
    """A sum of monomials.  A shape such as "b0 b1 z0" names slots of a
    seeded permutation of the body (b) and null (z) generators; the seed
    also picks the order the factors are written in and each coefficient."""
    p, q, z = sig
    body = rng.sample(range(p + q), p + q)
    null = rng.sample(range(p + q, p + q + z), z)
    terms = []
    for shape in shapes:
        gens = [(body if t[0] == "b" else null)[int(t[1:])] for t in shape.split()]
        rng.shuffle(gens)
        coeff = rng.choice(COEFFS)
        blade = _word(gens) if gens else "1"
        if coeff in ("1", "-1"):
            terms.append(coeff[:-1] + blade)
        else:
            terms.append(f"{coeff}*{blade}" if gens else coeff)
    return _join(terms)


def _component_generator(rng: random.Random, sig: tuple, extra: list[str]) -> str:
    """(1 +- omega)/2 plus radical terms.  omega's factors are written in
    a seeded order, which flips its sign and so picks the component."""
    p, q, _ = sig
    omega = rng.sample(range(p + q), p + q)
    return _join([f"1/2 {rng.choice('+-')} 1/2*{_word(omega)}",
                  _expression(rng, sig, extra)])


def cli_op(cf, label: str, verb: str, sig: tuple, args: list[str], spec=None,
           reference=None) -> Op:
    spec = spec or {}
    p, q, z = sig
    argv = verb.split() + ["-s", f"{p},{q},{z}", *args, "--json"]
    cli = cf.cli
    return Op(
        label=label,
        call=lambda: run_cli(cli, argv),
        check=lambda res: check_cli(res, verb, sig, spec),
        canon=canonical_cli,
        inputs=argv,
        reference=reference,
    )


def _gens_op(cf, label, verb, sig, gens, reference=None, **spec):
    return cli_op(cf, label, verb, sig, ["--gens", "; ".join(gens)],
                  dict(spec, gens=gens), reference)


# -- classify-requests -------------------------------------------------

# (verb, signatures, generator shapes, count).  A slot's k-th request
# uses signature (r + k) mod len(signatures), with r seeded; each count
# is a multiple of the number of signatures, so every seed gets the same
# mix.  Radical shapes (every term holds a null generator) take the full
# blade-pair sandwich, "body" closures in the simple class reach the
# whole algebra, "comp" closures hold one split component.  The counts
# put the median among the n = 6 and n = 7 requests and the 90th
# percentile among the n = 7 component closures and the n = 8 closures,
# below only the n = 9 and n = 10 closures and the reference inputs.
_N6 = [(2, 1, 3), (3, 0, 3), (1, 2, 3), (0, 3, 3)]  # split, simple, simple, split
_N6_SPLIT = [(2, 1, 3), (0, 3, 3)]
_N7 = [(3, 1, 3), (2, 2, 3), (2, 1, 4), (3, 0, 4)]
_RAD2 = ["b0 z0", "z1"]
_RAD3 = ["b0 z0", "z1", "b1 b2 z2"]
_TWO_BLADE = ["b0 z0", "b1 z1"]
_N8 = [(3, 1, 4), (2, 1, 5)]  # simple, split
_N9 = [(4, 1, 4), (3, 2, 4)]  # simple, split
_CLASSIFY_SLOTS = [
    ("classify", _N6, _RAD2, 8),
    ("classify", _N6, _RAD3, 4),
    ("classify", _N6_SPLIT, "comp", 4),
    ("classify", [(3, 1, 2), (2, 2, 2)], ["", "b0 z0"], 4),
    ("nilpotency", _N6, [["b0 z0"], ["z1", "b1 b2 z0"]], 8),
    ("support", _N6, [["b0 z0", "b1 z1"]], 4),
    ("primes", _N6_SPLIT, None, 4),
    ("classify", _N7, _RAD2, 4),
    ("classify", [(3, 2, 2), (5, 0, 2)], "comp", 2),
    ("nilpotency", _N7, [["z0"], ["b0 b1 z1"]], 4),
    ("support", _N7, [["b0 z0", "b1 z1 z2"]], 4),
    ("classify", _N8, _RAD2, 2),
    ("nilpotency", _N8, [["b0 z0"], ["z1"]], 2),
    ("support", _N8, [["b0 z0", "b1 z1"]], 2),
    ("classify", _N9, _TWO_BLADE, 2),
    ("classify", [(3, 2, 5)], _TWO_BLADE, 1),
]


def _malformed(cf, rng: random.Random, kind: str) -> Op:
    sig = rng.choice(_N6)
    p, q, z = sig
    n = p + q + z
    nz = rng.randrange(p + q, n)
    if kind == "unbalanced":
        gens = [f"(1 + e{nz}*e{rng.randrange(p + q)}"]
        verb = "ideal classify"
    elif kind == "out-of-range":
        gens = [f"e{nz} + e{n + rng.randrange(3)}"]
        verb = "nilpotency"
    elif kind == "zero-denominator":
        gens = [f"e{nz} + {rng.randrange(1, 5)}/0*e{rng.randrange(p + q)}"]
        verb = "ideal classify"
    else:
        gens = [f"{rng.choice(COEFFS[:3])} + e{nz}"]
        verb = "support"
    return _gens_op(cf, f"malformed {kind}", verb, sig, gens, malformed=True)


def _classify_op(cf, rng, verb, sig, shapes) -> Op:
    label = f"{verb} n={sum(sig)}"
    if verb == "classify":
        if shapes == "comp":
            gens = [_component_generator(rng, sig, ["b0 z0"])]
        else:
            gens = [_expression(rng, sig, shapes)]
        radical = shapes != "comp" and all("z" in s for s in shapes)
        return _gens_op(cf, label, "ideal classify", sig, gens, radical=radical)
    if verb == "primes":
        return cli_op(cf, label, "primes", sig, [])
    return _gens_op(cf, label, verb, sig, [_expression(rng, sig, g) for g in shapes])


def classify_requests(cf, rng: random.Random, tiny: bool = False) -> list[Op]:
    ops = []
    for verb, sigs, shapes, count in _CLASSIFY_SLOTS:
        if tiny and sum(sigs[0]) > 6:
            continue
        for sig in _rotation(rng, sigs, 1 if tiny else count):
            ops.append(_classify_op(cf, rng, verb, sig, shapes))
    for kind in ("unbalanced", "out-of-range", "zero-denominator", "non-radical") * 2:
        ops.append(_malformed(cf, rng, kind))
    if not tiny:
        ops.append(_gens_op(
            cf, "classify n=10 reference", "ideal classify", (4, 1, 5),
            ["e5 + e0*e9 + 2*e1*e6"], "ideal classify -s 4,1,5", radical=True,
        ))
        ops.append(cli_op(cf, "primes n=9 reference", "primes", (3, 2, 4), [],
                          reference="primes -s 3,2,4"))
    rng.shuffle(ops)
    return ops


# -- structure-ladder --------------------------------------------------

# (verb, signatures, count), rotated as in classify-requests: every rung
# n = 6..12, primes only on simple signatures.  Radicals and chains have
# single-blade generators, which take the add_unit path.  The six n = 10
# requests, each one nil radical closure, hold the 90th percentile; the
# median falls among the n = 7 ones.
_LADDER_SLOTS = [
    ("radical", [(3, 0, 3), (2, 1, 3), (1, 2, 3)], 3),
    ("signature-info", [(4, 0, 2), (3, 1, 2), (2, 2, 2)], 3),
    ("primes", [(2, 0, 4), (1, 1, 4), (0, 2, 4)], 3),
    ("chains-desc", [(3, 0, 3), (2, 1, 3), (1, 2, 3)], 3),
    ("chains-asc", [(4, 0, 2), (3, 1, 2), (2, 2, 2)], 3),
    ("radical", [(4, 0, 3), (3, 1, 3), (2, 2, 3)], 3),
    ("signature-info", [(3, 0, 4), (2, 1, 4), (1, 2, 4)], 3),
    ("primes", [(4, 0, 3), (3, 1, 3), (2, 2, 3)], 3),
    ("chains-desc", [(3, 0, 4), (2, 1, 4), (1, 2, 4)], 3),
    ("chains-asc", [(5, 0, 2), (4, 1, 2), (3, 2, 2)], 3),
    ("radical", [(3, 2, 3), (4, 1, 3)], 2),
    ("signature-info", [(3, 1, 4), (2, 2, 4)], 2),
    ("primes", [(3, 1, 4), (2, 2, 4)], 2),
    ("chains-desc", [(3, 2, 3), (4, 1, 3)], 2),
    ("radical", [(3, 2, 4), (4, 1, 4)], 2),
    ("signature-info", [(4, 2, 3), (3, 3, 3)], 1),
    ("primes", [(4, 1, 4), (2, 3, 4)], 1),
    ("radical", [(4, 2, 4), (3, 3, 4)], 2),
    ("signature-info", [(5, 1, 4), (6, 0, 4)], 2),
    ("primes", [(4, 2, 4), (2, 4, 4)], 2),
    ("signature-info", [(4, 3, 4), (5, 2, 4)], 1),
]


def _rotation(rng: random.Random, sigs: list, count: int) -> list:
    first = rng.randrange(len(sigs))
    return [sigs[(first + k) % len(sigs)] for k in range(count)]


def structure_ladder(cf, rng: random.Random, tiny: bool = False) -> list[Op]:
    ops = []
    for verb, sigs, count in _LADDER_SLOTS:
        if tiny and sum(sigs[0]) > 6:
            continue
        for sig in _rotation(rng, sigs, 1 if tiny else count):
            label = f"{verb} n={sum(sig)}"
            if verb.startswith("chains"):
                z = sig[2]
                direction = "ascending" if verb == "chains-asc" else "descending"
                ops.append(cli_op(
                    cf, label, "chains", sig, ["--k", str(z), f"--{direction}"],
                    {"k": z, "direction": direction},
                ))
            else:
                ops.append(cli_op(cf, label, verb, sig, []))
    if not tiny:
        ops.append(cli_op(cf, "radical n=12 reference", "radical", (5, 2, 5), [],
                          reference="radical -s 5,2,5"))
    rng.shuffle(ops)
    return ops


# -- element-powers ----------------------------------------------------


def _element(cf, rng, sig, masks, scalar):
    """Seeded integer coefficients on `masks`; a nonzero scalar part if
    `scalar` (such an element is not nilpotent: its trace is nonzero)."""
    terms = {m: rng.choice([1, 2, 3, -1, -2, -3]) for m in masks}
    if scalar:
        terms[0] = rng.choice([1, 2, -1, -2])
    return cf.Multivector(cf.Signature(*sig), terms)


def _body_masks(sig):
    return list(range(1 << (sig[0] + sig[1])))


def _radical_masks(sig):
    p, q, z = sig
    null = ((1 << z) - 1) << (p + q)
    return [m for m in range(1 << (p + q + z)) if m & null]


def _power_op(label, x, reference=None) -> Op:
    def check(index):
        require(index is None, f"non-nilpotent element got index {index}")

    return Op(label, lambda: x.nilpotency_index(), check, str, [repr(x)], reference)


def _radical_power_op(label, x) -> Op:
    z = x.sig.z

    def check(index):
        require(index is not None and 2 <= index <= z + 1, f"index {index} not in 2..z+1")
        require(not x ** index and x ** (index - 1), "x**index is not the first zero power")

    return Op(label, lambda: x.nilpotency_index(), check, str, [repr(x)])


def _inverse_op(cf, label, r) -> Op:
    u = r + 1

    def check(inv):
        one = cf.Multivector.scalar(r.sig, 1)
        require(u * inv == one and inv * u == one, "(1+r)*inv != 1")

    return Op(label, lambda: u.unipotent_inverse(), check, str, [repr(u)])


def _split_op(cf, label, x) -> Op:
    nm = x.sig.null_mask

    def check(parts):
        c1, c2, rad = parts
        require(c1 + c2 + rad == x, "c1 + c2 + rad != u")
        require(all(m & nm for m in rad.terms), "radical part leaves the radical")
        require(not any(m & nm for v in (c1, c2) for m in v.terms),
                "a component part meets the radical")
        require(not c1 * c2 and not c2 * c1, "the components do not annihilate")

    return Op(label, lambda: cf.split_decompose(x), check,
              lambda parts: " | ".join(map(str, parts)), [repr(x)])


def _eval_op(cf, rng, sig, pairs: int, palindrome: int) -> Op:
    """A long product whose value is a known rational: nested conjugate
    pairs (a + b*B)...(a - b*B) around a palindromic generator word.  The
    k-th blade B has 1 + k mod 3 factors, so that every seed's expressions
    have the same shape and about the same cost."""
    p, q, z = sig
    squares = generator_squares(p, q, z)
    left, right, value = [], [], Fraction(1)
    for k in range(pairs):
        word = rng.sample(range(p + q + z), 1 + k % 3)
        a, b = rng.randint(1, 4), rng.randint(1, 3)
        value *= a * a - b * b * blade_square(squares, word)
        left.append(f"({a} + {b}*{_word(word)})")
        right.insert(0, f"({a} - {b}*{_word(word)})")
    half = rng.sample(range(p + q), palindrome)
    for i in half:
        value *= squares[i]
    middle = [f"e{i}" for i in half + half[::-1]]
    expression = "*".join(left + middle + right)
    return cli_op(cf, f"eval n={p + q + z}", "eval", sig, [expression],
                  {"expression": expression, "value": str(value)})


# Dense body elements make the dim+1 powering of nilpotency_index the
# cost; radical elements stop after at most z+1 products.  The twelve
# dim-64 powerings hold the 90th percentile, with only the two dim-128
# reference powerings above them; the median falls among the evals.
_DIM128 = (3, 2, 2)
_DENSE = [((2, 2, 2), 12), (_DIM128, 2)]
_RADICAL = [(3, 2, 3), (4, 2, 3), (4, 2, 4)]
_SPLIT = [(3, 2, 2), (2, 1, 4), (3, 2, 4)]
_EVAL = [(3, 2, 1), (4, 1, 2), (2, 3, 3), (5, 0, 1)]


def element_powers(cf, rng: random.Random, tiny: bool = False) -> list[Op]:
    ops = []
    for sig, count in _DENSE if not tiny else [((2, 1, 2), 4)]:
        for _ in range(count):
            masks = _body_masks(sig)[1:]
            x = _element(cf, rng, sig, masks, scalar=True)
            reference = "nilpotency_index dense dim 128" if sig == _DIM128 else None
            ops.append(_power_op(f"nilpotency_index dense n={sum(sig)}", x, reference))
    for sig in _rotation(rng, _RADICAL, 9 if not tiny else 2):
        masks = _radical_masks(sig)
        r = _element(cf, rng, sig, rng.sample(masks, 24), scalar=False)
        ops.append(_radical_power_op(f"nilpotency_index radical n={sum(sig)}", r))
        r = _element(cf, rng, sig, rng.sample(masks, 24), scalar=False)
        ops.append(_inverse_op(cf, f"unipotent_inverse n={sum(sig)}", r))
    for sig in _rotation(rng, _SPLIT, 6 if not tiny else 2):
        x = _element(cf, rng, sig, rng.sample(range(1 << sum(sig)), 16), scalar=False)
        ops.append(_split_op(cf, f"split_decompose n={sum(sig)}", x))
    for sig in _rotation(rng, _EVAL, 32 if not tiny else 4):
        ops.append(_eval_op(cf, rng, sig, pairs=6, palindrome=5))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "classify-requests": classify_requests,
    "structure-ladder": structure_ladder,
    "element-powers": element_powers,
}


def build(cf, workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The seeded round of `workload`; the same seed gives the same round."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](cf, rng, tiny)

