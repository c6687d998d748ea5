"""Output checks: closed-form identities, exit codes and digests.

Everything here runs outside the timed span of an operation.  The checks
read the program's printed forms (the JSON reports and multivector
strings) and compare them with facts that hold for every signature
(p, q, z), so they do not depend on the code under test being right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction


class CheckFailure(Exception):
    """An operation's output broke an identity or its pinned digest."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- closed forms ------------------------------------------------------


def is_split(p: int, q: int) -> bool:
    return (p - q) % 8 in (1, 5)


def radical_dim(p: int, q: int, z: int) -> int:
    return (1 << (p + q)) * ((1 << z) - 1)


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"e{i}" for i in range(mask.bit_length()) if (mask >> i) & 1)


def null_blade_names(p: int, q: int, z: int) -> list[str]:
    null = ((1 << z) - 1) << (p + q)
    return [blade_name(m) for m in range(1 << (p + q + z)) if m & null]


def generator_squares(p: int, q: int, z: int) -> list[int]:
    return [1] * p + [-1] * q + [0] * z


def blade_square(squares: list[int], word: list[int]) -> int:
    """Square of the product of distinct generators `word` (any order)."""
    k = len(word)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    for i in word:
        sign *= squares[i]
    return sign


_TERM_SPLIT = re.compile(r" (?=[+-] )")
_GEN = re.compile(r"e(\d+)")


def parse_terms(text: str) -> list[tuple[Fraction, int]]:
    """(coefficient, blade mask) pairs of a canonical multivector string."""
    if text == "0":
        return []
    out = []
    for chunk in _TERM_SPLIT.split(text):
        sign = 1
        chunk = chunk.strip()
        if chunk[:2] in ("+ ", "- "):
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[2:]
        elif chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        head, _, rest = chunk.partition("*")
        if head.startswith("e"):
            coeff, blade = Fraction(1), chunk
        elif rest:
            coeff, blade = Fraction(head), rest
        else:
            coeff, blade = Fraction(head), ""
        mask = 0
        for index in _GEN.findall(blade):
            mask |= 1 << int(index)
        out.append((sign * coeff, mask))
    return out


def check_rref(basis: list[str], null: int | None = None) -> None:
    """Pivots ascend with coefficient 1 and are zero in every other row;
    with `null` given, every term lies in the nil radical."""
    rows = [parse_terms(v) for v in basis]
    pivots = []
    for row in rows:
        require(bool(row), "basis holds a zero vector")
        coeff, mask = row[0]
        require(coeff == 1, f"pivot coefficient {coeff} is not 1")
        pivots.append(mask)
        if null is not None:
            require(all(m & null for _, m in row), "basis leaves the radical")
    require(pivots == sorted(set(pivots)), "pivots do not strictly ascend")
    pivot_set = set(pivots)
    for row, pivot in zip(rows, pivots):
        require(
            not any(m in pivot_set and m != pivot for _, m in row[1:]),
            "a pivot coordinate is nonzero in another row",
        )


# -- in-process CLI requests -------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(cli, argv: list[str]) -> CliResult:
    """Run one CLI request in this process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def canonical_cli(res: CliResult) -> str:
    """The report without `elapsed_ms`, or the exit code and diagnostic."""
    if res.code != 0:
        return f"exit {res.code}\n{res.err}"
    report = json.loads(res.out)
    report.pop("elapsed_ms", None)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_cli(res: CliResult, verb: str, sig: tuple, spec: dict) -> None:
    """Exit code, clean stderr and the verb's closed-form identities."""
    require("Traceback" not in res.err, "the request printed a traceback")
    if spec.get("malformed"):
        require(res.code == 2, f"malformed request exited {res.code}, not 2")
        require(res.out == "", "malformed request printed a report")
        require(res.err.startswith("error: "), "malformed request gave no diagnostic")
        return
    require(res.code == 0, f"exit code {res.code}: {res.err.strip()[:200]}")
    report = json.loads(res.out)
    require(
        set(report) == {"command", "signature", "result", "elapsed_ms"},
        "report keys changed",
    )
    p, q, z = sig
    require(report["command"] == verb, "report names another command")
    require(report["signature"] == f"{p},{q},{z}", "report names another signature")
    _VERB_CHECKS[verb](report["result"], p, q, z, spec)


def _check_radical(result, p, q, z, spec):
    require(result["dim"] == radical_dim(p, q, z), "radical dimension formula fails")
    require(
        result["basis"] == null_blade_names(p, q, z),
        "radical basis is not the span of the null blades",
    )


def _check_signature_info(result, p, q, z, spec):
    n = p + q + z
    require(result["dim"] == 1 << n, "algebra dimension is not 2**n")
    require(result["radical_dim"] == radical_dim(p, q, z), "radical_dim formula fails")
    require(result["roles"] == "+" * p + "-" * q + "0" * z, "roles string is wrong")
    require(result["relabeling"] == list(range(n)), "p,q,z input was relabelled")
    if is_split(p, q):
        omega = blade_name((1 << (p + q)) - 1)
        require(result["class"] == "split", "split signature classed as simple")
        require(
            result["idempotents"] == [f"1/2 + 1/2*{omega}", f"1/2 - 1/2*{omega}"],
            "central idempotents are not (1 +- omega)/2",
        )
    else:
        require(result["class"] == "simple", "simple signature classed as split")
        require(result["idempotents"] is None, "simple class reports idempotents")


def _check_primes(result, p, q, z, spec):
    ideals = result["ideals"]
    require(result["count"] == len(ideals), "prime count disagrees with the list")
    if not is_split(p, q):
        require(len(ideals) == 1, "simple class must have exactly one prime")
        _check_radical(ideals[0], p, q, z, spec)
        return
    require(len(ideals) == 2, "split class must have exactly two primes")
    want = (1 << (p + q)) // 2 + radical_dim(p, q, z)
    for ideal in ideals:
        require(ideal["dim"] == want, "prime dimension is not 2**(p+q)/2 + dim rad")
        require(len(ideal["basis"]) == ideal["dim"], "prime basis size != dim")
        check_rref(ideal["basis"])
    require(ideals[0]["basis"] != ideals[1]["basis"], "the two primes coincide")


def _check_chains(result, p, q, z, spec):
    k = spec["k"]
    ascending = spec["direction"] == "ascending"
    dims = result["dims"]
    require(result["direction"] == spec["direction"], "chain direction is wrong")
    require(result["length"] == k == z and len(dims) == z, "chain length is not z")
    n = p + q + z
    if ascending:
        want = [(1 << (p + q)) * ((1 << z) - (1 << (z - i - 1))) for i in range(k)]
    else:
        want = [1 << (n - i - 1) for i in range(k)]
    require(dims == want, f"chain dims {dims} != {want}")
    step = 1 if ascending else -1
    require(
        all(step * (b - a) > 0 for a, b in zip(dims, dims[1:])),
        "chain is not strict",
    )
    for ideal, dim in zip(result["ideals"], dims):
        require(ideal["dim"] == dim and len(ideal["basis"]) == dim, "chain basis size")


_VERDICTS = {
    "zero",
    "contained-in-radical",
    "c1-plus-radical-part",
    "c2-plus-radical-part",
    "whole-algebra",
}


def _check_classify(result, p, q, z, spec):
    n = p + q + z
    dim, inter = result["dim"], result["radical_intersection_dim"]
    verdict = result["verdict"]
    null = ((1 << z) - 1) << (p + q)
    require(result["generators"] == spec["gens"], "generators were not echoed")
    require(verdict in _VERDICTS, f"unknown verdict {verdict!r}")
    require(len(result["basis"]) == dim, "basis size != dim")
    require(0 <= inter <= min(dim, radical_dim(p, q, z)), "radical part out of range")
    if verdict == "zero":
        require(dim == 0, "zero verdict with a nonzero basis")
    elif verdict == "contained-in-radical":
        require(inter == dim, "radical verdict but dim(I & rad) != dim I")
        check_rref(result["basis"], null)
        return
    elif verdict == "whole-algebra":
        require(dim == 1 << n and inter == radical_dim(p, q, z), "whole algebra dims")
    else:
        require(is_split(p, q), "component verdict in the simple class")
        require(
            dim == (1 << (p + q)) // 2 + inter,
            "component identity dim = 2**(p+q)/2 + dim(I & rad) fails",
        )
    if spec.get("radical"):
        require(verdict == "contained-in-radical", "radical generators left the radical")
    check_rref(result["basis"])


def _check_nilpotency(result, p, q, z, spec):
    gens = spec["gens"]
    require(result["generators"] == gens, "generators were not echoed")
    index = result["ideal_nilpotency_index"]
    elements = result["element_indices"]
    require(len(elements) == len(gens), "one element index per generator")
    require(index is not None and 1 <= index <= z + 1, "ideal index exceeds z+1")
    require(all(e is not None and 1 <= e <= index for e in elements),
            "an element index exceeds the ideal index")
    require(result["ideal_dim"] <= radical_dim(p, q, z), "radical ideal too large")


def _check_support(result, p, q, z, spec):
    require(result["generators"] == spec["gens"], "generators were not echoed")
    canonical, minimal = set(result["canonical"]), set(result["minimal"])
    require(minimal <= canonical, "minimal support is not inside the canonical one")
    require(canonical <= set(range(p + q, p + q + z)), "support names a non-null index")
    require(bool(minimal) == (result["ideal_dim"] > 0), "support of a zero ideal")


def _check_eval(result, p, q, z, spec):
    require(result["expression"] == spec["expression"], "expression was not echoed")
    require(result["value"] == spec["value"], f"value {result['value']} != {spec['value']}")


_VERB_CHECKS = {
    "radical": _check_radical,
    "signature-info": _check_signature_info,
    "primes": _check_primes,
    "chains": _check_chains,
    "ideal classify": _check_classify,
    "nilpotency": _check_nilpotency,
    "support": _check_support,
    "eval": _check_eval,
}
