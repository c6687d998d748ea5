"""Command-line front end.

Verbs: signature-info, eval, ideal classify, primes, radical, chains,
nilpotency, support.  Every verb takes -s/--signature plus --json for a
machine-readable report with the stable top-level keys {command,
signature, result, elapsed_ms}.  Without --json the report is text: one
`key: value` line per field, and a list of ideals as one `-` block per
ideal.  Counts and expressions take ASCII digits only.  Domain errors
exit 2 and an internal consistency failure (SelfCheckError) exits 3,
each with a diagnostic on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .ideals import (
    ascending_chain,
    descending_chain,
    ideal_classify,
    ideal_closure,
    ideal_nilpotency_index,
    nil_radical,
    null_support_of_ideal,
    prime_ideals,
)
from .parsing import parse_count, parse_expression, parse_signature
from .structure import AlgebraKind, SelfCheckError, central_idempotents, classify_pq


class _Text(argparse.Action):
    """Store a text option as given.

    argparse drops a "--" it finds in an option's value and hands over an
    empty list, so `--signature=--` or `--k=--` arrives as []; that list
    stands for "--".
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values if isinstance(values, str) else "--")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-s",
        "--signature",
        required=True,
        action=_Text,
        help="algebra signature: 'p,q,z' or a role string over +, -, 0",
    )
    common.add_argument(
        "--json", action="store_true", help="emit a machine-readable report"
    )

    parser = argparse.ArgumentParser(
        prog="cliffideals",
        description=(
            "Exact ideal-structure computations in real Clifford algebras "
            "with null generators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "signature-info",
        parents=[common],
        help="classify the algebra and print its split idempotents",
    )

    p_eval = sub.add_parser(
        "eval", parents=[common], help="evaluate a multivector expression"
    )
    p_eval.add_argument("expression")

    p_ideal = sub.add_parser("ideal", help="two-sided ideal analyses")
    ideal_sub = p_ideal.add_subparsers(dest="subcommand", required=True)
    p_classify = ideal_sub.add_parser(
        "classify",
        parents=[common],
        help="classify the ideal generated by expressions",
    )
    p_classify.add_argument(
        "--gens",
        required=True,
        action=_Text,
        help="semicolon-separated generator expressions",
    )

    sub.add_parser("primes", parents=[common], help="list the prime ideals")
    sub.add_parser("radical", parents=[common], help="compute the nil radical")

    p_chains = sub.add_parser(
        "chains", parents=[common], help="build strict ideal chains"
    )
    p_chains.add_argument("--k", required=True, action=_Text, help="chain length")
    direction = p_chains.add_mutually_exclusive_group()
    direction.add_argument("--ascending", action="store_true")
    direction.add_argument("--descending", action="store_true")

    p_nilp = sub.add_parser(
        "nilpotency",
        parents=[common],
        help="nilpotency index of the ideal generated by expressions",
    )
    p_nilp.add_argument("--gens", required=True, action=_Text)

    p_support = sub.add_parser(
        "support",
        parents=[common],
        help="null-generator support of a radical ideal",
    )
    p_support.add_argument("--gens", required=True, action=_Text)

    return parser


def _parse_gens(sig, text: str) -> tuple:
    """The `--gens` sources, their values and the ideal they generate."""
    sources = [part.strip() for part in text.split(";") if part.strip()]
    gens = [parse_expression(sig, part) for part in sources]
    return sources, gens, ideal_closure(sig, gens)


def _ideal_payload(ideal) -> dict:
    return {"dim": ideal.dim, "basis": ideal.basis_strings()}


def _run_signature_info(sig, args) -> dict:
    _, relabel = parse_signature(args.signature)
    kind = classify_pq(sig)
    radical = nil_radical(sig)
    result = {
        "p": sig.p,
        "q": sig.q,
        "z": sig.z,
        "dim": sig.dim,
        "roles": "+" * sig.p + "-" * sig.q + "0" * sig.z,
        "class": kind.value,
        "radical_dim": radical.dim,
        "relabeling": list(relabel),
        "idempotents": None,
    }
    if kind is AlgebraKind.SPLIT:
        result["idempotents"] = [str(e) for e in central_idempotents(sig)]
    return result


def _run_eval(sig, args) -> dict:
    value = parse_expression(sig, args.expression)
    return {"expression": args.expression, "value": str(value)}


def _run_classify(sig, args) -> dict:
    sources, gens, ideal = _parse_gens(sig, args.gens)
    report = ideal_classify(ideal)
    return {
        "generators": sources,
        "verdict": report.verdict.value,
        "dim": report.dims[0],
        "radical_intersection_dim": report.dims[1],
        "basis": ideal.basis_strings(),
    }


def _run_primes(sig, args) -> dict:
    primes = prime_ideals(sig)
    return {"count": len(primes), "ideals": [_ideal_payload(p) for p in primes]}


def _run_radical(sig, args) -> dict:
    return _ideal_payload(nil_radical(sig))


def _run_chains(sig, args) -> dict:
    ascending = bool(args.ascending)
    k = parse_count(args.k, "chain length")
    chain = (ascending_chain if ascending else descending_chain)(sig, k)
    return {
        "direction": "ascending" if ascending else "descending",
        "length": k,
        "dims": [ideal.dim for ideal in chain],
        "ideals": [_ideal_payload(ideal) for ideal in chain],
    }


def _run_nilpotency(sig, args) -> dict:
    sources, gens, ideal = _parse_gens(sig, args.gens)
    return {
        "generators": sources,
        "ideal_dim": ideal.dim,
        "ideal_nilpotency_index": ideal_nilpotency_index(ideal),
        "element_indices": [g.nilpotency_index() for g in gens],
    }


def _run_support(sig, args) -> dict:
    sources, gens, ideal = _parse_gens(sig, args.gens)
    canonical, minimal = null_support_of_ideal(ideal)
    return {
        "generators": sources,
        "ideal_dim": ideal.dim,
        "canonical": sorted(canonical),
        "minimal": sorted(minimal),
    }


_HANDLERS = {
    "signature-info": _run_signature_info,
    "eval": _run_eval,
    "ideal classify": _run_classify,
    "primes": _run_primes,
    "radical": _run_radical,
    "chains": _run_chains,
    "nilpotency": _run_nilpotency,
    "support": _run_support,
}


def run(args: argparse.Namespace) -> dict:
    """Dispatch parsed arguments to the library and build the report."""
    command = args.command
    if getattr(args, "subcommand", None):
        command = f"{command} {args.subcommand}"
    sig, _ = parse_signature(args.signature)
    start = time.perf_counter()
    result = _HANDLERS[command](sig, args)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "command": command,
        "signature": str(sig),
        "result": result,
        "elapsed_ms": round(elapsed_ms, 3),
    }


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    return "none" if value is None else str(value)


def render_text(report: dict) -> str:
    """One `key: value` line per field; a list of ideals as `-` blocks."""
    lines = [
        f"command: {report['command']}",
        f"signature: {report['signature']}",
    ]
    for key, value in report["result"].items():
        if value and isinstance(value, list) and isinstance(value[0], dict):
            lines.append(f"{key}:")
            for item in value:
                lines.append("  -")
                lines.extend(f"    {k}: {_flat(v)}" for k, v in item.items())
        else:
            lines.append(f"{key}: {_flat(value)}")
    lines.append(f"elapsed: {report['elapsed_ms']} ms")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = render_text(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`): not an error.  The
        # unwritten rest stays buffered, so point the descriptor at
        # devnull, or the flush at interpreter exit raises again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
