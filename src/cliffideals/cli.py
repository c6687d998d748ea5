"""Command-line front end.

Each verb (signature-info, eval, ideal classify, primes, radical,
chains, nilpotency, support) is declared once, in `_VERBS`, and both
the parser and the dispatch are built from it.  Every verb takes
-s/--signature plus --json for a machine-readable report with the
stable top-level keys {command, signature, result, elapsed_ms}.
Without --json the report is text: one `key: value` line per field, and
a list of ideals as one `-` block per ideal.  Counts and expressions
take ASCII digits only.  Domain errors exit 2 and an internal
consistency failure (SelfCheckError) exits 3, each with a diagnostic on
stderr, never a traceback.
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


_GENS = ("--gens", {
    "required": True,
    "action": _Text,
    "help": "semicolon-separated generator expressions",
})

# Each verb once: verb -> (handler, help, arguments).  An argument is
# (flag, options); a nested list of them is a mutually exclusive group.
# A two-word verb is a subcommand of the group named by its first word.
_VERBS = {
    "signature-info": (
        _run_signature_info, "classify the algebra and print its split idempotents", []
    ),
    "eval": (_run_eval, "evaluate a multivector expression", [("expression", {})]),
    "ideal classify": (
        _run_classify, "classify the ideal generated by expressions", [_GENS]
    ),
    "primes": (_run_primes, "list the prime ideals", []),
    "radical": (_run_radical, "compute the nil radical", []),
    "chains": (_run_chains, "build strict ideal chains", [
        ("--k", {"required": True, "action": _Text, "help": "chain length"}),
        [("--ascending", {"action": "store_true"}),
         ("--descending", {"action": "store_true"})],
    ]),
    "nilpotency": (
        _run_nilpotency,
        "nilpotency index of the ideal generated by expressions",
        [_GENS],
    ),
    "support": (_run_support, "null-generator support of a radical ideal", [_GENS]),
}
_GROUPS = {"ideal": "two-sided ideal analyses"}


def _add_arguments(parser, arguments) -> None:
    for argument in arguments:
        if isinstance(argument, list):
            _add_arguments(parser.add_mutually_exclusive_group(), argument)
        else:
            flag, options = argument
            parser.add_argument(flag, **options)


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
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for verb, (_, help_text, arguments) in _VERBS.items():
        group, _, name = verb.rpartition(" ")
        if group not in subs:
            p_group = subs[""].add_parser(group, help=_GROUPS[group])
            subs[group] = p_group.add_subparsers(dest="subcommand", required=True)
        p_verb = subs[group].add_parser(name, parents=[common], help=help_text)
        _add_arguments(p_verb, arguments)
        p_verb.set_defaults(verb=verb)
    return parser


def run(args: argparse.Namespace) -> dict:
    """Dispatch parsed arguments to the library and build the report."""
    sig, _ = parse_signature(args.signature)
    start = time.perf_counter()
    result = _VERBS[args.verb][0](sig, args)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "command": args.verb,
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
