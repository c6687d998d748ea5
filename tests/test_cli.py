import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cliffideals.cli import build_parser, main, run

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

GOLDEN_CASES = {
    "signature-info_111": ["signature-info", "-s", "1,1,1"],
    "signature-info_101": ["signature-info", "-s", "1,0,1"],
    "eval_111": ["eval", "-s", "1,1,1", "(1+e2)*(1-e2)"],
    "eval_101": ["eval", "-s", "1,0,1", "3 + 2*e0 + 5/2*e1"],
    "ideal-classify_111": ["ideal", "classify", "-s", "1,1,1", "--gens", "e2"],
    "ideal-classify_101": [
        "ideal",
        "classify",
        "-s",
        "1,0,1",
        "--gens",
        "1/2 + 1/2*e0",
    ],
    "primes_111": ["primes", "-s", "1,1,1"],
    "primes_101": ["primes", "-s", "1,0,1"],
    "radical_111": ["radical", "-s", "1,1,1"],
    "radical_101": ["radical", "-s", "1,0,1"],
    "chains_111": ["chains", "-s", "1,1,1", "--k", "1", "--descending"],
    "chains_101": ["chains", "-s", "1,0,1", "--k", "1", "--ascending"],
    "nilpotency_111": ["nilpotency", "-s", "1,1,1", "--gens", "e2; e0*e2"],
    "nilpotency_101": ["nilpotency", "-s", "1,0,1", "--gens", "e1"],
    "support_111": ["support", "-s", "1,1,1", "--gens", "e2"],
    "support_101": ["support", "-s", "1,0,1", "--gens", "e0*e1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    argv = GOLDEN_CASES[name]
    report = run(build_parser().parse_args(argv))
    assert set(report) == {"command", "signature", "result", "elapsed_ms"}
    assert isinstance(report["elapsed_ms"], float)
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    report["elapsed_ms"] = expected["elapsed_ms"]
    assert report == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_output_round_trips(name, capsys):
    argv = GOLDEN_CASES[name] + ["--json"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    parsed = json.loads(printed)
    assert json.loads(json.dumps(parsed)) == parsed
    assert set(parsed) == {"command", "signature", "result", "elapsed_ms"}


# Text reports pinned byte for byte, one case per report shape: a flat
# list of strings, `none`, a list of ints, empty lists, lists of ideal
# dicts (primes and chains) and a None index.
TEXT_CASES = {
    "signature-info_101": ["signature-info", "-s", "1,0,1"],
    "signature-info_111": ["signature-info", "-s", "1,1,1"],
    "signature-info_roles": ["signature-info", "-s", "0+-"],
    "eval_101": ["eval", "-s", "1,0,1", "3 + 2*e0 + 5/2*e1"],
    "ideal-classify_empty": ["ideal", "classify", "-s", "1,1,1", "--gens", ""],
    "ideal-classify_two": [
        "ideal", "classify", "-s", "1,0,1", "--gens", "e1; 1/2 + 1/2*e0"
    ],
    "primes_101": ["primes", "-s", "1,0,1"],
    "radical_000": ["radical", "-s", "0,0,0"],
    "chains_003": ["chains", "-s", "0,0,3", "--k", "2"],
    "nilpotency_none": ["nilpotency", "-s", "1,0,1", "--gens", "1 + e1; e1"],
    "support_111": ["support", "-s", "1,1,1", "--gens", "e2"],
}


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_reports(name, capsys):
    assert main(TEXT_CASES[name]) == 0
    out = re.sub(r"(?m)^elapsed: .* ms$", "elapsed: - ms", capsys.readouterr().out)
    assert out == (GOLDEN_DIR / "text" / f"{name}.txt").read_text()


def test_text_output_mentions_key_facts(capsys):
    assert main(["signature-info", "-s", "1,0,1"]) == 0
    out = capsys.readouterr().out
    assert "class: split" in out
    assert "1/2 + 1/2*e0" in out

    assert main(["eval", "-s", "1,1,1", "(1+e2)*(1-e2)"]) == 0
    out = capsys.readouterr().out
    assert "value: 1" in out


def test_seed_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["primes", "-s", "1,1,1", "--seed", "42", "--json"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestErrorExits:
    def test_bad_expression(self, capsys):
        assert main(["eval", "-s", "1,1,1", "e0 e1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deep_nesting(self, capsys):
        assert main(["eval", "-s", "1,0,1", "(" * 3000 + "1" + ")" * 3000]) == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_generator_out_of_range(self, capsys):
        assert main(["eval", "-s", "1,1,1", "e9"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_bad_signature(self, capsys):
        assert main(["radical", "-s", "1,1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_chain_too_long(self, capsys):
        assert main(["chains", "-s", "1,1,1", "--k", "5"]) == 2
        capsys.readouterr()

    def test_chain_length_takes_ascii_digits_only(self, capsys):
        # int() alone would read 1_0 as 10 and the Arabic-Indic one as 1
        for bad in ["1_0", "\u0661", "+2"]:
            assert main(["chains", "-s", "0,0,12", "--k", bad]) == 2
            err = capsys.readouterr().err
            assert err == f"error: chain length {bad!r} is not an integer\n"
        assert main(["chains", "-s", "0,0,3", "--k=--"]) == 2
        assert capsys.readouterr().err == "error: chain length '--' is not an integer\n"

    def test_digit_runs_past_the_limit(self, capsys):
        ones = "1" * 5000
        cases = [
            (["eval", "-s", "1,1,1", ones], "integer has more than 4300 digits"
             " (at position 0)"),
            (["chains", "-s", "0,0,3", "--k", ones],
             "chain length has more than 4300 digits"),
            (["radical", "-s", f"{ones},0,0"],
             "signature count has more than 4300 digits"),
        ]
        for argv, message in cases:
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_chain_length(self, capsys):
        assert main(["chains", "-s", "0,0,3", "--k", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: chain length -1 must lie in 0..z = 3\n"
        )

    def test_support_outside_radical(self, capsys):
        assert main(["support", "-s", "1,1,1", "--gens", "1"]) == 2
        assert "radical" in capsys.readouterr().err

    def test_conflicting_chain_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["chains", "-s", "1,1,1", "--k", "1", "--ascending", "--descending"]
            )


def test_chains_default_direction_is_descending(capsys):
    assert main(["chains", "-s", "0,0,2", "--k", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["direction"] == "descending"
    assert report["result"]["dims"] == [2, 1]


def test_chain_length_tolerates_whitespace(capsys):
    assert main(["chains", "-s", "0,0,3", "--k", " 2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["length"] == 2


def test_role_string_signature_relabels(capsys):
    assert main(["signature-info", "-s", "0+", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["signature"] == "1,0,1"
    assert report["result"]["relabeling"] == [1, 0]


def test_double_dash_option_values_are_text(capsys):
    # argparse hands the value "--" over as an empty list
    assert main(["primes", "--signature=--", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["signature"] == "0,2,0"
    assert main(["support", "-s", "1,1,1", "--gens=--"]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_gens_gives_zero_ideal(capsys):
    assert main(["ideal", "classify", "-s", "1,1,1", "--gens", "", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "zero"
    assert report["result"]["dim"] == 0


_VERBS = [
    ["signature-info"],
    ["eval"],
    ["ideal", "classify"],
    ["primes"],
    ["radical"],
    ["chains"],
    ["nilpotency"],
    ["support"],
]
_TOKENS = ["e0", "e1", "e2", "e7", "e", "1", "2", "1/2", "3/0",
           "+", "-", "*", "/", "(", ")", ";", " ", "x"]
_BAD_SIGNATURES = ["", "1,1", "-1,0,1", "a,b,c", "1,1,1,1", "+x", "17,0,0"]
_BAD_COUNTS = ["1_0", "+2", "--", "\u0661", "\u00b2", "2.0", "1" * 5000,
               *_BAD_SIGNATURES]


@st.composite
def _signature_text(draw):
    """(text, n): a valid signature with n <= 5 three times in four."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(_BAD_SIGNATURES)), 1
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    if draw(st.booleans()):
        return f"{p},{q},{n - p - q}", n
    roles = ["+"] * p + ["-"] * q + ["0"] * (n - p - q)
    return "".join(draw(st.permutations(roles))), n


@st.composite
def _expression_text(draw, n):
    """A signed sum of generator products, or a random token string."""
    if draw(st.integers(0, 3)) == 0:
        return "".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=8)))
    gens = st.lists(st.integers(0, n - 1).map("e{}".format), min_size=1, max_size=3)
    signs = st.sampled_from([" + ", " - "])
    coeffs = st.sampled_from(["", "2*", "1/2*", "3*"])
    terms = draw(st.lists(st.tuples(signs, coeffs, gens), min_size=1, max_size=3))
    return "".join(s + c + "*".join(g) for s, c, g in terms)[1:]


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(_VERBS))
    text, n = draw(_signature_text())
    argv = verb + [f"--signature={text}"]
    if verb == ["eval"]:
        argv.append(draw(_expression_text(n)))
    elif verb[-1] in ("classify", "nilpotency", "support"):
        gens = draw(st.lists(_expression_text(n), min_size=1, max_size=2))
        argv += ["--gens", "; ".join(gens)]
    elif verb == ["chains"]:
        k = st.one_of(st.integers(-1, 6).map(str), st.sampled_from(_BAD_COUNTS))
        argv += ["--k", draw(k)]
        argv += draw(st.sampled_from([[], ["--ascending"], ["--descending"]]))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
@example(["chains", "-s", "0,0,3", "--k", "1" * 5000])
def test_fuzzed_argv_exits_cleanly(argv):
    # every verb on small signatures, short expressions and malformed
    # text: an exit code of 0, 2 or 3, never a traceback, and no
    # diagnostic that points at a Python setting
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "int_max_str_digits" not in err.getvalue()


def test_closed_stdout_exits_cleanly():
    # the n = 12 radical report (about 112 KB) is larger than a pipe
    # buffer, so its write meets the pipe after the reader closed it
    path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cliffideals", "radical", "-s", "5,2,5", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0, err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err
