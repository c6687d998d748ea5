import json
from pathlib import Path

import pytest

from cliffideals.cli import build_parser, main, run

GOLDEN_DIR = Path(__file__).parent / "golden"

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


def test_role_string_signature_relabels(capsys):
    assert main(["signature-info", "-s", "0+", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["signature"] == "1,0,1"
    assert report["result"]["relabeling"] == [1, 0]


def test_empty_gens_gives_zero_ideal(capsys):
    assert main(["ideal", "classify", "-s", "1,1,1", "--gens", "", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "zero"
    assert report["result"]["dim"] == 0
