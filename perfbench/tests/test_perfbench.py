"""Self-tests of the benchmark harness, on the tiny rounds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
from run_all import EXACT_KINDS  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "0.2", *args],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def digest_line(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if "output digest" in line)


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == METRICS


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result, stdout = bench("--workload", workload, "--seed", "3", "--trace", trace)
    wanted = run.END_TO_END if trace == "0" else METRICS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in [*wanted.items(), ("error_rate", "ratio")]:
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in stdout.splitlines()), name


def _corrupted_round(workload, pick, corrupt, seed=run.DEFAULT_SEED):
    """One tiny round with the output of the first op `pick` accepts altered."""
    cf, ops = run.set_up(workload, seed, tiny=True)
    i = next(k for k, op in enumerate(ops) if pick(op))
    call = ops[i].call
    ops[i] = dataclasses.replace(ops[i], call=lambda: corrupt(call()))
    outcome = run.Outcome(ops, run.pinned_digests(workload, seed, True))
    outcome.round()
    return ops[i], outcome


def _edit_result(edit):
    def corrupt(res):
        report = json.loads(res.out)
        edit(report["result"])
        return dataclasses.replace(res, out=json.dumps(report))
    return corrupt


def test_altered_basis_string_is_counted_as_failed():
    def edit(result):
        result["basis"][-1] += "*e0"

    op, outcome = _corrupted_round(
        "structure-ladder", lambda op: op.inputs[0] == "radical", _edit_result(edit))
    assert outcome.failed == 1
    assert outcome.failures[0].startswith(op.label)
    assert outcome.failed / outcome.attempted == 1 / len(outcome.ops)


def test_swapped_component_verdict_fails_against_the_pinned_digest():
    swap = {"c1-plus-radical-part": "c2-plus-radical-part",
            "c2-plus-radical-part": "c1-plus-radical-part"}

    def edit(result):
        result["verdict"] = swap[result["verdict"]]

    def pick(op):
        return op.inputs[0] == "ideal" and op.inputs[-2].startswith("1/2 ")

    _, outcome = _corrupted_round("classify-requests", pick, _edit_result(edit))
    assert outcome.failed == 1
    assert "pinned digest" in outcome.failures[0]
    # the closed-form identities alone accept either component
    _, outcome = _corrupted_round("classify-requests", pick, _edit_result(edit), seed=9)
    assert outcome.failed == 0


def test_same_seed_repeats_counts_and_digest_and_another_seed_changes_inputs():
    first, out1 = bench("--workload", "classify-requests", "--seed", "5", "--trace", "1")
    second, out2 = bench("--workload", "classify-requests", "--seed", "5", "--trace", "1")
    counts = [name for name in METRICS if name.rsplit(".", 1)[1] in EXACT_KINDS]
    assert all(first["metrics"][n] == second["metrics"][n] for n in counts)
    assert first["metrics"]["blades.blade_mul.calls"]["value"] > 0
    assert digest_line(out1) == digest_line(out2)

    for workload in WORKLOADS:
        cf, ops5 = run.set_up(workload, 5, tiny=False)
        cf, again = run.set_up(workload, 5, tiny=False)
        cf, ops6 = run.set_up(workload, 6, tiny=False)
        inputs = [[op.label, op.inputs] for op in ops5]
        assert inputs == [[op.label, op.inputs] for op in again]
        assert inputs != [[op.label, op.inputs] for op in ops6]


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "element-powers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_rescales_by_the_probes_near_a_span():
    cal = calibrate.Calibration()
    cal.mids = [float(t) for t in range(20)]
    cal.durations = [2 * calibrate.NOMINAL_S] * 10 + [calibrate.NOMINAL_S / 2] * 10
    # probes within WINDOW_S of the span only: the machine ran at half speed
    assert cal.factor(4.0, 5.0) == pytest.approx(0.5)
    assert cal.factor(15.0, 16.0) == pytest.approx(2.0)
    # no probe within reach: the MIN_PROBES nearest, here all past the span
    assert cal.factor(100.0, 101.0) == pytest.approx(2.0)
