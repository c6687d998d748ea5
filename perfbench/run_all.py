"""Run every workload, print every metric, and fail if any check fails.

    python3 perfbench/run_all.py [--seed 1]

Each workload runs in its own process, one after another, so that its
peak memory is its own: one plain run of BENCHMARK.json's `run_seconds`
for the end-to-end metrics, then two traced runs whose call counts must
agree exactly.  The exit status
is 1 if an operation failed its output check, a run did not finish, or
a count differed between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
EXACT_KINDS = ("calls", "grew", "term_pairs")


def run(workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = []
    for workload in WORKLOADS:
        print(f"{workload} (seed {args.seed})")
        plain = run(workload, args.seed, 0)
        traced = [run(workload, args.seed, 1) for _ in range(2)]
        if plain is None or None in traced:
            problems.append(f"{workload}: a run exited nonzero")
            continue
        for name, m in plain["metrics"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'op latency samples':<40} {plain['attempted'] - plain['failed']:>14d}")
        rate = plain["failed"] / plain["attempted"]
        print(f"  {'error_rate':<40} {rate:>14.6g} ratio "
              f"({plain['failed']} of {plain['attempted']})")
        overhead = traced[0]["metrics"]["trace.overhead_ratio"]["value"]
        print(f"  {'trace.overhead_ratio':<40} {overhead:>14.6g} ratio")
        for result in [plain, *traced]:
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {result['failed']} operations failed")
        first, second = (t["metrics"] for t in traced)
        for name in first:
            if name.rsplit(".", 1)[1] in EXACT_KINDS and first[name] != second[name]:
                problems.append(f"{workload}: {name} differs between traced runs")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
