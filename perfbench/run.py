"""Benchmark of cliffideals: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify-requests --seed 1 \
        --seconds 30 --trace 0

Run from anywhere; the library is imported from `src/` next to this
directory and nowhere else.  One client in one thread sends operations
in a closed loop: each starts when the previous one has returned.  A run
repeats the seeded round of its workload (see workloads.py) until the
operations have taken about `--seconds` seconds and at least MIN_OPS
have been timed.  Each operation is checked outside its timed span.
`ops_per_s` is completed operations over timed seconds for the whole
run, and the latency percentiles pool every operation of the run.

Every reported time is rescaled to a nominal machine speed by a fixed
probe timed before each operation (see calibrate.py): the machine's own
speed drifts too much for raw times of one run to compare with another.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics.  With `--trace 1` the run times one round plain,
then one round with spans around every public callable, and reports the
per-layer metrics; it ignores `--seconds`, so that its counts repeat
exactly for a seed.  Spans are written to `.perfbench_out/`.

`setup_s` is the time from the start of a fresh Python process to the
point where this script would time its first operation: interpreter
start-up, the imports and building the inputs.  A `--trace 0` run
starts SETUP_RUNS such processes one after another and reports the
median, each rescaled by probes taken around it.

`--pin` records the per-operation output digests of the default seed in
expected.json; later runs of that seed count a changed output as failed.
"""

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from checks import CheckFailure, digest
from tracer import METRICS as LAYER_METRICS
from tracer import Tracer
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
SETUP_RUNS = 11
MIN_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no library source)."""


def import_library():
    """Import `cliffideals` from this checkout's `src/`."""
    if not (SRC / "cliffideals" / "__init__.py").is_file():
        raise SetupError(f"no library source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cf = importlib.import_module("cliffideals")
    importlib.import_module("cliffideals.cli")
    if Path(cf.__file__).resolve().parent != (SRC / "cliffideals").resolve():
        raise SetupError(f"cliffideals was imported from {cf.__file__}")
    return cf


def set_up(workload: str, seed: int, tiny: bool):
    """Import the library and build the seeded inputs."""
    cf = import_library()
    return cf, build(cf, workload, seed, tiny)


# A fresh process that does this script's set-up and prints the clock
# when it is done.  CLOCK_MONOTONIC is shared by all processes on Linux.
_SET_UP_ONLY = """
import sys, time
sys.path.insert(0, sys.argv[1])
import run
run.set_up(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
print(time.monotonic())
"""


def setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Median over SETUP_RUNS fresh processes of the time from starting
    one to its inputs being ready, each rescaled by the probes around it."""
    cal = calibrate.Calibration()
    spans = []
    for _ in range(SETUP_RUNS):
        cal.probe(3)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _SET_UP_ONLY, str(HERE), workload, str(seed),
             "1" if tiny else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        spans.append((start, float(proc.stdout.split()[-1])))
    cal.probe(3)
    # perf_counter and monotonic are the same clock on Linux
    return statistics.median((end - start) * cal.factor(start, end) for start, end in spans)


def pinned_digests(workload: str, seed: int, tiny: bool):
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload + (":tiny" if tiny else ""))


class Outcome:
    """Latencies, failures and output digests of the operations run.

    Each operation is timed raw; `rescaled` rescales the times by the probes
    taken around them (see calibrate.py)."""

    def __init__(self, ops, pinned):
        self.ops = ops
        self.pinned = pinned
        self.samples: list[tuple[int, float, float, bool]] = []  # op, start, raw s, passed
        self.cal = calibrate.Calibration()
        self.failures: list[str] = []
        self.attempted = 0
        self.digests: list[str | None] = [None] * len(ops)

    def run(self, i: int, tracer: Tracer | None = None) -> float:
        """Run operation i once; returns its raw timed duration."""
        op = self.ops[i]
        self.attempted += 1
        self.cal.probe()
        if tracer:
            tracer.begin(op.label)
        t0 = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # any escape from the library is a failure
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end()
        self.cal.probe_after(elapsed)
        try:
            if error is not None:
                raise CheckFailure(f"raised {type(error).__name__}: {error}")
            op.check(result)
            d = digest(op.canon(result))
            if self.pinned is not None and self.pinned[i] != d:
                raise CheckFailure("output differs from the pinned digest")
            if self.digests[i] is None:
                self.digests[i] = d
            elif self.digests[i] != d:
                raise CheckFailure("output differs from an earlier round")
        except Exception as exc:  # an output the checks cannot read failed too
            self.failures.append(f"{op.label} {' '.join(op.inputs)}: {exc}")
            self.samples.append((i, t0, elapsed, False))
            return elapsed
        self.samples.append((i, t0, elapsed, True))
        return elapsed

    def round(self, tracer: Tracer | None = None) -> float:
        return sum(self.run(i, tracer) for i in range(len(self.ops)))

    def rescaled(self) -> list[tuple[int, float, bool]]:
        """(op, rescaled seconds, passed) of every sample."""
        return [(i, t * self.cal.factor(t0, t0 + t), ok) for i, t0, t, ok in self.samples]

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    @property
    def failed(self) -> int:
        return len(self.failures)

    def output_digest(self) -> str:
        return digest("\n".join(d or "-" for d in self.digests))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: pct% of the values are <= the result."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(outcome: Outcome, seconds: float) -> int:
    """Run whole rounds until their raw timed work is nearest to `seconds`
    (and at least MIN_OPS operations passed); returns the rounds."""
    busy, rounds = 0.0, 0
    while not rounds or busy + busy / rounds / 2 < seconds or outcome.passed < MIN_OPS:
        busy += outcome.round()
        rounds += 1
        if outcome.attempted >= 10 * MIN_OPS and not outcome.passed:
            break  # everything fails; stop instead of spinning
    return rounds


def report_line(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
    print(f"  {name:<40} {shown} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small rungs only and no reference inputs (self-tests)")
    parser.add_argument("--pin", action="store_true",
                        help="write this run's digests to expected.json")
    args = parser.parse_args(argv)
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"--pin records the default seed {DEFAULT_SEED} only")

    try:
        cf, ops = set_up(args.workload, args.seed, args.tiny)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    pinned = None if args.pin else pinned_digests(args.workload, args.seed, args.tiny)
    if pinned is not None and len(pinned) != len(ops):
        print("perfbench: expected.json does not match this round", file=sys.stderr)
        return 2
    outcome = Outcome(ops, pinned)

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per round,"
          f" trace {args.trace}")
    if args.trace:
        plain = Outcome(ops, pinned)
        plain.round()
        plain_s = sum(t for _, t, _ in plain.rescaled())
        tracer = Tracer()
        tracer.install(cf)
        raw_traced_s = outcome.round(tracer)
        traced_s = sum(t for _, t, _ in outcome.rescaled())
        # both rounds run the same operations, so the ratio of their
        # throughputs is the ratio of their durations; self times are
        # rescaled as the traced round was
        metrics = tracer.metrics(plain_s / traced_s, traced_s / raw_traced_s)
        units = LAYER_METRICS
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        outcome.failures += plain.failures
        outcome.attempted += plain.attempted
        print(f"one plain round {plain_s:.3f} s, one traced round {traced_s:.3f} s")
    else:
        rounds = measure(outcome, args.seconds)
        samples = outcome.rescaled()
        busy = sum(t for _, t, _ in samples)
        raw_busy = sum(t for _, _, t, _ in outcome.samples)
        lat = [t for _, t, ok in samples if ok]
        if not lat:
            print("perfbench: no operation completed", file=sys.stderr)
            for failure in outcome.failures[:10]:
                print(f"FAILED {failure}", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": setup_seconds(args.workload, args.seed, args.tiny),
            "ops_per_s": len(lat) / busy,
            "op_p50_ms": statistics.median(lat) * 1000,
            "op_p90_ms": percentile(lat, 90) * 1000,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        print(f"{rounds} rounds, {len(lat)} latency samples, {busy:.3f} s timed"
              f" (raw {raw_busy:.3f} s; times below are rescaled, see calibrate.py)")
        references: dict[str, list[float]] = {}
        for i, t, ok in samples:
            if ok and ops[i].reference:
                references.setdefault(ops[i].reference, []).append(t)
        for name, times in references.items():
            if times:
                print(f"  reference {name}: median "
                      f"{statistics.median(times) * 1000:.1f} ms over {len(times)}")

    error_rate = outcome.failed / outcome.attempted
    for name, value in metrics.items():
        report_line(name, value, units[name])
    report_line("error_rate", error_rate, "ratio",
                f"({outcome.failed} of {outcome.attempted} failed)")
    print(f"  output digest {outcome.output_digest()}")
    for failure in outcome.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)

    if args.pin and not outcome.failed:
        pins = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        pins[args.workload + (":tiny" if args.tiny else "")] = outcome.digests
        EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
