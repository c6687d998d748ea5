"""Machine-speed calibration: a fixed probe timed around operations.

The shared machine this benchmark runs on changes speed by up to about
1.8x, both from one fraction of a second to the next and for stretches
of tens of seconds to minutes, and CPU time moves with wall time, so raw
latencies of the same code differ from one run to the next by more than
any useful bound.  The probe is a frozen piece of pure-Python work of
the kind the library does (products of bitmask blades with a sign rule,
`Fraction` coefficients accumulated in a dict); it never changes, so its
time measures the machine and nothing else.

A run times one probe before every operation and, after a long one, one
more per PROBE_EVERY_S of the operation's time, up to MAX_AFTER.  Each
operation's time is rescaled by NOMINAL_S / (harmonic mean of the probes
within WINDOW_S of it, or of the MIN_PROBES nearest), that is to the
speed at which the probe takes NOMINAL_S.  The harmonic mean of probe
times is the time at the machine's mean speed, which is what a long
operation averages over.  Every time the benchmark reports is rescaled
this way; the raw figures are printed beside them.  Work the library
saves or adds changes an operation's time and not the probe's, so it
shows in full in the rescaled figures.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# About the probe's time on a shared 2-core Intel Xeon x86-64 with
# Python 3.11; it only sets the scale of the reported times.
NOMINAL_S = 0.003
WINDOW_S = 2.0
MIN_PROBES = 9
PROBE_EVERY_S = 0.05
MAX_AFTER = 20

_SQUARES = [1, 1, 1, -1, 0, 0, 1, -1]
_LEFT = {m: Fraction(m * 7 % 5 + 1, m % 3 + 1) for m in range(0, 256, 9)}
_RIGHT = {m: Fraction(m * 5 % 7 - 3) for m in range(1, 256, 17)}


def _probe_work() -> dict:
    out: dict = {}
    for ma, ca in _LEFT.items():
        for mb, cb in _RIGHT.items():
            common = ma & mb
            sign = 1
            for i in range(8):
                if (common >> i) & 1:
                    sign *= _SQUARES[i]
            if not sign:
                continue
            swaps, rest = 0, ma >> 1
            while rest:
                swaps += bin(rest & mb).count("1")
                rest >>= 1
            if swaps & 1:
                sign = -sign
            key = ma ^ mb
            value = out.get(key, 0) + sign * ca * cb
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


class Calibration:
    """Probes taken during one run: (midpoint, seconds), oldest first."""

    def __init__(self):
        self.mids: list[float] = []
        self.durations: list[float] = []

    def probe(self, count: int = 1) -> None:
        # The cyclic collector would make the probe pay for the library's
        # heap; the probe's own garbage is freed by reference counting.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                _probe_work()
                t1 = time.perf_counter()
                self.mids.append((t0 + t1) / 2)
                self.durations.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def probe_after(self, elapsed: float) -> None:
        """The probes that follow an operation of `elapsed` seconds."""
        self.probe(min(MAX_AFTER, int(elapsed / PROBE_EVERY_S)))

    def factor(self, start: float, end: float) -> float:
        """Rescaling factor of a span timed from `start` to `end`."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        while hi - lo < min(MIN_PROBES, len(self.mids)):
            if hi == len(self.mids) or (
                    lo and start - self.mids[lo - 1] < self.mids[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.harmonic_mean(self.durations[lo:hi])
