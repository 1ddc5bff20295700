"""Machine-speed calibration of measured times.

On the shared 2-core VM the benchmark was defined on, the same pure-Python
work runs up to twice as fast at one moment as at another (other tenants
share the host), and a state lasts from under a second to minutes, so runs
minutes apart differ by 20-35 % on identical inputs.  The benchmark
therefore times a fixed reference loop between operations and scales each
interval by the speed factor (NOMINAL_REF_S / reference time around it) **
SLOWDOWN_EXPONENT: a calibrated second is a second on a machine where the
loop takes NOMINAL_REF_S.  Only the machine speed cancels; a change in
resemi's own cost shows in full.  Raw wall times are reported alongside.
"""

from __future__ import annotations

from time import perf_counter

# Reference-loop time (s) on the defining machine in its faster state.
NOMINAL_REF_S = 0.0014
# Sample the reference at most this often (about 1-2 % of the run).
INTERVAL_S = 0.25
# resemi's work slows less than the reference loop when the machine slows:
# timed side by side on the defining VM, log(instance time) against
# log(reference time) had slopes 0.69-0.78 (sweep instances of c2 and c3d)
# and 0.76 (CLI queries), and a slope of 1 over-corrected slow stretches by
# about 18 %.
SLOWDOWN_EXPONENT = 0.75


def reference_s() -> float:
    """Best of three timings of a fixed loop doing the interpreter work resemi
    does: building small tuples, hashing them, updating a dict."""
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        counts: dict = {}
        for i in range(1500):
            key = tuple((i * k) % 11 for k in range(4))
            counts[key] = counts.get(key, 0) + 1
        best = min(best, perf_counter() - t)
    return best


def speed_factor() -> float:
    """Scale that turns a time measured now into a nominal-machine time."""
    return (NOMINAL_REF_S / reference_s()) ** SLOWDOWN_EXPONENT


class CalibratedClock:
    """Elapsed time since construction, scaled to the nominal machine.

    Call ``tick()`` between operations: at most every INTERVAL_S it samples
    the reference and adds the interval since the previous sample, scaled by
    the mean of the two samples' speed factors.  Sampling time is excluded
    from both the calibrated total and ``raw_s``.
    """

    def __init__(self) -> None:
        self.factor = speed_factor()
        self.factors = [self.factor]
        self.calibrated_s = 0.0
        self.raw_s = 0.0
        self._since = perf_counter()

    def tick(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and now - self._since < INTERVAL_S:
            return
        factor = speed_factor()
        self.raw_s += now - self._since
        self.calibrated_s += (now - self._since) * (self.factor + factor) / 2
        self.factor = factor
        self.factors.append(factor)
        self._since = perf_counter()
