"""Per-request timing of one pass, in reference units.

The machines this benchmark runs on are shared: their speed for this
process drifts by up to 2x within a minute as other tenants load the
cores.  Each untraced pass therefore interleaves short calibration units,
a fixed pure-Python loop of the kind of scalar float work sct does, with
its requests (at most one every CAL_SPACING seconds, outside every timed
interval).  Time between two units is divided by the mean of the two,
giving it in *reference units* (`ref`), which cancels most of the drift;
one ref is about 1 ms on an unloaded 2-core x86 container.  Traced passes
run no calibration and measure in seconds.
"""

from __future__ import annotations

import bisect
import math
import time

CAL_SPACING = 0.03


def calibration_unit(n: int = 1000) -> float:
    """One reference unit of work: AGM-like scalar loops with math calls."""
    total = 0.0
    for i in range(1, n):
        a, b = 1.0, 1.0 / i
        for _ in range(5):
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        total += math.sin(a) * math.cos(b) / (1.0 + a * a)
    return total


class PassClock:
    """Request boundaries, measured intervals and calibration of one pass.

    Intervals are in *measured time*: seconds with the calibration units
    cut out.  `begin` starts a request, or the rows of one `sct run` /
    `sct compare` call.  Those calls produce many requests (rows) at once,
    so `install` stamps them from outside: a column starts when
    `cli.lnz_function` returns and each of its rows ends when
    `cli.specific_heat` returns, since each is called once per column and
    once per row of a column; a compare row is the sum of its cells.
    Calibration units also run before ln Z evaluations, as a row takes
    seconds.  In traced passes the clock keeps the tracer's request id
    current and runs no calibration."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.units = []  # seconds per calibration unit
        self.unit_at = []  # measured time at which each unit ran
        self.paused = 0.0  # seconds spent in calibration units
        self.base = 0
        self.row = 0
        self.rows = [[]]
        self._mark = 0.0
        self._next_unit = -math.inf

    def measured(self) -> float:
        return time.perf_counter() - self.paused

    def checkpoint(self) -> None:
        """Run a calibration unit if one is due."""
        t0 = time.perf_counter()
        if self.tracer is not None or t0 < self._next_unit:
            return
        calibration_unit()
        t1 = time.perf_counter()
        self.unit_at.append(t0 - self.paused)
        self.units.append(t1 - t0)
        self.paused += t1 - t0
        self._next_unit = t1 + CAL_SPACING

    def begin(self, request: int, n_rows: int = 1) -> None:
        self.base, self.row = request, 0
        self.rows = [[] for _ in range(n_rows)]
        if self.tracer is not None:
            self.tracer.request = request
        self.checkpoint()
        self._mark = self.measured()

    def interval(self) -> tuple:
        """The measured interval since `begin`."""
        return (self._mark, self.measured())

    def reference(self):
        """Map from measured time to reference time: between two units the
        slope is one over their mean, and beyond the first or last unit one
        over that unit.  Identity when no unit ran."""
        at, u = self.unit_at, self.units
        if not u:
            return lambda x: x
        cum = [0.0]
        for j in range(1, len(u)):
            cum.append(cum[-1] + 2.0 * (at[j] - at[j - 1]) / (u[j - 1] + u[j]))

        def ref(x: float) -> float:
            j = bisect.bisect_right(at, x) - 1
            if j < 0:
                return (x - at[0]) / u[0]
            if j == len(u) - 1:
                return cum[j] + (x - at[j]) / u[j]
            return cum[j] + 2.0 * (x - at[j]) / (u[j] + u[j + 1])
        return ref

    def install(self, patcher, cli) -> None:
        lnz_function, specific_heat = cli.lnz_function, cli.specific_heat

        def lnz_function_stamped(config):
            lnz = lnz_function(config)
            self.row = 0
            if self.tracer is not None:
                self.tracer.request = self.base
            self._mark = self.measured()

            def lnz_calibrated(theta):
                self.checkpoint()
                return lnz(theta)
            return lnz_calibrated

        def specific_heat_stamped(*args, **kwargs):
            result = specific_heat(*args, **kwargs)
            if self.row < len(self.rows):
                self.rows[self.row].append(self.interval())
            self.row += 1
            if self.tracer is not None:
                self.tracer.request = self.base + self.row
            self.checkpoint()
            self._mark = self.measured()
            return result

        patcher.set(cli, "lnz_function", lnz_function_stamped)
        patcher.set(cli, "specific_heat", specific_heat_stamped)
