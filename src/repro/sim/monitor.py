"""Time-series recording helpers for simulation metrics."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.percentile import percentile
from repro.sim.core import Environment, RecurringTimeout


class Series:
    """An append-only (time, value) series with NumPy export."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time: float, value: float) -> None:
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=np.float64)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def mean(self) -> float:
        if not self._values:
            return float("nan")
        return float(np.mean(self._values))

    def percentile(self, q: float) -> float:
        if not self._values:
            return float("nan")
        return float(percentile(self._values, q))

    def window_mean(self, t0: float, t1: float) -> float:
        """Mean of samples with t0 <= time < t1."""
        t = self.times
        mask = (t >= t0) & (t < t1)
        if not mask.any():
            return float("nan")
        return float(self.values[mask].mean())


class PeriodicSampler:
    """Runs ``fn(now)`` every ``period`` microseconds, recording its value.

    ``fn`` may return None to skip recording a sample.  The sampler stops
    when the environment drains or :meth:`stop` is called.
    """

    def __init__(
        self,
        env: Environment,
        period: float,
        fn: Callable[[float], Optional[float]],
        name: str = "",
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.env = env
        self.period = period
        self.fn = fn
        self.series = Series(name)
        self._stopped = False
        self._timer: RecurringTimeout | None = None
        self.process = env.process(self._run(), name=f"sampler:{name}")

    def stop(self) -> None:
        self._stopped = True
        # Drop the armed timer from the calendar: without this the entry
        # would sit there until it fired into the stopped loop.
        if self._timer is not None:
            self._timer.cancel()

    def _run(self):
        # One reusable auto-rearming timer instead of one Timeout
        # allocation per sample: at a 50 us period over seconds of
        # simulated time the allocation churn is what dominates the
        # sampler's cost.
        timer = RecurringTimeout(self.env, self.period, auto=True)
        self._timer = timer
        record = self.series.record
        fn = self.fn
        while not self._stopped:
            yield timer
            if self._stopped:
                break
            now = self.env.now
            value = fn(now)
            if value is not None:
                record(now, float(value))
        timer.cancel()
