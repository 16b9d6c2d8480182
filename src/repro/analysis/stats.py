"""Statistical helpers (Pearson correlation, the paper's normalisations)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.percentile import percentile


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson's correlation coefficient (the Table 1 'Corr' column)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least two points for a correlation")
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for a constant series")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def normalize_to_baseline(value: float, baseline: float) -> float:
    """The paper's Fig. 5 normalisation: (V - V_alone) / V_alone."""
    if baseline == 0.0:
        raise ValueError("baseline must be non-zero")
    return (value - baseline) / baseline


def bootstrap_ci(
    data,
    stat=np.mean,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``stat(data)``.

    Used by EXPERIMENTS.md claims: a latency reduction is only reported
    as real when the settings' intervals separate.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.size < 2:
        raise ValueError("need at least two samples to bootstrap")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    rng = rng or np.random.default_rng(0)
    idx = rng.integers(0, data.size, size=(n_resamples, data.size))
    stats = np.apply_along_axis(stat, 1, data[idx])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return float(lo), float(hi)


def percentile_summary(latencies, qs=(50.0, 70.0, 80.0, 90.0, 99.0)) -> dict:
    """Mean plus a set of percentiles, as one dict."""
    lat = np.asarray(latencies, dtype=np.float64)
    if lat.size == 0:
        return {"mean": float("nan"), **{f"p{q:g}": float("nan") for q in qs}}
    out = {"mean": float(lat.mean())}
    for q in qs:
        out[f"p{q:g}"] = float(percentile(lat, q))
    return out
