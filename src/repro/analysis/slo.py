"""SLO derivation and violation accounting (paper Fig. 11).

"We adopt the 90th percentile latency under Alone as the SLO.  These are
rather strict values as only 10% SLO violations are allowed under Alone."
"""

from __future__ import annotations

import numpy as np

from repro.percentile import percentile


def slo_from_alone(alone_latencies) -> float:
    """SLO threshold: the Alone run's p90 latency."""
    lat = np.asarray(alone_latencies, dtype=np.float64)
    if lat.size == 0:
        raise ValueError("no Alone latencies to derive an SLO from")
    return float(percentile(lat, 90.0))


def violation_ratio(latencies, slo_us: float) -> float:
    """Fraction of queries slower than the SLO."""
    lat = np.asarray(latencies, dtype=np.float64)
    if lat.size == 0:
        return float("nan")
    if slo_us <= 0:
        raise ValueError(f"SLO must be positive, got {slo_us}")
    return float((lat > slo_us).mean())
