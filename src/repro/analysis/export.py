"""JSON export of experiment results (for notebooks and regression diffs)."""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any

import numpy as np

from repro.percentile import percentile


def _to_jsonable(obj: Any) -> Any:
    """Recursively convert results (dataclasses, arrays, ...) to JSON types."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_to_jsonable(v) for v in obj]
    # latency recorders and other rich objects export their summary
    if hasattr(obj, "latencies") and hasattr(obj, "percentile"):
        lat = obj.latencies()
        if lat.size == 0:
            return {"count": 0}
        return {
            "count": int(lat.size),
            "mean": float(lat.mean()),
            "p50": float(percentile(lat, 50)),
            "p90": float(percentile(lat, 90)),
            "p99": float(percentile(lat, 99)),
            "max": float(lat.max()),
        }
    raise TypeError(f"cannot export {type(obj).__name__} to JSON")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace.

    This is the byte form the runner hashes for cache keys, compares for
    serial-vs-parallel equivalence, and diffs across same-seed runs; two
    results are "bit-identical" iff their canonical dumps match.
    """
    return json.dumps(_to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def export_result(result: Any, path: str | pathlib.Path) -> pathlib.Path:
    """Serialise one experiment result object to a JSON file."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_to_jsonable(result), indent=2, sort_keys=True))
    return path


def load_result(path: str | pathlib.Path) -> Any:
    return json.loads(pathlib.Path(path).read_text())
