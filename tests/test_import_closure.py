"""What a cell process loads, and the lazy ``repro.runner`` namespace.

A socket worker runs cells and nothing else, so it must not import the
runner's dispatch, executor, cache and resilience layers, the analysis
and obs packages, ``multiprocessing``, or ``numpy.ma``: each is memory
held by every worker of a sweep.  The closure test runs a worker's
imports and one tiny cluster and one tiny co-location cell in a fresh
interpreter, then names every forbidden module that this path loaded
on top of ``import numpy`` (an older numpy imports ``numpy.ma`` itself).

``repro.runner`` publishes its public names lazily (PEP 562).  The
namespace tests pin that ``import repro.runner`` alone loads no
submodule and that every name it has always exported still resolves to
the object its submodule defines.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.runner

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: modules a cell process must never load.  ``numpy.ma`` is matched
#: exactly: ``numpy.matrixlib`` shares its prefix and is loaded by numpy.
FORBIDDEN = (
    "repro.runner.executors",
    "repro.runner.dispatch",
    "repro.runner.aggregate",
    "repro.runner.cache",
    "repro.runner.resilience",
    "repro.runner.runner",
    "repro.runner.bench",
    "repro.analysis",
    "repro.obs",
    "concurrent.futures.process",
    "multiprocessing",
    "numpy.ma",
)

_CELLS = """
import json, sys
import numpy
numpy_own = set(sys.modules)
import repro.runner.worker
from repro.runner.cells import Cell, execute_cell, release_cell

for kind, params in json.loads(sys.argv[1]):
    payload = execute_cell(Cell.make(kind, params, 3))
    assert payload, kind
    release_cell()
print(json.dumps(sorted(set(sys.modules) - numpy_own)))
"""

#: one cell of each kind a sweep ships to socket workers.
TINY_CELLS = [
    [
        "cluster_sweep",
        {"policy": "score", "n_nodes": 2, "n_jobs": 3, "duration_us": 2_000.0},
    ],
    [
        "colocation",
        {
            "service": "redis",
            "workload": "a",
            "setting": "holmes",
            "duration_us": 5_000.0,
        },
    ],
]

#: the names ``repro.runner`` exported eagerly before it turned lazy,
#: with the submodule that defines each.
EXPORTS = {
    "cells": ("Cell", "execute_cell", "latency_summary"),
    "cache": ("ResultCache", "cell_key", "code_fingerprint"),
    "aggregate": (
        "EXPERIMENTS",
        "ExperimentRequest",
        "expand_request",
        "aggregate_request",
    ),
    "dispatch": ("CostModel", "DispatchCore"),
    "executors": (
        "EXECUTORS",
        "Completion",
        "ExecutorError",
        "InProcessExecutor",
        "PoolExecutor",
        "SocketExecutor",
        "Task",
        "make_executor",
    ),
    "resilience": ("ChaosExecutor", "ChaosFault", "RetryPolicy", "SweepJournal"),
    "runner": ("CellExecutionError", "ExperimentRunner", "RunReport"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _fresh_modules(code: str, *args: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _loaded(modules: list[str], roots) -> list[str]:
    return sorted(
        m for m in modules if any(m == r or m.startswith(r + ".") for r in roots)
    )


def test_cell_process_loads_only_the_cell_stack():
    # what the cell path loads beyond numpy's own import
    modules = _fresh_modules(_CELLS, json.dumps(TINY_CELLS))
    # the cells really ran through the simulator and the cluster layer
    assert "repro.cluster.sweep" in modules
    assert "repro.experiments.colocation" in modules
    assert _loaded(modules, FORBIDDEN) == []


def test_import_repro_runner_loads_no_submodule():
    code = "import json, sys, repro.runner; print(json.dumps(sorted(sys.modules)))"
    assert _loaded(_fresh_modules(code), ["repro.runner"]) == ["repro.runner"]


def test_a_name_loads_only_its_own_submodule():
    code = (
        "import json, sys, repro.runner; repro.runner.Cell; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    loaded = _loaded(_fresh_modules(code), ["repro.runner"])
    assert loaded == ["repro.runner", "repro.runner.cells"]


def test_all_lists_every_exported_name():
    assert sorted(repro.runner.__all__) == sorted(name for _, name in NAMES)
    assert len(repro.runner.__all__) == 27


@pytest.mark.parametrize("module,name", NAMES)
def test_each_name_is_its_submodules_object(module, name):
    submodule = importlib.import_module(f"repro.runner.{module}")
    assert getattr(repro.runner, name) is getattr(submodule, name)
    assert name in dir(repro.runner)


def test_from_import_of_names_and_submodules():
    from repro.runner import ExperimentRunner, bench, cells, executors, worker

    assert ExperimentRunner is repro.runner.runner.ExperimentRunner
    assert cells.__name__ == "repro.runner.cells"
    assert executors.__name__ == "repro.runner.executors"
    assert bench.__name__ == "repro.runner.bench"
    assert worker.__name__ == "repro.runner.worker"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.runner.no_such_name
    assert not hasattr(repro.runner, "no_such_name")
    with pytest.raises(ImportError):
        from repro.runner import no_such_name  # noqa: F401
