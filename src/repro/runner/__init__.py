"""Parallel experiment runner: cells, content-hash cache, fan-out, merge.

The layers, bottom up:

* :mod:`repro.runner.cells` — atomic units of work ((kind, params, seed)
  triples) whose payloads are plain JSON-able dicts;
* :mod:`repro.runner.cache` — an on-disk result cache keyed by a content
  hash of (params, seed, code version), with payload-hash verification so
  corrupted entries are recomputed instead of trusted;
* :mod:`repro.runner.aggregate` — the experiment registry: expansion of
  user-level experiments into role-labelled cells and pure aggregation of
  payloads back into figure/table structures;
* :mod:`repro.runner.executors` — pluggable transports behind one
  pull-based protocol: in-process, process pool, and loopback-socket
  worker subprocesses;
* :mod:`repro.runner.dispatch` — the async dispatch core: a cost-ordered
  shared ready-queue (longest-expected-first), streaming completion
  folding, bounded speculative re-execution of stragglers;
* :mod:`repro.runner.resilience` — the resilience layer: one
  :class:`RetryPolicy` for every recovery path, the fault-injecting
  :class:`ChaosExecutor` wrapper, and the crash-safe
  :class:`SweepJournal` behind ``--resume``;
* :mod:`repro.runner.runner` — the runner tying dispatch, cache and
  aggregation together with deterministic (byte-identical across
  executors) merging;
* :mod:`repro.runner.bench` — the ``repro bench`` harness emitting
  ``BENCH_runner.json``.  It is not in ``__all__``; import it as a
  submodule.

The public names below resolve lazily (PEP 562): ``from repro.runner
import ExperimentRunner`` imports :mod:`repro.runner.runner` on first
use, and ``import repro.runner`` alone imports no submodule.  That keeps
a cell process lean.  A socket worker (:mod:`repro.runner.worker`) and
the cluster sweep (which imports :func:`latency_summary` from
:mod:`repro.runner.cells`) pass through this package, and they never run
the executors, the dispatch core, the cache, the resilience layer or
the harness, nor the ``multiprocessing`` and ``repro.analysis`` stacks
those pull in.
"""

import importlib

#: public name -> the submodule that defines it.
_EXPORTS = {
    "Cell": "cells",
    "execute_cell": "cells",
    "latency_summary": "cells",
    "ResultCache": "cache",
    "cell_key": "cache",
    "code_fingerprint": "cache",
    "EXPERIMENTS": "aggregate",
    "ExperimentRequest": "aggregate",
    "expand_request": "aggregate",
    "aggregate_request": "aggregate",
    "CostModel": "dispatch",
    "DispatchCore": "dispatch",
    "EXECUTORS": "executors",
    "Completion": "executors",
    "ExecutorError": "executors",
    "InProcessExecutor": "executors",
    "PoolExecutor": "executors",
    "SocketExecutor": "executors",
    "Task": "executors",
    "make_executor": "executors",
    "ChaosExecutor": "resilience",
    "ChaosFault": "resilience",
    "RetryPolicy": "resilience",
    "SweepJournal": "resilience",
    "CellExecutionError": "runner",
    "ExperimentRunner": "runner",
    "RunReport": "runner",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
