"""The bench gate table and the bench's one A/B helper.

``scripts/check_bench_regression.py`` is loaded by path (``scripts/``
is not a package).  Records are built from ``GATES`` itself, so every
row is exercised: a record meeting every bound passes, and breaking any
one metric, or deleting any one section, yields a named failure rather
than a traceback.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib

import pytest

from repro.runner import bench

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "scripts"
    / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)


def _set(record: dict, section: str, path: str, value) -> None:
    node = record.setdefault(section, {})
    *parents, leaf = path.split(".")
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value


def _records() -> tuple[dict, dict]:
    """A (current, baseline) pair that meets every bound in ``GATES``."""
    current: dict = {}
    baseline: dict = {}
    for gate in gates.GATES:
        if gate.kind == "vs_baseline":
            for path in gate.metric.split("/"):
                _set(current, gate.section, path, 1.0)
                _set(baseline, gate.section, path, 1.0)
        elif gate.kind == "identical":
            _set(current, gate.section, gate.metric, True)
        elif gate.kind == "floor":
            _set(current, gate.section, gate.metric, gate.bound * 1.5)
        else:
            _set(current, gate.section, gate.metric, gate.bound * 0.5)
    _set(current, "dispatch_core", "effective_workers", 2)
    return current, baseline


def _break(current: dict, gate) -> None:
    """Push ``gate``'s metric, and nothing else, past its bound."""
    if gate.kind == "vs_baseline":
        numerator = gate.metric.split("/")[0]
        _set(current, gate.section, numerator, gate.bound * 2)
    elif gate.kind == "identical":
        _set(current, gate.section, gate.metric, False)
    elif gate.kind == "floor":
        _set(current, gate.section, gate.metric, gate.bound * 0.5)
    else:
        _set(current, gate.section, gate.metric, gate.bound * 2)


def test_gate_table_keeps_every_check():
    assert len(gates.GATES) == 17
    assert {g.kind for g in gates.GATES} == {
        "identical",
        "floor",
        "ceiling",
        "vs_baseline",
    }


def test_record_meeting_every_bound_passes(capsys):
    current, baseline = _records()
    assert gates.check(current, baseline) == []
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(gates.GATES)
    assert all(line.startswith("ok ") for line in lines)


@pytest.mark.parametrize(
    "gate", gates.GATES, ids=[f"{g.section}.{g.metric}" for g in gates.GATES]
)
def test_breaking_one_metric_fails_only_that_gate(gate):
    current, baseline = _records()
    _break(current, gate)
    failures = gates.check(current, baseline)
    assert len(failures) == 1
    assert f"{gate.section}.{gate.metric}" in failures[0]


@pytest.mark.parametrize("section", sorted({g.section for g in gates.GATES}))
def test_missing_section_is_a_named_regression(section, tmp_path, capsys):
    current, baseline = _records()
    del current[section]
    (tmp_path / "current.json").write_text(json.dumps(current))
    (tmp_path / "baseline.json").write_text(json.dumps(baseline))
    rc = gates.main([str(tmp_path / "current.json"), str(tmp_path / "baseline.json")])
    assert rc == 1
    err = capsys.readouterr().err
    for gate in gates.GATES:
        if gate.section == section:
            assert f"REGRESSION: {section}.{gate.metric} is missing" in err


def test_missing_baseline_metric_is_a_named_regression():
    current, baseline = _records()
    del baseline["profiling"]
    failures = gates.check(current, baseline)
    assert failures == [
        "profiling.wall_per_probe_run_s is missing from the baseline "
        "(<= 2.00x baseline)"
    ]


def test_skewed_mix_floor_needs_two_workers():
    current, baseline = _records()
    _set(current, "dispatch_core", "skewed_mix.speedup", 1.0)
    _set(current, "dispatch_core", "effective_workers", 1)
    assert gates.check(current, baseline) == []
    _set(current, "dispatch_core", "effective_workers", 2)
    failures = gates.check(current, baseline)
    assert len(failures) == 1
    assert "dispatch_core.skewed_mix.speedup" in failures[0]


def test_identity_gates_match_the_flags_the_bench_fails_on():
    identical = {(g.section, g.metric) for g in gates.GATES if g.kind == "identical"}
    assert identical == set(bench.IDENTITY_FLAGS)


def test_identity_failures_names_false_flags_and_skips_absent_sections():
    current, _ = _records()
    del current["dispatch_core"]
    assert bench.identity_failures(current) == []
    _set(current, "cluster_rate", "sweep.identical_calendars", False)
    assert bench.identity_failures(current) == [
        "cluster_rate.sweep.identical_calendars"
    ]


def test_ab_interleaves_arms_and_takes_per_arm_min():
    calls = []
    walls = {"a": iter([3.0, 1.0, 2.0]), "b": iter([0.5, 4.0, 0.7])}

    def run_one(arm):
        calls.append(arm)
        return next(walls[arm])

    best = bench._ab(("a", "b"), run_one, repeats=3)
    assert calls == ["a", "b", "a", "b", "a", "b"]
    assert best == {"a": 1.0, "b": 0.5}
    assert bench._ratio(best["b"], best["a"]) == 0.5


def test_ab_ratio_is_none_when_a_wall_is_zero():
    best = bench._ab(("plain", "hooked"), lambda arm: float(arm == "hooked"), 2)
    assert best == {"plain": 0.0, "hooked": 1.0}
    assert bench._ratio(best["hooked"], best["plain"]) is None
    assert bench._ratio(best["plain"], best["hooked"]) is None


def test_env_sets_and_restores_a_variable(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_TEST_VAR", raising=False)
    with bench._env("REPRO_BENCH_TEST_VAR", "heap"):
        assert os.environ["REPRO_BENCH_TEST_VAR"] == "heap"
    assert "REPRO_BENCH_TEST_VAR" not in os.environ
    monkeypatch.setenv("REPRO_BENCH_TEST_VAR", "wheel")
    with pytest.raises(RuntimeError):
        with bench._env("REPRO_BENCH_TEST_VAR", "heap"):
            raise RuntimeError
    assert os.environ["REPRO_BENCH_TEST_VAR"] == "wheel"
