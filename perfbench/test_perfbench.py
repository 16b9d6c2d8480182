"""The benchmark's own tests, at smoke sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: counts driven by the seeded traffic; the others (fixed-period loops,
#: placement scans, set-up affinity writes, the shard and worker fleet)
#: may repeat across seeds at smoke size.
SEEDED_COUNTS = (
    "sim.calendar_pushes",
    "sim.request_allocs",
    "sim.resource_probes",
    "oskernel.quanta",
    "oskernel.lcpu_choices",
    "hw.mem_quanta",
    "hw.comp_quanta",
    "hw.counter_accruals",
    "workloads.queries",
    "obs.emits",
    "tracing.quanta",
    "faults.decisions",
    "runner.frame_bytes",
)


def _traced(name: str, seed: int, out_dir: str) -> tuple[dict, str]:
    wl = workloads.make(name, "smoke")
    raw, summary = wl.traced(seed, out_dir)
    return summary["counts"], wl.digest(raw)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_work_counts_repeat_at_a_seed_and_move_with_it(name, tmp_path):
    counts, digest = _traced(name, 1, str(tmp_path))
    again, digest_again = _traced(name, 1, str(tmp_path))
    other, digest_other = _traced(name, 2, str(tmp_path))

    assert list(counts) == list(layers.COUNTS)
    assert again == counts
    assert digest_again == digest
    assert digest_other != digest
    assert counts["sim.calendar_pushes"] > 0
    stuck = [k for k in SEEDED_COUNTS if counts[k] and counts[k] == other[k]]
    assert not stuck


def test_tracing_leaves_the_program_unpatched(tmp_path):
    from repro.sim.resources import Resource

    before = Resource.__dict__["count"]
    wl = workloads.make("colo-redis", "smoke")
    traced_raw, _ = wl.traced(3, str(tmp_path))
    assert Resource.__dict__["count"] is before
    assert wl.digest(wl.op(3)) == wl.digest(traced_raw)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    gated = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert gated == list(run.GATED)
    assert per_layer == list(run._per_layer_units())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)
    names = gated + per_layer + list(run.END_TO_END) + list(workloads.NAMES)
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(gated + per_layer)) == len(gated + per_layer)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert units == {n: run.END_TO_END[n][0] for n in run.GATED}


def test_tail_leaves_a_quarter_of_the_ops_beyond_it_up_to_ten():
    assert run.tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 1)
    walls = [float(i) for i in range(100)]
    assert run.tail(walls) == (89.0, 90.0, 10)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def test_command_prints_gated_metrics_and_exits_zero():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "colo-redis"]
        + ["--seed", "5", "--seconds", "1", "--trace", "0", "--size", "smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.GATED)
    for name in run.END_TO_END:
        assert re.search(rf"^  {re.escape(name)} ", out.stdout, re.M), name


def test_a_failed_check_fails_the_command(monkeypatch, capsys):
    real = workloads.make

    class Flaky(type(real("colo-redis", "smoke"))):
        ops = 0

        def check(self, raw):
            Flaky.ops += 1
            return ["planted failure"] if Flaky.ops == 3 else []

    def make(name, size):
        return Flaky(workloads.SIZES[size][name], name, False)

    monkeypatch.setattr(workloads, "make", make)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    args = run.argparse.Namespace(
        workload="colo-redis", seed=1, seconds=0.0, trace=0, size="smoke"
    )
    assert run.measure(args) == 1
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is False and result["failed"] == 1


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "colo-redis"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert _last_json(out.stdout) is None
