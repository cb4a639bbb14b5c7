"""A seconds-long run of every workload, untraced and traced.

The rounds are shrunk by patching the workload sizes; everything else —
the run funnel, the checks, the metrics and the span breakdown — is the
code a full run uses.
"""

import json
import shutil
import subprocess
import sys

import pytest

from runbench import ROOT, run, workloads as wl

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}


@pytest.fixture(autouse=True)
def small_rounds(monkeypatch):
    monkeypatch.setattr(wl, "FIG4_INSTANCES", 4)
    monkeypatch.setattr(wl, "FIB_REPEATS", 1)
    monkeypatch.setattr(wl, "FIB_NS", (6,))
    monkeypatch.setattr(wl, "FIB_TOPOLOGIES", ("torus:6x6", "torus:3x3x3"))
    monkeypatch.setattr(wl, "LOSSY_INSTANCES", 2)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_runs_checks_and_reports_every_metric(workload, tmp_path):
    ops = run.setup(workload, 7, tmp_path)
    plain, spanned = run.run_rounds(workload, ops, tmp_path, 0, traced=True)
    attempted, failed, messages = run.round_failures(plain + spanned)
    assert (attempted, failed, messages) == (2 * len(ops), 0, [])

    e2e = run.end_to_end(plain, setup_s=1.0)
    assert {k: v["unit"] for k, v in e2e.items()} == END_TO_END
    assert all(v["value"] > 0 for v in e2e.values())

    metrics, times = run.per_layer(workload, plain, spanned)
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    assert run.breakdown_consistent(times)
    assert metrics["trace.overhead_ratio"]["value"] > 0
    ran = {layer for layer, t in times["self_s"].items() if t > 0}
    assert {"engine", "netsim", "sched", "mapping", "recursion", "apps"} <= ran
    assert ("reliability" in ran) == ("state" in ran) == (workload == "lossy-ckpt")
    if workload == "lossy-ckpt":
        assert metrics["ckpt_bytes_per_solve"]["value"] > 0
        assert metrics["state.restore_ms"]["value"] > 0
    if workload == "fig4-pool":
        assert 0 < metrics["parallel.efficiency"]["value"] <= 1.0


def test_pool_counts_equal_serial_counts(tmp_path):
    ops = wl.build_ops("fig4-pool", 3)
    serial = [wl.run_op(op, tmp_path) for op in ops]
    pooled = wl.run_pool_round(ops, traced=False)
    assert [o.counts() for o in pooled] == [o.counts() for o in serial]
    assert [o.verdict for o in pooled] == [o.verdict for o in serial]


def test_same_seed_same_inputs_other_seed_other_inputs():
    specs = [op.spec for op in wl.build_ops("fig4-serial", 11)]
    assert specs == [op.spec for op in wl.build_ops("fig4-serial", 11)]
    assert specs != [op.spec for op in wl.build_ops("fig4-serial", 12)]


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, a run must exit
    non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "runbench", tmp_path / "runbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "runbench/run.py", "--workload", "fib-mesh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
