"""Self-test of the benchmark: every metric is emitted, the oracle bites.

    python3 -m pytest perfbench -q

Each workload runs at minimal size (one or two grid cells, one pass),
untraced and traced, and must print every metric ``BENCHMARK.json``
declares, with its unit; the oracle must flag a deliberately wrong
expected verdict.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import oracle, run, workloads  # noqa: E402


#: Workload-specific metric names, printed above the JSON.
NAMED = {
    "prove_matrix": ("verdict_s.p50", "verdict_s.tail", "verdicts_per_s",
                     "sim_steps_per_s"),
    "mc_matrix": ("mc_states_per_s",),
    "campaign_sweep": ("trials_per_s", "trial_s.p50"),
    "campaign_resume": ("resume_s", "status_s"),
}


def minimal(name: str):
    """A one-pass, few-cell copy of a workload."""
    workload = type(workloads.WORKLOADS[name])()
    workload.min_passes = 1
    workload.pass_s = 1e9
    if name == "prove_matrix":
        workload.machines, workload.tps = ("tiny",), ("full", "no-flush")
    elif name == "mc_matrix":
        workload.machines, workload.tps = ("micro",), ("full", "no-pad")
    elif name == "campaign_sweep":
        workload.tps, workload.attacks = ("full", "no-pad"), ("e5",)
    else:
        workload.tps, workload.attacks = ("full", "no-pad"), ("e5",)
        workload.n_seeds = 50
    return workload


def run_minimal(name: str, trace: bool, tmp_path):
    out = io.StringIO()
    result = run.run_workload(minimal(name), seed=3, seconds=1, trace=trace,
                              workdir=str(tmp_path), out=out)
    return result, out.getvalue()


def test_benchmark_json_declares_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == (
        run.PER_LAYER)
    assert [w["name"] for w in benchmark["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result, report = run_minimal(name, trace=False, tmp_path=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == (
        run.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and math.isfinite(metric["value"])
    assert "error_rate 0.0000" in report
    assert "digest sha256:" in report
    for named in NAMED[name]:
        assert f"  {named} " in report, named


#: Per-layer metrics each workload must light up when traced.
LAYERS = {
    "prove_matrix": ("kernel.run_s", "kernel.steps", "core.builds",
                     "hardware.l1d.touches", "core.compare_s"),
    "mc_matrix": ("mc.states", "mc.step_s", "mc.fingerprint_s"),
    "campaign_sweep": ("campaign.store_appends", "campaign.store_append_s",
                       "campaign.expand_s", "attacks.e5.trial_s"),
    "campaign_resume": ("campaign.completed_keys_s", "campaign.store_scan_s",
                        "analysis.pivot_s"),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_and_accounts_for_its_wall(
        name, tmp_path):
    result, _ = run_minimal(name, trace=True, tmp_path=tmp_path)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == (
        run.PER_LAYER)
    assert result["correct"], "tracing changed a simulated output"
    for key in LAYERS[name]:
        assert metrics[key] > 0, key
    if name != "mc_matrix":
        assert metrics["mc.states"] == 0
    # Self times partition the traced pass: together they are its wall.
    self_times = sum(value for key, value in metrics.items()
                     if run.PER_LAYER[key] == "s"
                     and key not in ("bench.wall_s", "bench.cpu_s")
                     and not key.startswith("attacks."))
    assert self_times == pytest.approx(metrics["bench.wall_s"], rel=0.01)
    assert os.path.exists(tmp_path / f"trace-{name}-seed3.json")


def test_oracle_flags_a_wrong_expected_proof_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "expected_verdict",
                        lambda machine, tp: oracle.FAIL)
    result, report = run_minimal("prove_matrix", trace=False,
                                 tmp_path=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1  # tiny/full PASSes, the table says FAIL
    assert "FAILED tiny/full: PASS, expected FAIL" in report


def test_oracle_flags_a_wrong_expected_channel(tmp_path, monkeypatch):
    monkeypatch.setitem(oracle.CAMPAIGN_EXPECTED, ("no-pad", "e5"),
                        oracle.CLOSED)
    result, report = run_minimal("campaign_sweep", trace=False,
                                 tmp_path=tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert "open, expected closed" in report


def test_known_mismatches_count_as_failed_but_keep_correct():
    tally = oracle.Tally()
    tally.verdict("desktop/no-colour", oracle.PASS, oracle.FAIL, 63,
                  known=True)
    tally.verdict("tiny/full", oracle.PASS, oracle.PASS, 0)
    assert tally.attempted == 2 and tally.failed == 2
    assert not tally.correct  # the empty PASS is not a known defect
    assert tally.failures == ["tiny/full: PASS with zero Lo observations"]
