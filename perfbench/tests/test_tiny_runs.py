"""A tiny-size run of each workload, in both modes: every named metric
prints with its unit, every check passes, and the last output line
carries exactly the metrics BENCHMARK.json lists."""

import json
import re

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Large enough for a tail (>= 20 samples), small enough for a test.
TINY = {
    "train_burst": lambda seed: workloads.train_burst_inputs(seed, jobs=20),
    "crash_recovery": lambda seed: workloads.crash_recovery_inputs(
        seed, per_component=4),
    "serve_diurnal": lambda seed: workloads.serve_diurnal_inputs(
        seed, duration=0.75 * workloads.DIURNAL_PERIOD),
}

PRINTED = {
    "train_burst": ("deploy_p50_s", "deploy_tail_s",
                    "submit_to_running_p50_s", "submit_to_running_tail_s",
                    "makespan_s"),
    "crash_recovery": ("recovery_api_s", "recovery_lcm_s",
                       "recovery_guardian_s", "recovery_helper_s",
                       "recovery_learner_s"),
    "serve_diurnal": ("infer_p50_s", "infer_tail_s", "slo_attainment"),
}
COMMON = ("wall_s", "setup_s", "peak_rss_mb", "failed_ratio",
          "latency_p50_s", "latency_tail_s")


@pytest.fixture(autouse=True)
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_ITERATIONS", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_print_with_units(name, capsys):
    result, record = run.benchmark(name, 3, 0.0, 0, TINY[name](3))
    out = capsys.readouterr().out
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    for metric in COMMON + PRINTED[name]:
        unit = record["metrics"][metric]["unit"]
        assert re.search(rf"^\s+{metric}\s+\S+\s+{re.escape(unit)}\s",
                         out, re.M), metric
    assert record["metrics"]["failed_ratio"]["value"] == 0
    assert "CPUs, Python" in out
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name, capsys):
    result, record = run.benchmark(name, 3, 0.0, 1, TINY[name](3))
    out = capsys.readouterr().out
    assert result["correct"], record["failures"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert re.search(rf"^\s+{re.escape(metric)}\s+\S+\s+{unit}$", out,
                         re.M), metric
    serving = [v["value"] for k, v in result["metrics"].items()
               if k.startswith("serving.")]
    assert any(serving) == (name == "serve_diurnal")
