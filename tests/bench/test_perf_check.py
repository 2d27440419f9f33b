"""``bench_perf.py``: the smoke gate (``--check``) fails on digest drift,
and the full run updates only its own keys of ``BENCH_perf.json``."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
COMMITTED_SMOKE = json.loads(
    (REPO_ROOT / "BENCH_perf.json").read_text())["smoke"]


def load_bench_perf():
    spec = importlib.util.spec_from_file_location(
        "bench_perf", REPO_ROOT / "benchmarks" / "bench_perf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("digest, expected", [
    (COMMITTED_SMOKE["digest"], 0),
    ("0" * 64, 1),
], ids=["committed-digest-passes", "drifted-digest-fails"])
def test_smoke_gate_checks_the_digest(tmp_path, monkeypatch, capsys,
                                      digest, expected):
    bench_perf = load_bench_perf()
    result_path = tmp_path / "BENCH_perf.json"
    # A generous wall limit: only the digest can fail the gate here.
    result_path.write_text(json.dumps(
        {"smoke": {"wall_s": 1000.0, "digest": digest}}))
    monkeypatch.setattr(bench_perf, "RESULT_PATH", result_path)
    assert bench_perf.run_check() == expected
    assert ("FAIL timeline digest" in capsys.readouterr().err) == bool(expected)


def test_full_run_keeps_other_benches_sections(tmp_path, monkeypatch):
    bench_perf = load_bench_perf()
    result_path = tmp_path / "BENCH_perf.json"
    foreign = {"scale": {"smoke": {"digest": "s"}}, "serving": {"x": 1},
               "gray": {"x": 2}, "consistency": {"x": 3}}
    result_path.write_text(json.dumps({**foreign, "smoke": {"wall_s": 9.0}}))
    monkeypatch.setattr(bench_perf, "RESULT_PATH", result_path)
    doc = {"smoke": {"wall_s": 1.0, "digest": "d"}}
    monkeypatch.setattr(bench_perf, "run_full", lambda: doc)
    monkeypatch.setattr(bench_perf, "assert_full", lambda result: result)
    assert bench_perf.main([]) == 0
    assert json.loads(result_path.read_text()) == {**foreign, **doc}
