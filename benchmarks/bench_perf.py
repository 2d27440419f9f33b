"""Wall-clock perf gate for the simulator fast path.

Runs the fixed 24-job scalability scenario (indexed docstore planner,
cancellable timers, copy-light reads) and verifies three things:

1. **Determinism**: the run reproduces the frozen timeline digest
   ``SCENARIO_DIGEST`` (the full trace-record sequence, every job's
   status history, and the final simulated clock), so no optimization
   changed the simulation.
2. **Speedup**: the run processes kernel events at >= 2x the
   wall-clock rate of the committed pre-optimization baseline
   (``SEED_BASELINE``, measured on the seed tree with the identical
   scenario).
3. **Regression gate** (``--check``): a small smoke scenario must not
   regress more than 25% against the wall time committed in
   ``BENCH_perf.json``, and must reproduce its committed digest.

Both scenarios are driven by the one job loop in
``repro.bench.scale_runner`` (single partition, single tenant).

Invoke directly for the full measurement (updates this bench's keys of
``BENCH_perf.json`` at the repo root, keeping the other benches'
sections)::

    PYTHONPATH=src python benchmarks/bench_perf.py

or as the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_perf.py --check
"""

import argparse
import json
import sys
from pathlib import Path

from repro.bench import run_scale_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_perf.json"

SCENARIO = {"jobs": 24, "seed": 2, "steps": 60, "gpus_per_node": 4,
            "gpu_nodes": 8}
SMOKE = {"jobs": 6, "seed": 2, "steps": 30, "gpus_per_node": 4,
         "gpu_nodes": 4}

# The pre-optimization tree (commit 4155122) driving the identical
# 24-job scenario on the reference machine, events counted by wrapping
# Kernel.step. This is the "before" column of EXPERIMENTS.md and the
# denominator of the speedup gate; refresh it if the scenario changes.
SEED_BASELINE = {
    "commit": "4155122",
    "wall_s": 13.53,
    "sim_s": 228.093,
    "events_processed": 938398,
    "events_per_sec": 69358.2,
    "jobs_per_sec": 1.774,
}

# The 24-job scenario's timeline digest. Both the optimized simulator
# and the unoptimized one it replaced produced it; refresh it only with
# an intended scheduling-visible change.
SCENARIO_DIGEST = "76872a66093ceba96f3106293475e62e6c0d2f0f2cb3713730c7bda76de3e6dd"

SPEEDUP_TARGET = 2.0
CHECK_TOLERANCE = 1.25  # --check fails above 125% of the committed wall

# The scale-row keys a run_scenario row reports.
ROW_KEYS = ("jobs", "completed", "wall_s", "sim_s", "events_processed",
            "events_per_sec", "jobs_per_sec", "timers_cancelled",
            "dead_entries_skipped", "dead_entry_ratio", "digest")


def run_scenario(scenario):
    """One measured run; returns wall time, rates, and the digest."""
    row = run_scale_scenario(partitions=1, tenants=1, **scenario)
    return {key: row[key] for key in ROW_KEYS}


def run_full():
    """The 24-job scenario plus the smoke; returns the result doc."""
    run = run_scenario(SCENARIO)
    smoke = run_scenario(SMOKE)
    return {
        "scenario": SCENARIO,
        "seed_baseline": SEED_BASELINE,
        "run": run,
        # vs the committed pre-optimization baseline (the gate)
        "speedup_wall": round(SEED_BASELINE["wall_s"] / run["wall_s"], 2),
        "speedup_events_per_sec": round(
            run["events_per_sec"] / SEED_BASELINE["events_per_sec"], 2),
        "smoke": {"scenario": SMOKE, "wall_s": smoke["wall_s"],
                  "events_per_sec": smoke["events_per_sec"],
                  "digest": smoke["digest"]},
    }


def assert_full(result):
    run = result["run"]
    assert run["completed"] == run["jobs"], run
    assert run["digest"] == SCENARIO_DIGEST, (
        "the simulated timeline changed: "
        f"{run['digest']} != committed {SCENARIO_DIGEST}")
    assert result["speedup_events_per_sec"] >= SPEEDUP_TARGET, (
        f"events/sec speedup {result['speedup_events_per_sec']}x over the "
        f"seed baseline is below the {SPEEDUP_TARGET}x target")
    return result


def run_check():
    """CI smoke gate: the small scenario vs the committed baseline.
    Fails when the wall regresses more than 25% or the timeline
    digest drifts."""
    if not RESULT_PATH.exists():
        print(f"error: {RESULT_PATH} missing; run the full bench first",
              file=sys.stderr)
        return 2
    committed = json.loads(RESULT_PATH.read_text())["smoke"]
    failed = False

    baseline = committed["wall_s"]
    measured = run_scenario(SMOKE)
    limit = baseline * CHECK_TOLERANCE
    status = "ok" if measured["wall_s"] <= limit else "REGRESSION"
    failed |= status != "ok"
    print(f"perf smoke: wall={measured['wall_s']}s baseline={baseline}s "
          f"limit={round(limit, 3)}s [{status}]")
    if measured["digest"] != committed["digest"]:
        print(f"perf smoke: FAIL timeline digest {measured['digest']} != "
              f"committed {committed['digest']} (rerun the full bench "
              "only after an intended scheduling-visible change)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


def test_perf_gate():
    """Benchmark-suite entry: the full run against its frozen digest."""
    result = assert_full(run_full())
    print(json.dumps({k: result[k] for k in
                      ("speedup_wall", "speedup_events_per_sec")}, indent=2))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="smoke gate against committed BENCH_perf.json")
    args = parser.parse_args(argv)
    if args.check:
        return run_check()
    result = assert_full(run_full())
    committed = (json.loads(RESULT_PATH.read_text())
                 if RESULT_PATH.exists() else {})
    committed.update(result)
    RESULT_PATH.write_text(json.dumps(committed, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"updated perf keys of {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
