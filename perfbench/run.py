"""The benchmark of the simulated DLaaS platform.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_burst --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's iteration repeatedly on fresh
platforms until ``--seconds`` of measured time is used (at least
``MIN_ITERATIONS``), checks every iteration, and reports the end-to-end
metrics. ``--trace 1`` runs one untraced and one traced iteration and
reports the per-layer metrics. A human-readable report goes to standard
output first; the last line is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``). A fuller record with the host
and every metric's spread is written to ``.perfbench/`` in the checkout.
The exit code is 0 only when every correctness check passed.
"""

import argparse
import gc
import json
import os
import platform as host_platform
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from stats import median, spread, tail

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

MIN_ITERATIONS = 4
SETUP_SAMPLES = 7

# The metrics of the last output line. Every workload reports each of
# them, and none is ever 0 (a ratio of two medians must stay defined);
# the workload-specific metrics and failed_ratio, which is 0 on a
# correct run, are in the report above it and in the result file.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "latency_p50_s",
              "latency_tail_s")

# The user-facing latency each workload is judged by: latency_p50_s and
# latency_tail_s are this metric's median and tail.
PRIMARY_LATENCY = {
    "train_burst": "deploy_s",
    "crash_recovery": "recovery_s",
    "serve_diurnal": "infer_s",
}


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the platform from "
                 f"{ROOT / 'src'}: {exc}")


def host_record():
    return {"cpus": os.cpu_count(), "python": sys.version.split()[0],
            "platform": host_platform.platform()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_iterations(workload, seed, seconds, inputs):
    """Repeat the iteration until ``seconds`` of measured time is used;
    top up the set-up samples with set-up-only builds."""
    from workloads import RUNNERS

    outcomes = []
    measured = 0.0
    while len(outcomes) < MIN_ITERATIONS or (
            measured + outcomes[-1].wall_s <= seconds):
        outcomes.append(RUNNERS[workload](inputs, seed))
        measured += outcomes[-1].wall_s
        gc.collect()
    setups = [o.setup_s for o in outcomes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(RUNNERS[workload](inputs, seed, setup_only=True).setup_s)
        gc.collect()
    return outcomes, setups


def lap_wall(outcomes):
    """Host seconds of the measured phase: the sum over laps of each
    lap's median repetition. Every iteration replays the same laps
    (same seed, same simulated work), and the noise of a shared host
    comes in bursts of a few seconds, so a per-lap median filters more
    of it than the median of whole-iteration times does; a per-lap
    minimum would instead reward the host's rare fast bursts."""
    laps = [o.laps for o in outcomes]
    if len({len(lap) for lap in laps}) != 1:
        raise ValueError("iterations of one seed ran different laps")
    return sum(median(repeats) for repeats in zip(*laps))


def digest_failures(outcomes):
    digests = {o.digest for o in outcomes}
    if len(digests) == 1:
        return []
    return [f"timeline digest differs across runs of one seed: "
            f"{sorted(d[:12] for d in digests)}"]


def end_to_end(workload, outcomes, setups, failed_ratio):
    """Every end-to-end metric of ``workload``: name -> record."""
    first = outcomes[0]
    metrics = {}

    def sim(name, value, unit="s", **extra):
        # Deterministic for a seed: every iteration gives the same value.
        metrics[name] = dict(value=value, unit=unit, clock="sim",
                             median=value, q1=value, q3=value,
                             runs=len(outcomes), **extra)

    def timing(prefix, samples):
        value, q, n = tail(samples)
        sim(f"{prefix}_p50_s", median(samples), samples=n)
        if value is not None:
            sim(f"{prefix}_tail_s", value, percentile=q, samples=n)

    metrics["wall_s"] = dict(spread([o.wall_s for o in outcomes]),
                             value=lap_wall(outcomes), unit="s",
                             clock="host")
    metrics["setup_s"] = dict(spread(setups), value=median(setups),
                              unit="s", clock="host")
    metrics["peak_rss_mb"] = dict(value=peak_rss_mb(), unit="MB",
                                  clock="host", runs=1)
    sim("failed_ratio", failed_ratio, unit="ratio")
    timing("latency", first.sim[PRIMARY_LATENCY[workload]])
    if workload == "train_burst":
        timing("deploy", first.sim["deploy_s"])
        timing("submit_to_running", first.sim["submit_to_running_s"])
        sim("makespan_s", first.scalars["makespan_s"])
    elif workload == "crash_recovery":
        from repro.bench import FIG4_PAPER
        from workloads import CRASH_COMPONENTS

        for label in CRASH_COMPONENTS:
            samples = first.sim[f"recovery_{label.lower()}_s"]
            low, high = FIG4_PAPER[label]
            value = median(samples) if samples else float("nan")
            deviation = (0.0 if low <= value <= high
                         else value - (low if value < low else high))
            sim(f"recovery_{label.lower()}_s", value, samples=len(samples),
                fig4_band=[low, high], band_deviation_s=deviation)
    else:
        timing("infer", first.sim["infer_s"])
        sim("slo_attainment", first.scalars["slo_attainment"],
            unit="ratio")
    return metrics


def registry_state(registry):
    """Counter values and histogram sample counts, per child."""
    state = {}
    for name in registry.names():
        family = registry.get(name)
        for labelvalues, child in family.children():
            state[(name, labelvalues)] = (len(child.samples)
                                          if family.kind == "histogram"
                                          else child.value)
    return state


@contextmanager
def traced(recorder, platform, window):
    from tracing import installed

    recorder.sim_clock = lambda: platform.kernel.now
    with installed(recorder):
        start = time.perf_counter()
        try:
            yield
        finally:
            window.append(time.perf_counter() - start)


def per_layer(workload, seed, inputs):
    """One untraced and one traced iteration -> per-layer metrics."""
    from tracing import LAYERS, SpanRecorder
    from workloads import RUNNERS

    plain = RUNNERS[workload](inputs, seed)
    gc.collect()
    holder = {}
    window = []

    passes = []  # pods bound by each scheduler pass

    def queue_depth(args, _result):
        family = holder["platform"].metrics.get("serving_queue_depth")
        depth = family.labels(model=args[1]).value
        holder["depth"] = max(holder.get("depth", 0.0), depth)

    recorder = SpanRecorder(after={
        "serving:ServingRuntime.dispatch": queue_depth,
        "cluster.scheduler:Scheduler.schedule_once":
            lambda _args, bound: passes.append(bound),
    })

    def measure(platform):
        holder["platform"] = platform
        holder["baseline"] = registry_state(platform.metrics)
        return traced(recorder, platform, window)

    traced_outcome = RUNNERS[workload](inputs, seed, measure=measure)
    platform = holder["platform"]
    registry = platform.metrics
    baseline = holder["baseline"]
    wall = window[0]

    def family_sum(name, **match):
        """Growth of a counter family over the measured phase."""
        family = registry.get(name)
        if family is None:
            return 0.0
        total = 0.0
        for labelvalues, child in family.children():
            labels = dict(zip(family.labelnames, labelvalues))
            if all(labels.get(k) == v for k, v in match.items()):
                total += child.value - baseline.get((name, labelvalues), 0.0)
        return total

    def family_samples(name):
        """Histogram observations made during the measured phase."""
        family = registry.get(name)
        if family is None:
            return []
        return [s for labelvalues, child in family.children()
                for s in child.samples[baseline.get((name, labelvalues), 0):]]

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    def timing(prefix, samples, tail_too=True):
        put(f"{prefix}_p50_s", median(samples) if samples else 0.0, "s")
        if tail_too:
            value = tail(samples)[0] if samples else None
            put(f"{prefix}_tail_s", value if value is not None else 0.0, "s")

    self_by_layer = recorder.self_by_layer()
    put("sim.kernel.events", traced_outcome.events, "count")
    put("sim.kernel.ns_per_event", plain.wall_s / plain.events * 1e9, "ns")
    put("sim.kernel.dead_entry_ratio",
        traced_outcome.dead_entries / traced_outcome.events, "ratio")
    put("sim.kernel.unattributed_self_s", wall - recorder.top_level_s, "s")

    adds = family_sum("workqueue_adds_total")
    put("sim.reconciler.adds", adds, "count")
    put("sim.reconciler.retry_ratio",
        family_sum("workqueue_retries_total") / adds if adds else 0.0, "ratio")
    timing("sim.reconciler.queue",
           family_samples("workqueue_queue_duration_seconds"), tail_too=False)
    put("sim.reconciler.self_s", self_by_layer["sim.reconciler"], "s")
    put("sim.timeseries.adds",
        recorder.calls_of("sim.timeseries:TimeSeries.add"), "count")
    put("sim.timeseries.self_s", self_by_layer["sim.timeseries"], "s")
    put("sim.metrics.self_s", self_by_layer["sim.metrics"], "s")

    calls = family_sum("rpc_client_calls_total")
    errors = calls - family_sum("rpc_client_calls_total", code="ok")
    put("grpcnet.calls", recorder.calls_of("grpcnet:Network.call"), "count")
    put("grpcnet.self_s", self_by_layer["grpcnet"], "s")
    timing("grpcnet.rpc", recorder.waits_of("grpcnet.client:"))
    put("grpcnet.retry_ratio", errors / calls if calls else 0.0, "ratio")
    put("grpcnet.errors", errors, "count")

    put("raftkv.ops", len(recorder.waits_of("raftkv.client:")), "count")
    timing("raftkv.op", recorder.waits_of("raftkv.client:"))
    put("raftkv.apply_calls", recorder.calls_of("raftkv:"), "count")
    put("raftkv.apply_self_s", self_by_layer["raftkv"], "s")
    put("raftkv.elections", family_sum("raft_leader_elections_total"),
        "count")

    put("docstore.ops", recorder.calls_of("docstore:"), "count")
    put("docstore.self_s", self_by_layer["docstore"], "s")
    timing("docstore.client", recorder.waits_of("docstore.client:"))

    put("cluster.apiserver_ops", recorder.calls_of("cluster.apiserver:"),
        "count")
    put("cluster.apiserver_self_s", recorder.self_of("cluster.apiserver:"),
        "s")
    put("cluster.scheduler_passes", len(passes), "count")
    put("cluster.scheduler_self_s", recorder.self_of("cluster.scheduler:"),
        "s")
    put("cluster.placed_per_pass",
        sum(passes) / len(passes) if passes else 0.0, "ratio")
    timing("cluster.placement",
           family_samples("scheduler_placement_latency_seconds"))

    phases = traced_outcome.phases
    for phase in ("api_ack", "queued", "deploying", "downloading"):
        timing(f"core.{phase}", [p[phase] for _job, _total, p in phases])
    guardian = traced_outcome.sim.get("guardian_start_s") or []
    put("core.guardian_start_p50_s", median(guardian) if guardian else 0.0,
        "s")
    put("core.self_s", self_by_layer["core"], "s")

    put("nfs.ops", recorder.calls_of("nfs:"), "count")
    put("nfs.self_s", self_by_layer["nfs"], "s")
    put("nfs.errors", family_sum("nfs_op_errors_total"), "count")

    put("objectstore.bytes",
        family_sum("objectstore_transferred_bytes_total"), "B")
    timing("objectstore.transfer",
           family_samples("objectstore_transfer_duration_seconds"),
           tail_too=False)

    put("monitoring.scrapes", recorder.calls_of("monitoring.scrape:"),
        "count")
    put("monitoring.scrape_self_s", recorder.self_of("monitoring.scrape:"),
        "s")
    put("monitoring.alert_eval_self_s",
        recorder.self_of("monitoring.alert_eval:"), "s")
    put("monitoring.alerts_fired",
        family_sum("alert_transitions_total", state="firing"), "count")

    requests = family_sum("serving_requests_total")
    put("serving.dispatches",
        recorder.calls_of("serving:ServingRuntime.dispatch"), "count")
    put("serving.self_s", self_by_layer["serving"], "s")
    put("serving.redispatch_ratio",
        family_sum("serving_redispatched_total") / requests
        if requests else 0.0, "ratio")
    put("serving.scale_ups",
        family_sum("serving_scale_events_total", direction="up"), "count")
    put("serving.scale_downs",
        family_sum("serving_scale_events_total", direction="down"), "count")
    put("serving.queue_depth_max", holder.get("depth", 0.0), "count")

    put("bench.traced_wall_s", wall, "s")
    put("bench.trace_overhead_s", wall - plain.wall_s, "s")
    put("bench.spans", len(recorder.start_col), "count")

    checks = digest_failures([plain, traced_outcome])
    covered = sum(self_by_layer.values())
    layer_sum = covered + metrics["sim.kernel.unattributed_self_s"]["value"]
    if abs(layer_sum - wall) > 0.01 * wall:
        checks.append(f"layer self times sum to {layer_sum:.3f}s, "
                      f"traced wall {wall:.3f}s")
    for job, total, split in phases:
        if abs(sum(split.values()) - total) > 1e-6:
            checks.append(f"{job}: phases sum to {sum(split.values())}, "
                          f"submit_to_running {total}")
    failures = plain.failures + traced_outcome.failures + checks
    failed = plain.failed + traced_outcome.failed + len(checks)
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{workload}-{seed}.tsv.gz")
    shares = {layer: self_by_layer[layer] / wall for layer in LAYERS}
    shares["unattributed"] = metrics["sim.kernel.unattributed_self_s"][
        "value"] / wall
    attempted = plain.attempted + traced_outcome.attempted
    return metrics, shares, failures, attempted, failed


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_end_to_end(workload, seed, metrics, host, outcomes):
    print(f"perfbench {workload} seed={seed} iterations={len(outcomes)} "
          f"events/iteration={outcomes[0].events} "
          f"digest={outcomes[0].digest[:16]}")
    print(f"host: {host['cpus']} CPUs, Python {host['python']}, "
          f"{host['platform']}")
    for name, m in metrics.items():
        extra = ""
        if m["clock"] == "host" and m["runs"] > 1:
            extra = (f"  median {_format(m['median'])} q1 {_format(m['q1'])}"
                     f" q3 {_format(m['q3'])} runs {m['runs']}")
        if "percentile" in m:
            extra += f"  p{m['percentile']} of {m['samples']} samples"
        elif "samples" in m:
            extra += f"  {m['samples']} samples"
        if "fig4_band" in m:
            low, high = m["fig4_band"]
            extra += (f"  Fig. 4 band {low:g}-{high:g} s, deviation "
                      f"{m['band_deviation_s']:+.3f} s")
        print(f"  {name:28s} {_format(m['value']):>12s} {m['unit']:5s} "
              f"[{m['clock']}]{extra}")
    if workload == "crash_recovery":
        print("  (the recovery model is validated only against the Fig. 4 "
              "bands)")


def benchmark(workload, seed, seconds, trace, inputs):
    """Run one mode on ``inputs`` and print its report; returns the
    result object of the last output line and the fuller record."""
    host = host_record()
    if trace:
        metrics, shares, failures, attempted, failed = per_layer(
            workload, seed, inputs)
        print(f"perfbench {workload} seed={seed} traced")
        print(f"host: {host['cpus']} CPUs, Python {host['python']}, "
              f"{host['platform']}")
        for name, m in metrics.items():
            print(f"  {name:36s} {_format(m['value']):>12s} {m['unit']}")
        print("  self-time share of the traced wall: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()))
        record = {"metrics": metrics, "shares": shares}
        result_metrics = metrics
    else:
        outcomes, setups = run_iterations(workload, seed, seconds, inputs)
        checks = digest_failures(outcomes)
        failures = [f for o in outcomes for f in o.failures] + checks
        failed = sum(o.failed for o in outcomes) + len(checks)
        attempted = sum(o.attempted for o in outcomes)
        metrics = end_to_end(workload, outcomes, setups, failed / attempted)
        report_end_to_end(workload, seed, metrics, host, outcomes)
        record = {"metrics": metrics, "digest": outcomes[0].digest}
        result_metrics = {name: {"value": metrics[name]["value"],
                                 "unit": metrics[name]["unit"]}
                          for name in END_TO_END}
    for failure in failures:
        print(f"  FAILED: {failure}")
    record.update(host=host, workload=workload, seed=seed, trace=trace,
                  failures=failures)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PRIMARY_LATENCY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import INPUTS

    inputs = INPUTS[args.workload](args.seed)
    result, record = benchmark(args.workload, args.seed, args.seconds,
                               args.trace, inputs)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
