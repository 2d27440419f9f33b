"""Seeded inputs and one-iteration runners for the benchmark workloads.

Inputs are generated here, from the workload seed, before the platform
exists; the platform only ever sees the generated manifests, crash
schedule and arrival times. Each runner builds a fresh platform
through the public ``repro`` API (``repro.bench.build_platform``,
``DlaasClient``, ``ComponentCrasher``, ``platform.serving.dispatch``),
runs one iteration, and returns an :class:`Outcome` holding the host
timings, the simulated results and every correctness failure.
"""

import hashlib
import math
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.bench import bench_manifest, build_platform
from repro.bench.scale_runner import guardian_latencies, timeline_digest
from repro.core import ComponentCrasher
from repro.core.errors import IllegalTransition
from repro.core.learner import workload_config_for
from repro.core.manifest import TrainingManifest
from repro.core.states import COMPLETED, PROCESSING, validate_transition
from repro.frameworks import DLAAS, FRAMEWORKS, MODEL_ZOO, step_time
from repro.sim import SimError
from repro.sim.events import FAILED

GPU_TYPE = "k80"

# train_burst: 24 jobs on 32 K80s. 24 samples put the tail at p58 with
# 10 jobs beyond it, and the mix asks for 84 GPUs, 2.6x the cluster, so
# most jobs queue for placement.
BURST_JOBS = 24
BURST_TENANTS = 4
BURST_GPU_NODES = 8
BURST_GPU_CHOICES = (1, 2, 4)
BURST_TRAIN_S = (5.0, 20.0)  # simulated training seconds per job

# crash_recovery: 6 crashes of each Fig. 4 component (30 in all, tail
# p66) against 3 long checkpointing jobs on 12 K80s; the job-level
# crashes are dealt out evenly, so every job loses the same number of
# learners and finishes at about the same time. Each component
# crashes once per CRASH_SLOT seconds, at a seeded phase plus a seeded
# jitter, so crashes of one component are at least 30 s apart (longer
# than the slowest band, Learner's 10-20 s, so each recovery belongs to
# its own crash) while crashes of different components overlap freely.
# The schedule spans the same number of slots for every seed, so every
# seed trains for the same simulated time.
CRASH_COMPONENTS = ("API", "LCM", "Guardian", "Helper", "Learner")
CRASHES_PER_COMPONENT = 6
CRASH_SLOT = 40.0
CRASH_JITTER = 10.0
CRASH_JOBS = 3
CRASH_GPU_NODES = 3
CRASH_CHECKPOINT_INTERVAL = 10.0
# Each job trains this many simulated seconds past the schedule, so
# every crash lands on a running job.
CRASH_TRAIN_MARGIN = 60.0
RECOVERY_SETTLE = 45.0  # Fig. 4's per-trial wait for re-stabilization

# serve_diurnal: one diurnal day of Poisson arrivals, 10 -> 180 -> 10
# req/s over 480 simulated seconds, against a 1..4-replica model. One
# replica saturates near 120 req/s, so the day scales up on the rise
# and down after the peak. The 100 ms p99 SLO makes the latency-driven
# autoscaler act early in the rise: with a looser SLO it waits until
# the fleet is overloaded, and the p99 becomes a matter of when a
# breach happened to be noticed. A single long day rather than several
# short ones: whether a short trough fits one more 60 s scale-down
# cooldown decides how the next day's rise goes, and so moved the p99
# by 10 % from seed to seed.
DIURNAL_BASE = 10.0
DIURNAL_PEAK = 180.0
DIURNAL_PERIOD = 480.0
SERVE_GPU_NODES = 2
SERVE_DRAIN = 30.0
SERVE_MODEL = {
    "name": "bench-model",
    "framework": "tensorflow",
    "model": "resnet50",
    "gpu_type": GPU_TYPE,
    "slo_p99": 0.1,
    "min_replicas": 1,
    "max_replicas": 4,
}

TEARDOWN_SETTLE = 30.0  # lets Guardians release GPUs after COMPLETED

# The measured phase runs in laps of this many simulated seconds, each
# timed on the host. Iterations of one seed replay the same laps, so the
# run can take each lap's median repetition (see run.py).
LAP = 5.0


@dataclass
class Outcome:
    """One iteration's results."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    laps: list = field(default_factory=list)  # host seconds per LAP
    events: int = 0
    dead_entries: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    sim: dict = field(default_factory=dict)  # name -> list of samples
    scalars: dict = field(default_factory=dict)  # name -> one number
    phases: list = field(default_factory=list)  # per-job phase split
    digest: str = ""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _rng(seed, workload):
    return random.Random(f"perfbench:{workload}:{seed}")


def _step_seconds(manifest):
    """Simulated seconds per training step, as the learner models it."""
    config = workload_config_for(TrainingManifest.from_dict(manifest))
    return step_time(config, DLAAS)


def train_burst_inputs(seed, jobs=BURST_JOBS, tenants=BURST_TENANTS):
    """``(tenant, manifest)`` per job.

    The seed shuffles a fixed mix of GPUs per learner, learner counts
    and training seconds over the jobs and draws each job's model and
    framework from the zoo. Every seed asks for the same GPUs and the
    same training time in total, so seeds differ in order and model
    but not in size; ``target_steps`` is the job's training seconds
    over its modelled step time.
    """
    rng = _rng(seed, "train_burst")
    shapes = [(BURST_GPU_CHOICES[i % len(BURST_GPU_CHOICES)],
               1 + (i // len(BURST_GPU_CHOICES)) % 2,
               BURST_TRAIN_S[0] + (BURST_TRAIN_S[1] - BURST_TRAIN_S[0])
               * i / max(1, jobs - 1))
              for i in range(jobs)]
    rng.shuffle(shapes)
    models = sorted(MODEL_ZOO)
    distributed = sorted(f for f, spec in FRAMEWORKS.items()
                         if spec.supports_multi_node)
    out = []
    for index, (gpus, learners, train_s) in enumerate(shapes):
        framework = rng.choice(distributed if learners > 1
                               else sorted(FRAMEWORKS))
        manifest = bench_manifest(rng.choice(models), framework, gpus,
                                  GPU_TYPE, steps=1, learners=learners)
        manifest["target_steps"] = max(1, round(train_s
                                                / _step_seconds(manifest)))
        manifest["name"] = f"burst-{index}"
        out.append((f"tenant-{index % tenants}", manifest))
    return out


def crash_recovery_inputs(seed, jobs=CRASH_JOBS,
                          per_component=CRASHES_PER_COMPONENT):
    """Long checkpointing manifests plus a crash schedule.

    The schedule is a sorted list of ``(offset_s, component, job)``
    with offsets relative to the moment every job is PROCESSING.
    """
    rng = _rng(seed, "crash_recovery")
    schedule = []
    for index, component in enumerate(CRASH_COMPONENTS):
        phase = rng.uniform(0.0, CRASH_SLOT - CRASH_JITTER)
        for slot in range(per_component):
            at = phase + slot * CRASH_SLOT + rng.uniform(0.0, CRASH_JITTER)
            schedule.append((round(at, 3), component, (index + slot) % jobs))
    schedule.sort()
    horizon = CRASH_SLOT * (per_component + 1) + CRASH_TRAIN_MARGIN
    manifests = []
    for index in range(jobs):
        manifest = bench_manifest(rng.choice(("resnet50", "inceptionv3")),
                                  "tensorflow", 1, GPU_TYPE, steps=1)
        manifest["target_steps"] = math.ceil(horizon
                                             / _step_seconds(manifest))
        manifest["checkpoint_interval"] = CRASH_CHECKPOINT_INTERVAL
        manifest["name"] = f"longrun-{index}"
        manifests.append(manifest)
    return manifests, schedule


def diurnal_rate(t):
    phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / DIURNAL_PERIOD))
    return DIURNAL_BASE + (DIURNAL_PEAK - DIURNAL_BASE) * phase


def serve_diurnal_inputs(seed, duration=DIURNAL_PERIOD):
    """Arrival offsets of a Poisson process whose rate follows
    :func:`diurnal_rate`, drawn by thinning at the peak rate."""
    rng = _rng(seed, "serve_diurnal")
    arrivals = []
    t = 0.0
    while True:
        t += rng.expovariate(DIURNAL_PEAK)
        if t >= duration:
            return arrivals
        if rng.random() * DIURNAL_PEAK < diurnal_rate(t):
            arrivals.append(t)


INPUTS = {
    "train_burst": train_burst_inputs,
    "crash_recovery": crash_recovery_inputs,
    "serve_diurnal": serve_diurnal_inputs,
}


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def fail(outcome, message, count=1):
    outcome.failures.append(message)
    outcome.failed += count


def check_job(outcome, job_id, doc):
    """COMPLETED exactly once, and every history step a legal move."""
    history = doc["status_history"]
    completions = sum(1 for h in history if h["status"] == COMPLETED)
    if doc["status"] != COMPLETED or completions != 1:
        fail(outcome, f"{job_id}: ended {doc['status']} with {completions} "
                      "COMPLETED entries")
        return False
    for before, after in zip(history, history[1:]):
        try:
            validate_transition(before["status"], after["status"])
        except IllegalTransition as exc:
            fail(outcome, f"{job_id}: {exc}")
            return False
    return True


def check_gpus_released(outcome, platform):
    allocated = platform.k8s.capacity_summary()["gpus_allocated"]
    if allocated:
        fail(outcome, f"{allocated} GPUs still allocated after the drain")


def job_phases(submitted_at, doc):
    """Split submit -> first PROCESSING into time per status.

    ``api_ack`` is submit call -> QUEUED record; each later phase is the
    total time spent in that status before the first PROCESSING, so a
    rollback to DEPLOYING adds to ``deploying``. The phases sum to
    ``submit_to_running``, which is None if the job never ran.
    """
    history = doc["status_history"]
    phases = {"api_ack": history[0]["time"] - submitted_at, "queued": 0.0,
              "deploying": 0.0, "downloading": 0.0}
    for entry, following in zip(history, history[1:]):
        key = entry["status"].lower()
        phases[key] = phases.get(key, 0.0) + following["time"] - entry["time"]
        if following["status"] == PROCESSING:
            return phases, following["time"] - submitted_at
    return phases, None


def _untraced(_platform):
    return nullcontext()


@contextmanager
def measured(outcome, platform, measure):
    """Time the measured phase (host wall, kernel events) of an
    iteration inside ``measure(platform)``, e.g. the traced run's
    wrappers."""
    kernel = platform.kernel
    events, dead = kernel.events_processed, kernel.dead_entries_skipped
    with measure(platform):
        start = time.perf_counter()
        yield
        outcome.wall_s = time.perf_counter() - start
    outcome.events = kernel.events_processed - events
    outcome.dead_entries = kernel.dead_entries_skipped - dead


def _lap(outcome, kernel, until):
    start = time.perf_counter()
    kernel.run(until=until)
    outcome.laps.append(time.perf_counter() - start)


def run_laps(outcome, platform, generator, limit):
    """Run ``generator`` as a process to its end, in timed laps; the
    clock stops at the end of the lap in which it finished."""
    kernel = platform.kernel
    process = kernel.spawn(generator)
    deadline = kernel.now + limit
    while not process.triggered:
        if kernel.now >= deadline:
            raise SimError(f"workload did not finish within {limit}s")
        _lap(outcome, kernel, kernel.now + LAP)
    if process.state == FAILED:
        raise process.exception
    return process.value


def settle_laps(outcome, platform, seconds):
    kernel = platform.kernel
    end = kernel.now + seconds
    while kernel.now < end:
        _lap(outcome, kernel, min(end, kernel.now + LAP))


def seal(outcome, platform, docs):
    """Fingerprint the simulated results: the repository's timeline
    digest plus every simulated sample this benchmark reports."""
    fingerprint = repr(sorted(
        (name, [round(v, 9) for v in values])
        for name, values in outcome.sim.items()))
    outcome.digest = hashlib.sha256(
        (timeline_digest(platform, docs) + fingerprint).encode()).hexdigest()
    return outcome


# ---------------------------------------------------------------------------
# Runners: (inputs, seed, measure=..., setup_only=False) -> Outcome
# ---------------------------------------------------------------------------


def run_train_burst(inputs, seed, measure=_untraced, setup_only=False):
    outcome = Outcome()
    t0 = time.perf_counter()
    platform = build_platform(GPU_TYPE, gpus_per_node=4, seed=seed,
                              gpu_nodes=BURST_GPU_NODES)
    clients = {tenant: platform.client(tenant)
               for tenant in sorted({t for t, _m in inputs})}
    outcome.setup_s = time.perf_counter() - t0
    if setup_only:
        return outcome
    kernel = platform.kernel
    submitted = {}

    def tenant_loop(tenant):
        client = clients[tenant]
        ids = []
        for owner, manifest in inputs:
            if owner == tenant:
                at = kernel.now
                job_id = yield from client.submit(manifest)
                submitted[job_id] = at
                ids.append(job_id)
        docs = []
        for job_id in ids:
            docs.append((job_id, (yield from client.wait_for_status(
                job_id, timeout=100_000))))
        return docs

    def drive():
        loops = [kernel.spawn(tenant_loop(tenant)) for tenant in clients]
        yield kernel.all_of(loops)
        return sorted(pair for loop in loops for pair in loop.value)

    with measured(outcome, platform, measure):
        pairs = run_laps(outcome, platform, drive(), limit=200_000)
        settle_laps(outcome, platform, TEARDOWN_SETTLE)

    outcome.attempted = len(inputs)
    s2r, deploy = [], []
    for job_id, doc in pairs:
        if check_job(outcome, job_id, doc):
            phases, total = job_phases(submitted[job_id], doc)
            s2r.append(total)
            deploy.append(phases["api_ack"] + phases["queued"]
                          + phases["deploying"])
            outcome.phases.append((job_id, total, phases))
    check_gpus_released(outcome, platform)
    completed_at = [h["time"] for _job, doc in pairs
                    for h in doc["status_history"] if h["status"] == COMPLETED]
    outcome.sim["submit_to_running_s"] = s2r
    outcome.sim["deploy_s"] = deploy
    outcome.sim["guardian_start_s"] = guardian_latencies(platform)
    outcome.scalars["makespan_s"] = (max(completed_at)
                                     - min(submitted.values()))
    return seal(outcome, platform, [doc for _job, doc in pairs])


_CRASH_TARGETS = {
    # label -> (crash call, tracer component, match recovery on the job?)
    "API": (lambda c, job: c.crash_api(), "api", False),
    "LCM": (lambda c, job: c.crash_lcm(), "lcm", False),
    "Guardian": (lambda c, job: c.crash_guardian(job), "guardian", True),
    "Helper": (lambda c, job: c.crash_helper(job), "controller", True),
    "Learner": (lambda c, job: c.crash_learner(job), "learner-0", True),
}


def run_crash_recovery(inputs, seed, measure=_untraced, setup_only=False):
    manifests, schedule = inputs
    outcome = Outcome()
    t0 = time.perf_counter()
    platform = build_platform(GPU_TYPE, gpus_per_node=4, seed=seed,
                              gpu_nodes=CRASH_GPU_NODES)
    client = platform.client("crash")
    crasher = ComponentCrasher(platform)
    outcome.setup_s = time.perf_counter() - t0
    if setup_only:
        return outcome
    kernel = platform.kernel
    crashes = []  # (label, when, job_id)

    def drive():
        ids = []
        for manifest in manifests:
            ids.append((yield from client.submit(manifest)))
        for job_id in ids:
            yield from client.wait_for_status(
                job_id, statuses={PROCESSING}, timeout=5_000)
        origin = kernel.now
        for offset, label, job in schedule:
            delay = origin + offset - kernel.now
            if delay > 0:
                yield kernel.sleep(delay)
            when, _target = _CRASH_TARGETS[label][0](crasher, ids[job])
            crashes.append((label, when, ids[job]))
        yield kernel.sleep(RECOVERY_SETTLE)
        docs = []
        for job_id in ids:
            docs.append((job_id, (yield from client.wait_for_status(
                job_id, timeout=100_000))))
        return docs

    with measured(outcome, platform, measure):
        pairs = run_laps(outcome, platform, drive(), limit=200_000)
        settle_laps(outcome, platform, TEARDOWN_SETTLE)

    outcome.attempted = len(manifests) + len(schedule)
    for job_id, doc in pairs:
        check_job(outcome, job_id, doc)
    check_gpus_released(outcome, platform)
    recovery = {label: [] for label in CRASH_COMPONENTS}
    for label, when, job_id in crashes:
        _call, component, by_job = _CRASH_TARGETS[label]
        match = {"job": job_id} if by_job else {}
        seconds = crasher.recovery_time(component, when, **match)
        if seconds is None:
            fail(outcome, f"{label} crash at {when:.2f}s never recovered")
        else:
            recovery[label].append(seconds)
    for label, samples in recovery.items():
        outcome.sim[f"recovery_{label.lower()}_s"] = samples
    outcome.sim["recovery_s"] = [s for samples in recovery.values()
                                 for s in samples]
    return seal(outcome, platform, [doc for _job, doc in pairs])


def run_serve_diurnal(arrivals, seed, measure=_untraced, setup_only=False):
    outcome = Outcome()
    t0 = time.perf_counter()
    platform = build_platform(GPU_TYPE, gpus_per_node=4, seed=seed,
                              gpu_nodes=SERVE_GPU_NODES, serving=True)
    client = platform.client("serve")

    def deploy():
        model_id = yield from client.create_model(dict(SERVE_MODEL))
        yield from client.wait_for_model_ready(model_id, replicas=1,
                                               timeout=300.0)
        return model_id

    model_id = platform.run_process(deploy(), limit=10_000)
    outcome.setup_s = time.perf_counter() - t0
    if setup_only:
        return outcome
    kernel = platform.kernel
    runtime = platform.serving

    def feed():
        # Each request is dispatched at its due time, so the runtime's
        # arrival-to-completion latency is timed from when it was due.
        origin = kernel.now
        for offset in arrivals:
            delay = origin + offset - kernel.now
            if delay > 0:
                yield kernel.sleep(delay)
            runtime.dispatch(model_id)

    with measured(outcome, platform, measure):
        run_laps(outcome, platform, feed(),
                 limit=2 * DIURNAL_PERIOD)
        settle_laps(outcome, platform, SERVE_DRAIN)

    stats = runtime.stats(model_id)
    outcome.attempted = len(arrivals)
    if stats["requests"] != len(arrivals):
        fail(outcome, f"dispatched {stats['requests']} of {len(arrivals)} "
                      "requests", abs(len(arrivals) - stats["requests"]))
    if stats["completed"] != stats["requests"]:
        missing = stats["requests"] - stats["completed"]
        fail(outcome, f"{missing} dispatched requests never completed",
             missing)
    latency = platform.metrics.get("serving_request_latency_seconds")
    outcome.sim["infer_s"] = list(latency.labels(model=model_id).samples)
    outcome.scalars["slo_attainment"] = runtime.slo_attainment(model_id)
    scale = platform.metrics.get("serving_scale_events_total")
    ups = scale.labels(model=model_id, direction="up").value
    downs = scale.labels(model=model_id, direction="down").value
    if not ups or not downs:
        fail(outcome, f"the diurnal day did not scale both ways "
                      f"(up {ups:g}, down {downs:g})")
    return seal(outcome, platform, [])


RUNNERS = {
    "train_burst": run_train_burst,
    "crash_recovery": run_crash_recovery,
    "serve_diurnal": run_serve_diurnal,
}
