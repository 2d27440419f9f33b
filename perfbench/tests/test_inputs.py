"""Seed -> inputs: the same seed gives the same inputs, another seed
gives different ones, and every seed keeps the shape the workloads
were chosen for."""

from collections import defaultdict

import pytest

import workloads
from repro.core.manifest import TrainingManifest


@pytest.mark.parametrize("name", sorted(workloads.INPUTS))
def test_same_seed_same_inputs_other_seed_different(name):
    make = workloads.INPUTS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_job_mix_is_a_valid_burst_of_fixed_size():
    mixes = [workloads.train_burst_inputs(seed) for seed in (1, 2)]
    for mix in mixes:
        assert len(mix) == workloads.BURST_JOBS
        for _tenant, manifest in mix:
            TrainingManifest.from_dict(manifest)
    demand = [sum(m["learners"] * m["gpus_per_learner"] for _t, m in mix)
              for mix in mixes]
    # Every seed asks for the same GPUs, more than the cluster has.
    assert demand[0] == demand[1] > workloads.BURST_GPU_NODES * 4
    models = [[m["model"] for _t, m in mix] for mix in mixes]
    assert models[0] != models[1]


def test_crash_schedule_spaces_each_component():
    manifests, schedule = workloads.crash_recovery_inputs(3)
    assert len(manifests) == workloads.CRASH_JOBS
    times = defaultdict(list)
    for offset, component, job in schedule:
        assert 0 <= offset < (workloads.CRASH_SLOT
                              * workloads.CRASHES_PER_COMPONENT)
        assert 0 <= job < workloads.CRASH_JOBS
        times[component].append(offset)
    assert sorted(times) == sorted(workloads.CRASH_COMPONENTS)
    for offsets in times.values():
        assert len(offsets) == workloads.CRASHES_PER_COMPONENT
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert min(gaps) >= workloads.CRASH_SLOT - workloads.CRASH_JITTER


def test_arrivals_follow_the_diurnal_curve():
    arrivals = workloads.serve_diurnal_inputs(5)
    assert arrivals == sorted(arrivals)
    period = workloads.DIURNAL_PERIOD
    trough = sum(1 for t in arrivals if t % period < period / 8)
    peak = sum(1 for t in arrivals
               if 7 * period / 16 <= t % period < 9 * period / 16)
    assert peak > 5 * trough
