"""Kernel instances never share state, so back-to-back runs repeat.

Regression tests for the per-instance ownership rules: perf counters,
timer-cancellation accounting, the debug flag, and
``run_until_complete`` deadlines must all be scoped to one
:class:`Kernel` — two scenarios back-to-back in one process start from
zero each time. Benchmark iterations and the test suite build many
kernels in one process and rely on this.
"""

import pytest

from repro.bench import bench_manifest, build_platform
from repro.sim import Kernel, SimError


def run_small_scenario():
    """One tiny end-to-end platform run; returns its kernel counters."""
    platform = build_platform("k80", gpus_per_node=4, gpu_nodes=2, seed=7)
    client = platform.client("iso")
    manifest = bench_manifest("resnet50", "tensorflow", 2, "k80", steps=10)

    def drive():
        job_id = yield from client.submit(manifest)
        return (yield from client.wait_for_status(job_id, timeout=100_000))

    doc = platform.run_process(drive(), limit=500_000)
    platform.run_for(10.0)
    assert doc["status"] == "COMPLETED"
    kernel = platform.kernel
    return {
        "events_processed": kernel.events_processed,
        "timers_cancelled": kernel.timers_cancelled,
        "dead_entries_skipped": kernel.dead_entries_skipped,
        "dead_entries_pending": kernel.dead_entries_pending,
        "now": round(kernel.now, 9),
    }


def test_back_to_back_scenarios_start_from_clean_counters():
    first = run_small_scenario()
    second = run_small_scenario()
    # The fast path cancels timers constantly; if any accounting leaked
    # across instances the second run's counters could not match the
    # first run of the identical scenario exactly.
    assert first["timers_cancelled"] > 0
    assert second == first


def test_fresh_kernel_counters_are_zero():
    kernel = Kernel()
    kernel.sleep(1.0).cancel()
    kernel.run()
    assert kernel.timers_cancelled == 1
    assert kernel.dead_entries_skipped == 1
    fresh = Kernel()
    assert fresh.events_processed == 0
    assert fresh.timers_cancelled == 0
    assert fresh.dead_entries_skipped == 0
    assert fresh.dead_entries_pending == 0


def test_cancel_accounts_to_the_owning_kernel_only():
    k1, k2 = Kernel(), Kernel()
    k1.sleep(1.0)
    timer = k1.sleep(2.0)
    k2.sleep(1.0)
    timer.cancel()
    assert (k1.timers_cancelled, k2.timers_cancelled) == (1, 0)
    assert (k1.dead_entries_pending, k2.dead_entries_pending) == (1, 0)
    k1.run()
    k2.run()
    assert (k1.dead_entries_skipped, k2.dead_entries_skipped) == (1, 0)
    assert k1.dead_entries_pending == 0
    assert k2.events_processed > 0


def test_debug_flag_is_per_instance():
    noisy = Kernel(debug=True)
    quiet = Kernel()
    assert noisy.debug is True
    assert quiet.debug is False
    quiet.debug = True
    assert Kernel().debug is False  # no class-level leakage
    assert "debug" not in vars(type(noisy))


def test_run_until_complete_limit_measured_from_call_time():
    kernel = Kernel()
    kernel.run(until=100.0)

    def napper(duration):
        yield kernel.sleep(duration)
        return kernel.now

    # finishing exactly at the deadline is within the limit
    assert kernel.run_until_complete(kernel.spawn(napper(5.0)),
                                     limit=5.0) == 105.0
    with pytest.raises(SimError, match="did not finish within"):
        kernel.run_until_complete(kernel.spawn(napper(6.0)), limit=5.0)


def test_run_until_complete_deadlock_names_the_process():
    kernel = Kernel()

    def waiter():
        yield kernel.event()  # never triggered

    with pytest.raises(SimError, match="deadlock.*waiter"):
        kernel.run_until_complete(kernel.spawn(waiter(), name="waiter"))
