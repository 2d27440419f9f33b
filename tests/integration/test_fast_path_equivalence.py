"""The fast path must be invisible: frozen timeline digests.

Timer cancellation with lazy heap deletion, AnyOf/AllOf callback
detachment, the docstore query planner and copy-elided Mongo reads are
all scheduling-visible optimizations. The digests below were produced
both with and without them and matched, event for event; pinning them
as constants keeps every later change to the simulator honest about the
*complete* timeline — every tracer record, every job's status history
with timestamps, and the final simulated clock (see
:func:`repro.core.timeline_digest`).

The chaos scenario matters most: crashes drive deadline-RPC races
(AnyOf timeout losers), Guardian recovery (the paper's Fig. 4 bands),
and fail-over retries — exactly the machinery the fast path touches.
"""

from repro.core import ComponentCrasher, timeline_digest

from .conftest import make_platform, manifest

BATCH_DIGEST = "979f4d5cbc644f37dc62d6e8fd74e295242804b3af6aa418b08f2df599af9d34"
CHAOS_DIGEST = "901fe33aaa194703b453b6e834548b2e93487b4972fcb9dd9ab576a41f2ee54f"


def run_batch(seed=11, jobs=3):
    platform = make_platform(seed=seed)
    client = platform.client("team")

    def scenario():
        ids = []
        for i in range(jobs):
            spec = manifest(target_steps=60)
            spec["name"] = f"eq-{i}"
            ids.append((yield from client.submit(spec)))
        docs = []
        for job_id in ids:
            docs.append((yield from client.wait_for_status(job_id,
                                                           timeout=20_000)))
        return docs

    docs = platform.run_process(scenario(), limit=100_000)
    platform.run_for(20.0)
    return timeline_digest(platform, docs), platform


def run_chaos(seed=29):
    """One checkpointing job through a learner crash and a Guardian
    crash — the Fig. 4 recovery bands."""
    platform = make_platform(seed=seed)
    client = platform.client("team")

    def submit():
        job_id = yield from client.submit(
            manifest(target_steps=240, checkpoint_interval=15.0))
        yield from client.wait_for_status(job_id, statuses={"PROCESSING"},
                                          timeout=2000)
        return job_id

    job_id = platform.run_process(submit(), limit=10_000)
    crasher = ComponentCrasher(platform)
    crasher.crash_learner(job_id)
    platform.run_for(30.0)
    crasher.crash_guardian(job_id)

    def finish():
        return (yield from client.wait_for_status(job_id, timeout=50_000))

    doc = platform.run_process(finish(), limit=200_000)
    platform.run_for(20.0)
    return timeline_digest(platform, [doc]), platform


class TestTimelineEquivalence:
    def test_batch_identical(self):
        digest, platform = run_batch()
        assert digest == BATCH_DIGEST
        # The run actually exercised cancellation.
        assert platform.kernel.timers_cancelled > 0

    def test_chaos_recovery_identical(self):
        digest, platform = run_chaos()
        assert digest == CHAOS_DIGEST
        assert platform.kernel.timers_cancelled > 0


class TestDeadEntryBounds:
    def test_dead_entries_bounded_under_chaos(self):
        """Lazy deletion must not let cancelled timers pile up: every
        cancelled timer is eventually popped (and counted) or still
        pending, and the pending backlog stays small relative to the
        work done."""
        _digest, platform = run_chaos()
        kernel = platform.kernel
        assert kernel.timers_cancelled > 0
        # Conservation: cancelled timers are either already skipped at
        # pop or still waiting in the heap.
        assert (kernel.dead_entries_skipped + kernel.dead_entries_pending
                == kernel.timers_cancelled)
        # The heap backlog of dead entries stays bounded — a small
        # fraction of total events, not an ever-growing tail.
        assert kernel.dead_entries_pending < 0.05 * kernel.events_processed
        assert kernel.dead_entry_ratio < 0.5
