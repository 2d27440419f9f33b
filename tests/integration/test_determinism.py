"""Whole-platform determinism: one seed, one trace."""

from repro.core import timeline_digest

from .conftest import make_platform, manifest


def run_scenario(seed):
    platform = make_platform(seed=seed)
    client = platform.client("team")
    job_id, doc = platform.run_process(
        client.run_to_completion(manifest(target_steps=80)), limit=50_000
    )
    statuses = [h["status"] for h in doc["status_history"]]
    return (job_id, statuses, timeline_digest(platform, [doc]),
            platform.kernel.now)


class TestDeterminism:
    def test_same_seed_identical_run(self):
        first = run_scenario(seed=123)
        second = run_scenario(seed=123)
        assert first == second

    def test_different_seed_diverges(self):
        first = run_scenario(seed=123)
        second = run_scenario(seed=321)
        # Same outcome (COMPLETED), different micro-timing.
        assert first[1] == second[1]
        assert first[3] != second[3]

    def test_chaos_run_is_reproducible(self):
        from repro.core import ComponentCrasher

        def chaotic(seed):
            platform = make_platform(seed=seed)
            client = platform.client("team")

            def submit():
                job_id = yield from client.submit(
                    manifest(target_steps=300, checkpoint_interval=15.0))
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
            return doc["status"], round(platform.kernel.now, 6)

        assert chaotic(77) == chaotic(77)
