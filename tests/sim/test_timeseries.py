"""Unit tests for the bounded time-series store (scrape storage)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.timeseries import TimeSeries, TimeSeriesStore, canonical_labels


class TestTimeSeries:
    def test_add_and_values(self):
        series = TimeSeries("up")
        series.add(1.0, 1.0)
        series.add(2.0, 0.0)
        assert series.values() == [1.0, 0.0]
        assert series.latest() == (2.0, 0.0)

    def test_retention_trims_old_samples(self):
        series = TimeSeries("up", retention=10.0)
        series.add(0.0, 1.0)
        series.add(5.0, 2.0)
        series.add(20.0, 3.0)  # cutoff = 10: drops both earlier samples
        assert series.values() == [3.0]

    def test_max_samples_ring_buffer(self):
        series = TimeSeries("up", max_samples=3)
        for i in range(10):
            series.add(float(i), float(i))
        assert len(series) == 3
        assert series.values() == [7.0, 8.0, 9.0]

    def test_staleness_marker_terminates_series(self):
        series = TimeSeries("up")
        series.add(1.0, 1.0)
        series.mark_stale(2.0)
        assert series.latest_value() is None
        # Markers are invisible to history readers.
        assert series.values() == [1.0]
        assert series.window(0.0, 10.0) == [(1.0, 1.0)]

    def test_mark_stale_is_idempotent(self):
        series = TimeSeries("up")
        series.add(1.0, 1.0)
        series.mark_stale(2.0)
        series.mark_stale(3.0)
        assert len(series) == 2  # one real sample + one marker

    def test_latest_value_staleness_window(self):
        series = TimeSeries("up")
        series.add(1.0, 1.0)
        assert series.latest_value(now=2.0, staleness=5.0) == 1.0
        assert series.latest_value(now=10.0, staleness=5.0) is None

    def test_fresh_sample_after_marker_revives(self):
        series = TimeSeries("up")
        series.add(1.0, 0.0)
        series.mark_stale(2.0)
        series.add(3.0, 1.0)
        assert series.latest_value() == 1.0

    def test_window_bounds(self):
        series = TimeSeries("x")
        for t in (1.0, 2.0, 3.0, 4.0):
            series.add(t, t * 10)
        assert series.window(2.0, 3.0) == [(2.0, 20.0), (3.0, 30.0)]

    def test_add_rejects_out_of_order_sample(self):
        series = TimeSeries("x")
        series.add(2.0, 1.0)
        series.mark_stale(2.0)  # equal times are allowed
        with pytest.raises(ValueError, match="precedes"):
            series.add(1.5, 2.0)
        assert series.latest() == (2.0, None)


# Non-decreasing series: each step advances time by one of a few
# gaps (0 makes ties) and writes a value or a staleness marker.
steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
              st.one_of(st.none(), st.integers(-5, 5).map(float))),
    max_size=40)


def _bounds(times):
    """A query bound: any time around the series, or exactly a sample's."""
    around = st.floats(-5.0, (times[-1] if times else 0.0) + 5.0)
    return st.one_of(around, st.sampled_from(times)) if times else around


class TestWindowProperty:
    @settings(max_examples=300, deadline=None)
    @given(steps=steps,
           retention=st.sampled_from([0.0, 1.0, 3.0, 600.0]),
           max_samples=st.integers(1, 12),
           data=st.data())
    def test_window_matches_full_scan(self, steps, retention, max_samples,
                                      data):
        series = TimeSeries("x", retention=retention, max_samples=max_samples)
        now = 0.0
        for gap, value in steps:
            now += gap
            series.add(now, value)
        samples = list(series.samples)
        times = [t for t, _v in samples]
        for _ in range(4):
            start = data.draw(_bounds(times))
            end = data.draw(st.one_of(st.none(), st.just(start),
                                      _bounds(times)))
            expected = [(t, v) for t, v in samples
                        if v is not None and t >= start
                        and (end is None or t <= end)]
            assert series.window(start, end) == expected


class TestCanonicalLabels:
    def test_sorted_and_stringified(self):
        assert canonical_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
        assert canonical_labels([]) == ()


class TestTimeSeriesStore:
    def test_series_keyed_by_name_and_labels(self):
        store = TimeSeriesStore()
        store.add("up", {"component": "api"}, 1.0, 1.0)
        store.add("up", {"component": "lcm"}, 1.0, 1.0)
        store.add("depth", {}, 1.0, 4.0)
        assert len(store) == 3
        assert store.names() == ["depth", "up"]
        assert len(store.series("up")) == 2

    def test_label_subset_match(self):
        store = TimeSeriesStore()
        store.add("rpc", {"method": "submit", "quantile": "p99"}, 1.0, 0.5)
        store.add("rpc", {"method": "status", "quantile": "p50"}, 1.0, 0.1)
        matched = store.series("rpc", quantile="p99")
        assert len(matched) == 1
        assert matched[0].labels_dict["method"] == "submit"

    def test_get_exact_labels(self):
        store = TimeSeriesStore()
        store.add("up", {"component": "api"}, 1.0, 1.0)
        assert store.get("up", {"component": "api"}).values() == [1.0]
        assert store.get("up", {"component": "nfs"}) is None

    def test_mark_stale_missing_series_is_noop(self):
        TimeSeriesStore().mark_stale("nope", {}, 1.0)

    def test_per_name_retention_override(self):
        store = TimeSeriesStore(retention=600.0, max_samples=100)
        store.configure("up", retention=5.0, max_samples=2)
        store.add("up", {}, 0.0, 1.0)
        store.add("up", {}, 1.0, 1.0)
        store.add("up", {}, 2.0, 1.0)  # max_samples=2 evicts the first
        assert store.get("up").values() == [1.0, 1.0]
        store.add("up", {}, 20.0, 0.0)  # retention=5 evicts the rest
        assert store.get("up").values() == [0.0]
        # Other names keep the store-wide defaults.
        series = store._get_or_create("other", {})
        assert series.retention == 600.0
