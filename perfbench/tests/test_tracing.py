import pytest

from tracing import SPAN_TARGETS, WAIT_TARGETS, SpanRecorder, installed, \
    layer_of


class FakeClock:
    """A host clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def nested_calls(recorder, clock):
    """outer (10 s) -> [inner (3 s) -> leaf (1 s)], then inner (2 s)."""
    outer, inner, leaf = (recorder.label_id(label) for label in
                          ("monitoring.scrape:scrape_once",
                           "sim.metrics:get", "sim.timeseries:add"))

    # Bodies take the receiver first, as the wrapped methods do.
    def leaf_body(_self):
        clock.now += 1.0

    def inner_body(_self, seconds, with_leaf):
        clock.now += seconds - (1.0 if with_leaf else 0.0)
        if with_leaf:
            recorder.span(leaf, leaf_body, (None,), {})

    def outer_body(_self):
        clock.now += 2.0
        recorder.span(inner, inner_body, (None, 3.0, True), {})
        clock.now += 3.0
        recorder.span(inner, inner_body, (None, 2.0, False), {})

    recorder.span(outer, outer_body, (None,), {})
    return outer, inner, leaf


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    outer, inner, leaf = nested_calls(recorder, clock)
    assert recorder.self_s[outer] == pytest.approx(10.0 - 3.0 - 2.0)
    assert recorder.self_s[inner] == pytest.approx((3.0 - 1.0) + 2.0)
    assert recorder.self_s[leaf] == pytest.approx(1.0)
    assert recorder.calls[inner] == 2
    # The self times partition the time covered by the root span.
    assert recorder.top_level_s == pytest.approx(10.0)
    assert sum(recorder.self_s.values()) == pytest.approx(10.0)
    layers = recorder.self_by_layer()
    assert layers["monitoring"] == pytest.approx(5.0)
    assert layers["sim.metrics"] == pytest.approx(4.0)
    assert layers["sim.timeseries"] == pytest.approx(1.0)


def test_spans_record_parents_and_ends():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    nested_calls(recorder, clock)
    # Spans are stored in call order: outer, inner, leaf, inner.
    assert list(recorder.parent_col) == [-1, 0, 1, 0]
    assert list(recorder.end_col) == [10.0, 5.0, 5.0, 10.0]


def test_exceptions_close_the_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    ident = recorder.label_id("docstore:find")

    def boom(_self):
        clock.now += 1.0
        raise ValueError("no")

    with pytest.raises(ValueError):
        recorder.span(ident, boom, (None,), {})
    assert recorder.self_s[ident] == 1.0
    assert recorder.top_level_s == 1.0
    assert recorder._stack == []


def test_generator_calls_are_timed_on_the_simulated_clock():
    sim = FakeClock()
    recorder = SpanRecorder(sim_clock=sim)

    def rpc():
        sim.now += 0.5
        reply = yield "sent"
        return reply * 2

    wrapped = recorder.timed("grpcnet.client:call", rpc())
    assert next(wrapped) == "sent"
    with pytest.raises(StopIteration) as stop:
        wrapped.send(21)
    assert stop.value.value == 42
    assert recorder.waits == {"grpcnet.client:call": [0.5]}


def test_installed_wraps_and_restores_every_target():
    targets = [(owner, method) for _layer, owner, methods in
               SPAN_TARGETS + WAIT_TARGETS for method in methods]
    before = {(owner, m): owner.__dict__[m] for owner, m in targets}
    with installed(SpanRecorder()):
        for owner, method in targets:
            assert owner.__dict__[method] is not before[(owner, method)]
    for owner, method in targets:
        assert owner.__dict__[method] is before[(owner, method)]


def test_every_target_has_a_layer():
    for layer, _owner, _methods in SPAN_TARGETS:
        layer_of(f"{layer}:x")
