"""Deterministic discrete-event simulation kernel.

This is the substrate clock for the whole reproduction: every
microservice, Kubernetes controller, Raft node and learner process runs
as a generator-based process on :class:`Kernel`, and all times reported
by benchmarks are simulated seconds.
"""

from .channels import Channel
from .errors import ChannelClosed, Interrupt, ProcessKilled, SimError, SimTimeout
from .events import AllOf, AnyOf, Event
from .faults import FaultInjector
from .kernel import Kernel
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .process import Process
from .reconciler import Reconciler, WatchSource, WorkQueue
from .timeseries import TimeSeries, TimeSeriesStore
from .tracing import (
    NULL_SPAN,
    Span,
    SpanContext,
    TraceRecord,
    Tracer,
    extract_context,
    inject_context,
    render_critical_path,
    render_span_tree,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "Counter",
    "Event",
    "FaultInjector",
    "Gauge",
    "Histogram",
    "Interrupt",
    "Kernel",
    "MetricsRegistry",
    "NULL_SPAN",
    "Process",
    "ProcessKilled",
    "Reconciler",
    "SimError",
    "SimTimeout",
    "Span",
    "SpanContext",
    "TimeSeries",
    "TimeSeriesStore",
    "TraceRecord",
    "Tracer",
    "WatchSource",
    "WorkQueue",
    "extract_context",
    "inject_context",
    "render_critical_path",
    "render_span_tree",
]
