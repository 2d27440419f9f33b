"""Layer spans for the traced run, installed from outside the program.

The traced run wraps the public entry points of each layer (class
attributes, restored afterwards) and records:

* for a synchronous call, a host-time span — name, start, end, parent
  span and the id the call carries (a job id, key, path or model id) —
  from which each layer's *self* time is its span time minus the time
  of the spans nested inside it;
* for a call that returns a process generator, the count and the
  simulated time from the first resume to its return (retries and
  waits included), with no host span: its body runs whenever the
  kernel resumes it, where an outside wrapper cannot see it.

Wrappers only read clocks and arguments, so the simulated timeline of
a traced run is the untraced one (the run checks the digest).
"""

import gzip
import time
import types
from array import array
from contextlib import contextmanager

from repro.cluster.apiserver import ApiServer
from repro.cluster.scheduler import Scheduler
from repro.core.events import EventRecorder
from repro.core.manifest import TrainingManifest
from repro.docstore.collection import Collection
from repro.docstore.service import MongoClient
from repro.grpcnet.client import Client
from repro.grpcnet.network import Network
from repro.grpcnet.server import Server
from repro.monitoring.alerts import AlertEngine
from repro.monitoring.scraper import MetricsScraper
from repro.nfs.server import Mount
from repro.raftkv.client import EtcdClient
from repro.raftkv.statemachine import KvStateMachine
from repro.serving.runtime import ServingRuntime
from repro.sim.metrics import MetricsRegistry, _Family, _HistogramChild
from repro.sim.reconciler import WorkQueue
from repro.sim.timeseries import TimeSeries, TimeSeriesStore

# (layer, class, public methods) — host spans around synchronous calls.
SPAN_TARGETS = (
    ("core", EventRecorder, ("emit_event", "drain_dirty", "events")),
    ("core", TrainingManifest, ("from_dict", "to_dict")),
    ("docstore", Collection, (
        "insert_one", "insert_many", "update_one", "update_many",
        "replace_one", "find_one_and_update", "delete_one", "delete_many",
        "find_one", "find", "count_documents", "aggregate", "distinct")),
    ("nfs", Mount, (
        "subscribe", "mkdir", "listdir", "is_dir", "write_file",
        "append_line", "read_file", "read_from", "exists", "size", "mtime",
        "delete", "walk")),
    ("grpcnet", Network, ("call",)),
    ("grpcnet", Server, ("dispatch",)),
    ("raftkv", KvStateMachine, ("apply",)),
    ("cluster.apiserver", ApiServer, (
        "create", "get", "get_or_none", "list", "update", "delete", "exists",
        "watch", "unwatch", "record_event")),
    ("cluster.scheduler", Scheduler, ("schedule_once",)),
    ("sim.reconciler", WorkQueue, ("add", "add_after", "requeue", "get")),
    ("sim.timeseries", TimeSeries, (
        "add", "mark_stale", "latest_value", "window", "values")),
    ("sim.timeseries", TimeSeriesStore, (
        "add", "mark_stale", "remove", "get", "series")),
    ("sim.metrics", MetricsRegistry, ("names", "get", "snapshot")),
    ("sim.metrics", _Family, ("children",)),
    ("sim.metrics", _HistogramChild, ("percentile", "bucket_percentile")),
    ("monitoring.scrape", MetricsScraper, ("scrape_once",)),
    ("monitoring.alert_eval", AlertEngine, ("evaluate_once",)),
    ("serving", ServingRuntime, (
        "dispatch", "register_replica", "deregister_replica", "take_batch",
        "complete", "stats")),
)

# (layer, class, public methods) — generator APIs timed in simulated time.
WAIT_TARGETS = (
    ("grpcnet.client", Client, ("call",)),
    ("raftkv.client", EtcdClient, (
        "put", "delete", "delete_prefix", "cas", "lease_grant",
        "lease_keepalive", "lease_revoke", "get", "get_range")),
    ("docstore.client", MongoClient, (
        "insert_one", "find_one", "find", "update_one", "find_one_and_update",
        "delete_many", "count", "aggregate")),
)

# Self-time layers, in report order; a target's layer is the longest of
# these that its label ("layer.sub:Class.method") starts with.
LAYERS = ("core", "docstore", "nfs", "grpcnet", "raftkv", "cluster",
          "sim.reconciler", "sim.timeseries", "sim.metrics", "monitoring",
          "serving")


def layer_of(label):
    name = label.split(":", 1)[0]
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise KeyError(label)


def _call_key(args):
    """The id a call carries, if any: the first string argument or a
    ``job_id`` in a query document."""
    for arg in args[1:3]:
        if isinstance(arg, str):
            return arg
        if isinstance(arg, dict):
            job = arg.get("job_id")
            if isinstance(job, str):
                return job
    return None


class SpanRecorder:
    """In-memory span store with online self-time accounting.

    ``clock`` is the host clock (``time.perf_counter`` by default);
    ``sim_clock`` returns simulated time for the generator waits.
    """

    def __init__(self, clock=time.perf_counter, sim_clock=None, after=None):
        self.clock = clock
        self.sim_clock = sim_clock
        # label -> callable(args, result), run after the span closes
        self.after = after or {}
        self.labels = []  # label id -> "layer.sub:Class.method"
        self._label_ids = {}
        self.label_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("l")
        self.keys = []
        self.calls = {}  # label id -> count
        self.self_s = {}  # label id -> host self seconds
        self.top_level_s = 0.0  # host time covered by root spans
        self.waits = {}  # label -> list of simulated durations
        self._stack = []  # [span index, seconds covered by children]

    def label_id(self, label):
        ident = self._label_ids.get(label)
        if ident is None:
            ident = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.calls[ident] = 0
            self.self_s[ident] = 0.0
        return ident

    def span(self, ident, original, args, kwargs):
        stack = self._stack
        index = len(self.start_col)
        self.label_col.append(ident)
        self.parent_col.append(stack[-1][0] if stack else -1)
        self.keys.append(_call_key(args))
        frame = [index, 0.0]
        stack.append(frame)
        start = self.clock()
        self.start_col.append(start)
        self.end_col.append(start)
        try:
            result = original(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.end_col[index] = end
            duration = end - start
            self.calls[ident] += 1
            self.self_s[ident] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            else:
                self.top_level_s += duration
        hook = self.after.get(self.labels[ident])
        if hook is not None:
            hook(args, result)
        return result

    def timed(self, label, generator):
        """Wrap a process generator, timing it on the simulated clock."""
        sim_clock = self.sim_clock
        start = sim_clock()
        result = yield from generator
        self.waits.setdefault(label, []).append(sim_clock() - start)
        return result

    def self_by_layer(self):
        out = {layer: 0.0 for layer in LAYERS}
        for ident, seconds in self.self_s.items():
            out[layer_of(self.labels[ident])] += seconds
        return out

    def calls_of(self, prefix):
        return sum(count for ident, count in self.calls.items()
                   if self.labels[ident].startswith(prefix))

    def self_of(self, prefix):
        return sum(seconds for ident, seconds in self.self_s.items()
                   if self.labels[ident].startswith(prefix))

    def waits_of(self, prefix):
        return [d for label, samples in self.waits.items()
                if label.startswith(prefix) for d in samples]

    def write(self, path):
        """Spans as gzipped TSV: label, start, end, parent, key."""
        base = self.start_col[0] if self.start_col else 0.0
        labels = self.labels
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tlabel\tstart_s\tend_s\tparent\tkey\n")
            out.writelines(
                f"{i}\t{labels[ident]}\t{start - base:.9f}\t{end - base:.9f}"
                f"\t{parent}\t{'' if key is None else key}\n"
                for i, (ident, start, end, parent, key) in enumerate(zip(
                    self.label_col, self.start_col, self.end_col,
                    self.parent_col, self.keys)))


def _span_wrapper(recorder, ident, original):
    def wrapper(*args, **kwargs):
        return recorder.span(ident, original, args, kwargs)

    wrapper.__wrapped__ = original
    return wrapper


def _wait_wrapper(recorder, label, original):
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if isinstance(result, types.GeneratorType):
            return recorder.timed(label, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


@contextmanager
def installed(recorder):
    """Wrap every target for the duration of the block."""
    patched = []
    try:
        for layer, owner, methods in SPAN_TARGETS:
            for method in methods:
                original = owner.__dict__[method]
                ident = recorder.label_id(f"{layer}:{owner.__name__}.{method}")
                if isinstance(original, classmethod):
                    wrapped = classmethod(_span_wrapper(
                        recorder, ident, original.__func__))
                else:
                    wrapped = _span_wrapper(recorder, ident, original)
                setattr(owner, method, wrapped)
                patched.append((owner, method, original))
        for layer, owner, methods in WAIT_TARGETS:
            for method in methods:
                original = owner.__dict__[method]
                setattr(owner, method, _wait_wrapper(
                    recorder, f"{layer}:{owner.__name__}.{method}", original))
                patched.append((owner, method, original))
        yield recorder
    finally:
        for owner, method, original in reversed(patched):
            setattr(owner, method, original)
