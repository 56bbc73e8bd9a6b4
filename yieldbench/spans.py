"""Benchmark-side layer tracing: wrappers around the program's boundaries.

Nothing inside ``src/`` is changed.  :func:`install` replaces the public
functions the program calls at each layer boundary with thin wrappers that
record a span (layer name, start, end, parent span) in an in-memory
:class:`Recorder`.  Spans are written out once, when the process ends
(forked pool workers append theirs after each top-level span, because they
are terminated rather than allowed to exit).

Times come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so
spans recorded in child processes share one clock with the runner's own
operation windows.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time

#: (object path, attribute, layer).  The object path names a module or a
#: class inside one; the wrapper replaces the attribute there.  Functions
#: imported by name into another module are wrapped where they are looked
#: up at call time.
WRAPS = (
    ("repro.soc", "benchmark_problem", "soc.problem"),
    ("repro.cli", "benchmark_problem", "soc.problem"),
    ("repro.engine.service", "structure_key", "engine.service.key"),
    ("repro.engine.service", "result_key", "engine.service.key"),
    ("repro.engine.service:SweepService", "density_sweep", "engine.service.batch"),
    ("repro.engine.service:SweepService", "evaluate_batch", "engine.service.batch"),
    ("repro.engine.service:SweepService", "gradient_batch", "engine.service.batch"),
    ("repro.core.method:YieldAnalyzer", "compile_for_truncation", "core.method.compile"),
    ("repro.core.method", "compute_grouped_order", "ordering.order"),
    ("repro.bdd.builder:CircuitBDDBuilder", "build", "bdd.build"),
    ("repro.core.method", "convert_bdd_to_mdd", "mdd.convert"),
    ("repro.engine.batch:LinearizedDiagram", "from_mdd", "engine.batch.linearize"),
    ("repro.engine.batch:LinearizedDiagram", "evaluate", "engine.batch.forward"),
    ("repro.engine.batch:LinearizedDiagram", "backward", "engine.batch.backward"),
    ("repro.engine.native", "_compile", "engine.native.compile"),
    ("repro.core.method:CompiledYield", "model_matrices", "core.method.columns"),
    ("repro.core.method", "columns_from_matrices", "core.method.columns"),
    ("repro.core.method:CompiledYield", "package_results", "core.method.package"),
    ("repro.core.method:CompiledYield", "gradients_many", "core.method.package"),
    ("repro.engine.store:StructureStore", "save", "engine.store.save"),
    ("repro.engine.store:StructureStore", "load", "engine.store.load"),
    ("repro.engine.supervise:ShardSupervisor", "dispatch", "engine.supervise.dispatch"),
    ("repro.server.app:YieldServer", "_respond", "server.request"),
)


def _attrs_for(layer, args, result):
    """Work counts recorded on a span, read from the call or its result."""
    if layer in ("engine.batch.forward", "engine.batch.backward"):
        return {"models": int(args[2] if len(args) > 2 else 0)}
    if layer == "core.method.compile":
        return {
            "robdd_nodes": int(result.coded_robdd_size),
            "romdd_nodes": int(result.romdd_size),
        }
    if layer == "engine.supervise.dispatch":
        return {"shards": len(args[1]) if len(args) > 1 else 0}
    return None


class Recorder:
    """In-memory span store for one process.

    A span is ``[layer, start, end, parent, thread, attrs]``; ``parent`` is
    the index of the enclosing span on the same thread, or ``-1``.
    """

    def __init__(self, path=None):
        self.path = path
        self.spans = []
        self.counters = {}
        self.extra = {}
        self.services = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._flush_roots = False
        #: Wrappers record only while this is set, so one process can
        #: alternate traced and untraced operations.
        self.enabled = True

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer, nested=True):
        stack = self._stack() if nested else []
        record = [layer, time.perf_counter(), None, stack[-1] if stack else -1,
                  threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        if nested:
            stack.append(index)
        return index

    def end(self, index, attrs=None, nested=True):
        with self._lock:
            record = self.spans[index]
        record[2] = time.perf_counter()
        record[5] = attrs
        if nested:
            stack = self._stack()
            if stack and stack[-1] == index:
                stack.pop()
            if not stack and self._flush_roots:
                self.flush()

    def after_fork(self):
        """Start empty in a forked child; flush after every top-level span."""
        self.spans = []
        self.counters = {}
        self.extra = {}
        self.services = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._flush_roots = True

    def flush(self):
        """Append the finished spans (and counters) as one JSON line."""
        if self.path is None:
            return
        with self._lock:
            spans, self.spans = self.spans, []
        for service in self.services:
            for name, value in service.registry.snapshot()["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
        self.services = []
        line = {"pid": os.getpid(), "spans": spans, "counters": self.counters,
                "extra": self.extra}
        self.counters = {}
        with open(os.path.join(self.path, "%d.jsonl" % os.getpid()), "a") as handle:
            handle.write(json.dumps(line) + "\n")


def _wrap(function, layer, recorder):
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            if not recorder.enabled:
                return await function(*args, **kwargs)
            # coroutines interleave on one thread, so their spans stay out
            # of the per-thread parent stack
            index = recorder.begin(layer, nested=False)
            try:
                return await function(*args, **kwargs)
            finally:
                request = args[1] if len(args) > 1 else None
                rid = getattr(request, "headers", {}).get("x-request-id")
                recorder.end(index, {"rid": rid}, nested=False)

        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        index = recorder.begin(layer)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            try:
                attrs = _attrs_for(layer, args, result)
            except AttributeError:  # the call raised: no result to read
                attrs = None
            recorder.end(index, attrs)

    return traced


def _resolve(path):
    module_name, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        owner = getattr(owner, class_name, None)
    return owner


def install(recorder):
    """Wrap every boundary in :data:`WRAPS` that this program has."""
    for path, attr, layer in WRAPS:
        owner = _resolve(path)
        if owner is None or attr not in vars(owner):
            continue
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(raw.__func__, layer, recorder)))
        else:
            setattr(owner, attr, _wrap(raw, layer, recorder))
    # the registries of every service the program creates, so the counters
    # the program keeps itself (cache hits, structures built, ITE lookups)
    # reach the layer table
    service_cls = _resolve("repro.engine.service:SweepService")
    original_init = service_cls.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        recorder.services.append(self)

    service_cls.__init__ = init


def read_dir(path):
    """Every process's span batches under ``path``: ``[(pid, spans, counters, extra)]``."""
    batches = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(path, name)) as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    batches.append((record["pid"], record["spans"],
                                    record["counters"], record.get("extra", {})))
    return batches


def self_times(spans):
    """Per-span self time: duration minus the time of its direct children.

    Children on one thread run inside their parent and one after another,
    so their durations do not overlap.
    """
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


class LayerTable:
    """Accumulates layer self times, call counts and span attributes."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}
        self.attrs = {}
        self.counters = {}

    def add_spans(self, spans, windows=None):
        """Add every span, or only those starting inside one of ``windows``."""
        for span, own in zip(spans, self_times(spans)):
            if windows is not None and not any(lo <= span[1] <= hi for lo, hi in windows):
                continue
            layer = span[0]
            self.seconds[layer] = self.seconds.get(layer, 0.0) + own
            self.calls[layer] = self.calls.get(layer, 0) + 1
            for key, value in (span[5] or {}).items():
                if isinstance(value, (int, float)):
                    slot = self.attrs.setdefault(layer, {})
                    slot[key] = slot.get(key, 0) + value

    def add_counters(self, counters):
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def attr(self, layer, key):
        return self.attrs.get(layer, {}).get(key, 0)


def root_cover(spans, start, end):
    """Seconds of ``[start, end]`` covered by this process's top-level spans."""
    covered = 0.0
    for span in spans:
        if span[3] == -1 and span[2] is not None:
            lo, hi = max(span[1], start), min(span[2], end)
            if hi > lo:
                covered += hi - lo
    return covered
