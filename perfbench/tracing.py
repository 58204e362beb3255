"""Run-time probes and layer tracing for the deployment benchmark.

Everything here patches ``repro`` at run time, from the benchmark's own
files, and puts every patched attribute back on exit: nothing under
``src/`` knows it is being measured.

* :class:`Patches` swaps attributes and restores them.
* :class:`ServeProbe` is the only probe of an untraced run: a start and
  end timestamp (plus the returned value) on each serving call.
* :class:`Tracer` wraps the public function of every layer in
  :data:`LAYERS` and accumulates calls and self time per thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time

#: (layer, module, owners, attributes).  ``owners`` names the classes
#: whose methods are wrapped; ``None`` wraps the module attribute
#: itself.  Functions imported by value are wrapped in the module that
#: *calls* them, because that is where the caller looks them up.
LAYERS = (
    ("model", "repro.ml.mlp", ("MLPClassifier",), ("predict_proba", "partial_fit")),
    (
        "interface",
        "repro.core.interface",
        ("ModelInterface",),
        ("predict", "extend_calibration", "incremental_update"),
    ),
    ("prom", "repro.core.prom", ("PromClassifier",), ("evaluate",)),
    ("weighting.distance", "repro.core.weighting", None, ("iter_squared_distance_chunks",)),
    ("weighting.select", "repro.core.weighting", ("AdaptiveWeighting",), ("select_batch",)),
    ("pvalue.binning", "repro.core.prom", None, ("bin_subset_by_label",)),
    ("pvalue.pvalues", "repro.core.prom", None, ("pvalues_from_binning",)),
    (
        "nonconformity",
        "repro.core.nonconformity",
        ("LAC", "TopK", "APS", "RAPS"),
        ("score_all_labels",),
    ),
    ("scores", "repro.core.prom", None, ("assess_batch",)),
    ("committee", "repro.core.committee", ("ExpertCommittee",), ("decide_batch",)),
    ("triggers", "repro.experiments.runner", None, ("observe_decisions",)),
    ("incremental", "repro.experiments.runner", None, ("select_relabel_budget",)),
    ("streaming.fold", "repro.core.streaming", ("StreamingPromClassifier",), ("update",)),
    (
        "streaming.rebuild",
        "repro.core.streaming",
        ("StreamingPromClassifier",),
        ("replace_outputs",),
    ),
    (
        "sharding.route",
        "repro.core.sharding",
        ("HashShardRouter", "LabelShardRouter", "ClusterShardRouter"),
        ("route",),
    ),
    ("durability", "repro.core.durability", ("CheckpointWriter",), ("checkpoint",)),
    ("serving.predict", "repro.core.serving", ("AsyncServingLoop",), ("predict",)),
    ("serving.snapshot", "repro.core.serving", None, ("freeze_interface",)),
    ("segments.prewarm", "repro.core.segments", ("EvaluationView",), ("prewarm",)),
    ("multiproc.predict", "repro.core.multiproc", ("ProcessServingPool",), ("predict",)),
    ("multiproc.publish", "repro.core.multiproc", ("ProcessServingPool",), ("publish",)),
    ("shm.export", "repro.core.shm", ("SharedSegmentArena",), ("export",)),
)

#: layers whose public function is a generator: each ``next()`` is a span
ITERATOR_LAYERS = frozenset({"weighting.distance"})

LAYER_NAMES = tuple(layer for layer, _, _, _ in LAYERS)


class Patches:
    """Attribute swaps that are undone in reverse order on exit."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, name, make):
        """Replace ``owner.name`` with ``make(original)``."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class ServeProbe:
    """Timestamps of every serving call made by this process.

    ``calls`` holds ``(started, ended, returned)`` per call in call
    order.  Calls from a forked child process are passed straight
    through, so only the serving process is observed.
    """

    def __init__(self):
        self._pid = os.getpid()
        self.calls = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            started = time.perf_counter()
            returned = fn(*args, **kwargs)
            self.calls.append((started, time.perf_counter(), returned))
            return returned

        return probed


class _ThreadTable:
    """One thread's span stack and per-layer accumulators."""

    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.paused = False
        self.stack = []
        self.calls = {}
        self.self_s = {}


class Tracer:
    """Per-layer call counts and self time, kept per thread.

    A span's self time is its duration minus the durations of the spans
    it directly encloses *on the same thread*; the span stack is
    thread-local because folds, rebuilds, snapshots and checkpoints run
    on the maintenance thread under asynchronous serving.  Tables are
    merged at read time.
    """

    def __init__(self):
        self._pid = os.getpid()
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    def _table(self) -> _ThreadTable:
        table = getattr(self._local, "table", None)
        if table is None:
            table = _ThreadTable(threading.get_ident() == self._main)
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def span(self, layer, fn):
        """``fn`` wrapped in a span named ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            table = self._table()
            if table.paused:
                return fn(*args, **kwargs)
            table.stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                enclosed = table.stack.pop()
                if table.stack:
                    table.stack[-1] += elapsed
                table.calls[layer] = table.calls.get(layer, 0) + 1
                table.self_s[layer] = table.self_s.get(layer, 0.0) + elapsed - enclosed

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls this thread makes inside the block are not recorded."""
        table = self._table()
        table.paused = True
        try:
            yield
        finally:
            table.paused = False

    def iterator_span(self, layer, fn):
        """A generator function whose every ``next()`` is a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = self.span(layer, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every layer of :data:`LAYERS` through ``patches``."""
        for layer, module_name, owners, attributes in LAYERS:
            module = importlib.import_module(module_name)
            make = self.iterator_span if layer in ITERATOR_LAYERS else self.span
            targets = [module] if owners is None else [getattr(module, o) for o in owners]
            for owner in targets:
                for attribute in attributes:
                    patches.wrap(owner, attribute, functools.partial(make, layer))

    def totals(self):
        """``(calls, self_seconds, main_thread_self_seconds)`` merged."""
        calls = dict.fromkeys(LAYER_NAMES, 0)
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        main_s = 0.0
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, count in table.calls.items():
                calls[layer] += count
            for layer, seconds in table.self_s.items():
                self_s[layer] += seconds
                if table.is_main:
                    main_s += seconds
        return calls, self_s, main_s
