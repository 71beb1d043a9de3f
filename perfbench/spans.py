"""In-memory spans around the public entry points of each layer.

The traced run patches the layer boundaries listed in :func:`install`
with thin wrappers that record ``(name, start, end, parent)`` spans in
memory; nothing under ``src/`` knows it is being watched.  A layer's
self time is its span's duration minus the time its direct child spans
cover (children of one thread never overlap, so that is a plain sum).

Wrappers must be installed before the objects that bind them are
built: ``ExperimentService`` captures ``self._execute`` at construction.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: Name of the span every bookkeeping hook runs under, so hook cost is
#: subtracted from the layer it sits in instead of inflating it.
HOOK = "bench.hook"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Handle:
    """What :meth:`SpanRecorder.span` yields; holds the span once closed."""

    span: "Span | None" = None


class SpanRecorder:
    """Collects spans from any thread; per-thread stacks give parents."""

    def __init__(self):
        self.spans: "list[Span]" = []
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self.samples: "defaultdict[str, list]" = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: "list[tuple[object, str, object]]" = []
        # Service jobs run the engine on two threads at once.
        self._counts_lock = threading.Lock()

    def clear(self) -> None:
        """Forget what was recorded (e.g. during a warm-up call)."""
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()

    def add(self, key: str, amount: float = 1) -> None:
        with self._counts_lock:
            self.counts[key] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        handle = _Handle()
        start = time.perf_counter()
        try:
            yield handle
        finally:
            end = time.perf_counter()
            stack.pop()
            handle.span = Span(span_id, name, start, end, parent)
            self.spans.append(handle.span)

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, *, on_call=None, on_return=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(recorder, args, kwargs)`` runs before the span and
        ``on_return(recorder, result, args, span)`` after it, both under
        a :data:`HOOK` span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                with recorder.span(HOOK):
                    on_call(recorder, args, kwargs)
            with recorder.span(name) as handle:
                result = original(*args, **kwargs)
            if on_return is not None:
                with recorder.span(HOOK):
                    on_return(recorder, result, args, handle.span)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def totals(self) -> "SpanTotals":
        return SpanTotals(self.spans)


class SpanTotals:
    """Inclusive and self times per span name."""

    def __init__(self, spans: "list[Span]"):
        self._spans = spans
        self._by_id = {span.id: span for span in spans}
        self._child_time: "defaultdict[int, float]" = defaultdict(float)
        for span in spans:
            if span.parent:
                self._child_time[span.parent] += span.duration

    def has_ancestor(self, span: Span, names: "set[str]") -> bool:
        parent = self._by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = self._by_id.get(parent.parent)
        return False

    def inclusive(self, name: str, within: "str | None" = None) -> float:
        """Summed duration of the outermost ``name`` spans (optionally
        only those nested under a ``within`` span)."""
        total = 0.0
        for span in self._spans:
            if span.name != name or self.has_ancestor(span, {name}):
                continue
            if within is not None and not self.has_ancestor(span, {within}):
                continue
            total += span.duration
        return total

    def self_time(self, name: str) -> float:
        return sum(
            span.duration - self._child_time[span.id]
            for span in self._spans
            if span.name == name
        )

    def durations(self, name: str) -> "list[float]":
        return [span.duration for span in self._spans if span.name == name]


# ----------------------------------------------------------------------
# the layer map
# ----------------------------------------------------------------------

def _count_sparse_rows(recorder, args, kwargs) -> None:
    batch = args[1]
    recorder.add("rows_dirty", batch.n_pairs)
    recorder.add("rows_total", batch.n_trials * batch.array_rows)


def _count_dense_rows(recorder, args, kwargs) -> None:
    masks = args[1]
    recorder.add("rows_dirty", int(masks.any(axis=-1).sum()))
    recorder.add("rows_total", masks.shape[0] * masks.shape[1])


def _count_blocks(recorder, result, args, span) -> None:
    stats = result[-1]
    recorder.add("blocks_sparse", stats["sparse_blocks"])
    recorder.add("blocks_dense", stats["dense_blocks"] + stats["densified_blocks"])


def _record_map(recorder, result, args, span) -> None:
    executor, chunks = args[0], len(result)
    # Engine and perf chunks both return a tuple ending in a stats dict.
    longest = max((outcome[-1]["elapsed"] for outcome in result), default=0.0)
    recorder.samples["executor.maps"].append(
        {
            "span": span,
            "chunks": chunks,
            "parallel": executor.workers > 1 and chunks > 1,
            "longest_chunk": longest,
        }
    )


def _record_cache_load(recorder, result, args, span) -> None:
    recorder.add("cache.hits" if result is not None else "cache.misses")


def _record_cache_store(recorder, result, args, span) -> None:
    recorder.add("cache.bytes_written", result.stat().st_size)


def _record_execute(recorder, result, args, span) -> None:
    recorder.samples["service.execute"].append((args[1].id, span.duration))


def _record_put(recorder, result, args, span) -> None:
    recorder.samples["store.put"].append((result, span.duration))


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.engine as engine
    import repro.perf as perf
    from repro.api.session import Session
    from repro.engine import aggregate, batch, cache, executor, packed, runner
    from repro.obs.recorder import RunRecorder
    from repro.perf import backend, kernel
    from repro.scenarios import base, models
    from repro.service.app import ExperimentService
    from repro.service.store import ResultStore

    p = recorder.patch
    # api
    p(Session, "run", "api.session_run")
    p(RunRecorder, "summary", "obs.summary")
    # engine front doors (callers import them from the package at call time)
    p(engine, "run_experiment", "engine.run")
    p(perf, "run_performance_grid", "perf.grid")
    # scenarios: every sampling entry the runner reaches
    for attr in ("_sample_sparse_block", "_sample_weighted_sparse_block", "_sample_weighted_block"):
        p(runner, attr, "scenarios.sample")
    p(base.ScenarioBase, "sample_block", "scenarios.sample")
    p(models.CompositeScenario, "sample_block", "scenarios.sample")
    # engine.runner dispatch
    p(runner, "_run_trial_range", "engine.runner", on_return=_count_blocks)
    # engine.packed: sparse decode and recovery
    p(packed, "pack_rows", "engine.pack")
    p(packed.PackedParityDecoder, "decode_packed", "engine.decode_packed")
    p(packed.PackedSecdedDecoder, "decode_packed", "engine.decode_packed")
    p(runner, "run_recovery_batch_sparse", "engine.recover_sparse", on_call=_count_sparse_rows)
    # engine.batch: dense decode and recovery
    p(batch.ParityVectorDecoder, "decode", "engine.decode_dense")
    p(batch.SecdedVectorDecoder, "decode", "engine.decode_dense")
    p(runner, "run_recovery_batch", "engine.recover_dense", on_call=_count_dense_rows)
    # engine.aggregate
    p(aggregate.StreamingAggregator, "update", "engine.fold")
    p(runner, "_merge_outcomes", "engine.fold")
    # engine.executor and engine.cache
    p(executor.SharedExecutor, "map", "executor.map", on_return=_record_map)
    p(cache.ResultCache, "load", "cache.load", on_return=_record_cache_load)
    p(cache.ResultCache, "store", "cache.store", on_return=_record_cache_store)
    # perf: arrivals, bank draws, ports, steal recursion, bank kernel
    p(backend, "sample_arrivals", "perf.arrivals")
    p(backend, "sample_bank_accesses", "perf.bank_draws")
    p(backend, "evaluate_trials", "perf.evaluate")
    p(kernel, "port_read_delays", "perf.ports")
    p(kernel, "steal_port_recursion", "perf.steal")
    # service
    p(ExperimentService, "submit", "service.admit")
    p(ExperimentService, "_execute", "service.execute", on_return=_record_execute)
    p(ResultStore, "put", "store.put", on_return=_record_put)
    p(ResultStore, "get", "store.get")


_ENGINE_STAGES_INCLUSIVE = (
    "scenarios.sample",
    "engine.pack",
    "engine.decode_packed",
    "engine.decode_dense",
    "engine.fold",
)
_ENGINE_STAGES_SELF = ("engine.recover_sparse", "engine.recover_dense")


def engine_metrics(recorder: SpanRecorder) -> dict:
    """Engine, scenario, executor, cache and api figures from one pass."""
    t = recorder.totals()
    c = recorder.counts
    stages = {name: t.inclusive(name) for name in _ENGINE_STAGES_INCLUSIVE}
    stages.update({name: t.self_time(name) for name in _ENGINE_STAGES_SELF})
    engine_total = t.inclusive("engine.run")
    hooks = t.inclusive(HOOK, within="engine.run")
    maps = recorder.samples["executor.maps"]
    parallel_overhead = sum(
        m["span"].duration - m["longest_chunk"] for m in maps if m["parallel"]
    )
    rows_total = c["rows_total"]
    return {
        "scenarios.sample_s": stages["scenarios.sample"],
        "scenarios.dirty_row_frac": c["rows_dirty"] / rows_total if rows_total else 0.0,
        "engine.blocks_sparse": int(c["blocks_sparse"]),
        "engine.blocks_dense": int(c["blocks_dense"]),
        "engine.pack_s": stages["engine.pack"],
        "engine.decode_packed_s": stages["engine.decode_packed"],
        "engine.recover_sparse_s": stages["engine.recover_sparse"],
        "engine.decode_dense_s": stages["engine.decode_dense"],
        "engine.recover_dense_s": stages["engine.recover_dense"],
        "engine.fold_s": stages["engine.fold"],
        "engine.unattributed_s": (
            engine_total - sum(stages.values()) - hooks if engine_total else 0.0
        ),
        "executor.chunks": int(sum(m["chunks"] for m in maps)),
        "executor.map_s": sum(m["span"].duration for m in maps),
        "executor.fanout_overhead_s": parallel_overhead,
        "cache.hits": int(c["cache.hits"]),
        "cache.misses": int(c["cache.misses"]),
        "cache.load_s": t.inclusive("cache.load"),
        "cache.store_s": t.inclusive("cache.store"),
        "cache.bytes_written": int(c["cache.bytes_written"]),
        "api.session_overhead_s": (
            t.inclusive("api.session_run")
            - t.inclusive("engine.run", within="api.session_run")
            - t.inclusive("perf.grid", within="api.session_run")
        ),
        "obs.summary_s": t.inclusive("obs.summary"),
    }


def perf_metrics(recorder: SpanRecorder) -> dict:
    """Perf-model stage times (from a pass whose kernels ran in-process)."""
    t = recorder.totals()
    return {
        "perf.arrivals_s": t.inclusive("perf.arrivals"),
        "perf.bank_draws_s": t.inclusive("perf.bank_draws"),
        "perf.ports_s": t.inclusive("perf.ports"),
        "perf.steal_s": t.inclusive("perf.steal"),
        "perf.banks_s": t.self_time("perf.evaluate"),
    }


def grid_chunk_counts(recorder: SpanRecorder) -> "list[int]":
    """Chunks of every executor map issued from inside a perf grid."""
    t = recorder.totals()
    return [
        m["chunks"]
        for m in recorder.samples["executor.maps"]
        if t.has_ancestor(m["span"], {"perf.grid"})
    ]
