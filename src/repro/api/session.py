"""The ``Session.run()`` facade over analytical and Monte Carlo backends.

A :class:`Session` holds everything about *how* experiments execute —
worker-process count and the on-disk result cache — so those are
configured once, not threaded through every call.  *What* to
run is entirely described by the :class:`~repro.api.spec.ExperimentSpec`
(or just an experiment name plus keyword overrides)::

    from repro.api import ExperimentSpec, Session

    session = Session(workers=4, cache_dir=".repro-cache")
    result = session.run(ExperimentSpec("fig3.coverage",
                                        backend="monte_carlo",
                                        trials=200_000, seed=2007))
    result.save_json("fig3.json")

``run`` resolves the spec's experiment in the registry, picks the
backend (``auto`` prefers analytical; Monte Carlo when ``trials`` is
set), executes the implementation with an :class:`ExperimentContext`,
and returns a serializable :class:`~repro.api.result.Result`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs import RunRecorder, Trace, current_trace, emit
from repro.obs import metrics as _metrics
from repro.obs.profile import RunProfiler

from .registry import Experiment, get_experiment
from .result import Result, Series
from .spec import RARE_EVENT_PARAMS, ExperimentSpec, SpecError

__all__ = ["ExperimentContext", "Session", "run"]

#: Rare-event estimation knobs (see :mod:`repro.api.catalog`); they
#: configure Monte Carlo sampling, so an analytical backend rejects
#: them outright — same rule as ``trials``/``seed``.
_RARE_EVENT_PARAMS = RARE_EVENT_PARAMS

# Process-wide run accounting on the default metrics registry: every
# session in the process (CLI, service workers, tests) reports here, so
# the service's /metrics endpoint sees fleet totals, not per-run ones.
_RUNS_TOTAL = _metrics.counter(
    "repro_session_runs_total",
    "Session.run calls by outcome",
    ("outcome",),
)
_RUN_SECONDS = _metrics.histogram(
    "repro_session_run_seconds",
    "End-to-end Session.run wall-clock latency",
    ("experiment",),
)

_log = logging.getLogger(__name__)


@dataclass
class ExperimentContext:
    """Everything an experiment implementation needs at run time.

    Bridges the declarative spec and the session's execution resources:
    parameter lookup with registered defaults, and an engine entry point
    that applies the session's workers/cache automatically.
    """

    spec: ExperimentSpec
    backend: str
    session: "Session"
    experiment: Experiment
    _defaults: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._defaults = self.experiment.defaults_for(self.backend)

    # ------------------------------------------------------------------
    @property
    def trials(self) -> "int | None":
        return self.spec.trials if self.spec.trials is not None else self._defaults.get("trials")

    @property
    def seed(self) -> "int | None":
        return self.spec.seed if self.spec.seed is not None else self._defaults.get("seed")

    @property
    def confidence(self) -> float:
        return self.spec.confidence

    def param(self, name: str, default: Any = None) -> Any:
        """Spec param if given, else the experiment's registered default."""
        return self.spec.param_dict().get(name, self._defaults.get(name, default))

    # ------------------------------------------------------------------
    def run_engine(
        self,
        engine_spec,
        model,
        *,
        trials: "int | None" = None,
        seed: "int | None" = None,
        collect_verdicts: bool = False,
    ):
        """Run the vectorized Monte Carlo engine under session settings.

        ``trials``/``seed`` default to the spec's values (with the
        experiment's registered fallbacks); pass ``seed`` explicitly
        for per-sweep-point derived seeds.
        """
        from repro.engine import run_experiment

        trials = self.trials if trials is None else trials
        seed = self.seed if seed is None else seed
        if trials is None or seed is None:
            raise SpecError(
                f"{self.spec.experiment}: Monte Carlo runs need trials and seed "
                "(set them on the spec or register defaults)"
            )
        return run_experiment(
            engine_spec,
            model,
            trials,
            seed,
            cache=self.session.cache,
            executor=self.session.executor,
            collect_verdicts=collect_verdicts,
        )

    def run_engine_sequential(
        self,
        engine_spec,
        model,
        *,
        tolerance: float,
        relative: bool = False,
        target: str = "corrected",
        seed: "int | None" = None,
        max_trials: "int | None" = None,
    ):
        """Sequential (tolerance-stopped) engine run under session settings.

        Replaces the fixed trial count with a CI half-width target; see
        :func:`repro.engine.run_experiment_sequential`.  The spec's
        ``trials`` (or the experiment default) caps the realized count
        when ``max_trials`` is not given explicitly — a tolerance the
        configuration cannot reach then stops at the familiar budget
        instead of running away.
        """
        from repro.engine import run_experiment_sequential

        seed = self.seed if seed is None else seed
        if seed is None:
            raise SpecError(
                f"{self.spec.experiment}: Monte Carlo runs need a seed "
                "(set it on the spec or register a default)"
            )
        if max_trials is None:
            budget = self.trials
            max_trials = max(budget, 1 << 20) if budget is not None else 1 << 20
        return run_experiment_sequential(
            engine_spec,
            model,
            seed,
            tolerance=tolerance,
            relative=relative,
            confidence=self.confidence,
            target=target,
            max_trials=max_trials,
            cache=self.session.cache,
            executor=self.session.executor,
        )

    def run_engine_stratified(
        self,
        engine_spec,
        strata,
        *,
        trials: "int | None" = None,
        seed: "int | None" = None,
        allocation: str = "proportional",
        target: str = "corrected",
    ):
        """Stratified engine run under session settings; returns the
        combined :class:`repro.engine.StratifiedEstimate` (see
        :func:`repro.engine.run_stratified`)."""
        from repro.engine import run_stratified

        trials = self.trials if trials is None else trials
        seed = self.seed if seed is None else seed
        if trials is None or seed is None:
            raise SpecError(
                f"{self.spec.experiment}: Monte Carlo runs need trials and seed "
                "(set them on the spec or register defaults)"
            )
        return run_stratified(
            engine_spec,
            strata,
            trials,
            seed,
            allocation=allocation,
            target=target,
            confidence=self.confidence,
            cache=self.session.cache,
            executor=self.session.executor,
        )

    def result(
        self,
        data: Any,
        series: "tuple[Series, ...] | list[Series]" = (),
        meta: "Mapping | None" = None,
    ) -> Result:
        """Package a payload as this run's :class:`Result` (with provenance)."""
        return Result(
            experiment=self.spec.experiment,
            backend=self.backend,
            spec=self.spec,
            data=data,
            series=tuple(series),
            meta=meta or {},
        )


class Session:
    """Configured execution environment for experiment runs.

    Parameters
    ----------
    workers:
        Process count for Monte Carlo engine runs (1 = in-process).
    cache_dir:
        Directory for the on-disk engine result cache; ``None`` disables
        caching.  Keys are routed through
        :meth:`ExperimentSpec.content_hash`, so runs at any worker count
        share entries.

    The session owns one persistent
    :class:`~repro.engine.executor.SharedExecutor`: every Monte Carlo
    run of its life — fault-injection and performance cells alike —
    reuses the same warm worker pool instead of re-forking per call.
    Sessions are context managers; :meth:`close` (or ``with``-exit)
    tears the pool down, and a later run restarts it through the
    executor's own lazy path.

    Every :meth:`run` executes inside its own ``engine.execute`` span
    (a child of the ambient trace's span, or the root of a fresh
    :class:`~repro.obs.Trace`): engine, cache, executor and perf events
    land in it, and a :class:`~repro.obs.RunRecorder` digests it into
    the result's ``meta["telemetry"]`` summary (cache hits/misses, phase
    timings, shard counts, dispatch decisions — see DESIGN.md §4).
    Telemetry is observational only: it never enters ``data`` or any
    cache key, so a cached re-run returns bit-identical payloads with
    only ``meta["telemetry"]`` differing.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: "str | Path | None" = None,
    ):
        from repro.engine import SharedExecutor

        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._cache = None
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: The session's persistent :class:`SharedExecutor`, shared by
        #: every engine and performance run.  Cheap to build: no worker
        #: process starts before the first parallel map.
        self.executor = SharedExecutor(workers=workers)
        self._last_recorder: "RunRecorder | None" = None
        # Lifetime run counters.  The experiment service drives one
        # session from several worker threads, so these are guarded by
        # a lock (the executor's pool guards itself the same way).
        self._counter_lock = threading.Lock()
        self._runs_started = 0
        self._runs_completed = 0

    @property
    def runs_started(self) -> int:
        """Number of :meth:`run` calls that began executing (lifetime)."""
        return self._runs_started

    @property
    def runs_completed(self) -> int:
        """Number of :meth:`run` calls that returned a result (lifetime).

        ``runs_started - runs_completed`` is the in-flight/failed gap;
        the service uses these to prove dedup coalescing (N submissions
        of one spec bump them exactly once)."""
        return self._runs_completed

    @property
    def last_telemetry(self) -> "RunRecorder | None":
        """The :class:`~repro.obs.RunRecorder` digest of the most recent
        :meth:`run` call's span (started or finished), or ``None``
        before the first run.  Gives access to the raw event stream
        (``.events``, ``.to_jsonl()``) beyond the ``meta["telemetry"]``
        summary."""
        return self._last_recorder

    @property
    def cache(self):
        """The session's :class:`repro.engine.ResultCache` (or ``None``)."""
        if self._cache is None and self._cache_dir is not None:
            from repro.engine import ResultCache

            self._cache = ResultCache(self._cache_dir)
        return self._cache

    def close(self) -> None:
        """Release the worker pool (idempotent; a later run lazily
        rebuilds it)."""
        self.executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, spec: "ExperimentSpec | str", /, **overrides: Any) -> Result:
        """Execute one experiment and return its :class:`Result`.

        ``spec`` may be a full :class:`ExperimentSpec` or just an
        experiment name; keyword overrides build/replace spec fields
        (``trials=...``, ``params={...}`` etc.) either way.

        ``profile=True`` samples the calling thread's stacks for the
        run (:class:`~repro.obs.RunProfiler`).  It is an execution
        option, not a spec field: it never enters the spec, its hash, or
        any cache key, and the collected profile attaches only to
        ``meta["telemetry"]["profile"]`` — a profiled run's payload is
        bit-identical to an unprofiled one.
        """
        profile = overrides.pop("profile", False)
        if not isinstance(profile, bool):
            raise TypeError(
                f"profile= takes a bool, got {type(profile).__name__}"
            )
        if isinstance(spec, str):
            spec = ExperimentSpec(spec, **overrides)
        elif overrides:
            spec = spec.replaced(**overrides)
        experiment = get_experiment(spec.experiment)
        backend = spec.resolve_backend(experiment.backends)
        if backend == "analytical":
            # Checked before the generic unknown-params guard so the
            # caller gets the real reason (wrong backend, not a typo'd
            # name) — the same hard-error rule trials/seed follow.
            rejected = sorted(
                set(_RARE_EVENT_PARAMS) & set(spec.param_dict())
            )
            if rejected:
                raise SpecError(
                    f"{spec.experiment}: {', '.join(rejected)} only "
                    "applies to the monte_carlo backend (the analytical "
                    "model is exact; there is no sampling to tilt, "
                    "stratify or stop early)"
                )
        unknown = set(spec.param_dict()) - experiment.params_for(backend)
        if unknown:
            accepted = sorted(experiment.params_for(backend))
            raise SpecError(
                f"{spec.experiment}[{backend}] does not accept param(s) "
                f"{', '.join(sorted(unknown))}"
                + (f"; accepted: {', '.join(accepted)}" if accepted else "")
            )
        if backend == "analytical":
            # The statistical knobs are hard errors rather than silently
            # ignored inputs: an unused knob would still enter the spec's
            # provenance hash and mislead about what was computed.
            defaults = experiment.defaults_for(backend)
            if spec.trials is not None:
                raise SpecError(
                    f"{spec.experiment}: trials only applies to the "
                    "monte_carlo backend (the analytical model is exact)"
                )
            if spec.seed is not None and "seed" not in defaults:
                raise SpecError(
                    f"{spec.experiment}[{backend}] is deterministic and "
                    "takes no seed"
                )
            if spec.confidence != 0.95:
                raise SpecError(
                    f"{spec.experiment}: confidence only applies to the "
                    "monte_carlo backend (analytical values carry no interval)"
                )
        impl = experiment.impl_for(backend)
        context = ExperimentContext(
            spec=spec, backend=backend, session=self, experiment=experiment
        )
        info = {
            "experiment": spec.experiment,
            "backend": backend,
            "spec_hash": spec.content_hash(),
        }
        # The run's span is its only event record: under an ambient
        # trace (the service's worker.run span crosses asyncio.to_thread
        # via contextvars) it is an engine.execute child span, otherwise
        # the root of a one-span trace of its own.
        trace = current_trace()
        ambient = trace is not None
        if trace is None:
            trace = Trace(name=spec.experiment)
        with trace.span("engine.execute", **info) as span:
            self._last_recorder = recorder = RunRecorder(span)
            emit(
                "run.start",
                logger=_log,
                **info,
                workers=self.workers,
                cached=self._cache_dir is not None,
            )
            with self._counter_lock:
                self._runs_started += 1
            started = time.perf_counter()
            try:
                with (
                    RunProfiler() if profile else contextlib.nullcontext()
                ) as profiler:
                    result = impl(context)
            except BaseException as exc:
                # Consumers pair start/finish events; a failed run must
                # still deliver its terminal event.
                elapsed = round(time.perf_counter() - started, 6)
                emit("run.finish", logger=_log, **info, elapsed=elapsed, error=repr(exc))
                _RUNS_TOTAL.labels(outcome="error").inc()
                raise
            elapsed = time.perf_counter() - started
            emit("run.finish", logger=_log, **info, elapsed=round(elapsed, 6))
        _RUNS_TOTAL.labels(outcome="ok").inc()
        _RUN_SECONDS.labels(experiment=spec.experiment).observe(elapsed)
        with self._counter_lock:
            self._runs_completed += 1
        # Telemetry rides in meta only: the data/series payloads (and
        # any cache keys derived from the spec) stay bit-identical
        # whether or not anyone is watching.
        meta = result.meta_dict()
        meta["telemetry"] = recorder.summary()
        if profiler is not None:
            meta["telemetry"]["profile"] = profiler.profile()
            span.set(profile=profiler.digest())
        if ambient:
            meta["telemetry"]["trace_id"] = span.trace_id
            meta["telemetry"]["span_id"] = span.span_id
        return dataclasses.replace(result, meta=meta)

    def run_all(self, specs) -> "list[Result]":
        """Run several specs in order; a simple sweep driver."""
        return [self.run(spec) for spec in specs]


def run(spec: "ExperimentSpec | str", /, **overrides: Any) -> Result:
    """One-shot convenience: run under a default single-worker session."""
    return Session().run(spec, **overrides)
