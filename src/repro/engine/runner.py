"""Sharded Monte Carlo executor: chunk trials, fan out, merge.

:func:`run_experiment` is the engine's front door.  Every run, fixed or
sequential (:func:`run_experiment_sequential`), goes through one round
loop: each round splits its trials into whole-RNG-block work items
(:func:`repro.engine.rng.chunk_ranges`, one item per worker), fans them
out on a :class:`~repro.engine.executor.SharedExecutor` — the only
place a pool is configured; the default one-worker executor runs
inline — and merges the per-chunk tallies.  A fixed-trial run is one
round with no stopping check.  Because every trial's randomness is
keyed by its block (:mod:`repro.engine.rng`) and the merge is a
commutative sum plus an order-restoring concatenation, **the result is
bit-identical for any executor** — parallelism is purely a throughput
choice.  Every block is evaluated on packed words
(:mod:`repro.engine.packed`).

Results can be transparently memoized through
:class:`repro.engine.cache.ResultCache`; repeated experiment runs with
the same spec/model/trials/seed are then free.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.obs import emit
from repro.obs.profile import process_usage, usage_delta
from repro.scenarios import ScenarioModel

from .aggregate import (
    WEIGHTED_TARGETS,
    CoverageEstimate,
    StreamingAggregator,
    TrialCounts,
    WeightedEstimate,
    WeightedTally,
    relative_half_width,
)
# run_recovery_batch is the uint8 reference; it stays importable here
# for tools that instrument the runner's recovery entry points.
from .batch import EngineSpec, run_recovery_batch  # noqa: F401
from .cache import ENGINE_VERSION, ResultCache, cache_key
from .executor import SharedExecutor
from .packed import make_packed_decoder, run_recovery_batch_sparse
from .rng import (
    DEFAULT_BLOCK_SIZE,
    BlockStreams,
    chunk_ranges,
    iter_block_slices,
    n_blocks,
)

__all__ = [
    "EngineResult",
    "run_experiment",
    "run_experiment_sequential",
    "has_vectorized_decoder",
]

_log = logging.getLogger(__name__)

@functools.lru_cache(maxsize=64)
def _cached_packed_decoder(spec: EngineSpec):
    """Per-process decoder cache: tables are built on a spec's first use
    and persistent-pool workers keep them warm across chunks, runs and
    experiment cells."""
    return make_packed_decoder(spec)


@functools.lru_cache(maxsize=64)
def has_vectorized_decoder(spec: EngineSpec) -> bool:
    """Whether the engine can evaluate ``spec``'s horizontal code (the
    decoder it builds to find out is the one runs then reuse)."""
    try:
        _cached_packed_decoder(spec)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class EngineResult:
    """Outcome of one engine run."""

    spec: EngineSpec
    counts: TrialCounts
    #: Per-trial verdict codes in trial order (None when not collected).
    verdicts: "np.ndarray | None"
    n_trials: int
    seed: int
    block_size: int
    elapsed_seconds: float
    from_cache: bool = False
    #: Weighted-indicator sums for importance-sampled models
    #: (None on plain runs).
    tally: "WeightedTally | None" = None
    #: Per-trial likelihood-ratio weights in trial order (collected
    #: alongside verdicts on weighted runs; None otherwise).
    weights: "np.ndarray | None" = None

    @property
    def trials_per_second(self) -> float:
        return self.n_trials / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def is_weighted(self) -> bool:
        return self.tally is not None

    def estimate(self, confidence: float = 0.95) -> CoverageEstimate:
        """Coverage (fully-corrected fraction) with a Wilson interval.

        On weighted runs the raw verdict fractions describe the *tilted*
        sampling law, not the nominal one — use
        :meth:`weighted_estimate` there.
        """
        if self.is_weighted:
            raise ValueError(
                "this run used an importance-sampled model; unweighted "
                "verdict fractions are biased — use weighted_estimate()"
            )
        return CoverageEstimate.from_counts(self.counts, confidence)

    def weighted_estimate(
        self, target: str = "corrected", confidence: float = 0.95
    ) -> WeightedEstimate:
        """Horvitz–Thompson estimate of a verdict-class probability
        under the nominal law (weighted runs only)."""
        if self.tally is None:
            raise ValueError("this run used an unweighted model; use estimate()")
        return self.tally.estimate(target=target, confidence=confidence)


def _sample_sparse_block(spec: EngineSpec, model, seed: int, block: int, block_size: int):
    """Block ``block``'s packed :class:`SparseRowBatch`, drawn whole."""
    return model.sample_sparse_block(BlockStreams(seed, block), block_size, spec)


# perfbench's traced runs patch these names; weighted blocks take the same path.
_sample_weighted_sparse_block = _sample_weighted_block = _sample_sparse_block


def _join(pieces: "list[np.ndarray]", dtype) -> np.ndarray:
    """Concatenate per-block arrays in order (empty when there are none)."""
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=dtype)


def _run_trial_range(
    spec: EngineSpec,
    model,
    seed: int,
    block_size: int,
    first_trial: int,
    last_trial: int,
    collect_verdicts: bool,
) -> tuple[TrialCounts, "list[np.ndarray]", "list[np.ndarray]", "list[WeightedTally]", dict]:
    """Evaluate trials ``[first_trial, last_trial)`` block by block.

    Every block takes one path: the model's ``sample_sparse_block``
    draws the whole block as a packed batch from the block's
    :class:`BlockStreams` handle, the batch is sliced to the range, and
    its dirty rows are recovered on packed words.  Drawing whole blocks
    means any partition of the trial space sees identical per-trial
    randomness.

    On models advertising ``weighted = True`` every batch must carry
    ``weights`` (and on other models none may); each block's slice of
    them is accumulated into a :class:`WeightedTally` in block order, so
    weighted streams keep the same partition-invariance as plain ones.
    Verdicts and weights (when collected) come back as per-block lists
    too, joined once by the run loop.

    The last return value is the shard's telemetry: wall-clock seconds,
    block counts (every block is a ``sparse_blocks`` one; the
    ``dense_blocks`` and ``densified_blocks`` keys stay 0 for the
    telemetry schema), and the worker's resource deltas (CPU seconds,
    RSS watermark, pid) — observational only.
    """
    started = time.perf_counter()
    usage0 = process_usage()
    aggregator = StreamingAggregator()
    verdict_pieces: list[np.ndarray] = []
    weight_pieces: list[np.ndarray] = []
    weighted = bool(getattr(model, "weighted", False))
    decoder = _cached_packed_decoder(spec)
    # One tally PER BLOCK, never pre-summed: float addition is not
    # associative, so folding must happen once, flat, in block order at
    # the merge — otherwise the chunk size would leak into the last ulp
    # of the weighted sums and break cross-worker bit-identity.
    block_tallies: list[WeightedTally] = []
    stats = {
        "trials": last_trial - first_trial,
        "blocks": 0,
        "sparse_blocks": 0,
        "dense_blocks": 0,
        "densified_blocks": 0,
    }
    for piece in iter_block_slices(first_trial, last_trial, block_size):
        stats["blocks"] += 1
        stats["sparse_blocks"] += 1
        batch = _sample_sparse_block(spec, model, seed, piece.block, block_size)
        if (batch.weights is not None) != weighted:
            raise ValueError(
                f"{type(model).__name__} has weighted={weighted}, but its "
                f"sample_sparse_block returned a batch {'without' if weighted else 'with'} "
                "likelihood-ratio weights"
            )
        batch = batch.slice_trials(piece.start, piece.stop)
        verdicts = run_recovery_batch_sparse(spec, batch, decoder)
        aggregator.update(verdicts)
        if weighted:
            block_tallies.append(WeightedTally.from_verdicts(verdicts, batch.weights))
        if collect_verdicts:
            verdict_pieces.append(verdicts)
            if weighted:
                weight_pieces.append(batch.weights)
    stats["elapsed"] = round(time.perf_counter() - started, 6)
    usage = usage_delta(usage0)
    stats.update({name: usage[name] for name in ("pid", "cpu_seconds", "max_rss_bytes")})
    return aggregator.counts, verdict_pieces, weight_pieces, block_tallies, stats


def _worker(payload: tuple):
    return _run_trial_range(*payload)


def _execute_ranges(
    spec: EngineSpec,
    model,
    seed: int,
    block_size: int,
    ranges: "list[tuple[int, int]]",
    collect_verdicts: bool,
    executor: SharedExecutor,
) -> list:
    """Fan the chunk ranges out and return their outcomes in chunk order."""
    payloads = [
        (spec, model, seed, block_size, first, last, collect_verdicts)
        for first, last in ranges
    ]
    return executor.map(_worker, payloads)


def _emit_estimator(
    *,
    estimator: str,
    target: str,
    realized_trials: int,
    point: float,
    std_error: float,
    half_width_value: float,
    ess: float,
    tolerance: "float | None" = None,
    relative: bool = False,
    rounds: "int | None" = None,
    **extra,
) -> None:
    """One ``engine.estimator`` telemetry event per estimator-aware run.

    ``variance_reduction_factor`` compares the achieved variance against
    what plain binomial sampling would deliver at the same trial count —
    the honest "how many plain trials did this replace" number the
    benchmarks gate on.  ``extra`` fields (e.g. a stratified run's
    ``allocation``/``strata``) are appended to the event.
    """
    if std_error > 0 and 0.0 < point < 1.0 and realized_trials > 0:
        plain_variance = point * (1.0 - point) / realized_trials
        vrf = plain_variance / (std_error * std_error)
    else:
        vrf = 1.0
    emit(
        "engine.estimator",
        logger=_log,
        estimator=estimator,
        target=target,
        realized_trials=realized_trials,
        point=point,
        std_error=std_error,
        half_width=half_width_value,
        ess=ess,
        variance_reduction_factor=vrf,
        tolerance=tolerance,
        relative=relative,
        rounds=rounds,
        **extra,
    )


def run_experiment(
    spec: EngineSpec,
    model,
    n_trials: int,
    seed: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    collect_verdicts: bool = True,
    cache: "ResultCache | None" = None,
    executor: "SharedExecutor | None" = None,
) -> EngineResult:
    """Run ``n_trials`` Monte Carlo fault-injection trials.

    Parameters
    ----------
    spec, model:
        What to simulate: bank configuration and fault scenario.  The
        model must satisfy :class:`repro.scenarios.ScenarioModel`: the
        engine draws every block through
        ``model.sample_sparse_block(streams, count, spec)``, which
        returns a packed :class:`~repro.scenarios.SparseRowBatch`
        (carrying ``weights`` exactly when ``model.weighted``), and keys
        the cache on ``model.to_key()``.  Any
        :class:`~repro.scenarios.ScenarioBase` subclass qualifies.
    n_trials, seed:
        Trial count and root seed.  Together with ``block_size`` these
        fully determine the result; the executor cannot change it.
    block_size:
        Trials per RNG block — part of the experiment identity.
    collect_verdicts:
        Keep the per-trial verdict array (1 byte/trial) in the result.
    cache:
        Optional :class:`ResultCache`; hits skip the simulation.
    executor:
        The :class:`SharedExecutor` to fan out on (e.g. the one owned
        by a :class:`repro.api.Session`); its worker count sets the
        chunking.  Omitted, a one-worker executor runs the trials
        inline.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    _check_run(model, block_size)
    executor = executor if executor is not None else SharedExecutor()

    weighted = bool(getattr(model, "weighted", False))
    params = {
        "engine_version": ENGINE_VERSION,
        "spec": spec.to_key(),
        "model": model.to_key(),
        "n_trials": n_trials,
        "seed": seed,
        "block_size": block_size,
    }
    key = cache_key(params)
    emit(
        "engine.run.start",
        logger=_log,
        level=logging.INFO,
        key=key,
        n_trials=n_trials,
        block_size=block_size,
        workers=executor.workers,
    )
    result = _load_cached(cache, key, spec=spec, n_trials=n_trials, seed=seed,
                          block_size=block_size, collect_verdicts=collect_verdicts,
                          weighted=weighted)
    if result is None:
        result, _ = _run_rounds(spec, model, seed, [n_trials], block_size=block_size,
                                collect_verdicts=collect_verdicts, executor=executor)
    return _finish(result, key, params, cache, _maybe_emit_weighted)


def _run_rounds(
    spec: EngineSpec,
    model,
    seed: int,
    goals,
    *,
    block_size: int,
    collect_verdicts: bool,
    executor: SharedExecutor,
    stop=None,
) -> "tuple[EngineResult, int]":
    """The one run loop: evaluate trials up to each goal in ``goals`` in
    turn, until ``stop(counts, tally)`` holds after a round (never, when
    ``stop`` is None).  Returns the result and the number of rounds run.

    Each round extends the same block-keyed trial stream, and the
    weighted tally is re-folded flat over every block so far, so the
    result is byte-identical to a single round of the realized count.
    """
    weighted = bool(getattr(model, "weighted", False))
    started = time.perf_counter()
    counts = TrialCounts()
    verdict_pieces: list[np.ndarray] = []
    weight_pieces: list[np.ndarray] = []
    block_tallies: list[WeightedTally] = []
    tally = None
    realized = rounds = 0
    for goal in goals:
        ranges = chunk_ranges(realized, goal, block_size, executor.workers)
        outcomes = _execute_ranges(
            spec, model, seed, block_size, ranges, collect_verdicts, executor
        )
        round_counts, round_verdicts, round_weights, round_tallies = _merge_outcomes(outcomes)
        counts = counts + round_counts
        verdict_pieces += round_verdicts
        weight_pieces += round_weights
        block_tallies += round_tallies
        if weighted:
            tally = _fold_tallies(block_tallies)
        realized = goal
        rounds += 1
        if stop is not None and stop(counts, tally):
            break
    result = EngineResult(
        spec=spec,
        counts=counts,
        verdicts=_join(verdict_pieces, np.uint8) if collect_verdicts else None,
        n_trials=realized,
        seed=seed,
        block_size=block_size,
        elapsed_seconds=time.perf_counter() - started,
        tally=tally,
        weights=_join(weight_pieces, np.float64) if collect_verdicts and weighted else None,
    )
    return result, rounds


def _check_run(model, block_size: int) -> None:
    """Reject a block size or model the engine cannot run."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if not isinstance(model, ScenarioModel):
        raise TypeError(
            f"{type(model).__name__} is not a scenario model: the engine draws "
            "every block through sample_sparse_block(streams, count, spec) -> "
            "SparseRowBatch and keys results on to_key() (subclass "
            "repro.scenarios.ScenarioBase and implement sample)"
        )


def _load_cached(cache: "ResultCache | None", key: str, **rebuild) -> "EngineResult | None":
    """The run's cached result, or ``None`` on a miss (or an entry that
    lacks what this run needs).  ``n_trials=None`` takes the realized
    count the entry recorded (sequential runs)."""
    payload = cache.load(key) if cache is not None else None
    if payload is None:
        return None
    if rebuild["n_trials"] is None:
        rebuild["n_trials"] = int(payload["n"])
    return _result_from_payload(payload, **rebuild)


def _finish(result: EngineResult, key: str, params: dict, cache, report) -> EngineResult:
    """Emit a run's ``engine.run.finish`` and ``report(result)`` events,
    then store a fresh (not cache-hit) result under ``key``."""
    if result.from_cache:
        timing = {"elapsed": 0.0}
    else:
        timing = {
            "elapsed": round(result.elapsed_seconds, 6),
            "trials_per_second": round(result.trials_per_second, 3),
        }
    emit(
        "engine.run.finish",
        logger=_log,
        level=logging.INFO,
        key=key,
        n_trials=result.n_trials,
        from_cache=result.from_cache,
        **timing,
    )
    report(result)
    if cache is not None and not result.from_cache:
        cache.store(key, _payload_from_result(result), params)
    return result


def _fold_tallies(block_tallies: "list[WeightedTally]") -> WeightedTally:
    """Fold per-block tallies sequentially in block order.

    One flat left fold over blocks is the canonical summation order:
    any partition of the same blocks into chunks, rounds or workers
    reproduces it bit for bit, because the partials are never pre-summed
    along the way.
    """
    total = WeightedTally()
    for tally in block_tallies:
        total = total + tally
    return total


def _merge_outcomes(outcomes: list):
    """Merge chunk outcomes in chunk (trial) order.

    Count sums are commutative-exact; verdict and weight pieces and the
    weighted tallies stay flat per-block lists (in block order), so the
    caller's single join and fold are independent of the chunking.
    """
    aggregator = StreamingAggregator()
    verdicts: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    block_tallies: list[WeightedTally] = []
    for index, (counts, chunk_verdicts, chunk_weights, chunk_tallies, stats) in enumerate(outcomes):
        emit("engine.shard", logger=_log, index=index, **stats)
        aggregator.update(counts)
        verdicts += chunk_verdicts
        weights += chunk_weights
        block_tallies += chunk_tallies
    return aggregator.counts, verdicts, weights, block_tallies


def _payload_from_result(result: EngineResult) -> dict:
    """The cache payload for a finished run.

    Plain runs keep the historical layout byte for byte; weighted runs
    append the tally vector (and per-trial weights when collected) so a
    hit can reconstruct the Horvitz–Thompson estimate exactly.
    """
    payload = dict(result.counts.as_dict())
    if result.verdicts is not None:
        payload["verdicts"] = result.verdicts
    if result.tally is not None:
        payload["weighted_tally"] = result.tally.as_array()
    if result.weights is not None:
        payload["weights"] = result.weights
    return payload


def _result_from_payload(
    payload: dict,
    *,
    spec: EngineSpec,
    n_trials: int,
    seed: int,
    block_size: int,
    collect_verdicts: bool,
    weighted: bool,
) -> "EngineResult | None":
    """Rebuild an :class:`EngineResult` from a cache payload, or ``None``
    when the entry predates what this run needs (missing verdicts or
    missing weighted fields) and must be recomputed."""
    verdicts = payload.get("verdicts")
    if verdicts is not None:
        verdicts = np.asarray(verdicts, dtype=np.uint8)
    if verdicts is None and collect_verdicts:
        return None
    tally = None
    weights = None
    if weighted:
        raw_tally = payload.get("weighted_tally")
        if raw_tally is None:
            return None
        tally = WeightedTally.from_array(raw_tally)
        weights = payload.get("weights")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        if weights is None and collect_verdicts:
            return None
    return EngineResult(
        spec=spec,
        counts=TrialCounts.from_dict(payload),
        verdicts=verdicts if collect_verdicts else None,
        n_trials=n_trials,
        seed=seed,
        block_size=block_size,
        elapsed_seconds=0.0,
        from_cache=True,
        tally=tally,
        weights=weights if collect_verdicts else None,
    )


def _maybe_emit_weighted(result: EngineResult) -> None:
    """Emit the ``engine.estimator`` event for a fixed-trial weighted run
    (the sequential loop emits its own, with stopping fields)."""
    if result.tally is None:
        return
    estimate = result.weighted_estimate(target="uncorrected")
    _emit_estimator(
        estimator="weighted",
        target="uncorrected",
        realized_trials=result.n_trials,
        point=estimate.point,
        std_error=estimate.std_error,
        half_width_value=estimate.half_width,
        ess=estimate.ess,
    )


def run_experiment_sequential(
    spec: EngineSpec,
    model,
    seed: int,
    *,
    tolerance: float,
    relative: bool = False,
    confidence: float = 0.95,
    target: str = "corrected",
    initial_trials: "int | None" = None,
    growth: float = 2.0,
    max_trials: int = 1 << 20,
    block_size: int = DEFAULT_BLOCK_SIZE,
    collect_verdicts: bool = False,
    cache: "ResultCache | None" = None,
    executor: "SharedExecutor | None" = None,
) -> EngineResult:
    """Run trials until the CI half-width reaches ``tolerance``.

    The fixed ``n_trials`` knob is replaced by a stopping rule: rounds
    of whole RNG blocks are scheduled (starting at ``initial_trials``,
    growing by ``growth`` per round, capped at ``max_trials``) and after
    each round the running estimate — Wilson for plain models,
    Horvitz–Thompson for weighted ones — is checked against the
    requested half-width (absolute, or relative to the point estimate
    with ``relative=True``).

    Determinism: decisions happen only at round boundaries and only from
    block-aggregated sums, and each round extends the *same* block-keyed
    trial stream (trials ``[0, n)`` of a longer run are bit-identical to
    a shorter one), so the realized trial count is a pure function of
    ``(spec, model, seed, block_size, stopping rule)`` — the executor
    cannot change it.  The result is cached under the stopping rule, not
    a trial count.  Each round runs through the same loop as
    :func:`run_experiment` (whose ``executor`` semantics apply here).
    """
    _check_run(model, block_size)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    if target not in WEIGHTED_TARGETS:
        raise ValueError(f"target must be one of {WEIGHTED_TARGETS}, got {target!r}")
    if initial_trials is None:
        initial_trials = 4 * block_size
    if initial_trials < 1:
        raise ValueError("initial_trials must be positive")
    if max_trials < initial_trials:
        raise ValueError("max_trials must be >= initial_trials")
    executor = executor if executor is not None else SharedExecutor()

    weighted = bool(getattr(model, "weighted", False))
    stopping = {
        "tolerance": tolerance,
        "relative": relative,
        "confidence": confidence,
        "target": target,
        "initial_trials": initial_trials,
        "growth": growth,
        "max_trials": max_trials,
    }
    params = {
        "engine_version": ENGINE_VERSION,
        "spec": spec.to_key(),
        "model": model.to_key(),
        "seed": seed,
        "block_size": block_size,
        "sequential": stopping,
    }
    key = cache_key(params)
    emit(
        "engine.run.start",
        logger=_log,
        level=logging.INFO,
        key=key,
        n_trials=None,
        tolerance=tolerance,
        block_size=block_size,
        workers=executor.workers,
    )
    cached = _load_cached(cache, key, spec=spec, n_trials=None, seed=seed,
                          block_size=block_size, collect_verdicts=collect_verdicts,
                          weighted=weighted)
    if cached is not None:
        return _finish(cached, key, params, cache,
                       lambda r: _emit_sequential(r, stopping, rounds=None))

    def _round_targets():
        goal = min(_round_up_blocks(initial_trials, block_size), max_trials)
        while True:
            yield goal
            if goal >= max_trials:
                return
            goal = min(
                _round_up_blocks(int(math.ceil(goal * growth)), block_size),
                max_trials,
            )

    def _stop(counts, tally) -> bool:
        estimate = _sequential_estimate(counts, tally, target, confidence)
        return _tolerance_met(estimate, tolerance, relative)

    result, rounds = _run_rounds(
        spec, model, seed, _round_targets(), block_size=block_size,
        collect_verdicts=collect_verdicts, executor=executor, stop=_stop,
    )
    return _finish(result, key, params, cache,
                   lambda r: _emit_sequential(r, stopping, rounds=rounds))


def _round_up_blocks(trials: int, block_size: int) -> int:
    """Smallest whole-block trial count >= ``trials``."""
    return n_blocks(trials, block_size) * block_size


def _sequential_estimate(
    counts: TrialCounts,
    tally: "WeightedTally | None",
    target: str,
    confidence: float,
):
    """The running estimate the stopping rule inspects — exactly the
    estimate the finished run will report."""
    if tally is not None:
        return tally.estimate(target=target, confidence=confidence)
    return CoverageEstimate.from_binomial(
        counts.target_count(target), counts.n, confidence
    )


def _tolerance_met(estimate, tolerance: float, relative: bool) -> bool:
    if relative:
        return (
            relative_half_width(estimate.point, estimate.lower, estimate.upper)
            <= tolerance
        )
    return estimate.half_width <= tolerance


def _emit_sequential(
    result: EngineResult, stopping: dict, rounds: "int | None"
) -> None:
    estimate = _sequential_estimate(
        result.counts, result.tally, stopping["target"], stopping["confidence"]
    )
    ess = estimate.ess if result.tally is not None else float(result.n_trials)
    _emit_estimator(
        estimator="weighted" if result.tally is not None else "plain",
        target=stopping["target"],
        realized_trials=result.n_trials,
        point=estimate.point,
        std_error=estimate.std_error,
        half_width_value=estimate.half_width,
        ess=ess,
        tolerance=stopping["tolerance"],
        relative=stopping["relative"],
        rounds=rounds,
    )
