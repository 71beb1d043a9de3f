"""Stratified Monte Carlo dispatch: allocate trials per stratum, combine exactly.

Stratification splits the fault-population law into a partition of
conditional laws (``strata``) with known mixture probabilities — fault
count bands of a Poisson hard-fault map, or the individual footprints
of a clustered-MBU distribution — runs an independent engine experiment
per stratum, and recombines with
:meth:`repro.engine.aggregate.StratifiedEstimate.combine`.  The
between-stratum variance term vanishes from the combined standard
error, and trial budget flows to the strata where it buys the most:

``proportional_allocation``
    Budget split by stratum probability — never worse than plain MC.
``neyman_allocation``
    Budget split by ``probability x sigma`` using pilot-estimated
    per-stratum standard deviations, the variance-minimizing split.
    The pilot blocks are a *prefix* of each stratum's final run (the
    block-keyed streams make the first ``n`` trials of a longer run
    bit-identical to a shorter one), so piloting costs nothing.

Every stratum runs through :func:`repro.engine.runner.run_experiment`
with its own derived seed, inheriting sharding, sparse dispatch,
caching and executor bit-identity wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aggregate import (
    WEIGHTED_TARGETS,
    CoverageEstimate,
    StratifiedEstimate,
)
from .rng import DEFAULT_BLOCK_SIZE
from .runner import _emit_estimator, run_experiment

__all__ = [
    "Stratum",
    "proportional_allocation",
    "neyman_allocation",
    "run_stratified",
    "ALLOCATION_MODES",
]

ALLOCATION_MODES = ("proportional", "neyman")

#: Offset between per-stratum seeds: a prime far larger than any
#: realistic block count, so derived seeds of neighbouring strata can
#: never collide with each other or with the root seed's own blocks.
_STRATUM_SEED_STRIDE = 104729


@dataclass(frozen=True)
class Stratum:
    """One cell of the partition: its nominal probability and the
    conditional scenario model that samples *within* the cell."""

    name: str
    probability: float
    model: object

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"stratum {self.name!r} probability must be in [0, 1], "
                f"got {self.probability}"
            )


def _round_blocks(trials: float, block_size: int) -> int:
    """Round a fractional allocation to whole RNG blocks (at least one)."""
    blocks = max(1, int(math.ceil(trials / block_size)))
    return blocks * block_size


def proportional_allocation(
    probabilities: "list[float]", total_trials: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> "list[int]":
    """Per-stratum trial counts proportional to stratum probability.

    Counts are rounded up to whole RNG blocks; every positive-probability
    stratum gets at least one block (a stratum with zero sampled trials
    would contribute an unbounded standard error), zero-probability
    strata get none.
    """
    if total_trials < 1:
        raise ValueError("total_trials must be positive")
    if not probabilities or min(probabilities) < 0:
        raise ValueError("need non-negative stratum probabilities")
    mass = sum(probabilities)
    if mass <= 0:
        raise ValueError("at least one stratum needs positive probability")
    return [
        _round_blocks(total_trials * p / mass, block_size) if p > 0 else 0
        for p in probabilities
    ]


def neyman_allocation(
    probabilities: "list[float]",
    sigmas: "list[float]",
    total_trials: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> "list[int]":
    """Variance-minimizing per-stratum trial counts (``n_k ∝ π_k σ_k``).

    Strata whose pilot standard deviation is zero still receive one
    block when their probability is positive — the pilot saw no
    variation, not proof of none.
    """
    if len(sigmas) != len(probabilities):
        raise ValueError("need one sigma per stratum")
    if min(sigmas, default=0.0) < 0:
        raise ValueError("sigmas must be non-negative")
    scores = [p * s for p, s in zip(probabilities, sigmas)]
    mass = sum(scores)
    if mass <= 0:
        # Degenerate pilot (no stratum showed variance): fall back to
        # proportional, which is always valid.
        return proportional_allocation(probabilities, total_trials, block_size)
    return [
        _round_blocks(total_trials * score / mass, block_size)
        if p > 0
        else 0
        for p, score in zip(probabilities, scores)
    ]


def run_stratified(
    spec,
    strata: "list[Stratum]",
    n_trials: int,
    seed: int,
    *,
    allocation: str = "proportional",
    target: str = "corrected",
    confidence: float = 0.95,
    block_size: int = DEFAULT_BLOCK_SIZE,
    cache=None,
    executor=None,
) -> StratifiedEstimate:
    """Run one engine experiment per stratum and combine exactly.

    ``n_trials`` is the total budget, divided by ``allocation``
    (:data:`ALLOCATION_MODES`).  Each stratum runs with seed ``seed +
    stride * (index + 1)`` so its trial stream is independent of the
    other strata and of any unstratified run at ``seed`` — and stays
    fixed when the allocation (but not the partition) changes, which
    keeps per-stratum cache entries reusable across budgets.

    Stratum probabilities must form a partition (sum to 1 within 1e-6).
    The per-stratum estimates use the Agresti–Coull standard error, so
    a stratum whose sampled trials all agree still contributes an honest
    nonzero width to the combined interval.

    ``executor`` is passed to every stratum's
    :func:`~repro.engine.runner.run_experiment` (one-worker inline when
    omitted).
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if not strata:
        raise ValueError("need at least one stratum")
    if allocation not in ALLOCATION_MODES:
        raise ValueError(f"allocation must be one of {ALLOCATION_MODES}")
    if target not in WEIGHTED_TARGETS:
        raise ValueError(f"target must be one of {WEIGHTED_TARGETS}, got {target!r}")
    probabilities = [s.probability for s in strata]

    run_kwargs = dict(
        block_size=block_size, collect_verdicts=False, cache=cache, executor=executor
    )

    def _stratum_seed(index: int) -> int:
        return seed + _STRATUM_SEED_STRIDE * (index + 1)

    if allocation == "neyman":
        # One-block pilot per live stratum.  Because the pilot is a
        # prefix of the final run's trial stream, its work is never
        # thrown away — with a cache it is literally the same entry
        # family, and without one the only cost is one block re-run.
        sigmas = []
        for index, stratum in enumerate(strata):
            if stratum.probability <= 0:
                sigmas.append(0.0)
                continue
            pilot = run_experiment(
                spec, stratum.model, block_size, _stratum_seed(index), **run_kwargs
            )
            successes = pilot.counts.target_count(target)
            # Laplace-smoothed rate: a pilot block with 0 or all hits
            # must not zero the stratum out of the allocation.
            rate = (successes + 1.0) / (pilot.counts.n + 2.0)
            sigmas.append(math.sqrt(rate * (1.0 - rate)))
        counts = neyman_allocation(probabilities, sigmas, n_trials, block_size)
    else:
        counts = proportional_allocation(probabilities, n_trials, block_size)

    estimates = []
    kept_probabilities = []
    labels = []
    realized = 0
    for index, (stratum, allocated) in enumerate(zip(strata, counts)):
        if allocated <= 0:
            # Zero-probability stratum: contributes nothing to the
            # mixture; dropping it keeps the combiner's partition check
            # meaningful for the live strata.
            if stratum.probability > 0:
                raise ValueError(
                    f"stratum {stratum.name!r} got no trials despite positive "
                    "probability"
                )
            continue
        result = run_experiment(
            spec, stratum.model, allocated, _stratum_seed(index), **run_kwargs
        )
        realized += result.n_trials
        estimates.append(
            CoverageEstimate.from_binomial(
                result.counts.target_count(target), result.counts.n, confidence
            )
        )
        kept_probabilities.append(stratum.probability)
        labels.append(stratum.name)

    live_mass = sum(kept_probabilities)
    dropped_mass = sum(probabilities) - live_mass
    if abs(dropped_mass) > 1e-6:
        raise ValueError(
            f"zero-probability strata carried mass {dropped_mass}; the "
            "partition is inconsistent"
        )
    combined = StratifiedEstimate.combine(
        kept_probabilities, estimates, confidence, labels=labels
    )
    _emit_estimator(
        estimator="stratified",
        target=target,
        realized_trials=realized,
        point=combined.point,
        std_error=combined.std_error,
        half_width_value=combined.half_width,
        ess=float(realized),
        allocation=allocation,
        strata=len(estimates),
    )
    return combined
