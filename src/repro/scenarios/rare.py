"""Rare-event fault scenarios: exponentially tilted and band-conditioned laws.

The paper's tail metrics (silent-error and uncorrectable rates around
1e-7..1e-9) are invisible to plain Monte Carlo at feasible trial counts:
almost every sampled die draws zero or one fault and the failure
indicator is almost surely zero.  The scenarios here reshape the
*sampling* law while leaving the *estimated* law fixed:

``tilted_hard_fault_map``
    Importance-sampling twin of ``hard_fault_map``.  The per-die fault
    count is drawn from an exponentially tilted (and optionally
    shifted) Poisson — ``shift + Poisson(lambda * e^tilt)`` — instead
    of ``Poisson(lambda)``, pushing probability mass into the
    multi-fault tail where failures live.  Each trial carries the
    likelihood ratio ``pmf(k; lambda) / pmf(k - shift; lambda e^tilt)``
    as a weight; Horvitz–Thompson averaging of weighted failure
    indicators (:class:`repro.engine.aggregate.WeightedEstimate`) is
    then unbiased for the nominal-law failure probability.  Cell
    *placement* given the count is untouched, so the conditional
    geometry is exactly the nominal model's.

``tilted_clustered_mbu``
    Importance-sampling twin of ``clustered_mbu``: footprint shapes are
    drawn with probabilities reweighted by ``e^(tilt * area)``, biasing
    toward large clusters.  The likelihood ratio for a drawn shape of
    area ``a`` is ``Z * e^(-tilt * a)`` with ``Z = sum_i p_i
    e^(tilt * a_i)`` — it depends on the draw only through the area, so
    no index bookkeeping survives past sampling.

``fault_count_band``
    The *conditional* law of ``hard_fault_map`` given the fault count
    lands in ``[k_min, k_max]`` — the per-stratum model for stratified
    estimation.  Together with
    :func:`repro.errors.rates.poisson_band_probability` (the
    stratum weight), a partition of bands reproduces the nominal law
    exactly: ``P(fail) = sum_bands P(band) * P(fail | band)``.

Weighted scenarios advertise ``weighted = True``.  Their one sampler,
``sample_sparse``, returns a packed batch whose ``weights`` column holds
the likelihood ratios, and ``sample_weighted`` derives the dense
``(masks, weights)`` reference from it; their plain ``sample`` raises,
so a path that would silently drop the weights (and deliver a biased
estimate) fails loudly instead.  All draws follow the block-keyed RNG
discipline, so weighted streams inherit the engine's worker/chunk
bit-identity unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors.rates import _poisson_logpmf

from .base import Geometry, ScenarioBase, scenario
from .generators import (
    counted_cells_sparse,
    sample_footprints,
    solid_cluster_sparse,
)
from .models import Footprints, _check_density, _check_integer, _normalize_footprints

__all__ = [
    "WeightedScenarioBase",
    "TiltedHardFaultMapScenario",
    "TiltedClusteredMbuScenario",
    "FaultCountBandScenario",
]


class WeightedScenarioBase(ScenarioBase):
    """Base class for importance-sampling scenarios that weight their trials.

    A weighted scenario implements :meth:`sample_sparse` like any other,
    returning a batch whose ``weights`` hold one likelihood ratio per
    trial; :meth:`sample_weighted` derives the dense ``(masks, weights)``
    reference from it.  The engine draws through ``sample_sparse_block``
    as for any scenario and accumulates the batch weights into a
    :class:`~repro.engine.aggregate.WeightedTally`.  The plain
    :meth:`sample` (and so ``sample_block``) raises: evaluating a tilted
    stream without its weights is not an approximation, it is a
    different (biased) estimator, and nothing downstream could detect
    it.
    """

    weighted = True

    def sample(self, rng: np.random.Generator, count: int, spec: Geometry):
        raise TypeError(
            f"scenario {self.scenario_name!r} draws from a tilted law; its "
            "trials are only meaningful with likelihood-ratio weights "
            "(use sample_weighted, or an estimator that understands them)"
        )

    def sample_weighted(
        self, rng: np.random.Generator, count: int, spec: Geometry
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(masks, weights)`` — the draw of :meth:`sample_sparse` as
        dense masks, with one nominal/proposal likelihood ratio per
        trial."""
        batch = self.sample_sparse(rng, count, spec)
        return batch.densify(), batch.weights


@scenario("tilted_hard_fault_map")
@dataclass(frozen=True)
class TiltedHardFaultMapScenario(WeightedScenarioBase):
    """``hard_fault_map`` with the fault count drawn from a tilted law.

    Counts come from ``shift + Poisson(lambda * e^tilt)`` where
    ``lambda = defect_density * cells``; the weight of a drawn count
    ``k`` is the likelihood ratio ``pmf(k; lambda) / pmf(k - shift;
    lambda e^tilt)``, computed in log space.  ``tilt`` scales the mean
    multiplicatively, ``shift`` guarantees a fault floor (useful when
    the failure region needs at least a few faults and ``lambda`` is
    tiny).  With ``tilt=0, shift=0`` every weight is exactly 1 and the
    sampled stream matches ``hard_fault_map`` draw for draw.
    """

    defect_density: float = 1e-4
    tilt: float = 0.0
    shift: int = 0
    example_params = {"tilt": 1.0, "shift": 1}

    def __post_init__(self) -> None:
        _check_density(self.defect_density)
        if not math.isfinite(self.tilt):
            raise ValueError("tilt must be finite")
        _check_integer("shift", self.shift)
        if self.shift < 0:
            raise ValueError("shift must be non-negative")
        object.__setattr__(self, "shift", int(self.shift))

    def _draw_counts(
        self, rng: np.random.Generator, count: int, n_sites: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(placement_counts, weights)`` for one block.

        The weight uses the *unclipped* proposal draw; clipping to the
        site count only affects placement, and only in a regime
        (``k > n_sites``) where the nominal pmf is already negligible.
        """
        lam = self.defect_density * n_sites
        proposal_lam = lam * math.exp(self.tilt)
        raw = rng.poisson(proposal_lam, size=count).astype(np.int64) + self.shift
        log_w = _poisson_logpmf(raw, lam) - _poisson_logpmf(
            raw - self.shift, proposal_lam
        )
        weights = np.exp(log_w)
        return np.minimum(raw, n_sites), weights

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        counts, weights = self._draw_counts(rng, count, spec.rows * spec.row_bits)
        return counted_cells_sparse(rng, counts, spec).with_weights(weights)

    def to_key(self) -> dict:
        return {
            "model": "tilted_hard_fault_map",
            "defect_density": self.defect_density,
            "tilt": self.tilt,
            "shift": self.shift,
        }


@scenario("tilted_clustered_mbu")
@dataclass(frozen=True)
class TiltedClusteredMbuScenario(WeightedScenarioBase):
    """``clustered_mbu`` with footprint draws tilted toward large areas.

    Shapes are drawn with proposal probabilities ``q_i ∝ p_i *
    e^(tilt * area_i)``; the likelihood ratio of a drawn shape is
    ``Z * e^(-tilt * area)`` with ``Z = sum_j p_j e^(tilt * a_j)``
    (log-sum-exp for stability), a function of the drawn area alone.
    Placement given the shape is nominal, so only the shape marginal is
    reweighted.  No ``spread`` knob: diffusion tails would make the
    drawn area differ from the weighted one and silently bias the
    estimate.
    """

    footprints: "Footprints | None" = None
    tilt: float = 0.0
    example_params = {"tilt": 0.1}

    def __post_init__(self) -> None:
        footprints = _normalize_footprints(self.footprints)
        if not math.isfinite(self.tilt):
            raise ValueError("tilt must be finite")
        object.__setattr__(self, "footprints", footprints)

    def _proposal(self) -> "tuple[Footprints, float]":
        """``(tilted footprint weights, log Z)`` of the proposal law."""
        total = sum(w for _f, w in self.footprints)
        log_p = np.array(
            [math.log(w / total) if w > 0 else -np.inf for _f, w in self.footprints]
        )
        areas = np.array([h * w for (h, w), _w in self.footprints], dtype=np.float64)
        logits = log_p + self.tilt * areas
        peak = logits.max()
        log_z = peak + math.log(np.exp(logits - peak).sum())
        tilted = tuple(
            (shape, float(np.exp(logit - peak)))
            for (shape, _w), logit in zip(self.footprints, logits)
        )
        return tilted, log_z

    def _draw_shapes(
        self, rng: np.random.Generator, count: int
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        tilted, log_z = self._proposal()
        heights, widths = sample_footprints(rng, tilted, count)
        weights = np.exp(log_z - self.tilt * (heights * widths).astype(np.float64))
        return heights, widths, weights

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        heights, widths, weights = self._draw_shapes(rng, count)
        return solid_cluster_sparse(rng, heights, widths, spec).with_weights(weights)

    def to_key(self) -> dict:
        return {
            "model": "tilted_cluster_distribution",
            "footprints": [[list(f), w] for f, w in self.footprints],
            "tilt": self.tilt,
        }


@scenario("fault_count_band")
@dataclass(frozen=True)
class FaultCountBandScenario(ScenarioBase):
    """``hard_fault_map`` conditioned on the fault count band.

    Draws the per-die fault count from ``Poisson(lambda)`` *given*
    ``k_min <= k <= k_max`` by inverse-CDF over the band's renormalized
    pmf (``k_max=None`` is the open tail, capped far past the mass at
    ``lambda + 12 sqrt(lambda) + 30``), then places cells exactly as the
    nominal model does.  This is the per-stratum model for stratified
    estimation: weighting each band's conditional estimate by
    :func:`poisson_band_probability` reconstructs the nominal law with
    zero between-band variance.
    """

    defect_density: float = 1e-4
    k_min: int = 0
    k_max: "int | None" = None
    example_params = {"k_min": 2, "k_max": 8}

    def __post_init__(self) -> None:
        _check_density(self.defect_density)
        _check_integer("k_min", self.k_min)
        if self.k_max is not None:
            _check_integer("k_max", self.k_max)
        if self.k_min < 0:
            raise ValueError("k_min must be non-negative")
        if self.k_max is not None and self.k_max < self.k_min:
            raise ValueError(f"need k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if self.defect_density == 0 and self.k_min > 0:
            raise ValueError(
                f"band [{self.k_min}, {self.k_max}] has no Poisson mass at "
                "defect_density=0"
            )
        object.__setattr__(self, "k_min", int(self.k_min))
        if self.k_max is not None:
            object.__setattr__(self, "k_max", int(self.k_max))

    def _band_pmf(self, n_sites: int) -> "tuple[int, np.ndarray]":
        """``(k_lo, renormalized pmf over the band)`` for this geometry."""
        lam = self.defect_density * n_sites
        if self.k_max is not None:
            k_hi = min(self.k_max, n_sites)
        else:
            k_hi = min(n_sites, int(math.ceil(lam + 12.0 * math.sqrt(lam) + 30.0)))
        k_lo = min(self.k_min, n_sites)
        k_hi = max(k_hi, k_lo)
        pmf = np.exp(_poisson_logpmf(np.arange(k_lo, k_hi + 1), lam))
        total = pmf.sum()
        if total <= 0:
            raise ValueError(
                f"band [{self.k_min}, {self.k_max}] has no Poisson mass at "
                f"lambda={lam}"
            )
        return k_lo, pmf / total

    def _draw_counts(
        self, rng: np.random.Generator, count: int, n_sites: int
    ) -> np.ndarray:
        k_lo, pmf = self._band_pmf(n_sites)
        cdf = np.cumsum(pmf)
        cdf[-1] = 1.0
        u = rng.random(count)
        return k_lo + np.searchsorted(cdf, u, side="right").astype(np.int64)

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        counts = self._draw_counts(rng, count, spec.rows * spec.row_bits)
        return counted_cells_sparse(rng, counts, spec)

    def to_key(self) -> dict:
        return {
            "model": "fault_count_band",
            "defect_density": self.defect_density,
            "k_min": self.k_min,
            "k_max": self.k_max,
        }
