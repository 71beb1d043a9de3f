"""Error-rate models: soft-error FIT rates and hard-error rates.

The paper's reliability analysis (Section 5.2, Fig. 8) uses two inputs:

* a soft error rate of **1000 FIT/Mb** (failures in 10^9 device-hours per
  megabit), taken from Slayman [43], and
* a manufacture-time hard error rate (HER) expressed as the probability
  that an individual cell is faulty, swept from **0.0005% to 0.005%**
  (5e-6 to 5e-5 per bit).

This module turns those constants into the quantities the models need:
expected soft-error counts over an operating interval, expected
faulty-cell counts for a given capacity, and the Poisson law of such a
count (:func:`poisson_band_probability`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SoftErrorRate",
    "HardErrorRate",
    "PAPER_SOFT_ERROR_RATE",
    "PAPER_HARD_ERROR_RATES",
    "HOURS_PER_YEAR",
    "poisson_band_probability",
]

#: Hours in a (non-leap) year, used to convert FIT to per-year rates.
HOURS_PER_YEAR = 24 * 365

#: One megabit, the FIT normalization unit.
_BITS_PER_MEGABIT = 1_000_000


@dataclass(frozen=True)
class SoftErrorRate:
    """Soft error rate expressed in FIT per megabit.

    1 FIT = one failure per 10^9 device-hours.
    """

    fit_per_mbit: float

    def __post_init__(self) -> None:
        if self.fit_per_mbit < 0:
            raise ValueError("FIT rate must be non-negative")

    def events_per_hour(self, capacity_bits: int) -> float:
        """Expected soft-error events per hour for ``capacity_bits`` of SRAM."""
        if capacity_bits < 0:
            raise ValueError("capacity must be non-negative")
        megabits = capacity_bits / _BITS_PER_MEGABIT
        return self.fit_per_mbit * megabits / 1e9

    def events_per_year(self, capacity_bits: int) -> float:
        """Expected soft-error events per year of operation."""
        return self.events_per_hour(capacity_bits) * HOURS_PER_YEAR

    def expected_events(self, capacity_bits: int, years: float) -> float:
        """Expected soft-error events over ``years`` of operation."""
        if years < 0:
            raise ValueError("years must be non-negative")
        return self.events_per_year(capacity_bits) * years


@dataclass(frozen=True)
class HardErrorRate:
    """Per-cell probability of a manufacture-time (or accumulated) hard fault."""

    per_bit_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.per_bit_probability <= 1.0:
            raise ValueError("per-bit probability must be in [0, 1]")

    @classmethod
    def from_percent(cls, percent: float) -> "HardErrorRate":
        """Build from the percentage notation the paper uses (e.g. 0.001%)."""
        return cls(percent / 100.0)

    @property
    def percent(self) -> float:
        return self.per_bit_probability * 100.0

    def expected_faulty_cells(self, capacity_bits: int) -> float:
        """Expected number of faulty cells in ``capacity_bits`` of SRAM."""
        if capacity_bits < 0:
            raise ValueError("capacity must be non-negative")
        return self.per_bit_probability * capacity_bits


#: The soft error rate assumed throughout the paper's Section 5.2.
PAPER_SOFT_ERROR_RATE = SoftErrorRate(fit_per_mbit=1000.0)

#: The three hard error rates swept in Fig. 8(b).
PAPER_HARD_ERROR_RATES = {
    "0.0005%": HardErrorRate.from_percent(0.0005),
    "0.001%": HardErrorRate.from_percent(0.001),
    "0.005%": HardErrorRate.from_percent(0.005),
}


def _log_factorials(k_max: int) -> np.ndarray:
    """``log(k!)`` for ``k = 0..k_max`` via a cumulative-log table."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    out = np.zeros(k_max + 1, dtype=np.float64)
    if k_max:
        out[1:] = np.cumsum(np.log(np.arange(1, k_max + 1, dtype=np.float64)))
    return out


def _poisson_logpmf(k: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise ``log P(K = k)`` for ``K ~ Poisson(lam)``.

    Exact special-casing of ``lam == 0`` (a point mass at zero) keeps
    the untilted configuration's weights identically 1.
    """
    k = np.asarray(k, dtype=np.int64)
    if (k < 0).any():
        raise ValueError("Poisson support is non-negative")
    if lam == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    log_fact = _log_factorials(int(k.max()) if k.size else 0)
    return k * math.log(lam) - lam - log_fact[k]


def poisson_band_probability(lam: float, k_min: int, k_max: "int | None") -> float:
    """``P(k_min <= K <= k_max)`` for ``K ~ Poisson(lam)``.

    ``k_max=None`` is the open upper band ``P(K >= k_min)``.  These are
    the stratum probabilities the stratified combiner weighs the
    per-band conditional estimates by, and ``k_min=0`` gives the CDF
    the yield model's spare-demand law uses.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if k_min < 0 or (k_max is not None and k_max < k_min):
        raise ValueError(f"invalid band [{k_min}, {k_max}]")
    if lam == 0.0:
        return 1.0 if k_min == 0 else 0.0
    if k_max is None:
        if k_min == 0:
            return 1.0
        below = np.exp(_poisson_logpmf(np.arange(k_min), lam)).sum()
        return float(max(0.0, 1.0 - below))
    ks = np.arange(k_min, k_max + 1)
    return float(np.exp(_poisson_logpmf(ks, lam)).sum())
