"""Streaming aggregation of Monte Carlo verdicts with Wilson intervals.

Chunks of trials arrive from the sharded runner in arbitrary worker
order; aggregation is a plain sum of verdict counts, so the totals are
independent of scheduling.  Coverage (the fraction of trials the scheme
fully corrects) is reported with a Wilson score interval, which behaves
sensibly at the extremes (coverage near 1.0 with finite trials) where
the naive normal interval collapses to a point.

Importance-sampled runs carry a likelihood-ratio weight per trial;
:class:`WeightedTally` accumulates the weighted indicator sums the same
commutative way :class:`TrialCounts` accumulates plain counts, and
:class:`WeightedEstimate` turns them into a Horvitz–Thompson point
estimate with a delta-method confidence interval and an effective
sample size.  :class:`StratifiedEstimate` combines per-stratum
estimates exactly (mixture mean, quadrature standard errors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .batch import VERDICT_CORRECTED, VERDICT_DETECTED, VERDICT_SILENT

__all__ = [
    "TrialCounts",
    "CoverageEstimate",
    "MeanEstimate",
    "WeightedTally",
    "WeightedEstimate",
    "StratifiedEstimate",
    "StreamingAggregator",
    "wilson_interval",
    "half_width",
    "relative_half_width",
    "WEIGHTED_TARGETS",
]

#: Verdict-derived event rates an estimator can target.  ``uncorrected``
#: is the union of detected and silent — the failure tail the
#: rare-event machinery exists to resolve.
WEIGHTED_TARGETS = ("corrected", "detected", "silent", "uncorrected")

#: z-scores ``Phi^-1(0.5 + c / 2)`` of the common confidence levels,
#: exact to the last bit; other levels use the stdlib normal quantile.
_Z_TABLE = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}


def _z_score(confidence: float) -> float:
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if confidence in _Z_TABLE:
        return _Z_TABLE[confidence]
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def half_width(lower: float, upper: float) -> float:
    """Half the width of a ``[lower, upper]`` confidence interval.

    The one definition every estimate type shares — sequential stopping
    compares this against the requested ``tolerance``.
    """
    if math.isnan(lower) or math.isnan(upper):
        raise ValueError("interval bounds must not be NaN")
    if upper < lower:
        raise ValueError(f"need lower <= upper, got [{lower}, {upper}]")
    return (upper - lower) / 2.0


def relative_half_width(point: float, lower: float, upper: float) -> float:
    """CI half-width relative to the point estimate's magnitude.

    ``inf`` when the point estimate is zero but the interval has width —
    a relative tolerance cannot be met before the target event has been
    observed at all, which is exactly the "keep sampling" answer the
    sequential loop needs.
    """
    half = half_width(lower, upper)
    if point == 0.0:
        return 0.0 if half == 0.0 else math.inf
    return half / abs(point)


def wilson_interval(
    successes: int, n: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 0 or not 0 <= successes <= max(n, 0):
        raise ValueError("need 0 <= successes <= n")
    if n == 0:
        return 0.0, 1.0
    z = _z_score(confidence)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    # At p in {0, 1} the bound at the boundary is exactly 0 / 1
    # algebraically; avoid floating-point dust excluding the MLE.
    lower = 0.0 if successes == 0 else max(0.0, center - half)
    upper = 1.0 if successes == n else min(1.0, center + half)
    return lower, upper


@dataclass(frozen=True)
class TrialCounts:
    """Verdict tallies for a set of Monte Carlo trials."""

    n: int = 0
    corrected: int = 0
    detected: int = 0
    silent: int = 0

    def __post_init__(self) -> None:
        if min(self.n, self.corrected, self.detected, self.silent) < 0:
            raise ValueError("counts must be non-negative")
        if self.corrected + self.detected + self.silent != self.n:
            raise ValueError("verdict counts must sum to n")

    @classmethod
    def from_verdicts(cls, verdicts: np.ndarray) -> "TrialCounts":
        v = np.asarray(verdicts)
        return cls(
            n=int(v.size),
            corrected=int((v == VERDICT_CORRECTED).sum()),
            detected=int((v == VERDICT_DETECTED).sum()),
            silent=int((v == VERDICT_SILENT).sum()),
        )

    def __add__(self, other: "TrialCounts") -> "TrialCounts":
        return TrialCounts(
            n=self.n + other.n,
            corrected=self.corrected + other.corrected,
            detected=self.detected + other.detected,
            silent=self.silent + other.silent,
        )

    @property
    def uncorrected(self) -> int:
        """Trials the scheme failed to fully correct (detected + silent)."""
        return self.detected + self.silent

    def target_count(self, target: str) -> int:
        """The tally for one :data:`WEIGHTED_TARGETS` event class."""
        if target not in WEIGHTED_TARGETS:
            raise ValueError(f"target must be one of {WEIGHTED_TARGETS}, got {target!r}")
        return self.uncorrected if target == "uncorrected" else getattr(self, target)

    def as_dict(self) -> dict[str, int]:
        return {
            "n": self.n,
            "corrected": self.corrected,
            "detected": self.detected,
            "silent": self.silent,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrialCounts":
        return cls(
            n=int(payload["n"]),
            corrected=int(payload["corrected"]),
            detected=int(payload["detected"]),
            silent=int(payload["silent"]),
        )


@dataclass(frozen=True)
class CoverageEstimate:
    """Point estimate + Wilson CI of the fully-corrected trial fraction."""

    n: int
    successes: int
    confidence: float
    point: float
    lower: float
    upper: float

    @classmethod
    def from_counts(
        cls, counts: TrialCounts, confidence: float = 0.95
    ) -> "CoverageEstimate":
        return cls.from_binomial(counts.corrected, counts.n, confidence)

    @classmethod
    def from_binomial(
        cls, successes: int, n: int, confidence: float = 0.95
    ) -> "CoverageEstimate":
        """Wilson-interval estimate of any binomial event proportion.

        ``from_counts`` is this with ``successes = counts.corrected``;
        the stratified combiner uses it for the other verdict classes.
        """
        lower, upper = wilson_interval(successes, n, confidence)
        point = successes / n if n else 0.0
        return cls(
            n=n,
            successes=successes,
            confidence=confidence,
            point=point,
            lower=lower,
            upper=upper,
        )

    @property
    def half_width(self) -> float:
        return half_width(self.lower, self.upper)

    @property
    def std_error(self) -> float:
        """Adjusted binomial standard error (Agresti–Coull center).

        Shrinking toward 1/2 keeps the error finite at observed
        proportions of exactly 0 or 1, so a boundary stratum still
        contributes honest width to a stratified combination instead of
        collapsing it.
        """
        z = _z_score(self.confidence)
        n_adj = self.n + z * z
        p_adj = (self.successes + z * z / 2.0) / n_adj
        return math.sqrt(p_adj * (1.0 - p_adj) / n_adj)

    def contains(self, value: float) -> bool:
        """Is ``value`` inside the confidence interval?"""
        return self.lower <= value <= self.upper

    def overlaps(self, other: "CoverageEstimate") -> bool:
        """Do the two confidence intervals intersect?"""
        return self.lower <= other.upper and other.lower <= self.upper

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pct = 100.0 * self.confidence
        return (
            f"{self.point:.4f} [{self.lower:.4f}, {self.upper:.4f}] "
            f"@{pct:.0f}% ({self.successes}/{self.n})"
        )


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean of replicated trials with a normal confidence interval.

    The continuous counterpart of :class:`CoverageEstimate`: coverage
    probabilities get Wilson intervals, continuous per-trial metrics
    (IPC, accesses per 100 cycles) get ``mean ± z·s/√n`` from the
    sample standard deviation.  With a single trial the spread is
    unknowable and the interval degenerates to the point estimate.
    """

    n: int
    mean: float
    std: float
    confidence: float
    lower: float
    upper: float

    @classmethod
    def from_samples(
        cls, samples, confidence: float = 0.95
    ) -> "MeanEstimate":
        values = np.asarray(samples, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("need at least one sample")
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        half = _z_score(confidence) * std / math.sqrt(values.size)
        return cls(
            n=int(values.size),
            mean=mean,
            std=std,
            confidence=confidence,
            lower=mean - half,
            upper=mean + half,
        )

    @property
    def half_width(self) -> float:
        return half_width(self.lower, self.upper)

    def contains(self, value: float) -> bool:
        """Is ``value`` inside the confidence interval?"""
        return self.lower <= value <= self.upper

    def overlaps(self, other: "MeanEstimate") -> bool:
        """Do the two confidence intervals intersect?"""
        return self.lower <= other.upper and other.lower <= self.upper

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pct = 100.0 * self.confidence
        return (
            f"{self.mean:.4f} ± {self.half_width:.4f} "
            f"[{self.lower:.4f}, {self.upper:.4f}] @{pct:.0f}% (n={self.n})"
        )


@dataclass(frozen=True)
class WeightedTally:
    """Commutative weighted-verdict sums for importance-sampled trials.

    The weighted twin of :class:`TrialCounts`: for every verdict class
    it keeps the sum of the trial weights landing in that class and the
    sum of their squares (for the delta-method variance), plus the
    whole-sample weight moments that define the effective sample size.
    Addition is field-wise, so chunk tallies merged in a fixed order
    reproduce the single-shard tally bit for bit — the property the
    sharded runner's worker-count invariance rests on.
    """

    n: int = 0
    sum_w: float = 0.0
    sum_w2: float = 0.0
    w_corrected: float = 0.0
    w2_corrected: float = 0.0
    w_detected: float = 0.0
    w2_detected: float = 0.0
    w_silent: float = 0.0
    w2_silent: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be non-negative")

    @classmethod
    def from_verdicts(cls, verdicts: np.ndarray, weights: np.ndarray) -> "WeightedTally":
        v = np.asarray(verdicts)
        w = np.asarray(weights, dtype=np.float64)
        if v.shape != w.shape:
            raise ValueError("verdicts and weights must align")
        if w.size and (not np.isfinite(w).all() or (w < 0).any()):
            raise ValueError("weights must be finite and non-negative")
        w2 = w * w

        def _class(code: int) -> tuple[float, float]:
            hit = v == code
            return float(w[hit].sum()), float(w2[hit].sum())

        wc, w2c = _class(VERDICT_CORRECTED)
        wd, w2d = _class(VERDICT_DETECTED)
        ws, w2s = _class(VERDICT_SILENT)
        return cls(
            n=int(v.size),
            sum_w=float(w.sum()),
            sum_w2=float(w2.sum()),
            w_corrected=wc,
            w2_corrected=w2c,
            w_detected=wd,
            w2_detected=w2d,
            w_silent=ws,
            w2_silent=w2s,
        )

    def __add__(self, other: "WeightedTally") -> "WeightedTally":
        return WeightedTally(
            n=self.n + other.n,
            sum_w=self.sum_w + other.sum_w,
            sum_w2=self.sum_w2 + other.sum_w2,
            w_corrected=self.w_corrected + other.w_corrected,
            w2_corrected=self.w2_corrected + other.w2_corrected,
            w_detected=self.w_detected + other.w_detected,
            w2_detected=self.w2_detected + other.w2_detected,
            w_silent=self.w_silent + other.w_silent,
            w2_silent=self.w2_silent + other.w2_silent,
        )

    @property
    def ess(self) -> float:
        """Kish effective sample size ``(Σw)² / Σw²`` of the weights."""
        return (self.sum_w * self.sum_w / self.sum_w2) if self.sum_w2 > 0 else 0.0

    def target_sums(self, target: str) -> tuple[float, float]:
        """``(Σ w·1[class], Σ w²·1[class])`` for one event class."""
        if target not in WEIGHTED_TARGETS:
            raise ValueError(f"target must be one of {WEIGHTED_TARGETS}, got {target!r}")
        if target == "uncorrected":
            return (
                self.w_detected + self.w_silent,
                self.w2_detected + self.w2_silent,
            )
        return (
            getattr(self, f"w_{target}"),
            getattr(self, f"w2_{target}"),
        )

    def estimate(self, target: str = "corrected", confidence: float = 0.95) -> "WeightedEstimate":
        return WeightedEstimate.from_tally(self, target=target, confidence=confidence)

    _FIELDS = (
        "n", "sum_w", "sum_w2",
        "w_corrected", "w2_corrected",
        "w_detected", "w2_detected",
        "w_silent", "w2_silent",
    )

    def as_array(self) -> np.ndarray:
        """Flat float64 vector for the npz result cache."""
        return np.array([float(getattr(self, f)) for f in self._FIELDS], dtype=np.float64)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "WeightedTally":
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != len(cls._FIELDS):
            raise ValueError(f"expected {len(cls._FIELDS)} tally fields, got {values.size}")
        fields = dict(zip(cls._FIELDS, (float(v) for v in values)))
        fields["n"] = int(fields["n"])
        return cls(**fields)


@dataclass(frozen=True)
class WeightedEstimate:
    """Horvitz–Thompson estimate of an event rate from weighted trials.

    The point estimate ``(1/n) Σ wᵢ·1[class]`` is unbiased for the
    nominal-law event probability whenever the weights are the
    likelihood ratio of the nominal to the sampling law (and the event
    is impossible outside the sampling law's support).  The interval is
    the delta-method normal interval from the weighted sample variance,
    clipped to ``[0, 1]``; ``ess`` carries the Kish effective sample
    size of the weights so consumers can judge how degenerate the
    reweighting is.
    """

    n: int
    target: str
    confidence: float
    point: float
    std_error: float
    lower: float
    upper: float
    ess: float
    sum_weight: float

    @classmethod
    def from_tally(
        cls,
        tally: WeightedTally,
        target: str = "corrected",
        confidence: float = 0.95,
    ) -> "WeightedEstimate":
        wsum, w2sum = tally.target_sums(target)
        n = tally.n
        if n == 0:
            return cls(
                n=0, target=target, confidence=confidence,
                point=0.0, std_error=0.0, lower=0.0, upper=1.0,
                ess=0.0, sum_weight=0.0,
            )
        point = wsum / n
        second_moment = w2sum / n
        variance = max(second_moment - point * point, 0.0)
        if n > 1:
            variance *= n / (n - 1.0)
        std_error = math.sqrt(variance / n)
        half = _z_score(confidence) * std_error
        return cls(
            n=n,
            target=target,
            confidence=confidence,
            point=point,
            std_error=std_error,
            lower=max(0.0, point - half),
            upper=min(1.0, point + half),
            ess=tally.ess,
            sum_weight=tally.sum_w,
        )

    @property
    def half_width(self) -> float:
        return half_width(self.lower, self.upper)

    def contains(self, value: float) -> bool:
        """Is ``value`` inside the confidence interval?"""
        return self.lower <= value <= self.upper

    def overlaps(self, other) -> bool:
        """Do the two confidence intervals intersect?"""
        return self.lower <= other.upper and other.lower <= self.upper

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pct = 100.0 * self.confidence
        return (
            f"{self.point:.3e} ± {self.half_width:.3e} "
            f"[{self.lower:.3e}, {self.upper:.3e}] @{pct:.0f}% "
            f"({self.target}, n={self.n}, ess={self.ess:.1f})"
        )


@dataclass(frozen=True)
class StratifiedEstimate:
    """Exact mixture combination of per-stratum event-rate estimates.

    With stratum probabilities ``πₖ`` (summing to 1) and conditional
    estimates ``p̂ₖ`` from independent runs, the combined estimate is
    ``Σ πₖ p̂ₖ`` with standard error ``√(Σ πₖ² seₖ²)`` — no
    between-stratum variance term, which is the whole point of
    stratification.  ``strata`` keeps the JSON-pure per-stratum
    breakdown for result payloads.
    """

    n: int
    confidence: float
    point: float
    std_error: float
    lower: float
    upper: float
    strata: tuple = ()

    @classmethod
    def combine(
        cls,
        probabilities,
        estimates,
        confidence: float = 0.95,
        labels=None,
    ) -> "StratifiedEstimate":
        probabilities = [float(p) for p in probabilities]
        estimates = list(estimates)
        if len(probabilities) != len(estimates) or not estimates:
            raise ValueError("need one probability per stratum estimate")
        if min(probabilities) < 0:
            raise ValueError("stratum probabilities must be non-negative")
        total = sum(probabilities)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(f"stratum probabilities must sum to 1, got {total}")
        point = sum(p * e.point for p, e in zip(probabilities, estimates))
        variance = sum(
            (p * e.std_error) ** 2 for p, e in zip(probabilities, estimates)
        )
        std_error = math.sqrt(variance)
        half = _z_score(confidence) * std_error
        labels = list(labels) if labels is not None else [
            f"stratum_{i}" for i in range(len(estimates))
        ]
        strata = tuple(
            {
                "label": str(label),
                "probability": p,
                "n": int(e.n),
                "point": float(e.point),
                "std_error": float(e.std_error),
            }
            for label, p, e in zip(labels, probabilities, estimates)
        )
        return cls(
            n=sum(int(e.n) for e in estimates),
            confidence=confidence,
            point=point,
            std_error=std_error,
            lower=max(0.0, point - half),
            upper=min(1.0, point + half),
            strata=strata,
        )

    @property
    def half_width(self) -> float:
        return half_width(self.lower, self.upper)

    def contains(self, value: float) -> bool:
        """Is ``value`` inside the confidence interval?"""
        return self.lower <= value <= self.upper

    def overlaps(self, other) -> bool:
        """Do the two confidence intervals intersect?"""
        return self.lower <= other.upper and other.lower <= self.upper

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pct = 100.0 * self.confidence
        return (
            f"{self.point:.4f} ± {self.half_width:.4f} "
            f"[{self.lower:.4f}, {self.upper:.4f}] @{pct:.0f}% "
            f"({len(self.strata)} strata, n={self.n})"
        )


class StreamingAggregator:
    """Accumulates verdict counts chunk by chunk.

    Totals are commutative sums, so feeding chunks in any completion
    order produces identical results — the property the sharded runner
    relies on.
    """

    def __init__(self) -> None:
        self._counts = TrialCounts()

    @property
    def counts(self) -> TrialCounts:
        return self._counts

    def update(self, chunk: "TrialCounts | np.ndarray") -> "StreamingAggregator":
        if not isinstance(chunk, TrialCounts):
            chunk = TrialCounts.from_verdicts(chunk)
        self._counts = self._counts + chunk
        return self

    def estimate(self, confidence: float = 0.95) -> CoverageEstimate:
        return CoverageEstimate.from_counts(self._counts, confidence)
