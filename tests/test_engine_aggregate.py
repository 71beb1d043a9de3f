"""Streaming aggregation and Wilson confidence intervals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CoverageEstimate,
    StreamingAggregator,
    TrialCounts,
    wilson_interval,
)


class TestWilsonInterval:
    def test_known_value(self):
        # Classic textbook check: 8/10 successes at 95%.
        lower, upper = wilson_interval(8, 10, 0.95)
        assert lower == pytest.approx(0.4901, abs=1e-3)
        assert upper == pytest.approx(0.9433, abs=1e-3)

    def test_interval_contains_point_estimate(self):
        for successes, n in [(0, 10), (10, 10), (5, 10), (999, 1000)]:
            lower, upper = wilson_interval(successes, n)
            assert lower <= successes / n <= upper

    def test_degenerate_extremes_stay_informative(self):
        lower, upper = wilson_interval(100, 100)
        assert upper == 1.0
        assert 0.95 < lower < 1.0  # never collapses to a point
        lower0, upper0 = wilson_interval(0, 100)
        assert lower0 == 0.0 and 0.0 < upper0 < 0.05

    def test_narrows_with_trials(self):
        _, u_small = wilson_interval(90, 100)
        l_small, _ = wilson_interval(90, 100)
        l_big, u_big = wilson_interval(9000, 10000)
        assert (u_big - l_big) < (u_small - l_small)

    def test_confidence_ordering(self):
        l95, u95 = wilson_interval(50, 100, 0.95)
        l99, u99 = wilson_interval(50, 100, 0.99)
        assert l99 < l95 and u99 > u95

    def test_empty_sample(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.5)


class TestTrialCounts:
    def test_from_verdicts(self):
        counts = TrialCounts.from_verdicts(np.array([0, 0, 1, 2, 0]))
        assert counts == TrialCounts(n=5, corrected=3, detected=1, silent=1)

    def test_addition_is_commutative(self):
        a = TrialCounts(n=5, corrected=3, detected=1, silent=1)
        b = TrialCounts(n=2, corrected=2, detected=0, silent=0)
        assert a + b == b + a == TrialCounts(n=7, corrected=5, detected=1, silent=1)

    def test_roundtrip_dict(self):
        counts = TrialCounts(n=4, corrected=2, detected=1, silent=1)
        assert TrialCounts.from_dict(counts.as_dict()) == counts

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            TrialCounts(n=3, corrected=1, detected=1, silent=0)


class TestStreamingAggregator:
    def test_chunk_order_does_not_matter(self):
        chunks = [
            np.array([0, 0, 1]),
            np.array([2, 0]),
            np.array([0, 1, 1, 0]),
        ]
        forward = StreamingAggregator()
        backward = StreamingAggregator()
        for chunk in chunks:
            forward.update(chunk)
        for chunk in reversed(chunks):
            backward.update(chunk)
        assert forward.counts == backward.counts

    def test_mixed_updates(self):
        agg = StreamingAggregator()
        agg.update(np.array([0, 1])).update(TrialCounts(n=2, corrected=2))
        assert agg.counts == TrialCounts(n=4, corrected=3, detected=1, silent=0)

    def test_estimate(self):
        agg = StreamingAggregator()
        agg.update(np.zeros(50, dtype=np.uint8))
        estimate = agg.estimate()
        assert isinstance(estimate, CoverageEstimate)
        assert estimate.point == 1.0
        assert estimate.contains(1.0)


class TestCoverageEstimate:
    def test_overlap_and_containment(self):
        a = CoverageEstimate.from_counts(TrialCounts(n=100, corrected=90, detected=10))
        b = CoverageEstimate.from_counts(TrialCounts(n=100, corrected=88, detected=12))
        c = CoverageEstimate.from_counts(TrialCounts(n=1000, corrected=100, detected=900))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)
        assert a.contains(0.9)
        assert not a.contains(0.5)


class TestZScore:
    @pytest.mark.parametrize(
        "confidence, z",
        [(0.90, 1.6448536269514722), (0.95, 1.959963984540054),
         (0.99, 2.5758293035489004)],
        ids=["0.9", "0.95", "0.99"],
    )
    def test_table_equals_scipy(self, confidence, z):
        """The table levels return scipy's ``norm.ppf(0.5 + c / 2)``
        values, pinned bit for bit."""
        from repro.engine.aggregate import _z_score

        assert _z_score(confidence) == z

    @pytest.mark.parametrize(
        "confidence, z",
        [(0.80, 1.2815515655446004), (0.999, 3.2905267314919255)],
        ids=["0.8", "0.999"],
    )
    def test_other_levels_use_normal_dist(self, confidence, z):
        """Off-table levels use the stdlib normal quantile, accurate to
        a few ulps of the exact z."""
        from repro.engine.aggregate import _z_score

        assert _z_score(confidence) == pytest.approx(z, rel=1e-14)
