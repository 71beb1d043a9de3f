"""Rare-event estimation: weighted tallies, sequential stopping, strata.

Covers the estimator layer end to end — the Horvitz–Thompson math in
``repro.engine.aggregate``, the tolerance-stopped runner loop, the
stratified dispatch, and the statistical contracts the whole stack
rests on: unbiasedness of the tilted and stratified estimators against
plain Monte Carlo, and bit-identical realized trial counts across
worker counts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    CoverageEstimate,
    EngineSpec,
    SharedExecutor,
    StratifiedEstimate,
    Stratum,
    WeightedEstimate,
    WeightedTally,
    half_width,
    neyman_allocation,
    proportional_allocation,
    run_experiment,
    run_experiment_sequential,
    run_stratified,
    relative_half_width,
    wilson_interval,
)
from repro.scenarios import (
    TiltedClusteredMbuScenario,
    TiltedHardFaultMapScenario,
    make_scenario,
)

SPEC = EngineSpec(
    rows=16, data_bits=16, interleave_degree=2, horizontal_code="SECDED",
    vertical_groups=None,
)


# ----------------------------------------------------------------------
# half-width helpers (hypothesis)
# ----------------------------------------------------------------------

class TestHalfWidthHelpers:
    @given(
        lower=st.floats(0.0, 1.0),
        width=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_half_width_is_half_the_width(self, lower, width):
        upper = min(lower + width, 1.0)
        assert half_width(lower, upper) == pytest.approx((upper - lower) / 2)

    @given(
        successes_rate=st.floats(0.05, 0.95),
        n=st.integers(16, 4096),
        factor=st.integers(2, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_n(self, successes_rate, n, factor):
        # Same success proportion at `factor` times the trials must give
        # a no-wider interval.
        small = wilson_interval(int(successes_rate * n), n)
        big = wilson_interval(int(successes_rate * n) * factor, n * factor)
        assert half_width(*big) <= half_width(*small) + 1e-12

    @given(
        point=st.floats(1e-6, 1.0),
        spread=st.floats(0.0, 0.5),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_relative_half_width_is_scale_free(self, point, spread, scale):
        lower = point * (1.0 - spread)
        upper = point * (1.0 + spread)
        base = relative_half_width(point, lower, upper)
        scaled = relative_half_width(point * scale, lower * scale, upper * scale)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_degenerate_cases(self):
        assert relative_half_width(0.0, 0.0, 0.0) == 0.0
        assert math.isinf(relative_half_width(0.0, 0.0, 0.1))
        with pytest.raises(ValueError):
            half_width(0.6, 0.4)
        with pytest.raises(ValueError):
            half_width(float("nan"), 0.5)

    def test_estimates_expose_the_helper(self):
        estimate = CoverageEstimate.from_binomial(8, 10)
        assert estimate.half_width == pytest.approx(
            (estimate.upper - estimate.lower) / 2
        )


# ----------------------------------------------------------------------
# Horvitz–Thompson tallies
# ----------------------------------------------------------------------

class TestWeightedTally:
    def test_unit_weights_reduce_to_plain_fractions(self):
        verdicts = np.array([0, 0, 1, 2, 0, 1], dtype=np.uint8)
        tally = WeightedTally.from_verdicts(verdicts, np.ones(6))
        estimate = WeightedEstimate.from_tally(tally, target="corrected")
        assert estimate.point == pytest.approx(3 / 6)
        assert tally.ess == pytest.approx(6.0)

    def test_weighted_point_is_mean_weight_of_target(self):
        verdicts = np.array([0, 1, 0, 2], dtype=np.uint8)
        weights = np.array([0.5, 2.0, 1.5, 0.25])
        tally = WeightedTally.from_verdicts(verdicts, weights)
        estimate = WeightedEstimate.from_tally(tally, target="corrected")
        assert estimate.point == pytest.approx((0.5 + 1.5) / 4)
        uncorrected = WeightedEstimate.from_tally(tally, target="uncorrected")
        assert uncorrected.point == pytest.approx((2.0 + 0.25) / 4)

    def test_add_is_commutative_and_array_round_trips(self):
        a = WeightedTally.from_verdicts(
            np.array([0, 1], dtype=np.uint8), np.array([1.0, 2.0])
        )
        b = WeightedTally.from_verdicts(
            np.array([2, 0], dtype=np.uint8), np.array([0.5, 3.0])
        )
        assert (a + b) == (b + a)
        assert WeightedTally.from_array((a + b).as_array()) == (a + b)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedTally.from_verdicts(
                np.array([0], dtype=np.uint8), np.array([-1.0])
            )
        with pytest.raises(ValueError):
            WeightedTally.from_verdicts(
                np.array([0, 1], dtype=np.uint8), np.array([1.0])
            )


# ----------------------------------------------------------------------
# sequential stopping
# ----------------------------------------------------------------------

class TestSequentialRunner:
    MODEL_CFG = {"defect_density": 0.003}

    def test_stops_within_tolerance(self):
        model = make_scenario("hard_fault_map", **self.MODEL_CFG)
        result = run_experiment_sequential(
            SPEC, model, 11, tolerance=0.05, block_size=32,
            initial_trials=64, max_trials=1 << 14,
        )
        estimate = result.estimate()
        assert estimate.half_width <= 0.05
        assert result.n_trials < 1 << 14

    def test_realized_trials_match_across_workers(self):
        model = make_scenario("hard_fault_map", **self.MODEL_CFG)
        kwargs = dict(
            tolerance=0.04, block_size=32, initial_trials=64,
            max_trials=1 << 13,
        )
        serial = run_experiment_sequential(SPEC, model, 11, **kwargs)
        with SharedExecutor(workers=4) as pool:
            parallel = run_experiment_sequential(SPEC, model, 11, executor=pool, **kwargs)
        assert serial.n_trials == parallel.n_trials
        assert serial.counts == parallel.counts

    def test_sequential_weighted_matches_fixed_run_bit_for_bit(self):
        model = TiltedHardFaultMapScenario(defect_density=0.003, tilt=0.8)
        sequential = run_experiment_sequential(
            SPEC, model, 23, tolerance=0.2, block_size=32,
            initial_trials=64, max_trials=1 << 12,
        )
        fixed = run_experiment(
            SPEC, model, sequential.n_trials, 23, block_size=32
        )
        assert sequential.counts == fixed.counts
        assert np.array_equal(
            sequential.tally.as_array(), fixed.tally.as_array()
        )

    def test_relative_tolerance(self):
        model = make_scenario("hard_fault_map", **self.MODEL_CFG)
        result = run_experiment_sequential(
            SPEC, model, 11, tolerance=0.1, relative=True, block_size=32,
            initial_trials=64, max_trials=1 << 14,
        )
        estimate = result.estimate()
        assert estimate.half_width / estimate.point <= 0.1

    def test_rejects_bad_stopping_rules(self):
        model = make_scenario("hard_fault_map", **self.MODEL_CFG)
        with pytest.raises(ValueError):
            run_experiment_sequential(SPEC, model, 1, tolerance=0.0)
        with pytest.raises(ValueError):
            run_experiment_sequential(SPEC, model, 1, tolerance=0.1, growth=1.0)


# ----------------------------------------------------------------------
# stratification
# ----------------------------------------------------------------------

class TestAllocation:
    def test_proportional_rounds_to_blocks(self):
        counts = proportional_allocation([0.5, 0.5], 100, block_size=16)
        assert counts == [64, 64]

    def test_zero_probability_gets_nothing(self):
        counts = proportional_allocation([0.0, 1.0], 128, block_size=16)
        assert counts == [0, 128]

    def test_rare_stratum_still_gets_one_block(self):
        counts = proportional_allocation([1e-9, 1.0], 256, block_size=16)
        assert counts[0] == 16

    def test_neyman_weights_by_sigma(self):
        counts = neyman_allocation(
            [0.5, 0.5], [0.1, 0.4], 1000, block_size=16
        )
        assert counts[1] > counts[0]

    def test_neyman_degenerate_pilot_falls_back(self):
        counts = neyman_allocation([0.5, 0.5], [0.0, 0.0], 128, block_size=16)
        assert counts == proportional_allocation([0.5, 0.5], 128, block_size=16)


class TestStratified:
    def _strata(self):
        return [
            Stratum("1x1", 0.8, make_scenario("fixed_cluster", height=1, width=1)),
            Stratum("2x2", 0.2, make_scenario("fixed_cluster", height=2, width=2)),
        ]

    def test_agrees_with_plain_mc(self):
        combined = run_stratified(
            SPEC, self._strata(), 2048, 31, block_size=32
        )
        plain = run_experiment(
            SPEC,
            make_scenario(
                "clustered_mbu", footprints=(((1, 1), 0.8), ((2, 2), 0.2))
            ),
            4096,
            31,
            block_size=32,
        ).estimate()
        assert combined.lower <= plain.upper and plain.lower <= combined.upper

    def test_neyman_never_much_worse_than_proportional(self):
        kwargs = dict(block_size=32)
        prop = run_stratified(
            SPEC, self._strata(), 2048, 31, allocation="proportional", **kwargs
        )
        ney = run_stratified(
            SPEC, self._strata(), 2048, 31, allocation="neyman", **kwargs
        )
        assert ney.std_error <= prop.std_error * 1.25

    def test_partition_must_sum_to_one(self):
        strata = [
            Stratum("a", 0.5, make_scenario("fixed_cluster", height=1, width=1)),
            Stratum("b", 0.2, make_scenario("fixed_cluster", height=2, width=2)),
        ]
        with pytest.raises(ValueError, match="sum"):
            run_stratified(SPEC, strata, 256, 1, block_size=32)

    def test_combine_exact_math(self):
        a = CoverageEstimate.from_binomial(90, 100)
        b = CoverageEstimate.from_binomial(10, 100)
        combined = StratifiedEstimate.combine([0.6, 0.4], [a, b])
        assert combined.point == pytest.approx(0.6 * a.point + 0.4 * b.point)
        expected_se = math.sqrt(
            (0.6 * a.std_error) ** 2 + (0.4 * b.std_error) ** 2
        )
        assert combined.std_error == pytest.approx(expected_se)


# ----------------------------------------------------------------------
# unbiasedness: tilted and stratified agree with plain MC
# ----------------------------------------------------------------------

class TestUnbiasedness:
    """The estimators target the same quantity; on a small SECDED bank
    their confidence intervals must overlap plain Monte Carlo's."""

    DENSITY = 0.002
    TRIALS = 4096

    def _plain(self):
        model = make_scenario("hard_fault_map", defect_density=self.DENSITY)
        return run_experiment(SPEC, model, self.TRIALS, 7, block_size=32).estimate()

    def test_tilted_hard_fault_map(self):
        plain = self._plain()
        tilted_model = TiltedHardFaultMapScenario(
            defect_density=self.DENSITY, tilt=0.7
        )
        result = run_experiment(SPEC, tilted_model, self.TRIALS, 7, block_size=32)
        weighted = result.weighted_estimate("corrected")
        assert weighted.lower <= plain.upper and plain.lower <= weighted.upper
        assert 0 < weighted.ess <= result.n_trials

    def test_zero_tilt_weights_are_exactly_one(self):
        model = TiltedHardFaultMapScenario(defect_density=self.DENSITY, tilt=0.0)
        result = run_experiment(SPEC, model, 256, 7, block_size=32)
        assert np.all(result.weights == 1.0)
        assert result.weighted_estimate("corrected").ess == pytest.approx(
            result.n_trials
        )

    def test_tilted_clustered_mbu(self):
        footprints = (((1, 1), 0.7), ((2, 2), 0.2), ((3, 3), 0.1))
        plain = run_experiment(
            SPEC,
            make_scenario("clustered_mbu", footprints=footprints),
            self.TRIALS,
            7,
            block_size=32,
        ).estimate()
        tilted = run_experiment(
            SPEC,
            TiltedClusteredMbuScenario(footprints=footprints, tilt=0.4),
            self.TRIALS,
            7,
            block_size=32,
        ).weighted_estimate("corrected")
        assert tilted.lower <= plain.upper and plain.lower <= tilted.upper

    def test_stratified_hard_fault_map(self):
        from repro.scenarios import FaultCountBandScenario, poisson_band_probability

        plain = self._plain()
        lam = self.DENSITY * SPEC.rows * SPEC.row_bits
        strata = []
        for k in range(3):
            k_max = k if k < 2 else None
            strata.append(
                Stratum(
                    f"k={k}",
                    poisson_band_probability(lam, k, k_max),
                    FaultCountBandScenario(
                        defect_density=self.DENSITY, k_min=k, k_max=k_max
                    ),
                )
            )
        combined = run_stratified(SPEC, strata, self.TRIALS, 7, block_size=32)
        assert combined.lower <= plain.upper and plain.lower <= combined.upper
