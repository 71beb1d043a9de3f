"""Rare-event knobs through the API surface: spec validation, catalog
dispatch, the tilted estimate's accuracy, and the knobs as ``run -p``
params."""

from __future__ import annotations

import json
import math

import pytest

from repro.api import ExperimentSpec, SpecError, run
from repro.api.catalog import named_schemes
from repro.api.cli import main
from repro.api.spec import RARE_EVENT_PARAMS
from repro.engine import EngineSpec, run_experiment
from repro.scenarios import TiltedHardFaultMapScenario

HFM = {"scenario": "hard_fault_map", "scenario_params": {"defect_density": 2e-5}}


def _sweep(**params):
    merged = dict(HFM)
    merged.update(params)
    return ExperimentSpec(
        "sweep.mc_coverage", trials=512, seed=5, params=merged
    )


class TestAnalyticalRejection:
    """Satellite contract: statistical sampling knobs are meaningless on
    an exact model and must fail loudly, not be silently ignored."""

    @pytest.mark.parametrize(
        "knob",
        [
            {"tolerance": 0.01},
            {"estimator": "tilted"},
            {"tilt": 1.0},
            {"strata": 4},
            {"tolerance_relative": True},
            {"allocation": "neyman"},
        ],
    )
    @pytest.mark.parametrize("experiment", ["fig3.coverage", "fig8.yield"])
    def test_each_knob_rejected(self, experiment, knob):
        spec = ExperimentSpec(experiment, backend="analytical", params=knob)
        with pytest.raises(SpecError, match="monte_carlo"):
            run(spec)

    def test_auto_backend_prefers_monte_carlo(self):
        # The same knob that the analytical backend rejects steers auto
        # resolution to the sampling backend, like trials does.
        spec = ExperimentSpec(
            "fig3.coverage", seed=2007, params={"tolerance": 0.05}
        )
        result = run(spec)
        assert result.backend == "monte_carlo"


class TestKnobValidation:
    def test_unknown_estimator(self):
        with pytest.raises(SpecError, match="estimator"):
            run(_sweep(estimator="magic"))

    def test_tilt_requires_tilted(self):
        with pytest.raises(SpecError, match="tilt"):
            run(_sweep(estimator="stratified", tilt=1.0))

    def test_strata_requires_stratified(self):
        with pytest.raises(SpecError, match="strata"):
            run(_sweep(estimator="tilted", strata=4))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(SpecError, match="positive"):
            run(_sweep(tolerance=-0.1))

    def test_relative_needs_tolerance(self):
        with pytest.raises(SpecError, match="tolerance"):
            run(_sweep(tolerance_relative=True))

    def test_stratified_and_tolerance_conflict(self):
        with pytest.raises(SpecError, match="compose"):
            run(_sweep(estimator="stratified", tolerance=0.01))

    def test_allocation_validated(self):
        with pytest.raises(SpecError, match="allocation"):
            run(_sweep(estimator="stratified", allocation="eyeball"))

    def test_tilted_needs_a_tiltable_scenario(self):
        spec = ExperimentSpec(
            "sweep.mc_coverage",
            trials=512,
            seed=5,
            params={"scenario": "fixed_cluster",
                    "scenario_params": {"height": 2, "width": 2},
                    "estimator": "tilted", "tilt": 1.0},
        )
        with pytest.raises(SpecError, match="tilted"):
            run(spec)

    def test_fig8_iid_uniform_cannot_be_tilted(self):
        spec = ExperimentSpec(
            "fig8.yield",
            trials=256,
            seed=1946,
            params={"estimator": "tilted", "tilt": 0.5},
        )
        with pytest.raises(SpecError, match="hard_fault_map"):
            run(spec)

    def test_shift_rejected_for_clustered(self):
        """``shift`` is no catalog param, for any scenario: a proposal
        that never draws fewer than ``shift`` faults misses every
        failure below it."""
        assert "shift" not in RARE_EVENT_PARAMS
        for scenario in ("clustered_mbu", "hard_fault_map"):
            spec = ExperimentSpec(
                "sweep.mc_coverage",
                trials=512,
                seed=5,
                params={"scenario": scenario, "estimator": "tilted", "shift": 2},
            )
            with pytest.raises(SpecError, match="does not accept param.s. shift"):
                run(spec)


class TestCatalogDispatch:
    def test_plain_default_payload_shape_unchanged(self):
        result = run(_sweep())
        estimate = result.data_dict()["estimate"]
        assert set(estimate) == {
            "n", "successes", "confidence", "point", "lower", "upper"
        }

    def test_tilted_payload_carries_ess(self):
        result = run(_sweep(estimator="tilted", tilt=0.5))
        estimate = result.data_dict()["estimate"]
        assert estimate["estimator"] == "tilted"
        assert 0 < estimate["ess"] <= estimate["n"]
        telemetry = result.telemetry()
        assert telemetry["realized_trials"] == estimate["n"]
        assert telemetry["ess"] > 0

    def test_stratified_payload_lists_strata(self):
        result = run(_sweep(estimator="stratified", strata=3))
        estimate = result.data_dict()["estimate"]
        assert estimate["estimator"] == "stratified"
        assert [s["label"] for s in estimate["strata"]] == ["k=0", "k=1", "k>=2"]
        assert result.data_dict()["counts"] is None

    def test_sequential_reports_realized_trials(self):
        result = run(_sweep(tolerance=0.05))
        estimate = result.data_dict()["estimate"]
        assert estimate["realized_trials"] == estimate["n"]
        assert (estimate["upper"] - estimate["lower"]) / 2 <= 0.05

    def test_fig8_stratified_tracks_plain(self):
        base = dict(trials=256, seed=1946)
        params = {"scenario": "hard_fault_map",
                  "failing_cells": (8, 16), "rows": 16}
        plain = run(ExperimentSpec("fig8.yield", **base, params=params))
        stratified = run(
            ExperimentSpec(
                "fig8.yield",
                **base,
                params={**params, "estimator": "stratified", "strata": 3},
            )
        )
        for p, lo, hi in zip(
            plain.data_dict()["simulated"],
            stratified.data_dict()["simulated_lower"],
            stratified.data_dict()["simulated_upper"],
        ):
            assert lo - 0.05 <= p <= hi + 0.05

    def test_knobs_change_the_spec_hash(self):
        # Dedup/caching in the service keys on the spec hash; the knobs
        # must reach it.
        assert _sweep().content_hash() != _sweep(tolerance=0.01).content_hash()
        assert (
            _sweep(estimator="tilted", tilt=0.5).content_hash()
            != _sweep(estimator="tilted", tilt=1.0).content_hash()
        )


def _exact_failure(density: float, rows: int) -> float:
    """P(bank not fully corrected) for Poisson(``density`` x S) faults
    in a ``rows`` x 4-word SECDED bank: it fails unless every fault
    lands in its own 72-cell word (the occupancy product over
    S = rows x 288 cells)."""
    sites, word = rows * 288, 72
    lam = density * sites
    failure, survive = 0.0, 1.0
    for k in range(40):
        pmf = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
        failure += pmf * (1.0 - survive)
        survive *= (sites - word * k) / (sites - k)
    return failure


class TestTiltedEstimate:
    """A tilted proposal aims at the rare failure: the catalog estimates
    P(uncorrected) and reports its complement as the coverage."""

    PARAMS = {
        "scheme": "secded_intv4",
        "rows": 64,
        "scenario": "hard_fault_map",
        "scenario_params": {"defect_density": 4e-7},
        "estimator": "tilted",
        "tilt": 5.5,
    }

    def test_tilted_coverage_contains_the_exact_value(self):
        result = run(
            ExperimentSpec("sweep.mc_coverage", trials=8192, seed=42,
                           params=self.PARAMS)
        )
        estimate = result.data_dict()["estimate"]
        exact = 1.0 - _exact_failure(4e-7, 64)  # 1 - 1.047e-7
        assert estimate["lower"] <= exact <= estimate["upper"]
        assert (estimate["upper"] - estimate["lower"]) / 2 < 1e-6
        # The complement of the engine's HT(uncorrected) on the same draws.
        engine = run_experiment(
            EngineSpec.from_scheme(named_schemes()["secded_intv4"], rows=64),
            TiltedHardFaultMapScenario(defect_density=4e-7, tilt=5.5),
            8192,
            42,
        ).weighted_estimate("uncorrected")
        assert estimate["point"] == 1.0 - engine.point
        assert (estimate["lower"], estimate["upper"]) == (
            1.0 - engine.upper, 1.0 - engine.lower
        )

    def test_tilted_sequential_stops_on_the_failure_estimate(self):
        result = run(
            ExperimentSpec(
                "sweep.mc_coverage", seed=42,
                params={**self.PARAMS, "tolerance": 0.5,
                        "tolerance_relative": True},
            )
        )
        estimate = result.data_dict()["estimate"]
        failure = 1.0 - estimate["point"]
        half_width = (estimate["upper"] - estimate["lower"]) / 2
        assert half_width <= 0.5 * failure
        assert estimate["lower"] <= 1.0 - _exact_failure(4e-7, 64) <= estimate["upper"]


class TestCliFlags:
    """The knobs as ``run -p KEY=VALUE`` params, end to end."""

    def test_tolerance_stops_below_fixed_default(self, tmp_path):
        out = tmp_path / "fig3.json"
        code = main([
            "run", "fig3.coverage", "-p", "tolerance=0.01",
            "--seed", "2007", "-q", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        estimate = payload["data"]["estimates"]["2d_edc8_edc32"]
        # The 2D scheme meets the target inside the first sequential
        # round — fewer trials than the old fixed 2048-trial budget.
        assert estimate["realized_trials"] < 2048
        assert (estimate["upper"] - estimate["lower"]) / 2 <= 0.01
        for est in payload["data"]["estimates"].values():
            assert (est["upper"] - est["lower"]) / 2 <= 0.01

    def test_estimator_flag(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "run", "sweep.mc_coverage", "--trials", "512", "--seed", "5",
            "-p", "scenario=hard_fault_map",
            "-p", 'scenario_params={"defect_density": 2e-5}',
            "-p", "estimator=tilted", "-p", "tilt=0.5",
            "-q", "--json", str(out),
        ])
        assert code == 0
        estimate = json.loads(out.read_text())["data"]["estimate"]
        assert estimate["estimator"] == "tilted"

    def test_bad_estimator_combination_exits_2(self):
        code = main([
            "run", "sweep.mc_coverage", "-p", "estimator=stratified",
            "-p", "tolerance=0.01", "--seed", "5",
        ])
        assert code == 2
