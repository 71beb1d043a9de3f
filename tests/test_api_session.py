"""Session facade, registry discovery, and legacy fig* shim equivalence."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.api import (
    ExperimentSpec,
    Session,
    UnknownExperimentError,
    get_experiment,
    list_experiments,
)
from repro.scenarios import UnknownScenarioError

#: Fast spec for every registered experiment (small trial/cycle counts).
_FAST_SPECS = {
    "fig1.storage": ExperimentSpec("fig1.storage"),
    "fig1.energy": ExperimentSpec("fig1.energy"),
    "fig2.interleaving": ExperimentSpec("fig2.interleaving", params={"degrees": [1, 4]}),
    "fig3.coverage": ExperimentSpec("fig3.coverage"),
    "fig5.performance": ExperimentSpec("fig5.performance", params={"n_cycles": 600}),
    "fig6.access_breakdown": ExperimentSpec(
        "fig6.access_breakdown", params={"n_cycles": 600}
    ),
    "fig7.schemes": ExperimentSpec("fig7.schemes"),
    "fig8.yield": ExperimentSpec("fig8.yield", params={"failing_cells": [0, 2000]}),
    "fig8.reliability": ExperimentSpec("fig8.reliability", params={"years": [0.0, 5.0]}),
    "sweep.mc_coverage": ExperimentSpec(
        "sweep.mc_coverage",
        trials=64,
        params={"scenario": "fixed_cluster",
                "scenario_params": {"height": 2, "width": 2}},
    ),
    "sweep.mbu_cluster": ExperimentSpec(
        "sweep.mbu_cluster",
        trials=32,
        params={"cluster_sizes": [1, 4], "degrees": [2], "rows": 32,
                "vertical_groups": 8},
    ),
    "sweep.perf_sensitivity": ExperimentSpec(
        "sweep.perf_sensitivity",
        trials=4,
        params={"n_cycles": 400, "store_queue": [2, 64], "l1_ports": [2],
                "burstiness": [4.0]},
    ),
    "sweep.scheme_cost": ExperimentSpec("sweep.scheme_cost", params={"cache": "l2"}),
}


class TestRegistry:
    def test_every_paper_figure_is_registered(self):
        names = {exp.name for exp in list_experiments()}
        assert {
            "fig1.storage", "fig1.energy", "fig2.interleaving", "fig3.coverage",
            "fig5.performance", "fig6.access_breakdown", "fig7.schemes",
            "fig8.yield", "fig8.reliability",
        } <= names

    def test_dual_backend_experiments(self):
        assert get_experiment("fig3.coverage").backends == ("analytical", "monte_carlo")
        assert get_experiment("fig8.yield").backends == ("analytical", "monte_carlo")
        assert get_experiment("sweep.mc_coverage").backends == ("monte_carlo",)

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(UnknownExperimentError, match="fig3.coverage"):
            get_experiment("fig3.covrage")

    def test_fast_specs_cover_the_whole_registry(self):
        assert set(_FAST_SPECS) == {exp.name for exp in list_experiments()}


class TestSession:
    def test_every_experiment_runs_and_serializes(self):
        session = Session()
        for name, spec in _FAST_SPECS.items():
            result = session.run(spec)
            assert result.experiment == name
            assert result.series, name
            assert type(result).from_json(result.to_json()) == result

    def test_run_accepts_name_and_overrides(self):
        result = Session().run("fig8.reliability", params={"years": [0.0, 1.0]})
        assert result.data_dict()["years"] == [0.0, 1.0]

    def test_monte_carlo_auto_resolution(self):
        result = Session().run(
            ExperimentSpec("fig8.yield", trials=32, params={"failing_cells": [0]})
        )
        assert result.backend == "monte_carlo"

    def test_progress_hook_sees_start_and_finish(self):
        """A run's progress record is its span: ``run.start`` and
        ``run.finish`` carry the spec hash and the elapsed time."""
        session = Session()
        session.run(_FAST_SPECS["fig1.storage"])
        events = session.last_telemetry.events
        assert [e["event"] for e in events] == ["run.start", "run.finish"]
        assert events[0]["spec_hash"] == _FAST_SPECS["fig1.storage"].content_hash()
        assert events[1]["elapsed"] > 0.0

    def test_session_cache_is_shared_across_runs(self, tmp_path):
        spec = ExperimentSpec(
            "fig3.coverage", backend="monte_carlo", trials=128, seed=5
        )
        session = Session(cache_dir=tmp_path / "cache")
        first = session.run(spec)
        entries = len(list((tmp_path / "cache").glob("*.npz")))
        assert entries > 0
        second = Session(cache_dir=tmp_path / "cache").run(spec)
        # The payload is bit-identical; only the observational
        # meta["telemetry"] block may differ between the fresh run and
        # the cached re-run.
        assert second.data == first.data
        assert second.series == first.series
        assert second.spec == first.spec
        first_meta = first.meta_dict()
        second_meta = second.meta_dict()
        assert first_meta.pop("telemetry")["from_cache"] is False
        assert second_meta.pop("telemetry")["from_cache"] is True
        assert second_meta == first_meta
        assert len(list((tmp_path / "cache").glob("*.npz"))) == entries

    def test_run_all(self):
        results = Session().run_all(
            [_FAST_SPECS["fig1.storage"], _FAST_SPECS["fig1.energy"]]
        )
        assert [r.experiment for r in results] == ["fig1.storage", "fig1.energy"]

    def test_unknown_param_names_are_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="degress"):
            Session().run(
                ExperimentSpec("fig2.interleaving", params={"degress": [1, 2]})
            )
        with pytest.raises(SpecError, match="does not accept"):
            Session().run(ExperimentSpec("fig1.storage", params={"anything": 1}))

    def test_trials_on_analytical_backend_is_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="monte_carlo"):
            Session().run(ExperimentSpec("fig1.storage", trials=100))
        with pytest.raises(SpecError, match="monte_carlo"):
            Session().run(
                ExperimentSpec("fig3.coverage", backend="analytical", trials=100)
            )

    def test_unused_statistical_knobs_on_analytical_are_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="no seed"):
            Session().run(ExperimentSpec("fig1.storage", seed=123))
        with pytest.raises(SpecError, match="confidence"):
            Session().run(ExperimentSpec("fig7.schemes", confidence=0.99))
        # The perf-backed figures are Monte Carlo and take every
        # statistical knob.
        result = Session().run(
            ExperimentSpec("fig5.performance", seed=9, params={"n_cycles": 300})
        )
        assert result.spec.seed == 9
        assert result.backend == "monte_carlo"

    def test_non_mapping_params_are_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="params must be a mapping"):
            ExperimentSpec("fig2.interleaving", params=[("degrees", [1, 2])])

    def test_progress_finish_fires_on_failure(self):
        session = Session()
        with pytest.raises(ValueError, match="unknown scheme"):
            session.run(
                ExperimentSpec("sweep.mc_coverage", trials=8, params={"scheme": "no"})
            )
        events = session.last_telemetry.events
        assert [e["event"] for e in events] == ["run.start", "run.finish"]
        assert "unknown scheme" in events[1]["error"]

    def test_fig3_monte_carlo_honors_geometry_params(self):
        result = Session().run(
            ExperimentSpec(
                "fig3.coverage",
                backend="monte_carlo",
                trials=64,
                seed=3,
                params={"array_rows": 128, "array_data_columns": 256},
            )
        )
        estimates = result.data_dict()["estimates"]
        assert all(e["n"] == 64 for e in estimates.values())
        default = Session().run(
            ExperimentSpec("fig3.coverage", backend="monte_carlo", trials=64, seed=3)
        )
        assert result.spec_hash != default.spec_hash

    def test_invalid_sweep_params_raise(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            Session().run(
                ExperimentSpec("sweep.mc_coverage", trials=8, params={"scheme": "nope"})
            )
        with pytest.raises(UnknownScenarioError, match="unknown scenario"):
            Session().run(
                ExperimentSpec("sweep.mc_coverage", trials=8, params={"scenario": "nope"})
            )
        with pytest.raises(ValueError, match="cache must be"):
            Session().run(ExperimentSpec("sweep.scheme_cost", params={"cache": "l3"}))


def test_runs_with_scipy_import_blocked():
    """With ``import scipy`` made to fail in a fresh interpreter, both
    fig8.yield backends, a fig3 Monte Carlo estimate, a fig5 run and an
    off-table z-score all still run: nothing needs scipy."""
    script = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None  # any `import scipy...` now raises
        from repro.api import ExperimentSpec, Session
        from repro.engine.aggregate import _z_score

        with Session() as session:
            session.run(ExperimentSpec("fig8.yield"))
            session.run(ExperimentSpec("fig8.yield", backend="monte_carlo",
                                       trials=64))
            session.run(ExperimentSpec("fig3.coverage", backend="monte_carlo",
                                       trials=256))
            session.run(ExperimentSpec("fig5.performance", backend="monte_carlo",
                                       trials=4, params={"n_cycles": 100}))
        assert abs(_z_score(0.8) - 1.2815515655446004) < 1e-14
        """
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
