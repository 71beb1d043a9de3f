"""The sharded perf backend: invariance, caching, estimates, catalog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentSpec, Session
from repro.cmp import PROTECTION_SCENARIOS, ProtectionConfig, fat_cmp_config, lean_cmp_config
from repro.engine import MeanEstimate, SharedExecutor
from repro.perf import (
    PerfResult,
    compare_performance,
    paired_loss_percent,
    run_performance,
    run_performance_grid,
)
from repro.workloads import get_profile

_FIELDS = (
    "aggregate_ipc", "l1_reads", "l1_writes", "l1_fill_evict", "l1_extra_reads",
    "l2_reads", "l2_writes", "l2_fill_evict", "l2_extra_reads",
    "l1_port_utilization", "l2_bank_utilization", "port_steals", "forced_steals",
)

_GRID = {key: PROTECTION_SCENARIOS[key] for key in
         ("baseline", "l1", "l1_ps", "l2", "l1_ps_l2")}


def _equal(a: PerfResult, b: PerfResult) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in _FIELDS)


class TestInvariance:
    def test_results_independent_of_workers_and_chunking(self):
        # Each worker count splits the 5 blocks differently (5, 3+2,
        # 2+2+1, 2+2+1 blocks per item).
        cfg = lean_cmp_config()
        profile = get_profile("Web")
        kwargs = dict(n_cycles=500, n_trials=70, seed=5, block_size=16)
        (reference,) = run_performance_grid([(cfg, profile)], _GRID, **kwargs)
        for workers in (1, 2, 3, 4):
            with SharedExecutor(workers=workers) as pool:
                (variant,) = run_performance_grid(
                    [(cfg, profile)], _GRID, executor=pool, **kwargs
                )
            for key in _GRID:
                assert _equal(reference[key], variant[key])

    def test_first_trials_of_longer_run_are_identical(self):
        """Trials are keyed by their block, so extending the run only
        appends — the shared prefix is bit-identical."""
        cfg = fat_cmp_config()
        profile = get_profile("OLTP")
        short = run_performance(
            cfg, profile, PROTECTION_SCENARIOS["l1_ps_l2"],
            n_cycles=400, n_trials=20, seed=9, block_size=8,
        )
        longer = run_performance(
            cfg, profile, PROTECTION_SCENARIOS["l1_ps_l2"],
            n_cycles=400, n_trials=44, seed=9, block_size=8,
        )
        for field in _FIELDS:
            assert np.array_equal(
                getattr(short, field), getattr(longer, field)[:20]
            ), field

    def test_grid_baseline_equals_solo_baseline(self):
        """Adding protections to a grid never shifts another member's
        draws (extras are sampled after the demand accesses)."""
        cfg = lean_cmp_config()
        profile = get_profile("OLTP")
        kwargs = dict(n_cycles=400, n_trials=16, seed=3, block_size=16)
        solo = run_performance(cfg, profile, ProtectionConfig(label="baseline"), **kwargs)
        (grid,) = run_performance_grid([(cfg, profile)], _GRID, **kwargs)
        assert _equal(solo, grid["baseline"])

    def test_zero_baseline_reports_zero_loss_not_nan(self):
        """Mirrors the scalar PerformanceComparison guard: a trial whose
        baseline is fully stalled (IPC 0) must not divide by zero."""
        losses = paired_loss_percent(
            np.array([0.0, 2.0, 0.0]), np.array([0.0, 1.0, 0.0])
        )
        assert losses.tolist() == [0.0, 50.0, 0.0]
        assert np.all(np.isfinite(losses))

    def test_protection_never_improves_any_trial(self):
        cfg = fat_cmp_config()
        profile = get_profile("Ocean")
        comp = compare_performance(
            cfg, profile, PROTECTION_SCENARIOS["l1_ps_l2"],
            n_cycles=600, n_trials=24, seed=7,
        )
        assert np.all(comp.protected.aggregate_ipc <= comp.baseline.aggregate_ipc)
        assert np.all(comp.loss_percent_per_trial >= 0.0)
        assert comp.ipc_loss_percent >= 0.0


    def test_default_fig5_splits_into_several_steal_groups(self):
        """The stacking budget counts trials x cores x cycles over all
        cells, so the default figure (12 cells, one 32-trial block,
        6000 cycles) does not stack every cell's lanes at once."""
        from repro.engine.rng import iter_block_slices
        from repro.perf import backend
        from repro.workloads import PAPER_WORKLOADS

        cells = [(cfg, profile, _GRID)
                 for cfg in (fat_cmp_config(), lean_cmp_config())
                 for profile in PAPER_WORKLOADS.values()]
        pieces = [(index, piece) for piece in iter_block_slices(0, 32, 32)
                  for index in range(len(cells))]
        groups = list(backend._evaluation_groups(pieces, cells, 6_000))
        assert len(groups) > 1
        assert sum(len(group) for group in groups) == len(cells)


class TestCaching:
    def test_cache_round_trip(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cfg = fat_cmp_config()
        profile = get_profile("DSS")
        kwargs = dict(n_cycles=400, n_trials=12, seed=2, cache=cache)
        first = run_performance(cfg, profile, PROTECTION_SCENARIOS["l1"], **kwargs)
        assert not first.from_cache
        assert len(cache) == 1
        second = run_performance(cfg, profile, PROTECTION_SCENARIOS["l1"], **kwargs)
        assert second.from_cache
        assert _equal(first, second)

    def test_grid_reuses_per_protection_entries(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cfg = fat_cmp_config()
        profile = get_profile("DSS")
        kwargs = dict(n_cycles=400, n_trials=12, seed=2, cache=cache)
        solo = run_performance(cfg, profile, PROTECTION_SCENARIOS["l1"], **kwargs)
        (grid,) = run_performance_grid(
            [(cfg, profile)],
            {"baseline": ProtectionConfig(label="baseline"),
             "l1": PROTECTION_SCENARIOS["l1"]},
            **kwargs,
        )
        # The l1 cell was already cached by the solo run; only the
        # baseline needed computing.
        assert grid["l1"].from_cache
        assert not grid["baseline"].from_cache
        assert _equal(grid["l1"], solo)

    def test_multi_cell_grid_equals_one_cell_grids(self, tmp_path):
        """Cells evaluated together (their steal lanes stacked, one
        executor map) match each cell run alone; cached labels are
        served per cell, and cells may repeat."""
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path / "cache")
        fat, lean = fat_cmp_config(), lean_cmp_config()
        cells = [(fat, get_profile("OLTP")), (lean, get_profile("Web")),
                 (fat, get_profile("OLTP"))]
        grid = {"baseline": ProtectionConfig(label="baseline"),
                "l1_ps": PROTECTION_SCENARIOS["l1_ps"],
                "l1_ps_l2": PROTECTION_SCENARIOS["l1_ps_l2"]}
        kwargs = dict(n_cycles=400, n_trials=40, seed=2, block_size=16)
        run_performance(fat, get_profile("OLTP"), grid["l1_ps"], cache=cache, **kwargs)
        with SharedExecutor(workers=2) as pool:
            results = run_performance_grid(
                cells, grid, cache=cache, executor=pool, **kwargs
            )
        assert [r["l1_ps"].from_cache for r in results] == [True, False, True]
        assert not any(r["baseline"].from_cache for r in results)
        for cell, result in zip(cells, results):
            (alone,) = run_performance_grid([cell], grid, **kwargs)
            for label in grid:
                assert _equal(result[label], alone[label]), (cell[0].name, label)

    def test_distinct_cells_get_distinct_keys(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cfg = fat_cmp_config()
        profile = get_profile("DSS")
        run_performance(cfg, profile, PROTECTION_SCENARIOS["l1"],
                        n_cycles=400, n_trials=8, seed=2, cache=cache)
        run_performance(cfg, profile, PROTECTION_SCENARIOS["l2"],
                        n_cycles=400, n_trials=8, seed=2, cache=cache)
        run_performance(cfg, profile, PROTECTION_SCENARIOS["l1"],
                        n_cycles=400, n_trials=8, seed=3, cache=cache)
        assert len(cache) == 3


class TestValidation:
    def test_rejects_bad_arguments(self):
        cfg = fat_cmp_config()
        profile = get_profile("OLTP")
        protection = PROTECTION_SCENARIOS["l1"]
        with pytest.raises(ValueError, match="at least 100"):
            run_performance(cfg, profile, protection, n_cycles=50, n_trials=4, seed=0)
        with pytest.raises(ValueError, match="trials"):
            run_performance(cfg, profile, protection, n_cycles=400, n_trials=0, seed=0)
        with pytest.raises(ValueError, match="block_size"):
            run_performance(
                cfg, profile, protection,
                n_cycles=400, n_trials=4, seed=0, block_size=0,
            )
        with pytest.raises(ValueError, match="protection"):
            run_performance_grid(
                [(cfg, profile)], {}, n_cycles=400, n_trials=4, seed=0
            )


class TestMeanEstimate:
    def test_interval_contains_mean_and_shrinks(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(5.0, 1.0, size=400)
        small = MeanEstimate.from_samples(samples[:25])
        large = MeanEstimate.from_samples(samples)
        for estimate in (small, large):
            assert estimate.lower <= estimate.mean <= estimate.upper
            assert estimate.contains(estimate.mean)
        assert large.half_width < small.half_width
        assert large.contains(5.0)

    def test_single_sample_degenerates_to_point(self):
        estimate = MeanEstimate.from_samples([3.5])
        assert estimate.n == 1
        assert estimate.mean == estimate.lower == estimate.upper == 3.5
        assert estimate.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MeanEstimate.from_samples([])

    def test_overlap(self):
        a = MeanEstimate.from_samples([1.0, 1.1, 0.9])
        b = MeanEstimate.from_samples([1.05, 1.0, 1.1])
        assert a.overlaps(b) and b.overlaps(a)


class TestCatalog:
    def test_fig5_payload_shape_and_trials_knob(self):
        spec = ExperimentSpec(
            "fig5.performance", trials=6, seed=7, params={"n_cycles": 400}
        )
        result = Session().run(spec)
        data = result.data_dict()
        assert data["trials"] == 6
        for cmp_name in ("fat", "lean"):
            for losses in data["ipc_loss"][cmp_name].values():
                assert set(losses) == {"l1", "l1_ps", "l2", "l1_ps_l2"}
                assert all(value >= 0.0 for value in losses.values())
            for intervals in data["intervals"][cmp_name].values():
                for ci in intervals.values():
                    assert ci["n"] == 6
                    assert ci["lower"] <= ci["mean"] <= ci["upper"]
        # Series carry the confidence bounds.
        series = result.get_series("fat:l1_ps_l2")
        assert series.lower is not None and series.upper is not None

    def test_fig6_extra_reads_track_write_traffic(self):
        spec = ExperimentSpec(
            "fig6.access_breakdown", trials=4, seed=7, params={"n_cycles": 400}
        )
        data = Session().run(spec).data_dict()
        assert data["trials"] == 4
        for per_workload in data["breakdowns"].values():
            for per_level in per_workload.values():
                for breakdown in per_level.values():
                    writes = breakdown["Write"] + breakdown["Fill/Evict"]
                    extra = breakdown["Extra Read for 2D Coding"]
                    assert extra == pytest.approx(writes, rel=1e-12)
                    assert breakdown["Read: Inst"] == 0.0

    def test_sweep_perf_sensitivity_monotone_in_resources(self):
        spec = ExperimentSpec(
            "sweep.perf_sensitivity",
            trials=8,
            seed=11,
            params={
                "n_cycles": 1_500,
                "store_queue": [2, 64],
                "l1_ports": [1, 2],
                "burstiness": [4.0],
            },
        )
        data = Session().run(spec).data_dict()
        loss = data["loss"]
        for ports in ("1", "2"):
            points = loss[ports]["4.0"]
            # A shallower store queue bounds the steal queue, forcing
            # more contending read-before-write issues.
            assert points["2"]["mean"] >= points["64"]["mean"]
        # A second port gives stealing idle slots to use.
        assert loss["1"]["4.0"]["64"]["mean"] > loss["2"]["4.0"]["64"]["mean"]

    def test_sweep_perf_sensitivity_rejects_unknown_axes(self):
        session = Session()
        with pytest.raises(ValueError, match="unknown cmp"):
            session.run(ExperimentSpec(
                "sweep.perf_sensitivity", trials=2, params={"cmp": "huge"}
            ))
        with pytest.raises(ValueError, match="unknown workload"):
            session.run(ExperimentSpec(
                "sweep.perf_sensitivity", trials=2, params={"workload": "SPECint"}
            ))
        with pytest.raises(ValueError, match="protection"):
            session.run(ExperimentSpec(
                "sweep.perf_sensitivity", trials=2, params={"protection": "baseline"}
            ))

    def test_cli_runs_perf_sensitivity(self, capsys):
        from repro.api.cli import main

        code = main([
            "run", "sweep.perf_sensitivity", "--trials", "2",
            "-p", "n_cycles=300", "-p", "store_queue=[4]",
            "-p", "l1_ports=[1]", "-p", "burstiness=[2.0]",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep.perf_sensitivity" in out

    @pytest.mark.parametrize("name,params,cells", [
        ("fig5.performance", {}, 12),
        ("fig6.access_breakdown", {}, 12),
        ("sweep.perf_sensitivity",
         {"store_queue": [2, 64], "l1_ports": [1, 2], "burstiness": [4.0]}, 4),
    ])
    def test_one_grid_call_and_one_executor_map_per_figure(
        self, monkeypatch, name, params, cells
    ):
        import repro.perf

        calls = []
        original = repro.perf.run_performance_grid

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.perf, "run_performance_grid", counting)
        spec = ExperimentSpec(
            name, trials=40, seed=7, params={"n_cycles": 300, **params}
        )
        with Session(workers=2) as session:
            telemetry = session.run(spec).telemetry()
        assert len(calls) == 1
        assert telemetry["executor"]["maps"] == 1
        # One start/finish event pair per cell; one shard per chunk.
        assert telemetry["perf"]["grids"] == cells
        assert telemetry["perf"]["shards"] == 2

    def test_session_workers_do_not_change_fig5(self):
        spec = ExperimentSpec(
            "fig5.performance", trials=5, seed=7, params={"n_cycles": 300}
        )
        serial = Session(workers=1).run(spec)
        parallel = Session(workers=3).run(spec)
        assert serial.data_dict() == parallel.data_dict()
