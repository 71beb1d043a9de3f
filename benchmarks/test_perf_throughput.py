"""Performance-simulation subsystem throughput vs the scalar simulator.

The ISSUE gate: the vectorized Fig. 5 pipeline (``repro.perf``) must
sustain at least **20x** the scalar :class:`repro.cmp.CmpSimulator` at
equal work.  The unit of work is one complete Fig. 5 measurement for a
(CMP, workload) cell — the unprotected baseline plus all four
protection bars:

* scalar: four ``compare_protection`` calls (eight full simulations,
  exactly what the pre-perf ``fig5.performance`` driver ran per cell);
* vectorized: one ``run_performance_grid`` over the same five
  protection configurations, which shares each trial's draws and the
  per-L1/L2-mode booking work across the whole grid.

Both CMPs are gated individually; the margin (~3x beyond the target on
a single-core machine) keeps the gate robust on slow CI runners.
Measured rates land in ``BENCH_perf.json`` via
:func:`reporting.write_bench`.

Two further acceptance properties ride along:

* perf runs are **bit-identical across 1 vs 4 workers** (sharding is a
  pure throughput knob), and
* the replicated pipeline's default-style results **match the scalar
  pipeline within the reported confidence half-widths** — checked
  against genuine ``CmpSimulator`` replicates (the matched-mode
  bit-exactness behind this is property-tested in
  ``tests/test_perf_kernel.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.cmp import PROTECTION_SCENARIOS, compare_protection, fat_cmp_config, lean_cmp_config
from repro.engine import MeanEstimate, SharedExecutor
from repro.perf import run_performance_grid
from repro.workloads import get_profile

from reporting import print_series, write_bench

_TARGET_SPEEDUP = 20.0

_FIG5_GRID = {key: PROTECTION_SCENARIOS[key]
              for key in ("baseline", "l1", "l1_ps", "l2", "l1_ps_l2")}
_SCENARIOS = ("l1", "l1_ps", "l2", "l1_ps_l2")


def _vectorized_cells_per_second(cmp_cfg, profile, n_cycles, n_trials):
    started = time.perf_counter()
    (grid,) = run_performance_grid(
        [(cmp_cfg, profile)], _FIG5_GRID,
        n_cycles=n_cycles, n_trials=n_trials, seed=7, block_size=64,
    )
    elapsed = time.perf_counter() - started
    assert all(result.n_trials == n_trials for result in grid.values())
    return n_trials / elapsed, grid


def _scalar_cells_per_second(cmp_cfg, profile, n_cycles, n_seeds):
    started = time.perf_counter()
    for seed in range(n_seeds):
        for key in _SCENARIOS:
            compare_protection(
                cmp_cfg, profile, PROTECTION_SCENARIOS[key], n_cycles, seed
            )
    return n_seeds / (time.perf_counter() - started)


def test_perf_grid_vs_scalar_simulator():
    n_cycles, n_trials = 3_000, 256
    profile = get_profile("OLTP")
    record: dict = {
        "workload": f"fig5 cell (baseline + 4 bars), OLTP, {n_cycles} cycles",
        "target_speedup": _TARGET_SPEEDUP,
    }
    rows = {}
    for cmp_cfg in (fat_cmp_config(), lean_cmp_config()):
        vec_rate, grid = _vectorized_cells_per_second(
            cmp_cfg, profile, n_cycles, n_trials
        )
        scalar_rate = _scalar_cells_per_second(cmp_cfg, profile, n_cycles, n_seeds=2)
        speedup = vec_rate / scalar_rate
        baseline = grid["baseline"].aggregate_ipc
        loss = MeanEstimate.from_samples(
            (1.0 - grid["l1_ps_l2"].aggregate_ipc / baseline) * 100.0
        )
        rows[f"{cmp_cfg.name} CMP"] = {
            "vectorized cells/s": round(vec_rate, 1),
            "scalar cells/s": round(scalar_rate, 2),
            "speedup": f"{speedup:.0f}x (target >= {_TARGET_SPEEDUP:.0f}x)",
            "l1_ps_l2 loss %": f"{loss.mean:.3f} ± {loss.half_width:.3f}",
        }
        record[cmp_cfg.name] = {
            "vectorized_cells_per_second": round(vec_rate, 1),
            "scalar_cells_per_second": round(scalar_rate, 2),
            "speedup": round(speedup, 1),
            "trials": n_trials,
            "l1_ps_l2_loss_percent": {
                "mean": round(loss.mean, 4),
                "half_width": round(loss.half_width, 4),
            },
        }
        assert speedup >= _TARGET_SPEEDUP, (
            f"{cmp_cfg.name} CMP: perf pipeline speedup {speedup:.1f}x below "
            f"the {_TARGET_SPEEDUP:.0f}x target"
        )
    print_series("repro.perf — fig5 pipeline vs scalar CmpSimulator", rows)
    path = write_bench("perf", record)
    assert path.exists()


def test_perf_results_bit_identical_across_workers():
    cmp_cfg = lean_cmp_config()
    profile = get_profile("Web")
    kwargs = dict(n_cycles=800, n_trials=64, seed=5, block_size=16)
    (serial,) = run_performance_grid([(cmp_cfg, profile)], _FIG5_GRID, **kwargs)
    with SharedExecutor(workers=4) as pool:
        (parallel,) = run_performance_grid(
            [(cmp_cfg, profile)], _FIG5_GRID, executor=pool, **kwargs
        )
    for key in _FIG5_GRID:
        for field in ("aggregate_ipc", "l1_reads", "l2_extra_reads",
                      "port_steals", "forced_steals", "l1_port_utilization"):
            assert np.array_equal(
                getattr(serial[key], field), getattr(parallel[key], field)
            ), (key, field)


def test_perf_matches_scalar_pipeline_within_half_widths():
    """Fig. 5 default-style results vs the pre-perf scalar pipeline.

    The scalar pipeline is replicated over several seeds with
    ``CmpSimulator`` itself (matched-pair, one seed per trial — exactly
    the old driver's procedure); the vectorized pipeline runs its own
    replicated trials.  Both estimates carry normal CIs; the means must
    agree within the combined half-widths for every (CMP, scenario) of
    the Fig. 5 grid.
    """
    n_cycles = 2_000
    profile = get_profile("OLTP")
    report = {}
    for cmp_cfg in (fat_cmp_config(), lean_cmp_config()):
        (grid,) = run_performance_grid(
            [(cmp_cfg, profile)], _FIG5_GRID,
            n_cycles=n_cycles, n_trials=128, seed=7, block_size=64,
        )
        baseline = grid["baseline"].aggregate_ipc
        for key in _SCENARIOS:
            vectorized = MeanEstimate.from_samples(
                (1.0 - grid[key].aggregate_ipc / baseline) * 100.0
            )
            scalar_losses = [
                compare_protection(
                    cmp_cfg, profile, PROTECTION_SCENARIOS[key], n_cycles, seed
                ).ipc_loss_percent
                for seed in range(6)
            ]
            scalar = MeanEstimate.from_samples(scalar_losses)
            gap = abs(vectorized.mean - scalar.mean)
            tolerance = vectorized.half_width + scalar.half_width
            report[f"{cmp_cfg.name}:{key}"] = (
                f"vec {vectorized.mean:.3f}±{vectorized.half_width:.3f} "
                f"vs scalar {scalar.mean:.3f}±{scalar.half_width:.3f}"
            )
            assert gap <= tolerance, (
                f"{cmp_cfg.name}:{key}: vectorized loss {vectorized.mean:.4f} "
                f"vs scalar {scalar.mean:.4f} differ by {gap:.4f} "
                f"(> combined half-widths {tolerance:.4f})"
            )
    print_series("repro.perf — loss agreement with the scalar pipeline", report)
