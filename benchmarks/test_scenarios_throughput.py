"""Scenario subsystem throughput vs the scalar injector path.

The ISSUE gate: Monte Carlo trials driven by the vectorized
``clustered_mbu`` scenario (batched sampling + batched decode/recovery)
must sustain at least **20x more trials per second** than the scalar
``ErrorInjector`` driving the same footprint distribution into the
bit-level 2D-protected bank one event at a time.  In practice the gap
is well over an order of magnitude beyond the target; the margin keeps
the gate robust on slow CI machines.

Beyond the gate, the pure mask-sampling rate of the vectorized and
scalar paths and the end-to-end engine rate of **every** registered
scenario are measured and persisted as ``BENCH_scenarios.json`` (via
:func:`reporting.write_bench`), so the subsystem's performance
trajectory is recorded across runs instead of only asserted.
"""

from __future__ import annotations

import time

import numpy as np

from repro.array import SramArray
from repro.core import fig3_schemes
from repro.core.coverage import FIG3_MC_FOOTPRINTS
from repro.engine import EngineSpec, run_experiment
from repro.engine.oracle import build_oracle_bank
from repro.engine.rng import block_generator
from repro.errors import ErrorInjector, FootprintDistribution
from repro.scenarios import list_scenarios, make_scenario

from reporting import print_series, write_bench

_TARGET_SPEEDUP = 20.0

def _bench_configs() -> dict:
    """Engine-measurable configuration for every registered scenario on
    the Fig. 3 geometry, read off each class's ``example_params`` so the
    registry and this benchmark cannot drift apart."""
    return {
        name: dict(cls.example_params) for name, cls in list_scenarios().items()
    }


def _fig3_spec() -> EngineSpec:
    return EngineSpec.from_scheme(fig3_schemes()["2d_edc8_edc32"], rows=256)


def _sampling_rates(spec: EngineSpec) -> tuple[float, float]:
    """Masks per second: batched clustered_mbu vs per-trial injector."""
    model = make_scenario("clustered_mbu", footprints=FIG3_MC_FOOTPRINTS)
    n_vector = 4096
    started = time.perf_counter()
    masks = model.sample(block_generator(7, 0), n_vector, spec)
    vector_rate = n_vector / (time.perf_counter() - started)
    assert masks.shape == (n_vector, spec.rows, spec.row_bits)

    distribution = FootprintDistribution(weights=dict(FIG3_MC_FOOTPRINTS))
    n_scalar = 128
    started = time.perf_counter()
    for i in range(n_scalar):
        array = SramArray(spec.rows, spec.row_bits)
        ErrorInjector(array, seed=i).inject_from_distribution(distribution, count=1)
        array.snapshot()
    scalar_rate = n_scalar / (time.perf_counter() - started)
    return vector_rate, scalar_rate


def test_clustered_mbu_pipeline_vs_scalar_injector():
    """Trial evaluation end to end: the scenario-driven engine against
    the scalar injector driving the bit-level protected bank."""
    spec = _fig3_spec()
    model = make_scenario("clustered_mbu", footprints=FIG3_MC_FOOTPRINTS)

    engine_result = run_experiment(spec, model, 2048, seed=7, block_size=256)
    engine_rate = engine_result.trials_per_second
    assert engine_result.counts.n == 2048

    # Scalar: each trial is a fresh bank, one injected event from the
    # same distribution, and the Fig. 4(b) recovery session — what
    # Monte Carlo through the injector actually costs per trial.
    distribution = FootprintDistribution(weights=dict(FIG3_MC_FOOTPRINTS))
    n_scalar = 8
    started = time.perf_counter()
    for i in range(n_scalar):
        bank = build_oracle_bank(spec)
        ErrorInjector(bank, seed=i).inject_from_distribution(distribution, count=1)
        bank.recover()
    scalar_rate = n_scalar / (time.perf_counter() - started)

    vector_sampling, scalar_sampling = _sampling_rates(spec)
    speedup = engine_rate / scalar_rate
    print_series(
        "clustered_mbu — Fig. 3 bank (256 rows x 288 cells)",
        {
            "engine trials/s": round(engine_rate, 1),
            "scalar injector trials/s": round(scalar_rate, 2),
            "pipeline speedup": f"{speedup:.0f}x (target >= {_TARGET_SPEEDUP:.0f}x)",
            "vectorized sampling masks/s": round(vector_sampling, 1),
            "scalar sampling masks/s": round(scalar_sampling, 1),
        },
    )
    write_bench(
        "scenarios",
        {
            "workload": "fig3 2d_edc8_edc32, 256x288, clustered_mbu",
            "engine_trials_per_second": round(engine_rate, 1),
            "scalar_injector_trials_per_second": round(scalar_rate, 2),
            "pipeline_speedup": round(speedup, 1),
            "sampling_masks_per_second": {
                "vectorized": round(vector_sampling, 1),
                "scalar": round(scalar_sampling, 1),
            },
        },
    )
    assert speedup >= _TARGET_SPEEDUP, (
        f"vectorized clustered_mbu speedup {speedup:.1f}x below the "
        f"{_TARGET_SPEEDUP:.0f}x target"
    )


def test_every_scenario_engine_throughput_recorded():
    """End-to-end engine trials/s for every registered scenario, merged
    into BENCH_scenarios.json so the trajectory is tracked."""
    configs = _bench_configs()
    assert set(configs) == set(list_scenarios()), (
        "benchmark configs out of sync with the scenario registry"
    )
    spec = _fig3_spec()
    rates: dict[str, float] = {}
    for name, config in sorted(configs.items()):
        model = make_scenario(name, **config)
        result = run_experiment(
            spec, model, 1024, seed=7, block_size=256, collect_verdicts=False
        )
        assert result.counts.n == 1024
        rates[name] = round(result.trials_per_second, 1)

    print_series("Engine trials/s per scenario — Fig. 3 bank", rates)
    path = write_bench(
        "scenarios_per_model",
        {
            "workload": "fig3 2d_edc8_edc32, 256x288, 1024 trials, block 256",
            "trials_per_second": rates,
        },
    )
    assert path.exists()
    # Every scenario must clear a floor the scalar path (tens of
    # trials/s on this bank) cannot reach — the subsystem promise.
    assert all(rate > 200.0 for rate in rates.values()), rates
