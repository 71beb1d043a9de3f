"""Engine throughput: vectorized Monte Carlo vs the scalar path.

The ISSUE acceptance target: on the Fig. 3 workload (the 256x256-bit
2D-protected array under the clustered-error distribution) the engine
must sustain at least **50x more trials per second** than the
one-bank-at-a-time scalar path, at equal trial counts per measurement
window.  In practice the gap is two orders of magnitude; the assertion
keeps generous margin so the benchmark stays robust on slow CI
machines.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import fig3_schemes
from repro.core.coverage import FIG3_MC_FOOTPRINTS
from repro.engine import (
    BlockStreams,
    EngineSpec,
    make_decoder,
    run_experiment,
    run_recovery_batch,
    scalar_trial_verdict,
)
from repro.engine.rng import block_generator
from repro.scenarios import ClusteredMbuScenario

from reporting import print_series, write_bench

_TARGET_SPEEDUP = 50.0
_PACKED_TARGET_SPEEDUP = 4.0


def _fig3_setup():
    scheme = fig3_schemes()["2d_edc8_edc32"]
    spec = EngineSpec.from_scheme(scheme, rows=256)
    model = ClusteredMbuScenario(footprints=FIG3_MC_FOOTPRINTS)
    return spec, model


def test_engine_throughput_vs_scalar_on_fig3_workload():
    spec, model = _fig3_setup()

    # Engine: a full run, timed end to end (sampling + decode + recovery
    # + aggregation).  2048 trials amortize any fixed setup.
    engine_result = run_experiment(spec, model, 2048, seed=77, block_size=256)
    engine_rate = engine_result.trials_per_second
    assert engine_result.counts.n == 2048

    # Scalar: the identical first trials of the identical stream, one
    # zero-filled bank at a time (the cheapest possible scalar trial —
    # no random fill, same linear-code verdicts).
    n_scalar = 4
    masks = model.sample(block_generator(77, 0), 256, spec)[:n_scalar]
    started = time.perf_counter()
    scalar_verdict_codes = [scalar_trial_verdict(spec, mask) for mask in masks]
    scalar_elapsed = time.perf_counter() - started
    scalar_rate = n_scalar / scalar_elapsed

    speedup = engine_rate / scalar_rate
    print_series(
        "Engine throughput — Fig. 3 workload (256x256, 2D EDC8/EDC32)",
        {
            "engine trials/s": round(engine_rate, 1),
            "scalar trials/s": round(scalar_rate, 2),
            "speedup": f"{speedup:.0f}x (target >= {_TARGET_SPEEDUP:.0f}x)",
        },
    )
    write_bench(
        "engine",
        {
            "workload": "fig3 2d_edc8_edc32, 256x288, cluster model",
            "engine_trials_per_second": round(engine_rate, 1),
            "scalar_trials_per_second": round(scalar_rate, 2),
            "speedup": round(speedup, 1),
            "target_speedup": _TARGET_SPEEDUP,
        },
    )
    # The paths agree on the shared trials (sanity, not the speed claim).
    assert list(engine_result.verdicts[:n_scalar]) == scalar_verdict_codes
    assert speedup >= _TARGET_SPEEDUP, (
        f"engine speedup {speedup:.1f}x below the {_TARGET_SPEEDUP:.0f}x target"
    )


def _dense_reference_run(spec, model, n_trials: int, seed: int, block_size: int):
    """The dense-tensor reference pipeline, timed end to end: each
    block's ``uint8`` masks from ``sample_block`` through the ``uint8``
    vector decoders and :func:`run_recovery_batch`.  Returns
    ``(verdicts, trials_per_second)``."""
    decoder = make_decoder(spec)
    started = time.perf_counter()
    verdicts = [
        run_recovery_batch(
            spec, model.sample_block(BlockStreams(seed, block), block_size, spec),
            decoder,
        )
        for block in range(n_trials // block_size)
    ]
    elapsed = time.perf_counter() - started
    return np.concatenate(verdicts), n_trials / elapsed


def test_packed_sparse_vs_dense_on_fig3_pipeline():
    """The PR 5 acceptance gate: the packed pipeline must carry the full
    fig3 clustered pipeline (sampling + decode + recovery + aggregation)
    at >= 4x the dense-tensor ``uint8`` reference, with bit-identical
    verdicts.  In practice the gap is far larger (most rows are clean
    and never decoded at all); the 4x target keeps CI margin."""
    spec, model = _fig3_setup()
    n_trials = 4096

    # Warm both paths once so decoder/lookup-table construction and
    # allocator warm-up stay out of the measurement.
    _dense_reference_run(spec, model, 256, seed=76, block_size=256)
    run_experiment(spec, model, 256, seed=76, block_size=256)

    dense_verdicts, dense_rate = _dense_reference_run(
        spec, model, n_trials, seed=79, block_size=256
    )
    packed = run_experiment(spec, model, n_trials, seed=79, block_size=256)

    # The acceptance criterion is bit-identity first, throughput second.
    assert (dense_verdicts == packed.verdicts).all()

    speedup = packed.trials_per_second / dense_rate
    print_series(
        "Packed/sparse vs dense — Fig. 3 clustered pipeline",
        {
            "dense trials/s": round(dense_rate, 1),
            "packed trials/s": round(packed.trials_per_second, 1),
            "speedup": f"{speedup:.1f}x (target >= {_PACKED_TARGET_SPEEDUP:.0f}x)",
        },
    )
    write_bench(
        "engine_packed",
        {
            "workload": "fig3 2d_edc8_edc32, 256x288, cluster model",
            "dense_trials_per_second": round(dense_rate, 1),
            "packed_trials_per_second": round(packed.trials_per_second, 1),
            "speedup": round(speedup, 1),
            "target_speedup": _PACKED_TARGET_SPEEDUP,
        },
    )
    assert speedup >= _PACKED_TARGET_SPEEDUP, (
        f"packed/sparse speedup {speedup:.1f}x below the "
        f"{_PACKED_TARGET_SPEEDUP:.0f}x target"
    )


def test_engine_scales_with_trial_count(benchmark):
    """Per-trial cost must not grow with the trial count (vectorization
    actually amortizes: more trials per block, same Python overhead)."""
    spec, model = _fig3_setup()

    def run_small():
        return run_experiment(spec, model, 512, seed=78, block_size=256,
                              collect_verdicts=False)

    small = benchmark.pedantic(run_small, rounds=1, iterations=1)
    large = run_experiment(spec, model, 4096, seed=78, block_size=256,
                           collect_verdicts=False)
    per_trial_small = small.elapsed_seconds / small.counts.n
    per_trial_large = large.elapsed_seconds / large.counts.n
    print_series(
        "Engine scaling",
        {
            "512 trials (ms/trial)": round(1000 * per_trial_small, 3),
            "4096 trials (ms/trial)": round(1000 * per_trial_large, 3),
        },
    )
    write_bench(
        "engine_scaling",
        {
            "ms_per_trial_512": round(1000 * per_trial_small, 4),
            "ms_per_trial_4096": round(1000 * per_trial_large, 4),
        },
    )
    # Allow generous noise on shared CI machines; the point is that the
    # cost curve is flat-ish, not superlinear.
    assert per_trial_large < per_trial_small * 2.0
