"""Sharded runner: scheduling invariance, caching, result plumbing.

The headline property: same seed + same trial count ==> bit-identical
results regardless of the executor's worker count (1 to 4), each of
which partitions the trial space differently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineSpec,
    ResultCache,
    SharedExecutor,
    Stratum,
    run_experiment,
    run_experiment_sequential,
    run_stratified,
)
from repro.scenarios import (
    ClusteredMbuScenario,
    FixedClusterScenario,
    TiltedClusteredMbuScenario,
)

SPEC = EngineSpec(
    rows=16, data_bits=16, interleave_degree=2,
    horizontal_code="EDC4", vertical_groups=8,
)
MODEL = ClusteredMbuScenario.mostly_single_bit(0.6)


def _run(workers=None, **kwargs):
    """Run the default experiment, inline or on a ``workers``-process pool."""
    defaults = dict(n_trials=120, seed=31, block_size=16)
    defaults.update(kwargs)
    if workers is None:
        return run_experiment(SPEC, MODEL, **defaults)
    with SharedExecutor(workers=workers) as pool:
        return run_experiment(SPEC, MODEL, **defaults, executor=pool)


class TestSchedulingInvariance:
    def test_worker_count_does_not_change_results(self):
        serial = _run()
        parallel = _run(workers=4)
        assert serial.counts == parallel.counts
        assert np.array_equal(serial.verdicts, parallel.verdicts)

    def test_chunk_size_does_not_change_results(self):
        # Each worker count splits the 8 blocks differently (8, 4+4,
        # 3+3+2, 2+2+2+2 blocks per item).
        reference = _run()
        for workers in (1, 2, 3, 4):
            other = _run(workers=workers)
            assert reference.counts == other.counts
            assert np.array_equal(reference.verdicts, other.verdicts)

    def test_workers_and_chunking_combined(self):
        # 117 trials: the last of the 3+3+2 block items ends mid-block.
        reference = _run(n_trials=117)
        other = _run(workers=3, n_trials=117)
        assert reference.counts == other.counts
        assert np.array_equal(reference.verdicts, other.verdicts)

    def test_trial_prefix_stability(self):
        """The first n trials of a longer run are the same trials."""
        short = _run(n_trials=40)
        long = _run(n_trials=120)
        assert np.array_equal(long.verdicts[:40], short.verdicts)

    def test_seed_changes_results(self):
        # A bimodal model (tiny in-coverage upsets vs clusters taller
        # than V) makes the verdict sequence a fingerprint of the seed.
        model = ClusteredMbuScenario(footprints=(((1, 1), 0.5), ((12, 4), 0.5)))
        a = run_experiment(SPEC, model, n_trials=200, seed=1, block_size=16)
        b = run_experiment(SPEC, model, n_trials=200, seed=2, block_size=16)
        assert not np.array_equal(a.verdicts, b.verdicts)

    def test_non_block_multiple_trial_count(self):
        result = _run(n_trials=50, block_size=16)
        assert result.counts.n == 50
        assert result.verdicts.shape == (50,)


class TestSequentialRounds:
    """A sequential run is rounds of the fixed-trial loop: collected
    across rounds, it must equal one fixed run of the realized count."""

    @pytest.mark.parametrize(
        "model",
        [MODEL, TiltedClusteredMbuScenario(
            footprints=(((1, 1), 0.9), ((12, 4), 0.1)), tilt=0.05)],
        ids=["plain", "tilted"],
    )
    @pytest.mark.parametrize("workers", [None, 2], ids=["inline", "pool2"])
    def test_collected_rounds_equal_fixed_run(self, model, workers):
        # Rounds of 32, 64, 128 and 200 trials: the 1e-6 tolerance is
        # never met, so the run stops at max_trials, mid-block.
        kwargs = dict(tolerance=1e-6, block_size=16, initial_trials=32,
                      max_trials=200, collect_verdicts=True)
        if workers is None:
            sequential = run_experiment_sequential(SPEC, model, 31, **kwargs)
        else:
            with SharedExecutor(workers=workers) as pool:
                sequential = run_experiment_sequential(SPEC, model, 31,
                                                       executor=pool, **kwargs)
        assert sequential.n_trials == 200
        fixed = run_experiment(SPEC, model, 200, 31, block_size=16)
        assert sequential.counts == fixed.counts
        assert np.array_equal(sequential.verdicts, fixed.verdicts)
        if fixed.is_weighted:
            assert np.array_equal(sequential.weights, fixed.weights)
            assert np.array_equal(sequential.tally.as_array(), fixed.tally.as_array())
        else:
            assert sequential.weights is None and sequential.tally is None


class TestResultPlumbing:
    def test_counts_match_verdicts(self):
        result = _run()
        assert result.counts.n == 120
        assert result.counts.corrected == int((result.verdicts == 0).sum())
        assert result.counts.detected == int((result.verdicts == 1).sum())
        assert result.counts.silent == int((result.verdicts == 2).sum())

    def test_estimate_bounds(self):
        estimate = _run().estimate()
        assert 0.0 <= estimate.lower <= estimate.point <= estimate.upper <= 1.0
        assert estimate.n == 120

    def test_collect_verdicts_off(self):
        result = _run(collect_verdicts=False)
        assert result.verdicts is None
        assert result.counts.n == 120

    def test_zero_trials(self):
        result = _run(n_trials=0)
        assert result.counts.n == 0
        assert result.verdicts.shape == (0,)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            _run(n_trials=-1)
        for block_size in (0, -4):
            with pytest.raises(ValueError, match="block_size"):
                _run(block_size=block_size)
            with pytest.raises(ValueError, match="block_size"):
                run_experiment_sequential(SPEC, MODEL, 31, tolerance=0.1,
                                          block_size=block_size)
            with pytest.raises(ValueError, match="block_size"):
                run_stratified(SPEC, [Stratum("all", 1.0, MODEL)], 64, 31,
                               block_size=block_size)


class TestResultCache:
    def test_second_run_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "engine")
        first = _run(cache=cache)
        assert not first.from_cache
        assert len(cache) == 1
        second = _run(cache=cache)
        assert second.from_cache
        assert second.counts == first.counts
        assert np.array_equal(second.verdicts, first.verdicts)

    def test_cache_key_covers_experiment_identity(self, tmp_path):
        cache = ResultCache(tmp_path)
        _run(cache=cache)
        # Different seed, trials, model or spec -> distinct entries.
        _run(cache=cache, seed=32)
        _run(cache=cache, n_trials=121)
        run_experiment(SPEC, FixedClusterScenario(2, 2), n_trials=120, seed=31,
                       block_size=16, cache=cache)
        other_spec = EngineSpec(rows=16, data_bits=16, interleave_degree=2,
                                horizontal_code="EDC4", vertical_groups=4)
        run_experiment(other_spec, MODEL, n_trials=120, seed=31,
                       block_size=16, cache=cache)
        assert len(cache) == 5

    def test_cache_is_scheduling_agnostic(self, tmp_path):
        """Runs at different parallelism share one cache entry."""
        cache = ResultCache(tmp_path)
        first = _run(cache=cache)
        second = _run(workers=3, cache=cache)
        assert len(cache) == 1
        assert second.from_cache
        assert np.array_equal(second.verdicts, first.verdicts)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _run(cache=cache)
        entry = next(cache.root.glob("*.npz"))
        entry.write_bytes(b"not an npz archive")
        rerun = _run(cache=cache)
        assert not rerun.from_cache
        assert rerun.counts == result.counts

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        _run(cache=cache)
        assert cache.clear() == 1
        assert len(cache) == 0


class _MaskOnlyModel:
    """The pre-contract model shape: dense ``sample`` and ``to_key`` only."""

    def sample(self, rng, count, spec):
        return np.zeros((count, spec.rows, spec.row_bits), dtype=np.uint8)

    def to_key(self):
        return {"model": "mask_only"}


class _ClaimsWeighted(FixedClusterScenario):
    weighted = True


class _DropsWeighted(TiltedClusteredMbuScenario):
    weighted = False


class _InventsWeights(FixedClusterScenario):
    def sample_sparse(self, rng, count, spec):
        return super().sample_sparse(rng, count, spec).with_weights(np.ones(count))


class TestModelContract:
    def test_model_without_sample_sparse_block_is_rejected(self):
        with pytest.raises(TypeError, match="sample_sparse_block"):
            run_experiment(SPEC, _MaskOnlyModel(), 32, seed=1, block_size=16)
        with pytest.raises(TypeError, match="sample_sparse_block"):
            run_experiment_sequential(SPEC, _MaskOnlyModel(), 1, tolerance=0.1,
                                      block_size=16)

    @pytest.mark.parametrize(
        "model",
        [_ClaimsWeighted(height=2, width=2), _DropsWeighted(tilt=0.2),
         _InventsWeights(height=2, width=2)],
        ids=lambda m: type(m).__name__,
    )
    def test_weights_must_match_the_weighted_flag(self, model):
        with pytest.raises(ValueError, match="likelihood-ratio weights"):
            run_experiment(SPEC, model, 32, seed=1, block_size=16)
