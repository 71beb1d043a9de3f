"""Packed decode kernels and the packed pipeline: reference bit-identity.

The contract under test is absolute, not statistical: for every spec,
every error pattern and every scheduling choice, the packed decoders
and the packed sparse pipeline must reproduce the ``uint8`` reference
(``VectorDecoder`` + :func:`run_recovery_batch`) *bit for bit* — same
faulty flags, same corrections, same per-trial verdicts, same cache
keys.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineSpec,
    ResultCache,
    SharedExecutor,
    make_decoder,
    make_packed_decoder,
    pack_rows,
    run_experiment,
    run_recovery_batch,
    run_recovery_batch_sparse,
    unpack_rows,
)
from repro.engine.packed import PackedParityDecoder, PackedSecdedDecoder
from repro.engine.rng import block_generator
from repro.engine.runner import _run_trial_range
from repro.scenarios import (
    BurstRowScenario,
    ClusteredMbuScenario,
    CompositeScenario,
    FixedClusterScenario,
    HardFaultMapScenario,
    IidUniformScenario,
    SparseRowBatch,
)
from repro.scenarios.sparse import _layout, pack_row_masks

from helpers import reference_verdicts

SPEC_GRID = [
    EngineSpec(rows=64, data_bits=64, interleave_degree=4,
               horizontal_code="EDC8", vertical_groups=32),
    EngineSpec(rows=64, data_bits=64, interleave_degree=4,
               horizontal_code="EDC8", vertical_groups=None),
    EngineSpec(rows=64, data_bits=64, interleave_degree=4,
               horizontal_code="SECDED", vertical_groups=None),
    EngineSpec(rows=64, data_bits=64, interleave_degree=4,
               horizontal_code="SECDED", vertical_groups=32),
    EngineSpec(rows=32, data_bits=64, interleave_degree=1,
               horizontal_code="byte_parity", vertical_groups=16),
    EngineSpec(rows=48, data_bits=32, interleave_degree=3,
               horizontal_code="EDC4", vertical_groups=16),
]

FIG3_SPEC = SPEC_GRID[0]


def _random_masks(spec, rng, trials=64, p=0.02):
    return (rng.random((trials, spec.rows, spec.row_bits)) < p).astype(np.uint8)


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------

class TestPacking:
    @pytest.mark.parametrize("spec", SPEC_GRID, ids=lambda s: s.horizontal_code)
    def test_pack_unpack_round_trip(self, spec, rng):
        masks = _random_masks(spec, rng, trials=16, p=0.3)
        decoder = make_decoder(spec)
        packed = pack_rows(masks, decoder.codeword_bits, spec.interleave_degree)
        assert packed.shape == (
            16, spec.rows, spec.interleave_degree,
            -(-decoder.codeword_bits // 64),
        )
        restored = unpack_rows(packed, decoder.codeword_bits, spec.interleave_degree)
        assert np.array_equal(restored, masks)

    def test_packed_layout_is_codeword_bit_major_per_slot(self):
        # Cell b*D + s must land at bit b of slot s's word block.
        spec = FIG3_SPEC
        decoder = make_decoder(spec)
        row = np.zeros(spec.row_bits, dtype=np.uint8)
        b, s = 37, 2
        row[b * spec.interleave_degree + s] = 1
        packed = pack_rows(row, decoder.codeword_bits, spec.interleave_degree)
        assert packed.shape == (spec.interleave_degree, 2)
        words = np.zeros((spec.interleave_degree, 2), dtype=np.uint64)
        words[s, b // 64] = np.uint64(1 << (b % 64))
        assert np.array_equal(packed, words)

    @pytest.mark.parametrize("degree", [1, 2, 4, 8])
    @pytest.mark.parametrize("codeword_bits", [1, 8, 63, 64, 65, 72, 137])
    def test_layout_tables_equal_identity_matrix_packing(self, degree, codeword_bits):
        """The packing tables equal the ones the packer builds from the
        identity matrix (one row per column), byte for byte."""
        row_bits = codeword_bits * degree
        cells = pack_row_masks(np.eye(row_bits, dtype=np.uint8), degree)
        prefix = np.zeros((row_bits + 1,) + cells.shape[1:], dtype=np.uint64)
        np.bitwise_xor.accumulate(cells, axis=0, out=prefix[1:])
        flat = cells.reshape(row_bits, -1)
        cell_word = flat.argmax(axis=1)
        expected = (prefix, cell_word, flat[np.arange(row_bits), cell_word])
        for got, want in zip(_layout.__wrapped__(row_bits, degree), expected):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_layout_memory_is_proportional_to_its_tables(self):
        """A wide geometry's first batch costs about its tables' bytes,
        not the row_bits**2 bytes of an identity matrix."""
        tracemalloc.start()
        try:
            tables = _layout.__wrapped__(8192, 4)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sum(t.nbytes for t in tables)


# ----------------------------------------------------------------------
# decoder equivalence
# ----------------------------------------------------------------------

class TestPackedDecoders:
    @pytest.mark.parametrize("spec", SPEC_GRID, ids=lambda s: s.horizontal_code)
    def test_decode_matches_dense_on_random_masks(self, spec, rng):
        dense = make_decoder(spec)
        packed = make_packed_decoder(spec)
        for p in (0.0, 0.005, 0.05, 0.5):
            masks = _random_masks(spec, rng, trials=32, p=p)
            dd = dense.decode(masks)
            pd = packed.decode(masks)
            assert np.array_equal(dd.faulty, pd.faulty)
            if dd.corrections is None:
                assert pd.corrections is None
            else:
                assert np.array_equal(dd.corrections, pd.corrections)

    def test_decoder_kinds(self):
        assert isinstance(make_packed_decoder(FIG3_SPEC), PackedParityDecoder)
        assert isinstance(
            make_packed_decoder(SPEC_GRID[2]), PackedSecdedDecoder
        )

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), spec_index=st.integers(0, len(SPEC_GRID) - 1))
    def test_single_row_equivalence_property(self, data, spec_index):
        spec = SPEC_GRID[spec_index]
        dense = make_decoder(spec)
        packed = make_packed_decoder(spec)
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=spec.row_bits,
                     max_size=spec.row_bits)
        )
        row = np.array(bits, dtype=np.uint8)
        dd = dense.decode(row)
        pd = packed.decode(row)
        assert np.array_equal(dd.faulty, pd.faulty)
        if dd.corrections is not None:
            assert np.array_equal(dd.corrections, pd.corrections)

    def test_packed_decoder_supports_dense_pipeline(self, rng):
        # The packed decoders are drop-in VectorDecoders: the dense
        # recovery pipeline accepts them and yields identical verdicts.
        spec = FIG3_SPEC
        masks = _random_masks(spec, rng)
        dense = run_recovery_batch(spec, masks, make_decoder(spec))
        packed = run_recovery_batch(spec, masks, make_packed_decoder(spec))
        assert np.array_equal(dense, packed)


# ----------------------------------------------------------------------
# sparse batches
# ----------------------------------------------------------------------

class TestSparseRowBatch:
    def test_from_masks_round_trip(self, rng):
        masks = (rng.random((20, 16, 24)) < 0.1).astype(np.uint8)
        batch = SparseRowBatch.from_masks(masks)
        assert np.array_equal(batch.densify(), masks)
        keys = batch.trial_idx * 16 + batch.row_idx
        assert np.all(np.diff(keys) > 0)  # sorted, unique

    def test_slice_trials_matches_dense_slicing(self, rng):
        masks = (rng.random((20, 16, 24)) < 0.1).astype(np.uint8)
        batch = SparseRowBatch.from_masks(masks)
        sub = batch.slice_trials(5, 13)
        assert sub.n_trials == 8
        assert np.array_equal(sub.densify(), masks[5:13])

    def test_merge_is_bitwise_or(self, rng):
        a = (rng.random((12, 8, 24)) < 0.08).astype(np.uint8)
        b = (rng.random((12, 8, 24)) < 0.08).astype(np.uint8)
        merged = SparseRowBatch.from_masks(a).merge(SparseRowBatch.from_masks(b))
        assert np.array_equal(merged.densify(), a | b)

    def test_weights_follow_trial_slices(self, rng):
        masks = (rng.random((20, 16, 24)) < 0.1).astype(np.uint8)
        weights = rng.random(20)
        batch = SparseRowBatch.from_masks(masks).with_weights(weights)
        assert SparseRowBatch.from_masks(masks).weights is None
        sub = batch.slice_trials(5, 13)
        assert sub.weights.dtype == np.float64
        assert np.array_equal(sub.weights, weights[5:13])
        assert np.array_equal(sub.densify(), masks[5:13])
        assert batch.slice_trials(0, 20) is batch
        with pytest.raises(ValueError, match="trial weights"):
            SparseRowBatch.from_masks(masks).with_weights(weights[:5])

    def test_merge_rejects_weighted_batches(self, rng):
        masks = (rng.random((6, 8, 24)) < 0.1).astype(np.uint8)
        plain = SparseRowBatch.from_masks(masks)
        weighted = plain.with_weights(np.ones(6))
        for a, b in ((plain, weighted), (weighted, plain), (weighted, weighted)):
            with pytest.raises(ValueError, match="likelihood-ratio"):
                a.merge(b)

    def test_empty_batch(self):
        spec = EngineSpec(rows=8, data_bits=4, interleave_degree=6,
                          horizontal_code="EDC4", vertical_groups=None)
        batch = SparseRowBatch.empty(
            7, spec.rows, spec.row_bits, spec.interleave_degree
        )
        assert batch.n_pairs == 0
        assert batch.densify().shape == (7, spec.rows, spec.row_bits)
        verdicts = run_recovery_batch_sparse(spec, batch)
        assert np.array_equal(verdicts, np.zeros(7, dtype=np.uint8))


# ----------------------------------------------------------------------
# packed constructors against a plain numpy scatter
# ----------------------------------------------------------------------

#: Scenario batches the sparse pipeline is checked on (all draw through
#: ``from_row_spans`` or ``from_cells``).
SPARSE_SCENARIOS = [
    ClusteredMbuScenario(),
    ClusteredMbuScenario(spread=0.3),
    FixedClusterScenario(height=3, width=9),
    IidUniformScenario(n_cells=5),
    BurstRowScenario(span=2),
    HardFaultMapScenario(defect_density=2e-4),
    CompositeScenario(),
]


@st.composite
def _bank(draw):
    """``(n_trials, rows, row_bits, degree)``; rows of up to 3 words per
    interleave slot, so bit ranges cross word boundaries."""
    degree = draw(st.sampled_from([1, 2, 4]))
    return (draw(st.integers(1, 6)), draw(st.integers(1, 10)),
            degree * draw(st.integers(1, 150)), degree)


def _assert_packed_batch(batch, expected, degree):
    """``batch`` densifies to ``expected`` and keeps the batch invariants:
    unique sorted pairs, each one a dirty row."""
    assert batch.interleave_degree == degree
    assert batch.rows.dtype == np.uint64
    assert np.array_equal(batch.densify(), expected)
    keys = batch.trial_idx * batch.array_rows + batch.row_idx
    assert (np.diff(keys) > 0).all()
    assert batch.rows.any(axis=(1, 2)).all()


class TestPackedConstructors:
    @settings(max_examples=150, deadline=None)
    @given(bank=_bank(), data=st.data())
    def test_from_row_spans_equals_numpy_scatter(self, bank, data):
        n_trials, rows, row_bits, degree = bank
        r0, heights, c0, widths = [], [], [], []
        for _ in range(n_trials):
            # Zero heights and widths (empty rectangles) are in range.
            r = data.draw(st.integers(0, rows))
            c = data.draw(st.integers(0, row_bits))
            r0.append(r)
            heights.append(data.draw(st.integers(0, rows - r)))
            c0.append(c)
            widths.append(data.draw(st.integers(0, row_bits - c)))
        expected = np.zeros((n_trials, rows, row_bits), dtype=np.uint8)
        for t in range(n_trials):
            expected[t, r0[t]:r0[t] + heights[t], c0[t]:c0[t] + widths[t]] = 1
        batch = SparseRowBatch.from_row_spans(
            n_trials, rows, row_bits, np.array(r0), np.array(heights),
            np.array(c0), np.array(widths), degree,
        )
        _assert_packed_batch(batch, expected, degree)

    @settings(max_examples=150, deadline=None)
    @given(bank=_bank(), data=st.data())
    def test_from_cells_equals_numpy_scatter(self, bank, data):
        n_trials, rows, row_bits, degree = bank
        # Trials drawn from a subrange leave the rest fault-free; the
        # list is repeated in part so some cells come twice.
        busy = data.draw(st.integers(1, n_trials))
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, busy - 1), st.integers(0, rows * row_bits - 1)),
            max_size=40,
        ))
        cells += cells[: data.draw(st.integers(0, len(cells)))]
        trials = np.array([t for t, _ in cells], dtype=np.int64)
        sites = np.array([c for _, c in cells], dtype=np.int64)
        expected = np.zeros((n_trials, rows * row_bits), dtype=np.uint8)
        expected[trials, sites] = 1
        batch = SparseRowBatch.from_cells(n_trials, rows, row_bits, trials, sites, degree)
        _assert_packed_batch(batch, expected.reshape(n_trials, rows, row_bits), degree)


# ----------------------------------------------------------------------
# sparse pipeline bit-identity
# ----------------------------------------------------------------------

class TestSparsePipeline:
    @pytest.mark.parametrize("spec", SPEC_GRID, ids=lambda s: s.horizontal_code)
    def test_verdicts_match_dense_on_random_masks(self, spec, rng):
        for p in (0.001, 0.01, 0.1):
            masks = _random_masks(spec, rng, trials=96, p=p)
            dense = run_recovery_batch(spec, masks)
            batch = SparseRowBatch.from_masks(masks, spec.interleave_degree)
            sparse = run_recovery_batch_sparse(spec, batch)
            assert np.array_equal(dense, sparse)

    @pytest.mark.parametrize(
        "model", SPARSE_SCENARIOS, ids=lambda m: type(m).__name__
    )
    def test_verdicts_match_dense_on_scenario_batches(self, model):
        spec = FIG3_SPEC
        masks = model.sample(block_generator(11, 0), 192, spec)
        dense = run_recovery_batch(spec, masks)
        sparse = run_recovery_batch_sparse(
            spec, model.sample_sparse(block_generator(11, 0), 192, spec)
        )
        assert np.array_equal(dense, sparse)

    def test_geometry_mismatch_rejected(self, rng):
        masks = (rng.random((4, 8, 24)) < 0.2).astype(np.uint8)
        with pytest.raises(ValueError, match="geometry"):
            run_recovery_batch_sparse(FIG3_SPEC, SparseRowBatch.from_masks(masks))


# ----------------------------------------------------------------------
# run_experiment: the packed path reproduces the reference per block
# ----------------------------------------------------------------------

class TestExecutionModes:
    def test_modes_and_workers_are_bit_identical(self):
        spec = FIG3_SPEC
        model = ClusteredMbuScenario.mostly_single_bit(0.3)
        reference, _ = reference_verdicts(spec, model, 700, seed=13, block_size=128)
        for workers in (1, 2, 3, 4):
            with SharedExecutor(workers=workers) as pool:
                result = run_experiment(spec, model, 700, seed=13, block_size=128,
                                        executor=pool)
            assert np.array_equal(result.verdicts, reference), workers

    def test_dense_in_practice_sparse_emitter_auto_dispatch(self):
        # A sparse emitter whose batches dirty every row (array-spanning
        # bursts) runs on the same packed path, with reference verdicts.
        spec = FIG3_SPEC
        model = BurstRowScenario(span=spec.rows)
        batch = model.sample_sparse(block_generator(2, 0), 8, spec)
        assert batch.n_pairs == 8 * spec.rows
        reference, _ = reference_verdicts(spec, model, 128, seed=2, block_size=64)
        result = run_experiment(spec, model, 128, seed=2, block_size=64)
        assert np.array_equal(result.verdicts, reference)

    def test_dense_only_model_auto_dispatch(self):
        # Bernoulli flips have no packed emitter: IidUniformScenario's
        # sample_sparse packs their dense masks with from_masks, so every
        # block still counts as sparse in the shard stats, at any
        # density, with reference verdicts.
        spec = FIG3_SPEC
        for p in (0.0005, 0.4):
            model = IidUniformScenario(flip_probability=p)
            reference, _ = reference_verdicts(spec, model, 256, seed=3, block_size=128)
            result = run_experiment(spec, model, 256, seed=3, block_size=128)
            assert np.array_equal(result.verdicts, reference)
            stats = _run_trial_range(spec, model, 3, 128, 0, 256, False)[-1]
            assert (stats["sparse_blocks"], stats["dense_blocks"]) == (2, 0)
            assert stats["densified_blocks"] == 0

    def test_cache_keys_unchanged_across_modes(self, tmp_path):
        spec = FIG3_SPEC
        model = ClusteredMbuScenario.mostly_single_bit(0.3)
        cache = ResultCache(tmp_path)
        first = run_experiment(spec, model, 256, seed=5, block_size=128, cache=cache)
        assert not first.from_cache
        # The key of this configuration before the packed rewrite.
        assert [p.stem for p in tmp_path.glob("*.npz")] == [
            "fccdc543e08ac24076d98fa3303cc067154805014d5e2ddab195acfb8a0b5d48"
        ]
        with SharedExecutor(workers=2) as pool:
            hit = run_experiment(spec, model, 256, seed=5, block_size=128,
                                 executor=pool, cache=cache)
        assert hit.from_cache
        assert np.array_equal(hit.verdicts, first.verdicts)
