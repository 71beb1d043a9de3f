"""Vectorized-vs-scalar equivalence of the engine's compute kernels.

Two layers of property tests:

* **Decoder level** — for random per-word error masks, the vectorized
  decoders must reproduce the scalar ``WordCode.decode`` verdict *and*
  the exact correction the scalar code applies (including SECDED
  miscorrections of aliasing multi-bit patterns).
* **Recovery level** — for randomly drawn small configurations and
  clustered errors, the batch detect/correct verdicts must match the
  :class:`repro.array.TwoDProtectedArray` recovery path: exactly inside
  the scheme's guaranteed coverage, and soundly everywhere (a verdict
  of CORRECTED or SILENT is always bit-exact; DETECTED may be
  conservative because the engine does not model the scalar session's
  best-effort column heuristics).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coding import InterleavedParityCode, SecdedCode
from repro.coding.base import CodeStatus
from repro.engine import (
    VERDICT_CORRECTED,
    VERDICT_DETECTED,
    EngineSpec,
    make_decoder,
    run_recovery_batch,
    scalar_verdicts,
)
from repro.engine.rng import block_generator
from repro.scenarios import ClusteredMbuScenario, FixedClusterScenario, IidUniformScenario

from helpers import ENGINE_CONFIGS


# ----------------------------------------------------------------------
# decoder equivalence
# ----------------------------------------------------------------------

def _scalar_reference(code, word_mask: np.ndarray) -> tuple[bool, np.ndarray]:
    """(faulty, correction mask) of the scalar decode of one error mask.

    The codes are linear, so decoding a zero codeword plus the error
    mask exhibits exactly the verdict/correction any stored data would
    see.
    """
    data_err = word_mask[: code.data_bits].astype(np.uint8)
    check_err = word_mask[code.data_bits :].astype(np.uint8)
    result = code.decode(data_err, check_err)
    correction = np.zeros_like(word_mask)
    if result.status is CodeStatus.CORRECTED:
        correction[: code.data_bits] = result.data ^ data_err
        for check_bit in result.corrected_check_bits:
            correction[code.data_bits + check_bit] = 1
    return result.status is CodeStatus.DETECTED_UNCORRECTABLE, correction


def _interleave_rows(word_masks: np.ndarray) -> np.ndarray:
    """Pack ``(rows, D, B)`` word masks into ``(rows, B*D)`` physical rows."""
    return word_masks.swapaxes(-1, -2).reshape(word_masks.shape[0], -1)


@pytest.mark.parametrize(
    "code,interleave",
    [
        (InterleavedParityCode(32, 8), 4),
        (InterleavedParityCode(24, 6), 2),
        (SecdedCode(32), 4),
        (SecdedCode(16), 2),
    ],
    ids=["edc8", "edc6", "secded32", "secded16"],
)
def test_decoder_matches_scalar_decode(code, interleave):
    spec = EngineSpec(
        rows=4,
        data_bits=code.data_bits,
        interleave_degree=interleave,
        horizontal_code=code.name,
        vertical_groups=None,
    )
    decoder = make_decoder(spec)
    rng = np.random.default_rng(404)
    b = code.data_bits + code.check_bits
    for density in (0.0, 0.02, 0.1, 0.4):
        words = (rng.random((4, interleave, b)) < density).astype(np.uint8)
        batch = decoder.decode(_interleave_rows(words))
        corrections = (
            np.zeros_like(words)
            if batch.corrections is None
            else batch.corrections.reshape(4, b, interleave).swapaxes(-1, -2)
        )
        for row in range(4):
            for slot in range(interleave):
                faulty, correction = _scalar_reference(code, words[row, slot])
                assert batch.faulty[row, slot] == faulty
                assert np.array_equal(corrections[row, slot], correction)


def test_byte_parity_decoder_matches_scalar():
    from repro.coding.parity import ByteParityCode

    code = ByteParityCode(32)
    spec = EngineSpec(
        rows=2,
        data_bits=32,
        interleave_degree=2,
        horizontal_code="BYTE_PARITY",
        vertical_groups=None,
    )
    decoder = make_decoder(spec)
    rng = np.random.default_rng(11)
    b = code.data_bits + code.check_bits
    words = (rng.random((2, 2, b)) < 0.15).astype(np.uint8)
    batch = decoder.decode(_interleave_rows(words))
    for row in range(2):
        for slot in range(2):
            faulty, _ = _scalar_reference(code, words[row, slot])
            assert batch.faulty[row, slot] == faulty


# ----------------------------------------------------------------------
# recovery equivalence against the TwoDProtectedArray oracle
# ----------------------------------------------------------------------

_CONFIGS = ENGINE_CONFIGS


def _spec_for(config_index: int) -> EngineSpec:
    rows, data_bits, d, code, v = _CONFIGS[config_index % len(_CONFIGS)]
    return EngineSpec(
        rows=rows,
        data_bits=data_bits,
        interleave_degree=d,
        horizontal_code=code,
        vertical_groups=v,
    )


def _detect_width(spec: EngineSpec) -> int:
    return spec.build_code().detect_bits * spec.interleave_degree


@given(config=st.integers(0, len(_CONFIGS) - 1), seed=st.integers(0, 2**16))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_in_coverage_clusters_match_oracle_exactly(config, seed):
    """Single clusters within the guaranteed footprint: both paths say
    CORRECTED, trial for trial."""
    spec = _spec_for(config)
    rng = np.random.default_rng(seed)
    height = int(rng.integers(1, spec.vertical_groups + 1))
    width = int(rng.integers(1, _detect_width(spec) + 1))
    model = FixedClusterScenario(height, width)
    masks = model.sample(block_generator(seed, 0), 6, spec)
    engine = run_recovery_batch(spec, masks)
    oracle = scalar_verdicts(spec, masks)
    assert np.array_equal(engine, oracle)
    assert (engine == VERDICT_CORRECTED).all()


@given(config=st.integers(0, len(_CONFIGS) - 1), seed=st.integers(0, 2**16))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_arbitrary_clusters_are_sound_against_oracle(config, seed):
    """Unconstrained clusters: wherever the engine claims CORRECTED or
    SILENT its verdict equals the oracle's; DETECTED is conservative."""
    spec = _spec_for(config)
    rng = np.random.default_rng(seed + 1)
    height = int(rng.integers(1, spec.rows + 1))
    width = int(rng.integers(1, spec.row_bits + 1))
    model = FixedClusterScenario(height, width)
    masks = model.sample(block_generator(seed, 0), 4, spec)
    engine = run_recovery_batch(spec, masks)
    oracle = scalar_verdicts(spec, masks)
    exact = engine != VERDICT_DETECTED
    assert np.array_equal(engine[exact], oracle[exact])
    # DETECTED means the scalar path at least never returns silently
    # wrong data for these single-event patterns within detection width.
    assert (oracle[engine == VERDICT_CORRECTED] == VERDICT_CORRECTED).all()


@given(config=st.integers(0, len(_CONFIGS) - 1), seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_cell_faults_are_sound_against_oracle(config, seed):
    """The yield workload (uniform random cells) is sound too."""
    spec = _spec_for(config)
    rng = np.random.default_rng(seed + 2)
    n_cells = int(rng.integers(0, 24))
    model = IidUniformScenario(n_cells)
    masks = model.sample(block_generator(seed, 0), 4, spec)
    engine = run_recovery_batch(spec, masks)
    oracle = scalar_verdicts(spec, masks)
    exact = engine != VERDICT_DETECTED
    assert np.array_equal(engine[exact], oracle[exact])


# ----------------------------------------------------------------------
# error models + spec plumbing
# ----------------------------------------------------------------------

class TestErrorModels:
    def setup_method(self):
        self.spec = EngineSpec(
            rows=16, data_bits=16, interleave_degree=2,
            horizontal_code="EDC4", vertical_groups=8,
        )

    def test_cluster_model_shapes_and_bounds(self):
        model = ClusteredMbuScenario.mostly_single_bit(0.5)
        masks = model.sample(block_generator(0, 0), 40, self.spec)
        assert masks.shape == (40, self.spec.rows, self.spec.row_bits)
        assert masks.max() <= 1
        assert (masks.sum(axis=(1, 2)) >= 1).all()

    def test_cluster_model_is_deterministic_per_block(self):
        model = ClusteredMbuScenario.mostly_single_bit(0.5)
        a = model.sample(block_generator(5, 3), 16, self.spec)
        b = model.sample(block_generator(5, 3), 16, self.spec)
        assert np.array_equal(a, b)

    def test_fixed_cluster_footprint(self):
        masks = FixedClusterScenario(3, 5).sample(block_generator(1, 0), 8, self.spec)
        assert (masks.sum(axis=(1, 2)) == 15).all()
        # solid rectangle: rows hit are contiguous
        rows_hit = masks.any(axis=2).sum(axis=1)
        cols_hit = masks.any(axis=1).sum(axis=1)
        assert (rows_hit == 3).all() and (cols_hit == 5).all()

    def test_random_cells_exact_count(self):
        masks = IidUniformScenario(7).sample(block_generator(2, 0), 8, self.spec)
        assert (masks.sum(axis=(1, 2)) == 7).all()

    def test_random_cells_zero(self):
        masks = IidUniformScenario(0).sample(block_generator(2, 0), 4, self.spec)
        assert masks.sum() == 0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            FixedClusterScenario(0, 3)
        with pytest.raises(ValueError):
            IidUniformScenario(-1)
        with pytest.raises(ValueError):
            ClusteredMbuScenario(footprints=())


class TestEngineSpec:
    def test_from_scheme(self):
        from repro.core import TWO_D_L1

        spec = EngineSpec.from_scheme(TWO_D_L1, rows=256)
        assert spec.row_bits == (64 + 8) * 4
        assert spec.n_words == 1024
        assert spec.is_two_dimensional

    def test_rejects_indivisible_vertical_groups(self):
        with pytest.raises(ValueError):
            EngineSpec(rows=30, data_bits=16, interleave_degree=2,
                       horizontal_code="EDC4", vertical_groups=16)

    def test_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            EngineSpec(rows=16, data_bits=16, interleave_degree=2,
                       horizontal_code="NOSUCH", vertical_groups=8)

    def test_unvectorizable_code_raises_in_make_decoder(self):
        spec = EngineSpec(rows=16, data_bits=16, interleave_degree=2,
                          horizontal_code="OECNED", vertical_groups=None)
        with pytest.raises(ValueError, match="no vectorized decoder"):
            make_decoder(spec)

    def test_bad_mask_shape_rejected(self):
        spec = EngineSpec(rows=16, data_bits=16, interleave_degree=2,
                          horizontal_code="EDC4", vertical_groups=8)
        with pytest.raises(ValueError):
            run_recovery_batch(spec, np.zeros((2, 16, 10), dtype=np.uint8))
