"""The ``"generic"`` group-map branch of ``ParityVectorDecoder``.

No standard code (EDCn modular, byte-parity contiguous) exercises this
branch, so it gets dedicated coverage here with scrambled group maps:
an ``InterleavedParityCode`` whose bit→group assignment is a seeded
random permutation of the modular layout.  The vectorized decoder must
fall into its generic gather path and still agree word for word with
the scalar ``code.decode`` — and with the packed decoder, whose
byte-table syndrome kernel is layout-agnostic by construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coding.base import CodeStatus
from repro.engine.batch import ParityVectorDecoder
from repro.engine.packed import PackedParityDecoder

from helpers import ScrambledParityCode


def _scalar_word_faulty(code, row_mask, slot, degree):
    """Scalar reference verdict for one interleave slot of a row mask."""
    codeword = row_mask[slot::degree]  # codeword bits of this slot
    data, check = codeword[: code.data_bits], codeword[code.data_bits :]
    result = code.decode(data, check)
    return result.status == CodeStatus.DETECTED_UNCORRECTABLE


@pytest.mark.parametrize("data_bits,interleave,degree", [
    (64, 8, 4),
    (32, 4, 2),
    (24, 6, 1),
    (16, 5, 3),  # interleave does not divide data_bits
])
def test_generic_branch_matches_scalar_decoder(data_bits, interleave, degree):
    code = ScrambledParityCode(data_bits, interleave, seed=data_bits + interleave)
    decoder = ParityVectorDecoder(code, degree)
    assert decoder._pattern == "generic"
    rng = np.random.default_rng(99)
    for p in (0.01, 0.1, 0.5):
        masks = (rng.random((40, decoder.row_bits)) < p).astype(np.uint8)
        faulty = decoder.decode(masks).faulty
        for t in range(masks.shape[0]):
            for s in range(degree):
                assert faulty[t, s] == _scalar_word_faulty(
                    code, masks[t], s, degree
                ), (t, s)


@pytest.mark.parametrize("data_bits,interleave,degree", [
    (64, 8, 4),
    (16, 5, 3),
])
def test_generic_branch_matches_packed_decoder(data_bits, interleave, degree):
    code = ScrambledParityCode(data_bits, interleave, seed=7)
    dense = ParityVectorDecoder(code, degree)
    packed = PackedParityDecoder(code, degree)
    assert dense._pattern == "generic"
    rng = np.random.default_rng(5)
    masks = (rng.random((200, dense.row_bits)) < 0.05).astype(np.uint8)
    assert np.array_equal(dense.decode(masks).faulty, packed.decode(masks).faulty)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    flips=st.lists(st.integers(0, 32 * 2 + 4 * 2 - 1), min_size=0, max_size=8),
)
def test_generic_branch_single_row_property(seed, flips):
    """Randomized group maps × randomized sparse flips vs the scalar path."""
    code = ScrambledParityCode(32, 4, seed=seed)
    degree = 2
    decoder = ParityVectorDecoder(code, degree)
    assert decoder._pattern == "generic"
    row = np.zeros(decoder.row_bits, dtype=np.uint8)
    for position in flips:
        row[position] ^= 1
    faulty = decoder.decode(row).faulty
    for s in range(degree):
        assert faulty[s] == _scalar_word_faulty(code, row, s, degree)
