"""Shared test helpers (plain functions, no fixtures).

These used to live in ``tests/conftest.py``, but importing them with
``from conftest import ...`` is fragile: when pytest collects both
``tests/`` and ``benchmarks/`` the module name ``conftest`` is ambiguous
and the import can resolve to the wrong file.  Test modules should import
the helpers explicitly with ``from helpers import build_bank, ...``;
fixtures stay in ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np

from repro.array import BankLayout, TwoDProtectedArray
from repro.coding import InterleavedParityCode, SecdedCode

__all__ = [
    "ENGINE_CONFIGS",
    "ScrambledParityCode",
    "build_bank",
    "fill_random",
    "reference_verdicts",
]

#: Small 2D engine geometries the property tests sweep:
#: ``(rows, data_bits, D, code, V)``.
ENGINE_CONFIGS = [
    (16, 16, 2, "EDC4", 8),
    (16, 32, 4, "EDC8", 8),
    (32, 32, 4, "EDC8", 16),
    (32, 32, 2, "SECDED", 16),
    (16, 16, 4, "SECDED", 4),
]


def build_bank(
    horizontal: str = "EDC8",
    rows: int = 64,
    interleave: int = 4,
    vertical_groups: int = 32,
    data_bits: int = 64,
) -> TwoDProtectedArray:
    """Construct a small 2D-protected bank for tests."""
    if horizontal == "EDC8":
        code = InterleavedParityCode(data_bits, 8)
    elif horizontal == "SECDED":
        code = SecdedCode(data_bits)
    else:
        raise ValueError(f"unsupported test code {horizontal}")
    layout = BankLayout(
        n_words=rows * interleave,
        data_bits=data_bits,
        check_bits=code.check_bits,
        interleave_degree=interleave,
    )
    return TwoDProtectedArray(layout, code, vertical_groups=vertical_groups)


def fill_random(bank: TwoDProtectedArray, rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Write random data into every word of a bank; returns the reference."""
    reference = {}
    for word in range(bank.layout.n_words):
        data = rng.integers(0, 2, bank.layout.data_bits, dtype=np.uint8)
        reference[word] = data
        bank.write_word(word, data)
    return reference


def reference_verdicts(spec, model, n_trials: int, seed: int, block_size: int):
    """Per-trial verdicts (and weights) of the ``uint8`` reference path:
    each block's dense masks (``sample_block``, or ``sample_weighted`` on
    the block's root stream for weighted models) through
    :func:`repro.engine.run_recovery_batch` with the reference vector
    decoders — what the engine's packed path must reproduce bit for
    bit."""
    from repro.engine import BlockStreams, make_decoder, run_recovery_batch

    decoder = make_decoder(spec)
    verdicts, weights = [], []
    for block, start in enumerate(range(0, n_trials, block_size)):
        streams = BlockStreams(seed, block)
        if getattr(model, "weighted", False):
            masks, block_weights = model.sample_weighted(streams.root(), block_size, spec)
        else:
            masks, block_weights = model.sample_block(streams, block_size, spec), None
        stop = min(block_size, n_trials - start)
        verdicts.append(run_recovery_batch(spec, masks[:stop], decoder))
        if block_weights is not None:
            weights.append(np.asarray(block_weights[:stop], dtype=np.float64))
    merged = np.concatenate(verdicts) if verdicts else np.zeros(0, dtype=np.uint8)
    return merged, (np.concatenate(weights) if weights else None)


class ScrambledParityCode(InterleavedParityCode):
    """Interleaved parity with a randomly permuted bit→group map."""

    def __init__(self, data_bits: int, interleave: int, seed: int):
        super().__init__(data_bits, interleave)
        rng = np.random.default_rng(seed)
        while True:
            groups = rng.permutation(np.arange(data_bits) % interleave)
            modular = np.array_equal(groups, np.arange(data_bits) % interleave)
            span = data_bits // interleave if data_bits % interleave == 0 else None
            contiguous = span is not None and np.array_equal(
                groups, np.arange(data_bits) // span
            )
            if not modular and not contiguous:
                break
        self._groups = groups
        self.name = f"ScrambledEDC{interleave}(seed={seed})"

    def group_of(self, bit_position: int) -> int:
        if not 0 <= bit_position < self.data_bits:
            raise ValueError(f"bit position {bit_position} out of range")
        return int(self._groups[bit_position])

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = self._validate_word(data)
        check = np.zeros(self.interleave, dtype=np.uint8)
        for group in range(self.interleave):
            members = np.nonzero(self._groups == group)[0]
            check[group] = np.bitwise_xor.reduce(data[members])
        return check
