"""Packed-word decode and recovery: the engine's one production path.

Every block the runner evaluates arrives as a
:class:`~repro.scenarios.sparse.SparseRowBatch`: only the rows that
carry errors, each as ``(D, W)`` ``uint64`` words laid out
codeword-bit-major per interleave slot (see that module).  Scrub,
vertical-parity row reconstruction and classification all stay on those
words; the ``uint8`` kernels of :mod:`repro.engine.batch` survive only
as the reference the identity tests compare against.

**One GF(2) syndrome kernel.**  A linear code's syndrome is the XOR of
the syndrome contributions of the set codeword bits, so splitting a
codeword into bytes turns it into a XOR of per-byte lookups: for byte
position ``j`` a 256-entry ``uint64`` table holds, for every byte value,
the XOR of the contributions of its set bits, and the syndrome of a
slot is ``T[0][byte_0] ^ T[1][byte_1] ^ ...`` (:class:`SyndromeKernel`).
Only the contribution vectors differ between codes:

* interleaved parity (EDCn, byte parity, any ``group_of`` map) — bit
  ``g`` of a contribution marks parity group ``g``; a slot is faulty
  when any group trips, i.e. the syndrome is non-zero;
* SECDED — the probed Hamming syndrome in the low ``m`` bits plus the
  overall parity in bit ``m``; one table lookup on that key yields both
  the verdict and the packed one-hot correction word.

**Sparse recovery.**  Clean rows decode clean with no corrections and
drop out of the vertical group syndromes, so running recovery over the
dirty rows alone is lossless.  One decode per block suffices: a row
the scrub leaves alone re-decodes exactly as before, a corrected row
re-decodes clean with no correction (each correction word cancels the
syndrome it was looked up by), and a reconstructed row is the XOR of
zero-syndrome rows, so the final residual is the corrected content
everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.coding.hamming import SecdedCode
from repro.coding.parity import InterleavedParityCode
from repro.scenarios.sparse import SparseRowBatch, pack_row_masks, unpack_row_words

from .batch import (
    VERDICT_DETECTED,
    VERDICT_SILENT,
    DecodeBatch,
    EngineSpec,
    VectorDecoder,
    probe_secded,
)

__all__ = [
    "pack_rows",
    "unpack_rows",
    "SyndromeKernel",
    "PackedParityDecoder",
    "PackedSecdedDecoder",
    "make_packed_decoder",
    "run_recovery_batch_sparse",
]

_WORD_BITS = 64


def pack_rows(
    row_masks: np.ndarray, codeword_bits: int, interleave_degree: int
) -> np.ndarray:
    """Pack ``(..., row_bits)`` masks into per-slot codeword words.

    Input rows use the physical bank layout (cell ``b * D + s`` is
    codeword bit ``b`` of interleave slot ``s``); the output has shape
    ``(..., D, ceil(codeword_bits / 64))`` with codeword bit ``b`` of
    slot ``s`` at bit ``b % 64`` of word ``b // 64`` — codeword-bit-major
    per interleave slot.
    """
    w = np.asarray(row_masks, dtype=np.uint8)
    if w.shape[-1] != codeword_bits * interleave_degree:
        raise ValueError(
            f"expected rows of {codeword_bits * interleave_degree} bits, "
            f"got {w.shape[-1]}"
        )
    return pack_row_masks(w, interleave_degree)


def unpack_rows(
    packed: np.ndarray, codeword_bits: int, interleave_degree: int
) -> np.ndarray:
    """Inverse of :func:`pack_rows`: back to ``(..., row_bits)`` uint8."""
    return unpack_row_words(packed, codeword_bits * interleave_degree)


# ----------------------------------------------------------------------
# the syndrome kernel
# ----------------------------------------------------------------------

class SyndromeKernel:
    """Table-driven GF(2) syndromes of packed codewords.

    ``contrib`` is a ``(codeword_bits, S)`` ``uint64`` array: the
    ``S``-word syndrome each codeword bit toggles.  The constructor folds
    it into one 256-entry table per codeword byte; :meth:`__call__` maps
    ``(..., D, W)`` words to ``(..., D, S)`` syndromes by XOR-ing one
    table lookup per byte.
    """

    def __init__(self, contrib: np.ndarray):
        n_bits, width = contrib.shape
        n_bytes = -(-n_bits // 8)
        per_byte = np.zeros((n_bytes * 8, width), dtype=np.uint64)
        per_byte[:n_bits] = contrib
        per_byte = per_byte.reshape(n_bytes, 1, 8, width)
        value_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1  # (256, 8)
        picked = np.where(value_bits[None, :, :, None] == 1, per_byte, np.uint64(0))
        self._tables = np.bitwise_xor.reduce(picked, axis=2)  # (n_bytes, 256, S)

    def __call__(self, words: np.ndarray) -> np.ndarray:
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        syndrome = self._tables[0].take(as_bytes[..., 0], axis=0)
        for j in range(1, len(self._tables)):
            syndrome ^= self._tables[j].take(as_bytes[..., j], axis=0)
        return syndrome


def _bit_words(bits: np.ndarray, n_words: int) -> np.ndarray:
    """``(..., n_words)`` uint64 one-hot words with bit ``bits[...]`` set."""
    bits = np.asarray(bits, dtype=np.int64)
    out = np.zeros(bits.shape + (n_words,), dtype=np.uint64)
    np.put_along_axis(
        out,
        (bits // _WORD_BITS)[..., None],
        (np.uint64(1) << (bits % _WORD_BITS).astype(np.uint64))[..., None],
        axis=-1,
    )
    return out


class _PackedDecoder(VectorDecoder):
    """Shared shape of the packed decoders: a row-layout :meth:`decode`
    (pack, :meth:`decode_packed`, unpack the corrections) for tests and
    the reference pipeline, plus the data-bit mask classification uses."""

    def __init__(self, code, interleave_degree: int):
        super().__init__(code, interleave_degree)
        self.n_words = -(-self.codeword_bits // _WORD_BITS)
        self.data_mask = np.bitwise_or.reduce(
            _bit_words(np.arange(self.data_bits), self.n_words), axis=0
        )

    def decode_packed(self, packed: np.ndarray) -> DecodeBatch:
        raise NotImplementedError

    def decode(self, row_masks: np.ndarray) -> DecodeBatch:
        w = self._check_shape(row_masks)
        dec = self.decode_packed(pack_rows(w, self.codeword_bits, self.interleave_degree))
        if dec.corrections is None:
            return dec
        return DecodeBatch(dec.faulty, unpack_row_words(dec.corrections, self.row_bits))


class PackedParityDecoder(_PackedDecoder):
    """Interleaved-parity decode (EDCn, byte parity, generic group maps).

    Bit ``g`` of a codeword bit's contribution marks its parity group,
    taken straight from ``code.group_of``; a slot is faulty when its
    syndrome is non-zero.  Verdict-compatible with
    :class:`repro.engine.batch.ParityVectorDecoder` bit for bit.
    """

    def __init__(self, code: InterleavedParityCode, interleave_degree: int):
        super().__init__(code, interleave_degree)
        groups = [code.group_of(b) for b in range(code.data_bits)]
        groups += list(range(code.interleave))  # check bit g closes group g
        width = -(-code.interleave // _WORD_BITS)
        self._kernel = SyndromeKernel(_bit_words(groups, width))

    def decode_packed(self, packed: np.ndarray) -> DecodeBatch:
        """Decode packed ``(..., D, W)`` rows; no corrections."""
        return DecodeBatch(faulty=self._kernel(packed).any(axis=-1), corrections=None)


class PackedSecdedDecoder(_PackedDecoder):
    """Extended-Hamming SECDED over packed words.

    The kernel's syndrome key holds the probed Hamming syndrome
    (:func:`repro.engine.batch.probe_secded`, shared with the reference
    decoder) in bits ``0..m-1`` and the overall parity in bit ``m``.
    Two tables indexed by that key give the slot's detected-
    uncorrectable flag and its packed one-hot correction word, so
    miscorrections of aliasing multi-bit patterns match the scalar code
    exactly.
    """

    def __init__(self, code: SecdedCode, interleave_degree: int):
        super().__init__(code, interleave_degree)
        contrib, lut = probe_secded(code)
        m = code.check_bits - 1
        overall_bit = np.int64(1) << m
        self._kernel = SyndromeKernel((contrib | overall_bit).astype(np.uint64)[:, None])
        keys = np.arange(2 << m)
        odd = keys >> m == 1
        target = lut[keys & (overall_bit - 1)]
        self._faulty = np.where(odd, target < 0, keys != 0)
        correct = odd & (target >= 0)
        self._corrections = _bit_words(np.maximum(target, 0), self.n_words)
        self._corrections[~correct] = 0

    def decode_packed(self, packed: np.ndarray) -> DecodeBatch:
        """Decode packed ``(..., D, W)`` rows; corrections as packed words."""
        key = self._kernel(packed)[..., 0].astype(np.intp)
        # ``take`` along axis 0 gathers the (W,) correction rows ~10x
        # faster than fancy indexing on all-dirty blocks.
        return DecodeBatch(
            faulty=self._faulty[key], corrections=self._corrections.take(key, axis=0)
        )


def make_packed_decoder(spec: EngineSpec) -> _PackedDecoder:
    """Packed decoder for a spec's horizontal code and interleaving."""
    code = spec.build_code()
    if isinstance(code, SecdedCode):
        return PackedSecdedDecoder(code, spec.interleave_degree)
    if isinstance(code, InterleavedParityCode):  # includes ByteParityCode
        return PackedParityDecoder(code, spec.interleave_degree)
    raise ValueError(
        f"no vectorized decoder for {code.name!r}; the engine currently "
        "supports interleaved-parity (EDCn / byte parity) and SECDED codes"
    )


# ----------------------------------------------------------------------
# recovery + verdicts
# ----------------------------------------------------------------------

def run_recovery_batch_sparse(
    spec: EngineSpec,
    batch: SparseRowBatch,
    decoder: "_PackedDecoder | None" = None,
) -> np.ndarray:
    """Decode + recover a packed sparse batch; per-trial verdicts.

    Returns the ``(n_trials,)`` verdict array
    :func:`repro.engine.batch.run_recovery_batch` computes on
    ``batch.densify()``, bit for bit.
    """
    if (
        batch.array_rows != spec.rows
        or batch.row_bits != spec.row_bits
        or batch.interleave_degree != spec.interleave_degree
    ):
        raise ValueError(
            f"sparse batch geometry ({batch.array_rows}, {batch.row_bits}, "
            f"D={batch.interleave_degree}) does not match the spec "
            f"({spec.rows}, {spec.row_bits}, D={spec.interleave_degree})"
        )
    if decoder is None:
        decoder = make_packed_decoder(spec)

    verdicts = np.zeros(batch.n_trials, dtype=np.uint8)  # VERDICT_CORRECTED
    if batch.n_pairs == 0:
        return verdicts
    dec = decoder.decode_packed(batch.rows)
    faulty = dec.faulty
    content = batch.rows if dec.corrections is None else batch.rows ^ dec.corrections
    if spec.is_two_dimensional and faulty.any():
        faulty, content = _reconstruct(spec, batch, faulty, content)

    data_wrong = _any_masked(content, decoder.data_mask)
    word_silent = ~faulty & data_wrong
    trial_idx = batch.trial_idx
    verdicts[trial_idx[_any_slot(faulty)]] = VERDICT_DETECTED
    # Silent corruption dominates the trial verdict.
    verdicts[trial_idx[_any_slot(word_silent)]] = VERDICT_SILENT
    return verdicts


# numpy's generic reduction over a short last axis (W words, D slots)
# costs 5-10x an OR over its slices on all-dirty blocks, so the two
# per-row reductions below are unrolled.

def _any_masked(words: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``(words & mask).any(axis=-1)``, one word at a time."""
    acc = words[..., 0] & mask[0]
    for w in range(1, mask.shape[0]):
        acc |= words[..., w] & mask[w]
    return acc != 0


def _any_slot(flags: np.ndarray) -> np.ndarray:
    """``flags.any(axis=-1)`` over a row's ``D`` slot flags, one slot at a time."""
    acc = flags[..., 0].copy()
    for s in range(1, flags.shape[-1]):
        acc |= flags[..., s]
    return acc


def _reconstruct(spec, batch, faulty, content):
    """Row reconstruction (Fig. 4(b) phase 2) over the dirty rows.

    Mirrors :func:`repro.engine.batch._recover_batch`: a vertical group
    (rows ``r % V``) with exactly one faulty row rebuilds it from the XOR
    of the group's other rows; the parity rows carry no injected errors
    and clean rows contribute zero, so that XOR is a segmented reduction
    over the group's dirty members.  The rebuild is always installed:
    every other member is non-faulty, so each of its slots has zero
    syndrome after the scrub, and by linearity so does their XOR — the
    candidate decodes clean with no correction, which is exactly the
    acceptance test the reference applies.
    """
    group_key = batch.trial_idx * spec.vertical_groups + batch.row_idx % spec.vertical_groups
    order = np.argsort(group_key, kind="stable")
    sorted_keys = group_key[order]
    boundary = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    seg_starts = np.nonzero(boundary)[0]
    seg_of = np.cumsum(boundary) - 1
    row_faulty = _any_slot(faulty)[order]
    n_faulty = np.add.reduceat(row_faulty.astype(np.intp), seg_starts)
    lone = row_faulty & (n_faulty[seg_of] == 1)
    if not lone.any():
        return faulty, content
    targets = order[lone]
    segment_xor = np.bitwise_xor.reduceat(content[order], seg_starts, axis=0)
    # Rebuilding the lone faulty row leaves it with the XOR of the
    # *other* members' residuals.
    rebuilt = segment_xor[seg_of[lone]] ^ content[targets]
    content = content.copy() if content is batch.rows else content
    content[targets] = rebuilt
    faulty = faulty.copy()
    faulty[targets] = False
    return faulty, content
