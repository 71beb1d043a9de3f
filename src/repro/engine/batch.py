"""Engine spec, verdict codes and the ``uint8`` reference recovery.

:class:`EngineSpec` and the verdict codes are shared by the whole
engine.  The rest of this module is the dense reference: error patterns
as ``(trials, rows, row_bits)`` ``uint8`` arrays, horizontal syndromes
and vertical parity reconstruction as XOR reductions along axes.  The
engine evaluates blocks on packed words (:mod:`repro.engine.packed`);
the identity tests hold it to this reference trial for trial.

Everything operates in the *error-mask domain*.  The codes are linear,
so every decode verdict, every inline correction and every recovery
decision of the scalar path is a function of the error pattern alone —
the stored data never needs to be materialized.  A cell value of 1 in a
mask means "this cell differs from its correct value".

The recovery model implements the scrub and row-reconstruction phases of
Fig. 4(b) exactly as :mod:`repro.array.recovery` does (they provide the
paper's full coverage guarantee: any cluster spanning at most ``V`` rows
within the horizontal detection width).  The scalar path's additional
best-effort heuristics (trusted-column and column-guided correction) are
*not* vectorized; trials they might still save are conservatively
reported as detected-uncorrectable.  Consequently:

* a batch verdict of CORRECTED or SILENT is bit-exact against the scalar
  path, and
* a batch verdict of DETECTED is an upper bound on the scalar path's
  failures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.coding import make_code
from repro.coding.base import WordCode
from repro.coding.hamming import SecdedCode
from repro.coding.parity import InterleavedParityCode

if TYPE_CHECKING:  # avoid a runtime repro.core <-> repro.engine cycle
    from repro.core.schemes import CodingScheme

__all__ = [
    "EngineSpec",
    "DecodeBatch",
    "VectorDecoder",
    "ParityVectorDecoder",
    "SecdedVectorDecoder",
    "make_decoder",
    "probe_secded",
    "run_recovery_batch",
    "VERDICT_CORRECTED",
    "VERDICT_DETECTED",
    "VERDICT_SILENT",
]

#: Per-trial verdicts.  CORRECTED: every word reads back correct (clean,
#: inline-corrected, or 2D-recovered).  DETECTED: at least one word is
#: flagged detected-uncorrectable and none is silently wrong.  SILENT: at
#: least one word reads back wrong without being flagged (silent data
#: corruption dominates the trial verdict).
VERDICT_CORRECTED = 0
VERDICT_DETECTED = 1
VERDICT_SILENT = 2

@functools.lru_cache(maxsize=64)
def _code_for(name: str, data_bits: int) -> WordCode:
    return make_code(name, data_bits)


# ----------------------------------------------------------------------
# experiment specification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EngineSpec:
    """Geometry + coding configuration of the simulated protected bank.

    The spec is a small, picklable value object: workers rebuild codes
    and decoders from it, and its :meth:`to_key` feeds the result cache.

    ``vertical_groups`` of ``None`` describes a conventional (1D) scheme:
    no recovery phases run and every word is scored on its inline decode
    alone.  For 2D schemes the engine requires ``rows`` to be a multiple
    of ``vertical_groups`` so parity groups are uniform.
    """

    rows: int
    data_bits: int
    interleave_degree: int
    horizontal_code: str
    vertical_groups: int | None = None

    def __post_init__(self) -> None:
        if self.rows < 1 or self.data_bits < 1 or self.interleave_degree < 1:
            raise ValueError("rows, data_bits and interleave_degree must be positive")
        if self.vertical_groups is not None:
            if self.vertical_groups < 1 or self.vertical_groups > self.rows:
                raise ValueError("vertical_groups must be in [1, rows]")
            if self.rows % self.vertical_groups:
                raise ValueError(
                    "the engine requires rows to be a multiple of vertical_groups "
                    f"({self.rows} % {self.vertical_groups} != 0)"
                )
        # Validate the code name/width eagerly so bad specs fail at
        # construction, not inside a worker process.
        self.build_code()

    @classmethod
    def from_scheme(cls, scheme: "CodingScheme", rows: int) -> "EngineSpec":
        """Describe ``scheme`` laid out over ``rows`` physical rows."""
        return cls(
            rows=rows,
            data_bits=scheme.data_bits,
            interleave_degree=scheme.interleave_degree,
            horizontal_code=scheme.horizontal_code,
            vertical_groups=scheme.vertical_groups,
        )

    # ------------------------------------------------------------------
    def build_code(self) -> WordCode:
        return _code_for(self.horizontal_code, self.data_bits)

    @property
    def codeword_bits(self) -> int:
        return self.data_bits + self.build_code().check_bits

    @property
    def row_bits(self) -> int:
        """Physical cells per data row (``codeword_bits * D``)."""
        return self.codeword_bits * self.interleave_degree

    @property
    def n_words(self) -> int:
        return self.rows * self.interleave_degree

    @property
    def is_two_dimensional(self) -> bool:
        return self.vertical_groups is not None

    def to_key(self) -> dict:
        """Stable mapping used in cache keys."""
        return {
            "rows": self.rows,
            "data_bits": self.data_bits,
            "interleave_degree": self.interleave_degree,
            "horizontal_code": self.horizontal_code,
            "vertical_groups": self.vertical_groups,
        }


# ----------------------------------------------------------------------
# vectorized per-word decoders
# ----------------------------------------------------------------------

class DecodeBatch(NamedTuple):
    """Decode of a batch of row error masks.

    ``faulty`` has shape ``(..., D)`` and marks detected-uncorrectable
    interleave slots.  ``corrections`` (row layout, same shape as the
    input, or None when the code never corrects) marks the physical
    cells the decoder would flip — XOR it into the mask to obtain the
    post-correction residual error.
    """

    faulty: np.ndarray
    corrections: "np.ndarray | None"


class VectorDecoder:
    """Base class: decode ``(..., row_bits)`` row error masks.

    Rows hold ``D`` bit-interleaved codewords: physical column
    ``b * D + s`` is codeword bit ``b`` of interleave slot ``s``
    (:class:`repro.array.layout.BankLayout`).  Decoders work directly in
    this contiguous row layout — the hot paths are pure reshapes plus
    axis reductions, with no gather/transpose of the trial arrays.
    """

    def __init__(self, code: WordCode, interleave_degree: int):
        if interleave_degree < 1:
            raise ValueError("interleave_degree must be positive")
        self.code = code
        self.interleave_degree = interleave_degree
        self.data_bits = code.data_bits
        self.codeword_bits = code.data_bits + code.check_bits
        self.row_bits = self.codeword_bits * interleave_degree

    def decode(self, row_masks: np.ndarray) -> DecodeBatch:
        raise NotImplementedError

    def _check_shape(self, row_masks: np.ndarray) -> np.ndarray:
        w = np.asarray(row_masks, dtype=np.uint8)
        if w.shape[-1] != self.row_bits:
            raise ValueError(
                f"expected rows of {self.row_bits} bits, got {w.shape[-1]}"
            )
        return w


class ParityVectorDecoder(VectorDecoder):
    """EDCn / byte parity: detection-only interleaved parity groups."""

    def __init__(self, code: InterleavedParityCode, interleave_degree: int):
        super().__init__(code, interleave_degree)
        n = code.interleave
        data = code.data_bits
        groups = np.array([code.group_of(b) for b in range(data)], dtype=np.int64)
        #: "modular" covers EDCn (group = bit % n); "contiguous" covers
        #: byte parity (group = bit // span).  Both make the per-slot
        #: syndrome a contiguous reshape + one XOR reduction.
        self._n_groups = n
        self._pattern = "generic"
        if data % n == 0:
            span = data // n
            if np.array_equal(groups, np.arange(data) % n):
                self._pattern = "modular"
            elif np.array_equal(groups, np.arange(data) // span):
                self._pattern = "contiguous"
        if self._pattern == "generic":
            # Arbitrary group maps: gather columns sorted by group and
            # reduce between group boundaries.  (No standard code takes
            # this path; it keeps exotic layouts correct.)
            group_index = np.concatenate([groups, np.arange(n)])
            order = np.argsort(group_index, kind="stable")
            d = interleave_degree
            # column order per slot s: codeword bit b -> column b*D+s
            self._order_columns = (order[:, None] * d + np.arange(d)).reshape(-1)
            self._starts = np.searchsorted(group_index[order], np.arange(n)) * d

    def decode(self, row_masks: np.ndarray) -> DecodeBatch:
        w = self._check_shape(row_masks)
        lead = w.shape[:-1]
        n, d, data = self._n_groups, self.interleave_degree, self.data_bits
        if self._pattern == "generic":
            gathered = np.ascontiguousarray(w[..., self._order_columns])
            # Each group's columns are contiguous runs of (group size * D)
            # cells; reduceat then folds slots together, so reduce per
            # slot by reshaping the runs first.
            folded = gathered.reshape(*lead, self.codeword_bits, d)
            syndrome = np.bitwise_xor.reduceat(folded, self._starts // d, axis=-2)
        else:
            span = data // n
            if self._pattern == "modular":
                # column (q*n + g)*D + s  ->  reshape [q, g, s], reduce q
                folded = w[..., : data * d].reshape(*lead, span, n, d)
                syndrome = np.bitwise_xor.reduce(folded, axis=-3)
            else:
                # column (g*span + r)*D + s  ->  reshape [g, r, s], reduce r
                folded = w[..., : data * d].reshape(*lead, n, span, d)
                syndrome = np.bitwise_xor.reduce(folded, axis=-2)
            syndrome = syndrome ^ w[..., data * d :].reshape(*lead, n, d)
        # syndrome: (..., n_groups, D) -> faulty slot when any group trips
        return DecodeBatch(faulty=syndrome.any(axis=-2), corrections=None)


class SecdedVectorDecoder(VectorDecoder):
    """Extended-Hamming SECDED with syndrome lookup-table correction.

    The parity-check structure is probed generically through
    :meth:`SecdedCode.encode` on unit data words, so this decoder tracks
    the scalar implementation bit for bit (including miscorrections of
    multi-bit patterns that alias to legal single-error syndromes).
    """

    def __init__(self, code: SecdedCode, interleave_degree: int):
        super().__init__(code, interleave_degree)
        contrib, self._lut = probe_secded(code)
        self._m = code.check_bits - 1
        self._syndrome_bits = [
            np.nonzero((contrib >> i) & 1)[0] for i in range(self._m)
        ]

    def decode(self, row_masks: np.ndarray) -> DecodeBatch:
        w = self._check_shape(row_masks)
        lead = w.shape[:-1]
        d, b = self.interleave_degree, self.codeword_bits
        words = w.reshape(*lead, b, d)  # (..., codeword bit, slot)
        syndrome = np.zeros((*lead, d), dtype=np.int64)
        for i, bits in enumerate(self._syndrome_bits):
            parity = np.bitwise_xor.reduce(words[..., bits, :], axis=-2)
            syndrome |= parity.astype(np.int64) << i
        overall = words.sum(axis=-2, dtype=np.int64) & 1
        target = self._lut[syndrome]  # (..., D): codeword bit to flip
        correctable = (overall == 1) & (target >= 0)
        faulty = ((overall == 0) & (syndrome != 0)) | ((overall == 1) & (target < 0))
        corrections = np.zeros_like(words)
        np.put_along_axis(
            corrections,
            np.maximum(target, 0)[..., None, :],
            correctable[..., None, :].astype(np.uint8),
            axis=-2,
        )
        return DecodeBatch(
            faulty=faulty, corrections=corrections.reshape(*lead, self.row_bits)
        )


def probe_secded(code: SecdedCode) -> "tuple[np.ndarray, np.ndarray]":
    """``(contrib, lut)`` of an extended-Hamming code, probed through
    :meth:`SecdedCode.encode` so every decoder tracks the scalar code.

    ``contrib[b]`` is the Hamming-syndrome value codeword bit ``b``
    toggles: data bit ``b`` contributes ``encode(e_b)[:m]``, stored check
    bit ``j < m`` contributes ``e_j`` and the extended parity bit
    nothing.  ``lut`` maps a syndrome value to the codeword bit to
    correct when the overall parity is odd; ``-1`` marks illegal
    syndromes (detected-uncorrectable).
    """
    data, m = code.data_bits, code.check_bits - 1
    contrib = np.zeros(data + m + 1, dtype=np.int64)
    unit = np.zeros(data, dtype=np.uint8)
    for b in range(data):
        unit[b] = 1
        contrib[b] = int(code.encode(unit)[:m].astype(np.int64) @ (1 << np.arange(m)))
        unit[b] = 0
    contrib[data : data + m] = 1 << np.arange(m)
    lut = np.full(1 << m, -1, dtype=np.int64)
    lut[0] = data + m  # extended parity bit itself
    lut[contrib[data : data + m]] = np.arange(data, data + m)
    lut[contrib[:data]] = np.arange(data)
    return contrib, lut


def make_decoder(spec: EngineSpec) -> VectorDecoder:
    """Vectorized decoder for a spec's horizontal code and interleaving."""
    code = spec.build_code()
    if isinstance(code, SecdedCode):
        return SecdedVectorDecoder(code, spec.interleave_degree)
    if isinstance(code, InterleavedParityCode):  # includes ByteParityCode
        return ParityVectorDecoder(code, spec.interleave_degree)
    raise ValueError(
        f"no vectorized decoder for {code.name!r}; the engine currently "
        "supports interleaved-parity (EDCn / byte parity) and SECDED codes"
    )


# ----------------------------------------------------------------------
# batched recovery + verdicts
# ----------------------------------------------------------------------

def run_recovery_batch(
    spec: EngineSpec,
    masks: np.ndarray,
    decoder: "VectorDecoder | None" = None,
) -> np.ndarray:
    """Decode + recover a batch of error patterns; per-trial verdicts.

    Parameters
    ----------
    spec:
        Bank geometry and coding configuration.
    masks:
        ``(trials, rows, row_bits)`` 0/1 error masks over the data array
        (vertical parity rows are assumed error-free, matching scalar
        injection through ``TwoDProtectedArray.flip_cell``).
    decoder:
        Optional pre-built decoder (avoids rebuilding lookup tables in a
        hot loop).

    Returns
    -------
    ``(trials,)`` array of ``VERDICT_CORRECTED`` / ``VERDICT_DETECTED`` /
    ``VERDICT_SILENT`` codes.
    """
    masks = np.asarray(masks, dtype=np.uint8)
    if masks.ndim != 3 or masks.shape[1:] != (spec.rows, spec.row_bits):
        raise ValueError(
            f"masks must have shape (trials, {spec.rows}, {spec.row_bits}), "
            f"got {masks.shape}"
        )
    if decoder is None:
        decoder = make_decoder(spec)

    state = masks.copy()
    if spec.is_two_dimensional:
        state = _recover_batch(spec, state, decoder)
    return _classify(spec, state, decoder)


def _recover_batch(
    spec: EngineSpec, state: np.ndarray, decoder: VectorDecoder
) -> np.ndarray:
    """Vectorized scrub + row reconstruction (Fig. 4(b) phases 1-2).

    A single pass suffices where the scalar session iterates: phases 1-2
    treat vertical parity groups independently, and reconstruction only
    ever takes a group's faulty-row count from one to zero, so a second
    scrub/reconstruct round could never make further progress.  (The
    scalar outer loop exists for the later best-effort heuristics, which
    the engine deliberately does not model — see the module docstring.)
    """
    trials, rows, row_bits = state.shape
    v = spec.vertical_groups
    assert v is not None
    k = rows // v

    dec = decoder.decode(state)
    row_faulty = dec.faulty.any(axis=-1)                    # (T, R)
    if dec.corrections is not None:
        content = state ^ dec.corrections
        # Scrub write-back: rows with no detected-uncorrectable slot
        # adopt their horizontally corrected content.  (Faulty rows keep
        # their observed bits; their correctable slots are still
        # *viewed* as corrected below, exactly like the scalar session
        # content.)
        state = np.where(row_faulty[:, :, None], state, content)
    else:
        content = state  # detection-only codes never rewrite cells
    if not row_faulty.any():
        return state

    # Row reconstruction: data row r belongs to vertical parity group
    # r % V, so reshaping rows to (K, V) puts each group on its own
    # column.  The parity rows carry no injected errors, so a group's
    # residual syndrome is the XOR of its rows' content masks, and
    # rebuilding the single faulty row of a group leaves it with the
    # XOR of the *other* rows' residuals.
    grouped = content.reshape(trials, k, v, row_bits)
    group_syndrome = np.bitwise_xor.reduce(grouped, axis=1)  # (T, V, C)
    grouped_faulty = row_faulty.reshape(trials, k, v)
    single = grouped_faulty.sum(axis=1) == 1                 # (T, V)
    trial_idx, group_idx = np.nonzero(single)
    if trial_idx.size == 0:
        return state

    # Work sparsely on the affected (trial, group) pairs only — for
    # realistic error rates these are a small fraction of the batch.
    target_row = grouped_faulty.argmax(axis=1)[trial_idx, group_idx] * v + group_idx
    candidate = (
        group_syndrome[trial_idx, group_idx] ^ content[trial_idx, target_row]
    )                                                        # (N, C)
    cand_dec = decoder.decode(candidate)
    # The scalar path only installs a reconstruction whose every slot
    # decodes clean-or-correctable; otherwise the row is left for the
    # later heuristics (which the engine does not model).
    accepted = ~cand_dec.faulty.any(axis=-1)                 # (N,)
    if not accepted.any():
        return state
    if cand_dec.corrections is not None:
        repaired = candidate ^ cand_dec.corrections
    else:
        repaired = candidate
    # candidate is materialized above, so writing into state — which may
    # alias content for detection-only codes — is safe.
    state[trial_idx[accepted], target_row[accepted]] = repaired[accepted]
    return state


def _classify(
    spec: EngineSpec, state: np.ndarray, decoder: VectorDecoder
) -> np.ndarray:
    """Read out every word of the final array state and score the trials."""
    dec = decoder.decode(state)
    if dec.corrections is not None:
        residual = state ^ dec.corrections
    else:
        residual = state
    lead = residual.shape[:-1]
    d = spec.interleave_degree
    # Data bits occupy the first data_bits * D physical columns (codeword
    # bit b of slot s lives at column b*D + s, data bits first).
    data_wrong = (
        residual[..., : spec.data_bits * d]
        .reshape(*lead, spec.data_bits, d)
        .any(axis=-2)
    )                                                       # (T, R, D)
    word_due = dec.faulty
    word_silent = ~word_due & data_wrong
    trial_due = word_due.any(axis=(1, 2))
    trial_silent = word_silent.any(axis=(1, 2))
    return np.where(
        trial_silent,
        VERDICT_SILENT,
        np.where(trial_due, VERDICT_DETECTED, VERDICT_CORRECTED),
    ).astype(np.uint8)
