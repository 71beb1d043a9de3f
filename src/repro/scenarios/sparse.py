"""Sparse packed fault batches: only the rows that carry errors, as words.

At the error rates of the paper's headline figures (one clustered upset
per trial in Fig. 3, a handful of defective cells per die in Fig. 8)
the overwhelming majority of a bank's rows are error-free in every
trial.  A dense ``(trials, rows, row_bits)`` mask batch spends its
memory bandwidth almost entirely on zeros; the decode kernels then
spend their cycles proving those zeros clean.

:class:`SparseRowBatch` is the one interchange format between the
fault-scenario emitters (:mod:`repro.scenarios.generators`) and the
engine's decode path (:mod:`repro.engine.packed`): the list of *dirty*
``(trial, row)`` pairs plus one bit-packed error mask per pair.
Everything else is implicitly zero.  Because the linear codes decode an
all-zero row as clean with no corrections, dropping clean rows is
*lossless*: verdicts computed from a sparse batch are bit-identical to
verdicts computed from its densified twin.

**Word layout.**  A row of ``D`` bit-interleaved codewords (physical
cell ``b * D + s`` is codeword bit ``b`` of interleave slot ``s``) is
stored as ``(D, W)`` little-endian ``uint64`` words,
``W = ceil(codeword_bits / 64)``: codeword bit ``b`` of slot ``s`` is
bit ``b % 64`` of word ``[s, b // 64]`` — codeword-bit-major per
interleave slot, so each slot's codeword is a contiguous bit string the
decoders can table-look-up byte by byte.  The constructors set bits
straight into words; only :meth:`SparseRowBatch.from_masks` (iid
Bernoulli flips, and samplers that can only draw dense masks) goes
through a ``uint8`` tensor.  :meth:`SparseRowBatch.densify` is the way
back: a scenario's dense masks are its packed batch, densified.

The invariants every constructor here maintains (and the engine relies
on):

* ``(trial_idx, row_idx)`` pairs are unique and sorted
  lexicographically (trial-major, row-minor);
* ``rows[i]`` is the complete error mask of that physical row (cells
  from *all* fault populations OR'd together);
* ``n_trials`` covers trials with no dirty rows at all — they simply
  have no pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["SparseRowBatch", "pack_row_masks", "unpack_row_words", "interleave_of"]

_WORD_BITS = 64


def interleave_of(spec) -> int:
    """The interleave degree a geometry packs rows with (1 when the
    geometry carries none, e.g. a bare ``(rows, row_bits)`` shape)."""
    return int(getattr(spec, "interleave_degree", 1))


def pack_row_masks(masks: np.ndarray, interleave_degree: int) -> np.ndarray:
    """Pack ``(..., row_bits)`` 0/1 masks into ``(..., D, W)`` words."""
    w = np.asarray(masks, dtype=np.uint8)
    d = interleave_degree
    if w.shape[-1] % d:
        raise ValueError(f"rows of {w.shape[-1]} bits do not split into {d} slots")
    b = w.shape[-1] // d
    per_slot = np.moveaxis(w.reshape(*w.shape[:-1], b, d), -1, -2)  # (..., D, B)
    pad = -b % _WORD_BITS
    if pad:
        per_slot = np.concatenate(
            [per_slot, np.zeros(per_slot.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    packed = np.packbits(np.ascontiguousarray(per_slot), axis=-1, bitorder="little")
    return packed.view(np.dtype("<u8"))


def unpack_row_words(words: np.ndarray, row_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_row_masks`: back to ``(..., row_bits)`` uint8."""
    words = np.ascontiguousarray(words)
    d = words.shape[-2]
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    bits = bits[..., : row_bits // d]  # (..., D, B)
    return np.moveaxis(bits, -1, -2).reshape(*words.shape[:-2], row_bits)


@functools.lru_cache(maxsize=64)
def _layout(row_bits: int, interleave_degree: int):
    """Per-geometry packing tables, built on first use.

    ``prefix`` is ``(row_bits + 1, D, W)`` words whose entry ``n`` is the
    packed mask of physical columns ``[0, n)``, so a column range
    ``[a, b)`` is ``prefix[b] ^ prefix[a]``.  ``cell_word`` / ``cell_bit``
    give each column's flat word index within a row and its one-hot bit.
    """
    cells = pack_row_masks(np.eye(row_bits, dtype=np.uint8), interleave_degree)
    prefix = np.zeros((row_bits + 1,) + cells.shape[1:], dtype=np.uint64)
    np.bitwise_xor.accumulate(cells, axis=0, out=prefix[1:])
    flat = cells.reshape(row_bits, -1)
    cell_word = flat.argmax(axis=1)
    return prefix, cell_word, flat[np.arange(row_bits), cell_word]


@dataclass(frozen=True)
class SparseRowBatch:
    """Dirty rows of a ``(n_trials, array_rows, row_bits)`` fault batch.

    Attributes
    ----------
    n_trials:
        Trials covered by the batch, including all-clean ones.
    array_rows:
        Physical data rows per trial (the dense tensor's middle axis).
    row_bits:
        Physical cells per row (``codeword_bits * D``).
    trial_idx, row_idx:
        Parallel ``(n_pairs,)`` arrays naming the dirty rows, sorted by
        ``(trial, row)`` with no duplicate pairs.
    rows:
        ``(n_pairs, D, W)`` ``uint64`` error masks in the packed word
        layout (module docstring), one per dirty row.
    weights:
        ``(n_trials,)`` ``float64`` likelihood-ratio weights when the
        batch was drawn from an importance-sampling proposal, else
        ``None``.
    """

    n_trials: int
    array_rows: int
    row_bits: int
    trial_idx: np.ndarray
    row_idx: np.ndarray
    rows: np.ndarray
    weights: "np.ndarray | None" = None

    @property
    def n_pairs(self) -> int:
        return self.rows.shape[0]

    @property
    def interleave_degree(self) -> int:
        return self.rows.shape[1]

    def _like(
        self, trial_idx, row_idx, rows, n_trials=None, weights=None
    ) -> "SparseRowBatch":
        return SparseRowBatch(
            n_trials=self.n_trials if n_trials is None else n_trials,
            array_rows=self.array_rows,
            row_bits=self.row_bits,
            trial_idx=trial_idx,
            row_idx=row_idx,
            rows=rows,
            weights=self.weights if weights is None else weights,
        )

    def with_weights(self, weights) -> "SparseRowBatch":
        """This batch carrying one likelihood-ratio weight per trial."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n_trials,):
            raise ValueError(
                f"expected {self.n_trials} trial weights, got shape {weights.shape}"
            )
        return self._like(self.trial_idx, self.row_idx, self.rows, weights=weights)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(
        cls, n_trials: int, array_rows: int, row_bits: int, interleave_degree: int = 1
    ) -> "SparseRowBatch":
        words = _layout(row_bits, interleave_degree)[0].shape[-1]
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            row_bits=row_bits,
            trial_idx=np.zeros(0, dtype=np.int64),
            row_idx=np.zeros(0, dtype=np.int64),
            rows=np.zeros((0, interleave_degree, words), dtype=np.uint64),
        )

    @classmethod
    def from_words(cls, words: np.ndarray, row_bits: int) -> "SparseRowBatch":
        """Keep the dirty rows of a packed ``(trials, rows, D, W)`` batch."""
        if words.ndim != 4:
            raise ValueError(f"words must be 4-D, got shape {words.shape}")
        trial_idx, row_idx = np.nonzero(words.any(axis=(-1, -2)))
        return cls(
            n_trials=words.shape[0],
            array_rows=words.shape[1],
            row_bits=row_bits,
            trial_idx=trial_idx.astype(np.int64, copy=False),
            row_idx=row_idx.astype(np.int64, copy=False),
            rows=words[trial_idx, row_idx],
        )

    @classmethod
    def from_masks(cls, masks: np.ndarray, interleave_degree: int = 1) -> "SparseRowBatch":
        """Pack and sparsify a dense ``(trials, rows, row_bits)`` mask batch."""
        masks = np.asarray(masks, dtype=np.uint8)
        if masks.ndim != 3:
            raise ValueError(f"masks must be 3-D, got shape {masks.shape}")
        return cls.from_words(pack_row_masks(masks, interleave_degree), masks.shape[-1])

    @classmethod
    def from_row_spans(
        cls,
        n_trials: int,
        array_rows: int,
        row_bits: int,
        r0: np.ndarray,
        heights: np.ndarray,
        c0: np.ndarray,
        widths: np.ndarray,
        interleave_degree: int = 1,
    ) -> "SparseRowBatch":
        """One axis-aligned solid rectangle per trial.

        Trial ``t`` dirties rows ``r0[t] .. r0[t]+heights[t]-1``, each
        with columns ``c0[t] .. c0[t]+widths[t]-1`` set — the emitter
        behind the cluster and burst generators of
        :mod:`repro.scenarios.generators`.  Every row of a rectangle
        carries the same packed column range, read off the prefix table
        in two lookups.  Zero-height or zero-width rectangles contribute
        no pairs.
        """
        r0 = np.asarray(r0, dtype=np.int64)
        heights = np.asarray(heights, dtype=np.int64)
        c0 = np.asarray(c0, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        heights = np.where(widths > 0, heights, 0)
        total = int(heights.sum())
        if total == 0:
            return cls.empty(n_trials, array_rows, row_bits, interleave_degree)
        prefix = _layout(row_bits, interleave_degree)[0]
        spans = prefix[c0 + widths] ^ prefix[c0]  # (n_trials, D, W)
        trial_idx = np.repeat(np.arange(n_trials, dtype=np.int64), heights)
        # Within-trial row offsets: a concatenation of arange(h_t) runs.
        run_starts = np.cumsum(heights) - heights
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts, heights)
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            row_bits=row_bits,
            trial_idx=trial_idx,
            row_idx=np.repeat(r0, heights) + within,
            rows=spans[trial_idx],
        )

    @classmethod
    def from_cells(
        cls,
        n_trials: int,
        array_rows: int,
        row_bits: int,
        cell_trials: np.ndarray,
        cell_sites: np.ndarray,
        interleave_degree: int = 1,
    ) -> "SparseRowBatch":
        """Individual faulty cells, given as flat per-trial site indices.

        ``cell_sites[i]`` is ``row * row_bits + column`` within trial
        ``cell_trials[i]``; duplicate cells OR together (a cell is
        either faulty or not, no matter how many populations hit it).
        """
        cell_trials = np.asarray(cell_trials, dtype=np.int64)
        cell_sites = np.asarray(cell_sites, dtype=np.int64)
        if cell_trials.size == 0:
            return cls.empty(n_trials, array_rows, row_bits, interleave_degree)
        cell_rows, cell_cols = np.divmod(cell_sites, row_bits)
        pair_keys, pair_of_cell = np.unique(
            cell_trials * array_rows + cell_rows, return_inverse=True
        )
        prefix, cell_word, cell_bit = _layout(row_bits, interleave_degree)
        d, w = prefix.shape[1:]
        rows = np.zeros((pair_keys.shape[0], d, w), dtype=np.uint64)
        # Each cell sets one bit of one word: a flat 1-D OR-scatter.
        np.bitwise_or.at(
            rows.reshape(-1), pair_of_cell * (d * w) + cell_word[cell_cols], cell_bit[cell_cols]
        )
        return cls(
            n_trials=n_trials,
            array_rows=array_rows,
            row_bits=row_bits,
            trial_idx=pair_keys // array_rows,
            row_idx=pair_keys % array_rows,
            rows=rows,
        )

    # ------------------------------------------------------------------
    # combination / selection
    # ------------------------------------------------------------------

    def merge(self, other: "SparseRowBatch") -> "SparseRowBatch":
        """OR-combine two fault populations over the same trial space.

        Weighted batches do not merge: the likelihood ratio of a union of
        populations is not a function of either operand's weights.
        """
        if self.weights is not None or other.weights is not None:
            raise ValueError("cannot merge batches that carry likelihood-ratio weights")
        if (
            self.n_trials != other.n_trials
            or self.array_rows != other.array_rows
            or self.row_bits != other.row_bits
            or self.rows.shape[1:] != other.rows.shape[1:]
        ):
            raise ValueError("cannot merge sparse batches over different geometries")
        if other.n_pairs == 0:
            return self
        if self.n_pairs == 0:
            return other
        keys = np.concatenate(
            [
                self.trial_idx * self.array_rows + self.row_idx,
                other.trial_idx * other.array_rows + other.row_idx,
            ]
        )
        rows = np.concatenate([self.rows, other.rows], axis=0)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.nonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])[0]
        merged_keys = sorted_keys[starts]
        return self._like(
            merged_keys // self.array_rows,
            merged_keys % self.array_rows,
            np.bitwise_or.reduceat(rows[order], starts, axis=0),
        )

    def slice_trials(self, start: int, stop: int) -> "SparseRowBatch":
        """The sub-batch of trials ``[start, stop)``, re-based to 0."""
        if not 0 <= start <= stop <= self.n_trials:
            raise ValueError(f"invalid trial slice [{start}, {stop})")
        if start == 0 and stop == self.n_trials:
            return self
        lo = np.searchsorted(self.trial_idx, start, side="left")
        hi = np.searchsorted(self.trial_idx, stop, side="left")
        return self._like(
            self.trial_idx[lo:hi] - start,
            self.row_idx[lo:hi],
            self.rows[lo:hi],
            n_trials=stop - start,
            weights=None if self.weights is None else self.weights[start:stop],
        )

    # ------------------------------------------------------------------
    def densify(self) -> np.ndarray:
        """The equivalent dense ``(n_trials, array_rows, row_bits)`` uint8 batch."""
        masks = np.zeros(
            (self.n_trials, self.array_rows, self.row_bits), dtype=np.uint8
        )
        masks[self.trial_idx, self.row_idx] = unpack_row_words(self.rows, self.row_bits)
        return masks
