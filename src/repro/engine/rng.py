"""Hierarchical, chunking-invariant random streams for the engine.

The Monte Carlo engine must produce **bit-identical results no matter how
the trial space is scheduled** — one worker or eight, large chunks or
small.  The classic way to lose that property is to draw from a single
sequential stream: the draws a trial sees then depend on how many trials
ran before it *in the same process*.

Instead, the trial index space is divided into fixed-size **blocks** (the
block size is part of the experiment specification, not of the
scheduler).  Block ``b`` of experiment seed ``s`` owns an independent
generator derived via ``numpy.random.SeedSequence`` spawning —
``SeedSequence(s).spawn(...)[b]`` — so:

* trial ``t`` always draws from block ``t // block_size``, and
* every sampler draws for the **whole** block and slices out the trials
  it was asked for.

Any partition of ``[0, n_trials)`` into chunks therefore sees exactly the
same random numbers per trial, and results are independent of worker
count, chunk size, and even of ``n_trials`` itself (the first ``n``
trials of a longer run are the same trials).  :func:`chunk_ranges` is
the one partition rule the engine and the performance backend share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "block_seed_sequence",
    "block_generator",
    "lane_generator",
    "BlockStreams",
    "BlockSlice",
    "iter_block_slices",
    "n_blocks",
    "chunk_ranges",
]

#: Default number of trials per RNG block.  Large enough to amortize the
#: vectorized kernels, small enough to keep per-block masks in cache-ish
#: memory (a 256-trial block of a 256x288 array is ~19 MB of masks).
DEFAULT_BLOCK_SIZE = 256


def block_seed_sequence(seed: int, block: int) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` owning trial block ``block``.

    Equivalent to ``SeedSequence(seed).spawn(block + 1)[block]`` — the
    spawn key of the ``i``-th child of a root sequence is ``(i,)`` — but
    O(1) instead of O(block), so workers can jump straight to their
    blocks.
    """
    if block < 0:
        raise ValueError("block index must be non-negative")
    return np.random.SeedSequence(entropy=seed, spawn_key=(block,))


def block_generator(seed: int, block: int) -> np.random.Generator:
    """A fresh, independent generator for one trial block."""
    return np.random.default_rng(block_seed_sequence(seed, block))


def lane_generator(seed: int, block: int, lane: int) -> np.random.Generator:
    """An independent sub-stream of one trial block.

    Lanes let a scenario composed of several populations (e.g. a hard
    fault map plus soft clusters) give each population its own
    block-keyed stream — spawn key ``(block, lane)`` — so reconfiguring
    one population never shifts another's draws, while every lane stays
    as worker/chunk-invariant as the block's root stream.
    """
    if block < 0 or lane < 0:
        raise ValueError("block and lane indices must be non-negative")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(block, lane))
    )


@dataclass(frozen=True)
class BlockStreams:
    """Handle to one trial block's random streams.

    The engine passes this to a scenario's ``sample_block``: the
    :meth:`root` stream is the block's historical generator (bit-exact
    with the pre-scenario engine), and :meth:`lane` streams are
    independent substreams for multi-population scenarios.
    """

    seed: int
    block: int

    def root(self) -> np.random.Generator:
        return block_generator(self.seed, self.block)

    def lane(self, lane: int) -> np.random.Generator:
        return lane_generator(self.seed, self.block, lane)


@dataclass(frozen=True)
class BlockSlice:
    """The intersection of a trial range with one RNG block.

    Attributes
    ----------
    block:
        Block index (``trial // block_size``).
    start, stop:
        Offsets *within the block* of the covered trials.
    """

    block: int
    start: int
    stop: int

    @property
    def count(self) -> int:
        return self.stop - self.start


def n_blocks(n_trials: int, block_size: int) -> int:
    """Number of blocks needed to cover ``n_trials`` trials."""
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    return -(-n_trials // block_size)


def iter_block_slices(
    first_trial: int, last_trial: int, block_size: int
) -> Iterator[BlockSlice]:
    """Blocks (with in-block offsets) covering ``[first_trial, last_trial)``."""
    if first_trial < 0 or last_trial < first_trial:
        raise ValueError("invalid trial range")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    trial = first_trial
    while trial < last_trial:
        block = trial // block_size
        block_start = block * block_size
        start = trial - block_start
        stop = min(last_trial - block_start, block_size)
        yield BlockSlice(block=block, start=start, stop=stop)
        trial = block_start + stop


def chunk_ranges(
    first_trial: int, last_trial: int, block_size: int, workers: int
) -> "list[tuple[int, int]]":
    """Whole-block work items covering ``[first_trial, last_trial)``.

    Each item holds ``ceil(blocks / workers)`` blocks, so every worker
    gets at most one item.  ``first_trial`` must sit on a block boundary
    (a sequential run's rounds always do; fixed-trial runs start at 0).
    Because trial randomness is keyed by block, the partition cannot
    change any result.
    """
    if first_trial < 0 or last_trial < first_trial:
        raise ValueError("invalid trial range")
    total_blocks = n_blocks(last_trial, block_size)
    if first_trial % block_size:
        raise ValueError("first_trial must be block-aligned")
    first_block = first_trial // block_size
    per_item = max(1, -(-(total_blocks - first_block) // workers))
    return [
        (block * block_size, min((block + per_item) * block_size, last_trial))
        for block in range(first_block, total_blocks, per_item)
    ]
