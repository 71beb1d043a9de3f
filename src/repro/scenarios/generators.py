"""Batched NumPy pattern generators — the one source of geometry truth.

Every fault-pattern geometry of the project lives here exactly once:
cluster placement, footprint sampling, burst (wordline/bitline)
placement, independent-cell draws and Poisson defect maps.  The
vectorized scenario models (:mod:`repro.scenarios.models`) build their
fault batches from these kernels, and the scalar
:class:`repro.errors.ErrorInjector` delegates its per-event placement to
the same functions — so the two paths cannot drift apart, and a
single-event draw is *bit-exact* between them (a ``size=1`` vectorized
draw consumes the ``numpy.random.Generator`` stream identically to the
scalar draw it replaced).

Each ``*_sparse`` emitter returns a packed
:class:`~repro.scenarios.sparse.SparseRowBatch` laid out for the engine
geometry it is given (``rows``, ``row_bits`` and, when present,
``interleave_degree``); a scenario's dense masks are derived from it
(:meth:`SparseRowBatch.densify`).  Only :func:`bernoulli_masks` emits
``uint8`` 0/1 masks in the error-mask domain of :mod:`repro.engine.batch`
(a 1 means "this cell differs from its correct value"): iid flips dirty
a density-dependent share of rows and have no packed emitter.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseRowBatch, interleave_of

__all__ = [
    "place_clusters",
    "solid_cluster_sparse",
    "sample_footprints",
    "spread_footprints",
    "place_bursts",
    "burst_sparse",
    "bernoulli_masks",
    "exact_cells_sparse",
    "counted_cells_sparse",
    "poisson_defect_sparse",
    "mostly_single_bit_footprints",
]

#: Canonical "mostly single-bit with a multi-bit tail" footprint mix —
#: the relative shape of the tail used by both the scalar
#: :meth:`repro.errors.FootprintDistribution.mostly_single_bit` and the
#: ``clustered_mbu`` scenario default.
_MULTI_BIT_TAIL: tuple[tuple[tuple[int, int], float], ...] = (
    ((1, 2), 0.4),
    ((2, 2), 0.3),
    ((1, 4), 0.15),
    ((4, 4), 0.1),
    ((8, 8), 0.05),
)


def mostly_single_bit_footprints(
    multi_bit_fraction: float = 0.1,
) -> tuple[tuple[tuple[int, int], float], ...]:
    """SBU-dominated footprint weights with a small-cluster tail.

    Mirrors the paper's observation that today most upsets are
    single-bit but a growing fraction are multi-bit.
    """
    if not 0 <= multi_bit_fraction <= 1:
        raise ValueError("multi_bit_fraction must be in [0, 1]")
    return (((1, 1), 1.0 - multi_bit_fraction),) + tuple(
        (shape, multi_bit_fraction * share) for shape, share in _MULTI_BIT_TAIL
    )


# ----------------------------------------------------------------------
# clusters
# ----------------------------------------------------------------------

def place_clusters(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    rows: int,
    cols: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform top-left corners for clusters of the given footprints.

    Draw order (rows then columns, one bounded draw each) matches the
    scalar injector's historical per-event draws, so seeded streams are
    preserved across the delegation.
    """
    r0 = rng.integers(0, rows - heights + 1, size=heights.shape[0])
    c0 = rng.integers(0, cols - widths + 1, size=widths.shape[0])
    return r0, c0


def solid_cluster_sparse(
    rng: np.random.Generator, heights: np.ndarray, widths: np.ndarray, spec
) -> SparseRowBatch:
    """Uniformly placed solid clusters, one per trial, as the dirty rows
    only: footprints are clipped to the array, corners placed uniformly,
    and each cluster emitted as ``heights[t]`` packed rows."""
    rows, cols = spec.rows, spec.row_bits
    heights = np.minimum(np.asarray(heights, dtype=np.int64), rows)
    widths = np.minimum(np.asarray(widths, dtype=np.int64), cols)
    r0, c0 = place_clusters(rng, heights, widths, rows, cols)
    return SparseRowBatch.from_row_spans(
        heights.shape[0], rows, cols, r0, heights, c0, widths, interleave_of(spec)
    )


def sample_footprints(
    rng: np.random.Generator,
    footprints: "tuple[tuple[tuple[int, int], float], ...]",
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` footprints ``(heights, widths)`` from weighted shapes."""
    shapes = np.array([shape for shape, _w in footprints], dtype=np.int64)
    weights = np.array([w for _s, w in footprints], dtype=float)
    weights /= weights.sum()
    index = rng.choice(len(footprints), size=count, p=weights)
    return shapes[index, 0], shapes[index, 1]


def spread_footprints(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    spread: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Stretch footprints by geometric charge-diffusion tails.

    With probability-parameter ``spread`` in ``[0, 1)`` each dimension
    independently gains ``Geometric(1 - spread) - 1`` extra cells — a
    memoryless tail modelling single-event charge spreading beyond the
    nominal footprint.  ``spread == 0`` draws nothing and returns the
    inputs unchanged (bit-exact with the unspread stream).
    """
    if not 0 <= spread < 1:
        raise ValueError("spread must be in [0, 1)")
    if spread == 0:
        return np.asarray(heights, dtype=np.int64), np.asarray(widths, dtype=np.int64)
    count = np.asarray(heights).shape[0]
    extra_h = rng.geometric(1.0 - spread, size=count) - 1
    extra_w = rng.geometric(1.0 - spread, size=count) - 1
    return heights + extra_h, widths + extra_w


# ----------------------------------------------------------------------
# bursts (wordline / bitline failures)
# ----------------------------------------------------------------------

def place_bursts(
    rng: np.random.Generator, spans: np.ndarray, n_lines: int
) -> np.ndarray:
    """Uniform start lines for bursts of ``spans`` consecutive lines."""
    spans = np.minimum(np.asarray(spans, dtype=np.int64), n_lines)
    return rng.integers(0, n_lines - spans + 1, size=spans.shape[0])


def burst_sparse(
    rng: np.random.Generator, count: int, spec, span: int, axis: str
) -> SparseRowBatch:
    """One full-extent burst per trial: ``span`` whole rows or columns.

    ``axis="row"`` models wordline failures (every cell of ``span``
    consecutive physical rows), ``axis="column"`` bitline failures
    (every row carrying the same ``span``-column range).
    """
    rows, cols = spec.rows, spec.row_bits
    if axis not in ("row", "column"):
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    n_lines = rows if axis == "row" else cols
    spans = np.full(count, min(span, n_lines), dtype=np.int64)
    starts = place_bursts(rng, spans, n_lines)
    zeros = np.zeros(count, dtype=np.int64)
    if axis == "row":
        extents = (starts, spans, zeros, np.full(count, cols, dtype=np.int64))
    else:
        extents = (zeros, np.full(count, rows, dtype=np.int64), starts, spans)
    return SparseRowBatch.from_row_spans(
        count, rows, cols, *extents, interleave_of(spec)
    )


# ----------------------------------------------------------------------
# independent cells
# ----------------------------------------------------------------------

def bernoulli_masks(
    rng: np.random.Generator, count: int, rows: int, cols: int, p: float
) -> np.ndarray:
    """Every cell flips independently with probability ``p``."""
    if not 0 <= p <= 1:
        raise ValueError("flip probability must be in [0, 1]")
    return (rng.random((count, rows * cols)) < p).astype(np.uint8).reshape(
        count, rows, cols
    )


def exact_cells_sparse(
    rng: np.random.Generator, count: int, spec, n_cells: int
) -> SparseRowBatch:
    """Exactly ``n_cells`` distinct uniformly-placed cells per trial: the
    constant-count case of :func:`counted_cells_sparse`, so sampling cost
    scales with ``n_cells``, not with the array size."""
    return counted_cells_sparse(rng, np.full(count, n_cells), spec)


def _draw_counted_cells(
    rng: np.random.Generator, counts: np.ndarray, n_sites: int
) -> np.ndarray:
    """The per-trial-count cell draw: sorted flat keys
    ``trial * n_sites + site``, exactly ``counts[t]`` distinct uniform
    sites for trial ``t``."""
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any() or (counts > n_sites).any():
        raise ValueError("cell counts must be in [0, array cells]")
    n_trials = counts.shape[0]
    if n_trials == 0 or not counts.any():
        return np.zeros(0, dtype=np.int64)
    kmax = int(counts.max())
    if kmax > n_sites // 8:
        # Dense counts: rank one uniform score per cell and keep each
        # trial's smallest `count` — a uniform subset of that size.
        scores = rng.random((n_trials, n_sites))
        order = np.argsort(scores, axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(n_sites)[None, :], axis=1)
        return np.flatnonzero(ranks < counts[:, None])
    # Sparse counts (defect maps, exact-count cells): draw cell indices
    # directly and patch the rare within-trial collisions by redrawing —
    # far cheaper than scoring every cell of every trial.  Each accepted
    # cell is uniform over the array, so the resulting distinct set is a
    # uniform subset of the requested size.
    select = np.arange(kmax)[None, :] < counts[:, None]
    trial_idx = np.arange(n_trials, dtype=np.int64)[:, None]
    draws = rng.integers(0, n_sites, size=(n_trials, kmax))
    keys = _sorted_unique((trial_idx * n_sites + draws)[select])
    distinct = np.bincount(keys // n_sites, minlength=n_trials)
    deficit_rows = np.nonzero(distinct < counts)[0]
    while deficit_rows.size:
        need = counts[deficit_rows] - distinct[deficit_rows]
        extra = rng.integers(0, n_sites, size=(deficit_rows.size, int(need.max())))
        take = np.arange(extra.shape[1])[None, :] < need[:, None]
        keys = _sorted_unique(
            np.concatenate([keys, (deficit_rows[:, None] * n_sites + extra)[take]])
        )
        distinct = np.bincount(keys // n_sites, minlength=n_trials)
        deficit_rows = deficit_rows[distinct[deficit_rows] < counts[deficit_rows]]
    return keys


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by sort-and-compare: numpy 2's default
    hash-based ``unique`` is ~15x slower on these few-thousand-key
    arrays."""
    keys = np.sort(keys)
    return keys[np.r_[True, keys[1:] != keys[:-1]]]


def counted_cells_sparse(
    rng: np.random.Generator, counts: np.ndarray, spec
) -> SparseRowBatch:
    """Per-trial varying numbers of distinct uniformly-placed cells
    (see :func:`_draw_counted_cells` for the draw)."""
    n_sites = spec.rows * spec.row_bits
    trials, sites = np.divmod(_draw_counted_cells(rng, counts, n_sites), n_sites)
    return SparseRowBatch.from_cells(
        np.asarray(counts).shape[0], spec.rows, spec.row_bits, trials, sites,
        interleave_of(spec),
    )


def poisson_defect_sparse(
    rng: np.random.Generator, count: int, spec, density: float
) -> SparseRowBatch:
    """Manufacturing defect maps: Poisson(density * cells) faults per trial."""
    if density < 0:
        raise ValueError("defect density must be non-negative")
    n_sites = spec.rows * spec.row_bits
    counts = np.minimum(rng.poisson(density * n_sites, size=count), n_sites)
    return counted_cells_sparse(rng, counts, spec)
