"""Batched NumPy pattern generators — the one source of geometry truth.

Every fault-pattern geometry of the project lives here exactly once:
cluster placement, footprint sampling, burst (wordline/bitline)
placement, independent-cell draws and Poisson defect maps.  The
vectorized scenario models (:mod:`repro.scenarios.models`) build
``(trials, rows, cols)`` mask batches from these kernels, and the scalar
:class:`repro.errors.ErrorInjector` delegates its per-event placement to
the same functions — so the two paths cannot drift apart, and a
single-event draw is *bit-exact* between them (a ``size=1`` vectorized
draw consumes the ``numpy.random.Generator`` stream identically to the
scalar draw it replaced).

All mask outputs are ``uint8`` 0/1 arrays in the error-mask domain of
:mod:`repro.engine.batch`: a 1 means "this cell differs from its correct
value".  Each ``*_sparse`` twin draws exactly as its mask emitter does
but emits a packed :class:`~repro.scenarios.sparse.SparseRowBatch` laid
out for the engine geometry it is given (``rows``, ``row_bits`` and,
when present, ``interleave_degree``).
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseRowBatch, interleave_of

__all__ = [
    "place_clusters",
    "solid_cluster_masks",
    "solid_cluster_sparse",
    "sample_footprints",
    "spread_footprints",
    "place_bursts",
    "burst_masks",
    "burst_sparse",
    "bernoulli_masks",
    "exact_cells_masks",
    "exact_cells_sparse",
    "counted_cells_masks",
    "counted_cells_sparse",
    "poisson_defect_masks",
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


def _draw_cluster_rects(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    rows: int,
    cols: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one cluster draw both mask and sparse emitters share:
    clip footprints to the array, then place corners uniformly."""
    heights = np.minimum(np.asarray(heights, dtype=np.int64), rows)
    widths = np.minimum(np.asarray(widths, dtype=np.int64), cols)
    r0, c0 = place_clusters(rng, heights, widths, rows, cols)
    return heights, widths, r0, c0


def solid_cluster_masks(
    rng: np.random.Generator,
    heights: np.ndarray,
    widths: np.ndarray,
    rows: int,
    cols: int,
) -> np.ndarray:
    """Uniformly placed solid clusters, one per trial, as bit masks."""
    heights, widths, r0, c0 = _draw_cluster_rects(rng, heights, widths, rows, cols)
    row_idx = np.arange(rows)
    col_idx = np.arange(cols)
    row_hit = ((row_idx >= r0[:, None]) & (row_idx < (r0 + heights)[:, None]))
    col_hit = ((col_idx >= c0[:, None]) & (col_idx < (c0 + widths)[:, None]))
    # Batched outer product via einsum: several times faster than the
    # boolean broadcast chain (one fused pass, no bool intermediates)
    # over the (trials, rows, cols) output this call is bound by.
    return np.einsum(
        "tr,tc->trc", row_hit.astype(np.uint8), col_hit.astype(np.uint8)
    )


def solid_cluster_sparse(
    rng: np.random.Generator, heights: np.ndarray, widths: np.ndarray, spec
) -> SparseRowBatch:
    """Sparse twin of :func:`solid_cluster_masks`: identical draws,
    identical cells, but emitted as the dirty rows only.

    Both paths draw through :func:`_draw_cluster_rects`, so a seeded
    stream produces the same clusters on either path by construction;
    only the output representation differs — ``O(sum(heights))`` packed
    rows instead of a dense ``(trials, rows, cols)`` tensor.
    """
    heights, widths, r0, c0 = _draw_cluster_rects(
        rng, heights, widths, spec.rows, spec.row_bits
    )
    return SparseRowBatch.from_row_spans(
        heights.shape[0], spec.rows, spec.row_bits, r0, heights, c0, widths,
        interleave_of(spec),
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


def _draw_burst_extents(
    rng: np.random.Generator, count: int, n_lines: int, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one burst draw both mask and sparse emitters share: uniform
    start lines for ``count`` bursts, spans clipped to the axis."""
    spans = np.full(count, span, dtype=np.int64)
    starts = place_bursts(rng, spans, n_lines)
    return starts, np.minimum(spans, n_lines)


def burst_masks(
    rng: np.random.Generator,
    count: int,
    rows: int,
    cols: int,
    span: int,
    axis: str,
) -> np.ndarray:
    """One full-extent burst per trial: ``span`` whole rows or columns.

    ``axis="row"`` models wordline failures (every cell of ``span``
    consecutive physical rows), ``axis="column"`` bitline failures.
    """
    if axis not in ("row", "column"):
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    n_lines = rows if axis == "row" else cols
    starts, spans = _draw_burst_extents(rng, count, n_lines, span)
    line_idx = np.arange(n_lines)
    hit = (line_idx >= starts[:, None]) & (line_idx < (starts + spans)[:, None])
    masks = np.zeros((count, rows, cols), dtype=np.uint8)
    if axis == "row":
        masks |= hit[:, :, None]
    else:
        masks |= hit[:, None, :]
    return masks


def burst_sparse(
    rng: np.random.Generator, count: int, spec, span: int, axis: str
) -> SparseRowBatch:
    """Sparse twin of :func:`burst_masks`: same placement draws, emitted
    as row spans — ``span`` full rows per trial, or every row carrying
    the same ``span``-column range."""
    rows, cols = spec.rows, spec.row_bits
    if axis not in ("row", "column"):
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    zeros = np.zeros(count, dtype=np.int64)
    if axis == "row":
        starts, spans = _draw_burst_extents(rng, count, rows, span)
        extents = (starts, spans, zeros, np.full(count, cols, dtype=np.int64))
    else:
        starts, spans = _draw_burst_extents(rng, count, cols, span)
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


def _draw_exact_cells(
    rng: np.random.Generator, count: int, n_sites: int, n_cells: int
) -> "np.ndarray | None":
    """The one distinct-cell draw both mask and sparse emitters share.

    argpartition of one uniform draw per cell gives ``n_cells``
    distinct uniform cells per trial in a single vectorized pass;
    returns ``(count, n_cells)`` site indices (None when zero cells).
    """
    if n_cells > n_sites:
        raise ValueError("more faulty cells than array cells")
    if not n_cells:
        return None
    scores = rng.random((count, n_sites))
    return np.argpartition(scores, n_cells - 1, axis=1)[:, :n_cells]


def exact_cells_masks(
    rng: np.random.Generator, count: int, rows: int, cols: int, n_cells: int
) -> np.ndarray:
    """Exactly ``n_cells`` distinct uniformly-placed cells per trial."""
    n_sites = rows * cols
    chosen = _draw_exact_cells(rng, count, n_sites, n_cells)
    masks = np.zeros((count, n_sites), dtype=np.uint8)
    if chosen is not None:
        masks[np.arange(count)[:, None], chosen] = 1
    return masks.reshape(count, rows, cols)


def exact_cells_sparse(
    rng: np.random.Generator, count: int, spec, n_cells: int
) -> SparseRowBatch:
    """Sparse twin of :func:`exact_cells_masks` (shared draw helper).

    The uniform score matrix is still drawn in full — that is what
    keeps the cell placement bit-exact with the dense path — but the
    mask tensor is never materialized and decode work downstream scales
    with ``n_cells``, not with the array size.
    """
    rows, cols, degree = spec.rows, spec.row_bits, interleave_of(spec)
    chosen = _draw_exact_cells(rng, count, rows * cols, n_cells)
    if chosen is None:
        return SparseRowBatch.empty(count, rows, cols, degree)
    return SparseRowBatch.from_cells(
        count, rows, cols,
        np.repeat(np.arange(count, dtype=np.int64), n_cells), chosen.reshape(-1),
        degree,
    )


def _draw_counted_cells(
    rng: np.random.Generator, counts: np.ndarray, n_sites: int
) -> np.ndarray:
    """The one per-trial-count cell draw both counted-cell emitters
    share: sorted flat keys ``trial * n_sites + site``, exactly
    ``counts[t]`` distinct uniform sites for trial ``t``."""
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
    # Sparse counts (the defect-map regime): draw cell indices directly
    # and patch the rare within-trial collisions by redrawing — far
    # cheaper than scoring every cell of every trial.  Each accepted
    # cell is uniform over the array, so the resulting distinct set is a
    # uniform subset of the requested size.
    select = np.arange(kmax)[None, :] < counts[:, None]
    trial_idx = np.arange(n_trials, dtype=np.int64)[:, None]
    draws = rng.integers(0, n_sites, size=(n_trials, kmax))
    keys = np.unique((trial_idx * n_sites + draws)[select])
    distinct = np.bincount(keys // n_sites, minlength=n_trials)
    deficit_rows = np.nonzero(distinct < counts)[0]
    while deficit_rows.size:
        need = counts[deficit_rows] - distinct[deficit_rows]
        extra = rng.integers(0, n_sites, size=(deficit_rows.size, int(need.max())))
        take = np.arange(extra.shape[1])[None, :] < need[:, None]
        keys = np.unique(
            np.concatenate([keys, (deficit_rows[:, None] * n_sites + extra)[take]])
        )
        distinct = np.bincount(keys // n_sites, minlength=n_trials)
        deficit_rows = deficit_rows[distinct[deficit_rows] < counts[deficit_rows]]
    return keys


def counted_cells_masks(
    rng: np.random.Generator, counts: np.ndarray, rows: int, cols: int
) -> np.ndarray:
    """Per-trial varying numbers of distinct uniformly-placed cells.

    Generalizes :func:`exact_cells_masks` to a different cell count per
    trial (see :func:`_draw_counted_cells` for the draw).
    """
    n_trials = np.asarray(counts).shape[0]
    masks = np.zeros(n_trials * rows * cols, dtype=np.uint8)
    masks[_draw_counted_cells(rng, counts, rows * cols)] = 1
    return masks.reshape(n_trials, rows, cols)


def counted_cells_sparse(
    rng: np.random.Generator, counts: np.ndarray, spec
) -> SparseRowBatch:
    """Sparse twin of :func:`counted_cells_masks` (shared draw helper)."""
    n_sites = spec.rows * spec.row_bits
    trials, sites = np.divmod(_draw_counted_cells(rng, counts, n_sites), n_sites)
    return SparseRowBatch.from_cells(
        np.asarray(counts).shape[0], spec.rows, spec.row_bits, trials, sites,
        interleave_of(spec),
    )


def _draw_poisson_counts(
    rng: np.random.Generator, count: int, n_sites: int, density: float
) -> np.ndarray:
    """The one defect-count draw both Poisson emitters share."""
    if density < 0:
        raise ValueError("defect density must be non-negative")
    return np.minimum(rng.poisson(density * n_sites, size=count), n_sites)


def poisson_defect_masks(
    rng: np.random.Generator, count: int, rows: int, cols: int, density: float
) -> np.ndarray:
    """Manufacturing defect maps: Poisson(density * cells) faults per trial."""
    counts = _draw_poisson_counts(rng, count, rows * cols, density)
    return counted_cells_masks(rng, counts, rows, cols)


def poisson_defect_sparse(
    rng: np.random.Generator, count: int, spec, density: float
) -> SparseRowBatch:
    """Sparse twin of :func:`poisson_defect_masks` (shared draw helpers)."""
    counts = _draw_poisson_counts(rng, count, spec.rows * spec.row_bits, density)
    return counted_cells_sparse(rng, counts, spec)
