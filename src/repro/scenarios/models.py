"""Built-in fault scenarios: correlated soft, hard and combined models.

Each scenario is a frozen, picklable dataclass registered by name (see
:mod:`repro.scenarios.base`) whose one sampler, :meth:`sample_sparse`,
emits a packed :class:`~repro.scenarios.sparse.SparseRowBatch` from the
generators in :mod:`repro.scenarios.generators`:

``iid_uniform``
    Spatially independent cell upsets — either exactly ``n_cells``
    distinct uniform cells per trial (the manufacture-time defect model
    behind the Fig. 8(a) yield analysis, drawn by the one distinct-cell
    draw :func:`~repro.scenarios.generators.counted_cells_sparse`) or
    Bernoulli flips at ``flip_probability`` per cell.
``clustered_mbu``
    One single-event multi-bit upset per trial, footprint drawn from a
    weighted distribution (the :mod:`repro.errors` injector semantics,
    vectorized; bit-exact with the historical ``ClusterErrorModel``),
    optionally stretched by a geometric charge-diffusion ``spread``.
``fixed_cluster``
    The same ``height`` x ``width`` cluster every trial.
``burst_row`` / ``burst_column``
    Wordline / bitline failures: ``span`` consecutive physical rows or
    columns fail end to end.
``hard_fault_map``
    Manufacturing defect maps: a Poisson(``defect_density`` x cells)
    number of faulty cells per trial (each trial is one die), placed
    uniformly and modelled as inverted cells (the worst case for the
    linear codes).
``composite``
    Soft clusters layered over a persistent hard map — the paper's
    combined yield + reliability scenario.  Each population draws from
    its own block-keyed RNG lane, so reconfiguring one never shifts the
    other's placement.

Faulty cells of hard populations combine with soft upsets by OR: a soft
strike on a permanently faulty cell leaves the cell faulty.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from .base import Geometry, ScenarioBase, scenario, scenario_from_config
from .generators import (
    bernoulli_masks,
    burst_sparse,
    exact_cells_sparse,
    mostly_single_bit_footprints,
    poisson_defect_sparse,
    sample_footprints,
    solid_cluster_sparse,
    spread_footprints,
)
from .sparse import SparseRowBatch, interleave_of

__all__ = [
    "IidUniformScenario",
    "ClusteredMbuScenario",
    "FixedClusterScenario",
    "BurstRowScenario",
    "BurstColumnScenario",
    "HardFaultMapScenario",
    "CompositeScenario",
]


Footprints = tuple[tuple[tuple[int, int], float], ...]


def _check_integer(name: str, value: Any) -> None:
    """Refuse a ``bool`` or a non-integral value for an integer knob.

    The draws truncate (or reject) a fractional count, so accepting
    ``2.5`` would run a configuration its cache key does not name.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_density(value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"defect_density must be finite and non-negative, got {value!r}")


def _normalize_footprints(raw: Any) -> Footprints:
    """Coerce JSON-ish footprint shapes into the canonical tuple form
    (``None`` is the mostly-single-bit default).  An empty table, a
    shape below 1x1, a negative or non-finite weight and a table with
    no positive weight are refused: the draw could not use them."""
    if raw is None:
        raw = sorted(mostly_single_bit_footprints(0.1))
    footprints = tuple(((shape[0], shape[1]), float(weight)) for shape, weight in raw)
    if not footprints:
        raise ValueError("footprints must not be empty")
    for (h, w), weight in footprints:
        _check_integer("footprint height", h)
        _check_integer("footprint width", w)
        if h < 1 or w < 1 or not (math.isfinite(weight) and weight >= 0):
            raise ValueError(f"invalid footprint entry {((h, w), weight)}")
    if sum(w for _f, w in footprints) <= 0:
        raise ValueError("at least one footprint needs positive weight")
    return tuple(((int(h), int(w)), weight) for (h, w), weight in footprints)


# ----------------------------------------------------------------------
# independent upsets
# ----------------------------------------------------------------------

@scenario("iid_uniform")
@dataclass(frozen=True)
class IidUniformScenario(ScenarioBase):
    """Spatially independent uniform cell upsets.

    Exactly one of the two knobs is active: ``n_cells`` places that many
    *distinct* uniform cells per trial (the model behind the Fig. 8(a)
    yield simulation; its cost grows with ``n_cells``, not with the
    array), while ``flip_probability`` flips every cell independently.
    With neither given, one cell per trial.
    """

    n_cells: "int | None" = None
    flip_probability: "float | None" = None
    example_params = {"n_cells": 4}

    def __post_init__(self) -> None:
        if self.n_cells is not None and self.flip_probability is not None:
            raise ValueError("set n_cells or flip_probability, not both")
        if self.n_cells is None and self.flip_probability is None:
            object.__setattr__(self, "n_cells", 1)
        if self.n_cells is not None:
            _check_integer("n_cells", self.n_cells)
            if self.n_cells < 0:
                raise ValueError("n_cells must be non-negative")
            # The cell draw needs an int; a float count crashed there before,
            # so no result was ever keyed on one.
            object.__setattr__(self, "n_cells", int(self.n_cells))
        if self.flip_probability is not None and not 0 <= self.flip_probability <= 1:
            raise ValueError("flip_probability must be in [0, 1]")

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        # Bernoulli flips dirty a density-dependent row fraction and
        # have no packed emitter: pack the dense draw.
        if self.n_cells is None:
            masks = bernoulli_masks(
                rng, count, spec.rows, spec.row_bits, self.flip_probability
            )
            return SparseRowBatch.from_masks(masks, interleave_of(spec))
        return exact_cells_sparse(rng, count, spec, self.n_cells)

    def to_key(self) -> dict:
        # One model name in both modes.  The key also stands for the
        # draw's RNG consumption: a change to the draw must change the
        # key, so no stale cache entry of this model is ever read.
        if self.n_cells is not None:
            return {"model": "iid_uniform", "n_cells": self.n_cells}
        return {"model": "iid_uniform", "flip_probability": self.flip_probability}


# ----------------------------------------------------------------------
# clustered single-event upsets
# ----------------------------------------------------------------------

@scenario("clustered_mbu")
@dataclass(frozen=True)
class ClusteredMbuScenario(ScenarioBase):
    """One clustered upset per trial, footprint drawn from a distribution.

    ``footprints`` is a tuple of ``((height, width), weight)`` pairs —
    the hashable/picklable twin of
    :class:`repro.errors.injector.FootprintDistribution` (``None`` picks
    the mostly-single-bit mix).  ``spread`` > 0 stretches each footprint
    by geometric charge-diffusion tails; at the default 0 the sampled
    stream is bit-exact with the pre-scenario engine model.
    """

    footprints: "Footprints | None" = None
    spread: float = 0.0

    def __post_init__(self) -> None:
        footprints = _normalize_footprints(self.footprints)
        if not 0 <= self.spread < 1:
            raise ValueError("spread must be in [0, 1)")
        object.__setattr__(self, "footprints", footprints)

    @classmethod
    def mostly_single_bit(cls, multi_bit_fraction: float = 0.1) -> "ClusteredMbuScenario":
        return cls(
            footprints=tuple(sorted(mostly_single_bit_footprints(multi_bit_fraction)))
        )

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        heights, widths = sample_footprints(rng, self.footprints, count)
        if self.spread:
            heights, widths = spread_footprints(rng, heights, widths, self.spread)
        return solid_cluster_sparse(rng, heights, widths, spec)

    def to_key(self) -> dict:
        key = {
            "model": "cluster_distribution",
            "footprints": [[list(f), w] for f, w in self.footprints],
        }
        # Only a non-default spread extends the key: default configs keep
        # addressing the results cached before spread existed.
        if self.spread:
            key["spread"] = self.spread
        return key


@scenario("fixed_cluster")
@dataclass(frozen=True)
class FixedClusterScenario(ScenarioBase):
    """The same ``height`` x ``width`` cluster every trial, placed uniformly."""

    height: int
    width: int
    example_params = {"height": 8, "width": 8}

    def __post_init__(self) -> None:
        _check_integer("height", self.height)
        _check_integer("width", self.width)
        if self.height < 1 or self.width < 1:
            raise ValueError("cluster dimensions must be positive")

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        heights = np.full(count, self.height, dtype=np.int64)
        widths = np.full(count, self.width, dtype=np.int64)
        return solid_cluster_sparse(rng, heights, widths, spec)

    def to_key(self) -> dict:
        return {"model": "fixed_cluster", "height": self.height, "width": self.width}


# ----------------------------------------------------------------------
# bursts
# ----------------------------------------------------------------------

@scenario("burst_row")
@dataclass(frozen=True)
class BurstRowScenario(ScenarioBase):
    """Wordline failure: ``span`` consecutive physical rows fail entirely."""

    span: int = 1

    def __post_init__(self) -> None:
        _check_integer("span", self.span)
        if self.span < 1:
            raise ValueError("span must be positive")

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        return burst_sparse(rng, count, spec, self.span, "row")

    def to_key(self) -> dict:
        return {"model": "burst_row", "span": self.span}


@scenario("burst_column")
@dataclass(frozen=True)
class BurstColumnScenario(ScenarioBase):
    """Bitline failure: ``span`` consecutive physical columns fail entirely."""

    span: int = 1

    def __post_init__(self) -> None:
        _check_integer("span", self.span)
        if self.span < 1:
            raise ValueError("span must be positive")

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        return burst_sparse(rng, count, spec, self.span, "column")

    def to_key(self) -> dict:
        return {"model": "burst_column", "span": self.span}


# ----------------------------------------------------------------------
# hard faults and combined populations
# ----------------------------------------------------------------------

@scenario("hard_fault_map")
@dataclass(frozen=True)
class HardFaultMapScenario(ScenarioBase):
    """Manufacturing defect maps sampled per trial from a Poisson density.

    Each trial is one manufactured die: the number of defective cells is
    Poisson with mean ``defect_density * rows * row_bits`` and the cells
    land uniformly.  Faults are modelled as inverted cells — the worst
    case for the codes (stuck-at faults matching the stored value are
    harmless and would only improve the estimates).
    """

    defect_density: float = 1e-4

    def __post_init__(self) -> None:
        _check_density(self.defect_density)

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        return poisson_defect_sparse(rng, count, spec, self.defect_density)

    def to_key(self) -> dict:
        return {"model": "hard_fault_map", "defect_density": self.defect_density}


@scenario("composite")
@dataclass(frozen=True)
class CompositeScenario(ScenarioBase):
    """Soft upsets layered over a persistent hard-fault map.

    The paper's combined yield + reliability regime: every trial first
    samples a manufacturing defect map (``hard``), then a soft event
    (``soft``) on top; a cell is in error when either population hits it
    (a soft strike on a permanently faulty cell leaves it faulty).

    Sub-scenarios may be given as built objects, names, or config
    mappings (``{"scenario": "clustered_mbu", "spread": 0.2}``); weighted
    (importance-sampling) scenarios are rejected, since a union of
    populations has no per-trial likelihood ratio to carry.  On the
    engine path each population draws from its **own** block-keyed RNG
    lane, so results stay worker/chunk-invariant *and* reconfiguring one
    population never shifts the other's draws.
    """

    soft: Any = None
    hard: Any = None

    def __post_init__(self) -> None:
        soft = self.soft if self.soft is not None else ClusteredMbuScenario()
        hard = self.hard if self.hard is not None else HardFaultMapScenario()
        for name, config in (("soft", soft), ("hard", hard)):
            model = scenario_from_config(config)
            if getattr(model, "weighted", False):
                raise ValueError(
                    f"composite {name} population {model.scenario_name!r} is a "
                    "weighted (importance-sampling) scenario; composite layers "
                    "only unweighted populations"
                )
            object.__setattr__(self, name, model)

    def sample_sparse(self, rng: np.random.Generator, count: int, spec: Geometry):
        # Sequential fallback for direct use; the engine path goes
        # through sample_sparse_block's independent lanes instead.
        hard = self.hard.sample_sparse(rng, count, spec)
        return hard.merge(self.soft.sample_sparse(rng, count, spec))

    def sample_block(self, streams, count: int, spec: Geometry) -> np.ndarray:
        return self.sample_sparse_block(streams, count, spec).densify()

    def sample_sparse_block(self, streams, count: int, spec: Geometry):
        hard = self.hard.sample_sparse(streams.lane(0), count, spec)
        return hard.merge(self.soft.sample_sparse(streams.lane(1), count, spec))

    def to_key(self) -> dict:
        return {
            "model": "composite",
            "soft": self.soft.to_key(),
            "hard": self.hard.to_key(),
        }
