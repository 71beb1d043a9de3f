"""Scenario protocol and decorator registry.

A *scenario* is a pluggable, fully vectorized fault-population model:
given a per-block random generator and a bank geometry it emits a
block's faults in one shot, as a packed
:class:`~repro.scenarios.sparse.SparseRowBatch` from its one sampler,
:meth:`~ScenarioBase.sample_sparse` — the form the engine consumes.
The dense ``(trials, rows, row_bits)`` masks of
:meth:`~ScenarioBase.sample` are derived from that batch.
Scenarios are small frozen dataclasses registered under a stable name::

    @scenario("burst_row")
    @dataclass(frozen=True)
    class BurstRowScenario(ScenarioBase):
        span: int = 1
        ...

    model = make_scenario("burst_row", span=2)

The registry is the discovery surface the experiment catalog's
``scenario`` param (``run -p scenario=NAME``) resolves against;
:func:`list_scenarios` enumerates every built-in.  Scenario configurations are JSON-pure
(:meth:`to_key`), so they participate in
:meth:`repro.api.spec.ExperimentSpec.content_hash` and in the engine's
on-disk cache key without any extra plumbing.

This package deliberately imports nothing from :mod:`repro.engine` or
:mod:`repro.errors` — the engine consumes scenarios, and the scalar
injector delegates to :mod:`repro.scenarios.generators`; keeping this
layer dependency-free makes both directions cycle-safe.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from .sparse import SparseRowBatch

__all__ = [
    "Geometry",
    "ScenarioModel",
    "ScenarioBase",
    "UnknownScenarioError",
    "scenario",
    "get_scenario_class",
    "list_scenarios",
    "make_scenario",
    "scenario_from_config",
]


@runtime_checkable
class Geometry(Protocol):
    """The bank geometry a scenario samples over.

    :class:`repro.engine.EngineSpec` satisfies this; so does any object
    carrying physical ``rows`` and ``row_bits`` (cells per row).
    """

    @property
    def rows(self) -> int: ...

    @property
    def row_bits(self) -> int: ...


@runtime_checkable
class ScenarioModel(Protocol):
    """What the engine requires of an error-scenario model.

    The engine calls exactly one sampling method: every block is drawn
    whole through :meth:`sample_sparse_block` and evaluated on the
    packed batch it returns.  :class:`ScenarioBase` supplies it from the
    scenario's one sampler, :meth:`~ScenarioBase.sample_sparse`.
    """

    def sample_sparse_block(
        self, streams, count: int, spec: Geometry
    ) -> SparseRowBatch:
        """One block of ``count`` trials from a
        :class:`repro.engine.rng.BlockStreams` handle, packed; its
        ``weights`` are set exactly when the model is ``weighted``."""
        ...

    def to_key(self) -> dict:
        """JSON-pure configuration, stable across processes and versions."""
        ...


class ScenarioBase:
    """Base class giving every scenario the engine's sampling contract.

    A scenario implements one sampler, :meth:`sample_sparse` (its faults
    as a packed :class:`~repro.scenarios.sparse.SparseRowBatch`), and
    :meth:`to_key`; everything else is derived from them:

    * :meth:`sample` is the same draw as dense ``uint8`` masks
      (``sample_sparse(...).densify()``) — the view the scalar oracle,
      the ``uint8`` reference decoders and the tests compare against.
    * :meth:`sample_block` / :meth:`sample_sparse_block` take a
      :class:`repro.engine.rng.BlockStreams` handle and draw from the
      block's *root* stream — the generator the pre-scenario engine
      passed to ``sample`` — so single-population scenarios stay
      bit-exact with historical results.  Scenarios composing several
      independent populations override both and draw each population
      from its own :meth:`~BlockStreams.lane`, keeping the populations'
      randomness decoupled (reconfiguring one never shifts the draws of
      another) while remaining worker- and chunk-invariant.
    """

    #: Registered name; filled in by the :func:`scenario` decorator.
    scenario_name: str = ""
    #: A representative configuration (:func:`make_scenario` keywords)
    #: for a Fig. 3 sized bank; tests and benchmarks build every
    #: registered scenario from it, so a new one cannot skip them.
    example_params: "dict[str, Any]" = {}

    def sample_sparse(
        self, rng: np.random.Generator, count: int, spec: Geometry
    ) -> SparseRowBatch:
        """One block of ``count`` trials as a packed batch of dirty rows."""
        raise NotImplementedError

    def to_key(self) -> dict:
        raise NotImplementedError

    def sample(
        self, rng: np.random.Generator, count: int, spec: Geometry
    ) -> np.ndarray:
        """``(count, rows, row_bits)`` uint8 error masks: the same draw
        as :meth:`sample_sparse`, densified."""
        return self.sample_sparse(rng, count, spec).densify()

    def sample_block(self, streams, count: int, spec: Geometry) -> np.ndarray:
        return self.sample(streams.root(), count, spec)

    def sample_sparse_block(self, streams, count: int, spec: Geometry) -> SparseRowBatch:
        return self.sample_sparse(streams.root(), count, spec)


class UnknownScenarioError(KeyError):
    """Requested scenario name is not in the registry."""

    def __init__(self, name: str, known: "tuple[str, ...]" = ()):
        self.name = name
        message = f"unknown scenario {name!r}"
        suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        if suggestions:
            message += f"; did you mean: {', '.join(suggestions)}?"
        elif known:
            message += f" (available: {', '.join(known)})"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


_REGISTRY: "dict[str, type]" = {}


def scenario(name: str) -> Callable[[type], type]:
    """Register the decorated scenario class under ``name``."""
    if not name:
        raise ValueError("scenario name must be non-empty")

    def decorate(cls: type) -> type:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        cls.scenario_name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_scenario_class(name: str) -> type:
    """Look up a registered scenario class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, tuple(sorted(_REGISTRY))) from None


def list_scenarios() -> "dict[str, type]":
    """All registered scenarios, name -> class, sorted by name."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def make_scenario(name: str, **params: Any) -> ScenarioModel:
    """Construct a registered scenario from keyword configuration.

    Parameters are the scenario dataclass's fields; values may be plain
    JSON shapes (lists for footprints, nested mappings for composite
    sub-scenarios) exactly as they come out of an
    :class:`~repro.api.spec.ExperimentSpec`'s params.
    """
    cls = get_scenario_class(name)
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for scenario {name!r}: {exc}") from None


def scenario_from_config(config: Any) -> ScenarioModel:
    """Build a scenario from a name, a config mapping, or pass one through.

    Accepted forms: an already-built scenario object, a bare name
    (``"burst_row"``), or a mapping with a ``"scenario"`` key plus
    parameters (``{"scenario": "burst_row", "span": 2}``) — the shape
    nested sub-scenario configs take inside ``composite``.
    """
    if isinstance(config, ScenarioBase):
        return config
    if isinstance(config, str):
        return make_scenario(config)
    if isinstance(config, Mapping):
        params = dict(config)
        try:
            name = params.pop("scenario")
        except KeyError:
            raise ValueError(
                "scenario config mappings need a 'scenario' name key, "
                f"got keys {sorted(config)}"
            ) from None
        return make_scenario(str(name), **params)
    raise ValueError(f"cannot build a scenario from {config!r}")
