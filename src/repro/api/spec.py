"""Declarative experiment specification with a stable content hash.

An :class:`ExperimentSpec` is the *complete* identity of one experiment
run: which registered experiment, which backend (analytical model or the
vectorized Monte Carlo engine), the statistical knobs (trials, seed,
confidence) and any experiment-specific sweep axes in ``params``.  It is
a frozen value object — a spec can be hashed, compared, pickled into
worker processes, serialized into a :class:`repro.api.result.Result` for
provenance, and used as a cache key.

The content hash is canonical: parameter mappings are recursively frozen
into sorted tuples at construction time, so two specs built from dicts
with different insertion orders (or from already-frozen tuples) hash
identically.  :func:`content_hash` is the single cache-key convention of
the project — the engine's on-disk result cache
(:mod:`repro.engine.cache`) routes its keys through it, so the API layer
and the engine can never drift apart on what identifies a result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = ["ExperimentSpec", "SpecError", "content_hash", "freeze_params", "thaw_params"]

#: Bump when the spec serialization or hash convention changes in ways
#: that invalidate previously stored hashes.
SPEC_VERSION = 1

#: Backends a spec may request.  ``auto`` resolves against the backends
#: an experiment actually implements (preferring analytical).
BACKENDS = ("auto", "analytical", "monte_carlo")

#: The rare-event estimation knobs (see :mod:`repro.api.catalog`).  They
#: only make sense for Monte Carlo sampling: ``auto`` backend resolution
#: treats them like ``trials`` (prefer ``monte_carlo``), and
#: :meth:`repro.api.Session.run` rejects them on analytical backends.
RARE_EVENT_PARAMS = (
    "estimator",
    "tolerance",
    "tolerance_relative",
    "tilt",
    "strata",
    "allocation",
)


class SpecError(ValueError):
    """An invalid or inconsistent experiment specification."""


class FrozenDict(tuple):
    """A frozen mapping: a sorted tuple of ``(key, value)`` pairs.

    The distinct type lets :func:`thaw_params` tell a frozen mapping
    apart from a frozen *list* that merely looks like pairs (e.g.
    ``[["a", 1]]``) or from an empty list, so freeze/thaw round-trips
    are shape-faithful.  Equality and hashing are type-aware for the
    same reason: a frozen mapping never compares equal to a frozen
    list, keeping ``==`` consistent with :func:`content_hash`.
    """

    __slots__ = ()

    def __eq__(self, other: Any) -> Any:
        if isinstance(other, FrozenDict):
            return tuple.__eq__(self, other)
        if isinstance(other, tuple):
            return False
        return NotImplemented

    def __ne__(self, other: Any) -> Any:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((FrozenDict, tuple.__hash__(self)))


def freeze_params(value: Any) -> Any:
    """Recursively freeze ``value`` into a hashable canonical form.

    Mappings become :class:`FrozenDict` (sorted ``(key, frozen_value)``
    pairs); lists/tuples become tuples; scalars pass through.  The
    result is order-insensitive for mappings, so equal specs hash
    equally no matter how their params were assembled.
    """
    if isinstance(value, Mapping):
        return FrozenDict(sorted((str(k), freeze_params(v)) for k, v in value.items()))
    if isinstance(value, FrozenDict):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(freeze_params(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(freeze_params(v) for v in value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecError(f"parameter value {value!r} is not JSON-representable")


def thaw_params(frozen: Any) -> Any:
    """Invert :func:`freeze_params` back into plain dicts/lists."""
    if isinstance(frozen, FrozenDict):
        return {key: thaw_params(value) for key, value in frozen}
    if isinstance(frozen, tuple):
        return [thaw_params(value) for value in frozen]
    return frozen


def content_hash(payload: Any) -> str:
    """SHA-256 digest of the canonical JSON form of ``payload``.

    This is the project-wide cache-key convention: canonical JSON
    (sorted keys, compact separators) of a frozen payload.
    """
    return _digest(thaw_params(freeze_params(payload)))


def _digest(canonical: Any) -> str:
    """SHA-256 of an already canonical (thawed) payload's JSON form."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, declarative identity of one experiment run.

    Parameters
    ----------
    experiment:
        Registry name, e.g. ``"fig3.coverage"`` (see
        :func:`repro.api.list_experiments`).
    backend:
        ``"analytical"``, ``"monte_carlo"``, or ``"auto"`` (pick the
        experiment's default; resolves to Monte Carlo when ``trials``
        is set and the experiment supports it).
    trials, seed:
        Monte Carlo trial count and root RNG seed.  ``seed`` also feeds
        the seeded analytical simulations (Figs. 5/6).  ``None`` means
        "use the experiment's registered default".
    confidence:
        Confidence level for Wilson intervals on Monte Carlo estimates.
    params:
        Experiment-specific sweep axes and options (a mapping; frozen
        canonically at construction).
    """

    experiment: str
    backend: str = "auto"
    trials: int | None = None
    seed: int | None = None
    confidence: float = 0.95
    params: Any = field(default=())

    def __post_init__(self) -> None:
        if not self.experiment or not isinstance(self.experiment, str):
            raise SpecError("experiment must be a non-empty string")
        if self.backend not in BACKENDS:
            raise SpecError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.trials is not None and self.trials < 1:
            raise SpecError("trials must be positive")
        if self.seed is not None and not isinstance(self.seed, int):
            raise SpecError("seed must be an integer")
        if not 0.0 < self.confidence < 1.0:
            raise SpecError("confidence must be in (0, 1)")
        raw = self.params
        if raw is None or (isinstance(raw, tuple) and not raw):
            raw = {}
        if not isinstance(raw, (Mapping, FrozenDict)):
            # A list of pairs would freeze to a plain tuple and then read
            # back as {} — rejecting it here keeps the unknown-param
            # guard in Session.run airtight.
            raise SpecError(
                f"params must be a mapping, got {type(raw).__name__}"
            )
        object.__setattr__(self, "params", freeze_params(raw))

    # ------------------------------------------------------------------
    def param_dict(self) -> dict:
        """The sweep axes as a plain (mutable) dict."""
        thawed = thaw_params(self.params)
        return dict(thawed) if isinstance(thawed, dict) else {}

    def replaced(self, **overrides: Any) -> "ExperimentSpec":
        """A copy with the given fields replaced (params are re-frozen)."""
        return replace(self, **overrides)

    def resolve_backend(self, available: tuple[str, ...]) -> str:
        """Pick the concrete backend against an experiment's implementations."""
        if self.backend != "auto":
            if self.backend not in available:
                raise SpecError(
                    f"experiment {self.experiment!r} has no {self.backend!r} "
                    f"backend (available: {', '.join(available)})"
                )
            return self.backend
        if self.trials is not None and "monte_carlo" in available:
            return "monte_carlo"
        if "monte_carlo" in available and set(RARE_EVENT_PARAMS).intersection(
            self.param_dict()
        ):
            # A tolerance/estimator knob implies sampling just as a
            # trial count does.
            return "monte_carlo"
        return available[0]

    # ------------------------------------------------------------------
    def to_key(self) -> dict:
        """JSON-representable canonical mapping of the full identity."""
        return {
            "spec_version": SPEC_VERSION,
            "experiment": self.experiment,
            "backend": self.backend,
            "trials": self.trials,
            "seed": self.seed,
            "confidence": self.confidence,
            "params": thaw_params(self.params),
        }

    @classmethod
    def from_key(cls, key: Mapping) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_key` output (lossless)."""
        return cls(
            experiment=key["experiment"],
            backend=key.get("backend", "auto"),
            trials=key.get("trials"),
            seed=key.get("seed"),
            confidence=key.get("confidence", 0.95),
            params=key.get("params") or {},
        )

    def content_hash(self) -> str:
        """Stable digest of the full spec identity.

        Equal specs — however their params were ordered at construction
        — produce equal digests; any semantic difference changes it.
        """
        # The params were frozen at construction, so to_key() is already
        # canonical: content_hash's freeze/thaw round trip would be a no-op.
        return _digest(self.to_key())
