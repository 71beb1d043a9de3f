"""On-disk result cache for engine runs.

Results are keyed by a SHA-256 digest of the full experiment identity —
scheme/geometry spec, error model, trial count, seed, block size and an
engine version tag — so a repeated experiment run is a file read instead
of a simulation.  Worker count and chunking deliberately do **not**
participate in the key: the engine guarantees they cannot change the
result, so runs at different parallelism share cache entries.

Entries are ``.npz`` files holding the verdict counts, the optional
per-trial verdict array, and the key parameters (for debugging with
``numpy.load`` directly).  :class:`ResultCache` is that codec over the
``engine`` namespace of the :mod:`~repro.engine.blobstore`, whose
``cache.*`` events give every run's telemetry digest its hit/miss counts.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from .blobstore import BlobStore

__all__ = ["ResultCache", "cache_key"]

#: Bump when the engine's semantics change in ways that invalidate old
#: cached results.
ENGINE_VERSION = 1


def cache_key(params: dict) -> str:
    """The exact on-disk key the runner stores ``params`` under.

    Construction is routed through
    :meth:`repro.api.spec.ExperimentSpec.content_hash` — the
    project-wide canonical convention (order-insensitive param
    freezing, canonical JSON, SHA-256) — so independent key producers
    cannot drift apart: :func:`repro.engine.runner.run_experiment`
    calls this same function with the same params mapping.
    """
    from repro.api.spec import ExperimentSpec

    return ExperimentSpec(
        experiment="engine.run_experiment", backend="monte_carlo", params=params
    ).content_hash()


def _decode(data: bytes) -> dict:
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


class ResultCache(BlobStore):
    """A directory of content-addressed engine results (``<key>.npz``)."""

    def __init__(self, root: "str | Path"):
        super().__init__(root, "engine", events="cache")

    def load(self, key: str) -> "dict | None":
        """The stored payload for ``key`` (field name → numpy array; the
        ``params_json`` field holds the key parameters), or ``None`` on
        a miss or a corrupt entry."""
        hit = self.read(key, _decode)
        return hit[0] if hit is not None else None

    def store(self, key: str, payload: dict, params: dict) -> "Path | None":
        """Persist ``payload`` (mapping of array-likes); the entry's
        path, or ``None`` when the write failed."""
        arrays = dict(payload)
        arrays["params_json"] = np.array(
            json.dumps(params, sort_keys=True), dtype=np.str_
        )
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        return self.write(key, buffer.getvalue())
