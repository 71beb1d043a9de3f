"""On-disk result cache for engine runs.

Results are keyed by a SHA-256 digest of the full experiment identity —
scheme/geometry spec, error model, trial count, seed, block size and an
engine version tag — so a repeated experiment run is a file read instead
of a simulation.  Worker count and chunking deliberately do **not**
participate in the key: the engine guarantees they cannot change the
result, so runs at different parallelism share cache entries.

Entries are ``.npz`` files holding the verdict counts, the optional
per-trial verdict array, and the human-readable key parameters (for
debugging with ``numpy.load`` directly).  Writes go through a temp file
plus ``os.replace`` so a crashed run never leaves a truncated entry.

Every lookup, store and eviction emits a telemetry event (``cache.hit``
/ ``cache.miss`` / ``cache.store`` / ``cache.corrupt`` /
``cache.evict``) through
:func:`repro.obs.emit`, so every run's span (and the telemetry digest
derived from it) gets hit/miss accounting for free.  A
corrupt entry is *not* silently a miss: it is logged at WARNING with
the offending path and quarantined to ``<name>.corrupt`` so repeated
runs cannot keep tripping over (and masking) the same bad file.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np

from repro.obs import emit
from repro.obs import metrics as _metrics

__all__ = ["ResultCache", "cache_key"]

_log = logging.getLogger(__name__)

# Fleet-level counterparts of the per-run cache.* telemetry events:
# the default metrics registry aggregates across every session/run in
# the process, which is what the service's /metrics endpoint scrapes.
_CACHE_LOOKUPS = _metrics.counter(
    "repro_engine_cache_lookups_total",
    "Engine result-cache lookups by result (hit/miss/corrupt)",
    ("result",),
)
_CACHE_STORES = _metrics.counter(
    "repro_engine_cache_stores_total",
    "Engine result-cache entries written",
)
_CACHE_EVICTIONS = _metrics.counter(
    "repro_engine_cache_evictions_total",
    "Engine result-cache entries evicted by policy",
    ("reason",),
)

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


class ResultCache:
    """A directory of content-addressed engine results."""

    def __init__(self, root: "str | Path"):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, key: str) -> Path:
        return self._root / f"{key}.npz"

    # ------------------------------------------------------------------
    def load(self, key: str) -> "dict | None":
        """Return the stored payload for ``key``, or None on miss.

        The payload maps field names to numpy arrays/scalars; the
        ``params_json`` field holds the original key parameters.  A
        corrupt entry (interrupted write, truncation, disk trouble)
        must never poison a run — it reads as a miss — but unlike a
        plain miss it is logged with its path and quarantined to
        ``<name>.corrupt`` so it cannot silently mask itself forever.
        """
        path = self.path_for(key)
        if not path.exists():
            emit("cache.miss", logger=_log, key=key)
            _CACHE_LOOKUPS.labels(result="miss").inc()
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                payload = {name: archive[name] for name in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
            quarantined = self._quarantine(path)
            emit(
                "cache.corrupt",
                logger=_log,
                level=logging.WARNING,
                key=key,
                path=str(path),
                quarantined=str(quarantined) if quarantined else None,
                error=repr(exc),
            )
            _CACHE_LOOKUPS.labels(result="corrupt").inc()
            return None
        emit("cache.hit", logger=_log, key=key)
        _CACHE_LOOKUPS.labels(result="hit").inc()
        return payload

    def _quarantine(self, path: Path) -> "Path | None":
        """Move a corrupt entry aside as ``<name>.corrupt`` (best
        effort; a file another process already moved is fine)."""
        quarantined = path.with_suffix(".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            return None
        return quarantined

    def store(self, key: str, payload: dict, params: dict) -> Path:
        """Atomically persist ``payload`` (mapping of array-likes)."""
        path = self.path_for(key)
        arrays = dict(payload)
        arrays["params_json"] = np.array(
            json.dumps(params, sort_keys=True), dtype=np.str_
        )
        # Unique temp name per writer: concurrent processes storing the
        # same key must not interleave writes before the atomic rename.
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".tmp.npz", dir=self._root
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        emit("cache.store", logger=_log, key=key, bytes=path.stat().st_size)
        _CACHE_STORES.inc()
        return path

    # ------------------------------------------------------------------
    # Maintenance: stats and TTL / size-bounded eviction
    # ------------------------------------------------------------------
    def _entries(self) -> "list[tuple[Path, float, int]]":
        """Every live entry as ``(path, mtime, size_bytes)``, oldest
        first.  An entry another process removes mid-scan is skipped."""
        entries = []
        for path in self._root.glob("*.npz"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((path, stat.st_mtime, stat.st_size))
        entries.sort(key=lambda item: item[1])
        return entries

    def stats(self) -> dict:
        """Shape of the cache directory: entry count, total bytes and
        the oldest entry's mtime (epoch seconds; ``None`` when empty)."""
        entries = self._entries()
        return {
            "entries": len(entries),
            "total_bytes": sum(size for _, _, size in entries),
            "oldest_mtime": entries[0][1] if entries else None,
        }

    def prune(
        self,
        ttl_seconds: "float | None" = None,
        max_bytes: "int | None" = None,
    ) -> int:
        """Evict stale and/or excess entries; returns the number removed.

        Two independent policies, applied in order:

        - ``ttl_seconds``: every entry whose mtime is older than the TTL
          is removed (age is measured against the current wall clock).
        - ``max_bytes``: if the surviving entries still exceed the byte
          budget, the oldest-mtime entries are removed first (LRU by
          mtime — :meth:`store` rewrites give an entry a fresh mtime)
          until the total fits.

        Each eviction emits a ``cache.evict`` telemetry event with the
        entry's key, size and the policy that claimed it.  Passing
        neither bound is a no-op.
        """
        removed = 0
        entries = self._entries()
        if ttl_seconds is not None:
            cutoff = time.time() - ttl_seconds
            survivors = []
            for path, mtime, size in entries:
                if mtime < cutoff:
                    removed += self._evict(path, size, reason="ttl")
                else:
                    survivors.append((path, mtime, size))
            entries = survivors
        if max_bytes is not None:
            total = sum(size for _, _, size in entries)
            for path, _, size in entries:  # oldest first
                if total <= max_bytes:
                    break
                removed += self._evict(path, size, reason="max_bytes")
                total -= size
        return removed

    def _evict(self, path: Path, size: int, *, reason: str) -> int:
        """Remove one entry (best effort under concurrent pruners)."""
        try:
            path.unlink()
        except OSError:
            return 0
        emit(
            "cache.evict",
            logger=_log,
            key=path.stem,
            bytes=size,
            reason=reason,
        )
        _CACHE_EVICTIONS.labels(reason=reason).inc()
        return 1

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for entry in self._root.glob("*.npz"):
            entry.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._root.glob("*.npz"))
