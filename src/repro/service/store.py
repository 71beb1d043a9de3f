"""TTL'd result store: spec-hash → serialized :class:`Result`.

The engine's :class:`~repro.engine.cache.ResultCache` memoizes *engine
runs* (npz verdict payloads keyed by engine-run parameters).  The
service needs one level up: finished **API results** keyed by the
submitted spec's :meth:`~repro.api.spec.ExperimentSpec.content_hash`,
so a resubmission after completion is served without touching the
engine at all.  :class:`ResultStore` provides that layer:

- entries hold the result's canonical JSON text (the exact
  ``Result.to_json()`` bytes the HTTP layer serves; ``get`` round-trips
  them back through :meth:`Result.from_json` losslessly);
- every entry expires ``ttl_seconds`` after it was stored; expired
  entries are evicted lazily on access and eagerly by :meth:`sweep`
  (the service's housekeeping task), emitting ``store.evict``; a
  re-``put`` refreshes the entry's clock;
- optional disk persistence (``root``): entries are mirrored to
  ``<root>/<hash>.json`` with atomic writes, and a cold ``get`` falls
  back to disk (mtime-checked against the TTL) so a restarted service
  keeps serving recent results;
- hit/miss/store/evict counters feed ``GET /stats``.

The store holds only its own entries: the service's housekeeping
prunes the engine cache by the same TTL itself.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

from repro.obs import emit

from repro.api.result import Result, ResultError

__all__ = ["ResultStore"]

_log = logging.getLogger(__name__)


class _Entry:
    __slots__ = ("text", "stored_at")

    def __init__(self, text: str, stored_at: float):
        self.text = text
        self.stored_at = stored_at


class ResultStore:
    """In-memory (optionally disk-mirrored) TTL'd map of finished results.

    Parameters
    ----------
    ttl_seconds:
        Lifetime of every entry; ``None`` disables expiry.
    root:
        Optional directory for the disk mirror (created on demand).
    clock:
        Wall-clock source (injectable for tests).
    """

    def __init__(
        self,
        *,
        ttl_seconds: "float | None" = 3600.0,
        root: "str | Path | None" = None,
        clock: Callable[[], float] = time.time,
    ):
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.ttl_seconds = ttl_seconds
        self._root = Path(root) if root is not None else None
        self._clock = clock
        self._entries: "dict[str, _Entry]" = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evicted = 0

    # ------------------------------------------------------------------
    @property
    def root(self) -> "Path | None":
        return self._root

    def _path_for(self, spec_hash: str) -> "Path | None":
        return self._root / f"{spec_hash}.json" if self._root else None

    def _expired(self, stored_at: float) -> bool:
        return (
            self.ttl_seconds is not None
            and self._clock() - stored_at > self.ttl_seconds
        )

    # ------------------------------------------------------------------
    def put(self, result: Result) -> str:
        """Store a finished result under its spec's content hash."""
        spec_hash = result.spec_hash
        text = result.to_json()
        self._entries[spec_hash] = _Entry(text, self._clock())
        self.stores += 1
        emit(
            "store.store",
            logger=_log,
            key=spec_hash,
            bytes=len(text),
        )
        path = self._path_for(spec_hash)
        if path is not None:
            self._write_disk(path, text)
        return spec_hash

    def get_json(self, spec_hash: str) -> "Optional[str]":
        """The stored result's canonical JSON text, or ``None``.

        This is the HTTP fast path: the text is served byte-for-byte
        without a parse/serialize round trip.
        """
        entry = self._entries.get(spec_hash)
        if entry is not None:
            if self._expired(entry.stored_at):
                self._evict(spec_hash, reason="ttl")
            else:
                self.hits += 1
                emit("store.hit", logger=_log, key=spec_hash)
                return entry.text
        text = self._load_disk(spec_hash)
        if text is not None:
            # Warm the memory tier with the disk entry's remaining TTL
            # budget intact (approximated by the file's mtime).
            self.hits += 1
            emit("store.hit", logger=_log, key=spec_hash, tier="disk")
            return text
        self.misses += 1
        emit("store.miss", logger=_log, key=spec_hash)
        return None

    def peek(self, spec_hash: str) -> "Optional[str]":
        """The in-memory entry's JSON text, without counting a lookup."""
        entry = self._entries.get(spec_hash)
        return entry.text if entry is not None else None

    def get(self, spec_hash: str) -> "Optional[Result]":
        """The stored :class:`Result` (lossless round trip), or ``None``."""
        text = self.get_json(spec_hash)
        return Result.from_json(text) if text is not None else None

    # ------------------------------------------------------------------
    def _evict(self, spec_hash: str, *, reason: str) -> None:
        entry = self._entries.pop(spec_hash, None)
        if entry is None:
            return
        self.evicted += 1
        emit(
            "store.evict",
            logger=_log,
            key=spec_hash,
            reason=reason,
            age_seconds=round(self._clock() - entry.stored_at, 3),
        )
        path = self._path_for(spec_hash)
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass

    def sweep(self) -> int:
        """Evict every expired entry (memory and disk mirror); returns
        the eviction count."""
        removed = 0
        if self.ttl_seconds is not None:
            for spec_hash in [
                h for h, e in self._entries.items() if self._expired(e.stored_at)
            ]:
                self._evict(spec_hash, reason="ttl")
                removed += 1
            removed += self._sweep_disk()
        return removed

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns the count."""
        removed = 0
        for spec_hash in list(self._entries):
            self._evict(spec_hash, reason="clear")
            removed += 1
        if self._root is not None and self._root.is_dir():
            for path in self._root.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    continue
        return removed

    # ------------------------------------------------------------------
    # Disk mirror
    # ------------------------------------------------------------------
    def _write_disk(self, path: Path, text: str) -> None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{path.stem[:16]}-", suffix=".tmp", dir=path.parent
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError as exc:  # persistence is best-effort
            _log.warning("store: could not persist %s: %r", path, exc)

    def _load_disk(self, spec_hash: str) -> "Optional[str]":
        path = self._path_for(spec_hash)
        if path is None or not path.is_file():
            return None
        try:
            stat = path.stat()
            if self.ttl_seconds is not None and (
                self._clock() - stat.st_mtime > self.ttl_seconds
            ):
                path.unlink(missing_ok=True)
                return None
            text = path.read_text(encoding="utf-8")
            Result.from_json(text)  # refuse to serve a corrupt mirror
        except (OSError, ResultError):
            return None
        self._entries[spec_hash] = _Entry(text, stat.st_mtime)
        return text

    def _sweep_disk(self) -> int:
        if self._root is None or not self._root.is_dir():
            return 0
        removed = 0
        cutoff = self._clock() - self.ttl_seconds
        for path in self._root.glob("*.json"):
            try:
                if path.stat().st_mtime < cutoff and path.stem not in self._entries:
                    path.unlink()
                    removed += 1
                    self.evicted += 1
                    emit(
                        "store.evict",
                        logger=_log,
                        key=path.stem,
                        reason="ttl",
                        tier="disk",
                    )
            except OSError:
                continue
        return removed

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-pure shape + counters digest (the ``/stats`` block)."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": sum(len(e.text) for e in self._entries.values()),
            "ttl_seconds": self.ttl_seconds,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evicted": self.evicted,
            "hit_rate": (self.hits / lookups) if lookups else None,
            "persisted": self._root is not None,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, spec_hash: str) -> bool:
        entry = self._entries.get(spec_hash)
        return entry is not None and not self._expired(entry.stored_at)

    def __repr__(self) -> str:
        return (
            f"ResultStore(entries={len(self._entries)}, "
            f"ttl={self.ttl_seconds}, hits={self.hits}, misses={self.misses})"
        )
