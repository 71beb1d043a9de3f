"""TTL'd result store: spec-hash → serialized :class:`Result`.

One level above the engine's :class:`~repro.engine.cache.ResultCache`:
finished **API results** keyed by the spec's ``content_hash()``, held
as the exact ``Result.to_json()`` text the HTTP layer serves.  The
in-memory front is the only tier without a ``root``; with one, entries
are mirrored to ``<root>/<hash>.json`` (the ``results`` namespace of
the :mod:`~repro.engine.blobstore`), so a restarted service keeps
serving recent results.
"""

from __future__ import annotations

import logging
import time
from typing import Optional

from repro.engine.blobstore import BlobStore
from repro.obs import emit

from repro.api.result import Result

__all__ = ["ResultStore"]

_log = logging.getLogger(__name__)


def _decode(data: bytes) -> str:
    text = data.decode("utf-8")
    Result.from_json(text)  # refuse to serve a corrupt mirror
    return text


class ResultStore:
    """In-memory (optionally disk-mirrored) TTL'd map of finished results.

    Every entry expires ``ttl_seconds`` (``None``: never) after it was
    stored, lazily on access and eagerly by :meth:`sweep`; ``clock``
    times both tiers.  Hit/miss/store/evict counters feed ``GET /stats``.
    """

    def __init__(self, *, ttl_seconds=3600.0, root=None, clock=None):
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.ttl_seconds = ttl_seconds
        self._clock = clock or time.time
        self._disk = (
            BlobStore(root, "results", clock=self._clock) if root is not None else None
        )
        #: spec hash -> (JSON text, stored-at time)
        self._entries: "dict[str, tuple[str, float]]" = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evicted = 0

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
        self._entries[spec_hash] = (text, self._clock())
        self.stores += 1
        emit("store.store", logger=_log, key=spec_hash, bytes=len(text))
        if self._disk is not None:
            self._disk.write(spec_hash, text.encode("utf-8"))
        return spec_hash

    def get_json(self, spec_hash: str) -> "Optional[str]":
        """The stored result's canonical JSON text, or ``None``.

        This is the HTTP fast path: the text is served byte-for-byte
        without a parse/serialize round trip.
        """
        entry = self._entries.get(spec_hash)
        if entry is not None and self._expired(entry[1]):
            self._evict(spec_hash)
            entry = None
        if entry is None and self._disk is not None:
            entry = self._disk.read(spec_hash, _decode, ttl_seconds=self.ttl_seconds)
            if entry is not None:  # warm the front; it keeps the file's age
                self._entries[spec_hash] = entry
        if entry is None:
            self.misses += 1
            emit("store.miss", logger=_log, key=spec_hash)
            return None
        self.hits += 1
        emit("store.hit", logger=_log, key=spec_hash)
        return entry[0]

    def peek(self, spec_hash: str) -> "Optional[str]":
        """The in-memory entry's JSON text, without counting a lookup."""
        entry = self._entries.get(spec_hash)
        return entry[0] if entry is not None else None

    def get(self, spec_hash: str) -> "Optional[Result]":
        """The stored :class:`Result` (lossless round trip), or ``None``."""
        text = self.get_json(spec_hash)
        return Result.from_json(text) if text is not None else None

    # ------------------------------------------------------------------
    def _evict(self, spec_hash: str) -> None:
        _text, stored_at = self._entries.pop(spec_hash)
        self.evicted += 1
        emit(
            "store.evict",
            logger=_log,
            key=spec_hash,
            reason="ttl",
            age_seconds=round(self._clock() - stored_at, 3),
        )

    def sweep(self) -> int:
        """Evict every expired entry; returns the number of memory
        entries plus mirror files removed."""
        if self.ttl_seconds is None:
            return 0
        expired = [h for h, (_, at) in self._entries.items() if self._expired(at)]
        for spec_hash in expired:
            self._evict(spec_hash)
        if self._disk is not None:
            return len(expired) + self._disk.prune(ttl_seconds=self.ttl_seconds)
        return len(expired)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-pure shape + counters digest (the ``/stats`` block)."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": sum(len(text) for text, _ in self._entries.values()),
            "ttl_seconds": self.ttl_seconds,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evicted": self.evicted,
            "hit_rate": (self.hits / lookups) if lookups else None,
            "persisted": self._disk is not None,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, spec_hash: str) -> bool:
        entry = self._entries.get(spec_hash)
        return entry is not None and not self._expired(entry[1])

    def __repr__(self) -> str:
        return (
            f"ResultStore(entries={len(self._entries)}, "
            f"ttl={self.ttl_seconds}, hits={self.hits}, misses={self.misses})"
        )
