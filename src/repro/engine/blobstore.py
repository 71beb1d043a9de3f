"""One blob store: a directory of ``<key><suffix>`` files per namespace.

Engine results, the service's result mirror and job traces all live in
a :class:`BlobStore` namespace, under one policy modelled on Git's
loose-object store (DESIGN.md §5):

- **write**: a unique temp file, stamped with the store's clock, then
  ``os.replace``.  A failed write logs one WARNING and returns ``None``;
  it never fails the run or job whose output it was keeping.
- **read**: a file that is not there is a plain miss.  Bytes the codec
  refuses are moved to ``<key>.corrupt`` with one WARNING, so the next
  lookup is a plain miss instead of another parse of the same file.
- **prune**: by age, then oldest first down to a byte budget.

Each operation emits an ``<events>.<event>`` telemetry event and counts
into ``repro_store_ops_total{namespace,op,result}``.
"""

from __future__ import annotations

import contextlib
import logging
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs import emit
from repro.obs import metrics as _metrics

__all__ = ["NAMESPACES", "BlobStore", "namespace_root"]

_log = logging.getLogger(__name__)

#: ``op="read"`` results are ``hit``/``miss``/``corrupt``, ``op="write"``
#: ``ok``/``error`` and ``op="evict"`` the policy ``ttl``/``max_bytes``/``clear``.
_OPS = _metrics.counter(
    "repro_store_ops_total",
    "Blob-store operations by namespace, op and result",
    ("namespace", "op", "result"),
)

#: Each namespace's directory under a cache dir, and its file suffix.
#: Engine entries stay at the top level and result mirrors in
#: ``results/``, so caches written before the blob store stay addressable.
NAMESPACES = {
    "engine": ("", ".npz"),
    "results": ("results", ".json"),
    "traces": ("traces", ".json"),
}


def namespace_root(cache_dir: "str | Path", namespace: str) -> Path:
    """The directory ``namespace`` lives in under ``cache_dir``."""
    return Path(cache_dir) / NAMESPACES[namespace][0]


class BlobStore:
    """One namespace (a key of :data:`NAMESPACES`) rooted at ``root``,
    created on the first write.  ``events`` is the telemetry event
    prefix (default: the namespace); ``clock`` dates entries (default
    :func:`time.time`)."""

    def __init__(self, root, namespace: str, *, events=None, clock=None):
        self.root = Path(root)
        self.namespace = namespace
        self.suffix = NAMESPACES[namespace][1]
        self.events = events or namespace
        self._clock = clock or time.time

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def _record(self, op, result, event, level=logging.DEBUG, **fields) -> None:
        _OPS.labels(namespace=self.namespace, op=op, result=result).inc()
        emit(f"{self.events}.{event}", logger=_log, level=level, **fields)

    # ------------------------------------------------------------------
    def read(self, key: str, decode: Callable[[bytes], Any], *, ttl_seconds=None):
        """``(decode(data), mtime)`` for ``key``, or ``None`` on a miss.

        An entry older than ``ttl_seconds`` is evicted and read as a
        miss.  Any exception ``decode`` raises marks the entry corrupt.
        """
        path = self.path_for(key)
        data = None
        with contextlib.suppress(OSError):
            stat = path.stat()
            if ttl_seconds is not None and self._clock() - stat.st_mtime > ttl_seconds:
                self._evict(path, stat.st_size, reason="ttl")
            else:
                with open(path, "rb") as handle:
                    data = handle.read()
        if data is None:
            self._record("read", "miss", "miss", key=key)
            return None
        try:
            value = decode(data)
        except Exception as exc:
            quarantined = path.with_suffix(".corrupt")
            with contextlib.suppress(OSError):  # else another reader moved it
                os.replace(path, quarantined)
            self._record("read", "corrupt", "corrupt", logging.WARNING, key=key,
                         path=str(path), quarantined=str(quarantined), error=repr(exc))
            return None
        self._record("read", "hit", "hit", key=key)
        return value, stat.st_mtime

    def write(self, key: str, data: bytes) -> "Path | None":
        """Atomically store ``data`` under ``key``; the entry's path, or
        ``None`` when the write failed (logged, never raised)."""
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{key[:16]}-", dir=self.root)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                now = self._clock()
                os.utime(tmp, (now, now))
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            self._record("write", "error", "error", logging.WARNING, key=key,
                         path=str(path), error=repr(exc))
            return None
        self._record("write", "ok", "store", key=key, bytes=len(data))
        return path

    # ------------------------------------------------------------------
    def _entries(self) -> "list[tuple[Path, float, int]]":
        """Every entry as ``(path, mtime, size)``, oldest first.  An
        entry removed mid-scan is skipped; a missing root is empty."""
        entries = []
        for path in self.root.glob(f"*{self.suffix}"):
            with contextlib.suppress(OSError):
                stat = path.stat()
                entries.append((path, stat.st_mtime, stat.st_size))
        return sorted(entries, key=lambda entry: entry[1])

    def _evict(self, path: Path, size: int, *, reason: str) -> int:
        try:
            path.unlink()
        except OSError:  # a concurrent pruner got there first
            return 0
        self._record("evict", reason, "evict", key=path.stem, bytes=size, reason=reason)
        return 1

    def prune(self, ttl_seconds=None, max_bytes=None) -> int:
        """Evict entries older than ``ttl_seconds``, then the oldest
        survivors until the rest fit ``max_bytes``; returns the number
        removed.  Neither bound is a no-op."""
        entries = self._entries()
        removed = 0
        if ttl_seconds is not None:
            cutoff = self._clock() - ttl_seconds
            stale = [entry for entry in entries if entry[1] < cutoff]
            removed += sum(self._evict(p, size, reason="ttl") for p, _, size in stale)
            entries = entries[len(stale):]  # oldest first
        if max_bytes is not None:
            total = sum(size for _, _, size in entries)
            for path, _, size in entries:
                if total <= max_bytes:
                    break
                removed += self._evict(path, size, reason="max_bytes")
                total -= size
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        entries = self._entries()
        return sum(self._evict(p, size, reason="clear") for p, _, size in entries)

    def stats(self) -> dict:
        """Entry count, total bytes and the oldest entry's mtime (epoch
        seconds; ``None`` when empty)."""
        entries = self._entries()
        return {
            "entries": len(entries),
            "total_bytes": sum(size for _, _, size in entries),
            "oldest_mtime": entries[0][1] if entries else None,
        }

    def __len__(self) -> int:
        return len(self._entries())
