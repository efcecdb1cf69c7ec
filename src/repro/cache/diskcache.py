"""Persistent on-disk cache for expensive compiled artifacts.

A :class:`DiskCache` is a directory of pickle files, one entry per
content-hash key, shared by every process that points at the same
root: the first run to compile a netlist publishes the lowering, and
every later process loads it instead of recompiling.

Design constraints, all load-bearing:

* **Versioned.**  Every entry embeds the namespace's schema version;
  an entry written by an older (or newer) code layout deserializes to
  a clean *miss*, never to a wrong-shaped object.
* **Content-hash keyed.**  Keys are caller-provided digests (e.g.
  :func:`repro.netlist.content_hash`); the cache never guesses at
  identity and a mutated source object simply misses.
* **Corruption-safe.**  Writes go to a temp file in the same
  directory followed by :func:`os.replace` (atomic on POSIX and
  Windows), so a concurrent reader sees either the old bytes or the
  new bytes, never a torn file.  Any load failure -- truncated pickle,
  wrong schema, wrong key echo -- deletes the entry and reports a
  miss.
* **Size-bounded.**  When the namespace directory exceeds
  ``max_bytes`` the least-recently-used entries (by access time;
  every hit refreshes it) are evicted until it fits.

Environment knobs (read once per :class:`DiskCache` construction):

``REPRO_CACHE_DIR``
    Root directory (default ``~/.cache/repro``).
``REPRO_DISK_CACHE``
    Set to ``0``/``off``/``false`` to disable the disk tier entirely
    (:func:`disk_cache_enabled`).
``REPRO_CACHE_MAX_BYTES``
    Per-namespace size bound (default 256 MiB).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Dict, List, Optional, Tuple

from ..obs import get_recorder

#: Default per-namespace size bound: 256 MiB.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_FALSY = {"0", "off", "false", "no", ""}


def disk_cache_enabled() -> bool:
    """Whether the disk tier is enabled (``REPRO_DISK_CACHE`` knob)."""
    return os.environ.get("REPRO_DISK_CACHE", "1").strip().lower() \
        not in _FALSY


def default_cache_root() -> str:
    """Cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def default_max_bytes() -> int:
    """Size bound: ``REPRO_CACHE_MAX_BYTES`` or 256 MiB."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_MAX_BYTES


class DiskCache:
    """One namespace of the on-disk artifact cache.

    Parameters
    ----------
    namespace:
        Subdirectory name; independent namespaces evict independently.
    schema_version:
        Bump whenever the pickled payload's layout changes; old
        entries then read as misses and are reclaimed by eviction.
    root:
        Cache root directory (default :func:`default_cache_root`).
    max_bytes:
        LRU size bound for this namespace (``0`` disables eviction).
    """

    def __init__(self, namespace: str, schema_version: int,
                 root: Optional[str] = None,
                 max_bytes: Optional[int] = None):
        self.namespace = namespace
        self.schema_version = schema_version
        self.root = root if root is not None else default_cache_root()
        self.directory = os.path.join(self.root, namespace)
        self.max_bytes = (max_bytes if max_bytes is not None
                          else default_max_bytes())
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        """Entry path for a key (keys must be filename-safe digests)."""
        if not key or os.sep in key or key.startswith("."):
            raise ValueError(f"unsafe cache key {key!r}")
        return os.path.join(self.directory, f"{key}.pkl")

    # ------------------------------------------------------------------
    def get(self, key: str):
        """The cached payload for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's access time (the LRU clock).  Any
        failure to read or validate the entry -- torn file, stale
        schema, key mismatch -- removes it and counts as a miss.
        """
        rec = get_recorder()
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
            if (not isinstance(entry, dict)
                    or entry.get("schema") != self.schema_version
                    or entry.get("key") != key):
                raise ValueError("stale or foreign cache entry")
            payload = entry["payload"]
        except FileNotFoundError:
            self.misses += 1
            rec.incr("cache.misses")
            return None
        except Exception as exc:
            # Corrupt, truncated, or written by an incompatible
            # version: reclaim the slot and treat as a miss.
            self._remove(path)
            self.misses += 1
            rec.incr("cache.misses")
            rec.warning("cache.corrupt_entry",
                        counter="cache.corrupt_entries",
                        namespace=self.namespace, key=key,
                        exc_type=type(exc).__name__, detail=str(exc))
            return None
        try:
            os.utime(path)
        except OSError as exc:
            # Non-fatal (a read-only cache just loses LRU accuracy),
            # but counted: a persistently failing utime means eviction
            # is flying blind.
            rec.warning("cache.utime_failed",
                        namespace=self.namespace, key=key,
                        exc_type=type(exc).__name__, detail=str(exc))
        self.hits += 1
        rec.incr("cache.hits")
        return payload

    def put(self, key: str, payload) -> bool:
        """Store ``payload`` under ``key``; returns False on IO failure.

        The write is atomic (temp file + :func:`os.replace`), so
        concurrent writers of the same key race benignly: one of the
        identical entries wins.  A full disk or unwritable root never
        raises -- the cache is an accelerator, not a dependency.
        """
        rec = get_recorder()
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".pkl"
            )
        except OSError as exc:
            rec.warning("cache.put_failed", namespace=self.namespace,
                        key=key, stage="create",
                        exc_type=type(exc).__name__, detail=str(exc))
            return False
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(
                    {"schema": self.schema_version, "key": key,
                     "payload": payload},
                    handle, protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp_path, self.path_for(key))
        except Exception as exc:
            self._remove(tmp_path)
            rec.warning("cache.put_failed", namespace=self.namespace,
                        key=key, stage="write",
                        exc_type=type(exc).__name__, detail=str(exc))
            return False
        rec.incr("cache.puts")
        self._evict_over_budget()
        return True

    def remove(self, key: str) -> bool:
        """Delete one entry (used by callers that find a *structurally*
        valid entry whose payload fails their own deserialization --
        e.g. a foreign netlist dict -- so the slot is reclaimed instead
        of being re-read and re-discarded forever)."""
        return self._remove(self.path_for(key))

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every entry in this namespace; returns the count."""
        removed = 0
        for name, path in self._entries():
            if self._remove(path):
                removed += 1
        return removed

    def info(self) -> Dict[str, int]:
        """Stats: entries/bytes on disk plus this instance's counters."""
        entries = 0
        total = 0
        for _, path in self._entries():
            try:
                total += os.stat(path).st_size
            except OSError:
                continue
            entries += 1
        return {
            "entries": entries,
            "bytes": total,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[str, str]]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [
            (name, os.path.join(self.directory, name))
            for name in sorted(names)
            if name.endswith(".pkl") and not name.startswith(".")
        ]

    @staticmethod
    def _remove(path: str) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used entries until under ``max_bytes``."""
        if not self.max_bytes:
            return
        stats = []
        total = 0
        for name, path in self._entries():
            try:
                st = os.stat(path)
            except OSError:
                continue
            stats.append((st.st_atime, st.st_mtime, path, st.st_size))
            total += st.st_size
        if total <= self.max_bytes:
            return
        # Oldest access first; mtime breaks ties deterministically.
        # A concurrent reader (or another evictor) may have removed an
        # entry between the stat and the remove: _remove returning
        # False is the benign race outcome, counted but never raised.
        rec = get_recorder()
        for _, _, path, size in sorted(stats):
            if total <= self.max_bytes:
                break
            if self._remove(path):
                total -= size
                self.evictions += 1
                rec.incr("cache.evictions")
            else:
                rec.incr("cache.eviction_races")
