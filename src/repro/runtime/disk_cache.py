"""Persistent on-disk compile cache (warm starts across processes).

The in-memory LRU in :class:`~repro.pipeline.Pipeline` amortizes lowering
within one process; a serving deployment restarts processes all the time, so
this module persists compiled programs under a configurable directory.  Each
entry is one JSON file storing the generated source (the ``compiled``
backend's Python program, or the ``native`` backend's C translation unit)
plus the run-time metadata a restored
:class:`~repro.pipeline.CompiledPipeline` needs (output name, dims, dtype,
rounded shape, baked image shapes).  The native backend additionally stores
its built shared object as a content-addressed *blob* (``<digest>.so``)
beside the JSON entries, so a warm start ``dlopen``\\ s machine code directly
— zero lowerings *and* zero C-compiler invocations; a missing or evicted
blob degrades to recompiling the stored C source (still zero lowerings).

Design constraints, in order:

* **Only as right as its key**: an entry embeds its key string, which must
  match on load.  The key (:mod:`repro.core.program_key`) names what the
  program depends on, this payload's layout included (the compiler digest).
* **Never crash**: a truncated, corrupt, or unreadable file counts as a
  miss (tracked in :attr:`PersistentCache.errors`) and is recompiled over.
* **Concurrent-writer safe**: stores write to a temp file in the same
  directory and ``os.replace`` it into place — readers see either the old
  or the new complete entry, and the last writer wins.
* **Bounded**: the directory is capped at ``REPRO_CACHE_MAX_BYTES``
  (default 256 MiB; ``0`` disables the bound).  When a store pushes the
  total over the cap, the least-recently-used entries — by mtime, which
  loads refresh — are evicted until it fits.  A long-lived deployment that
  compiles many (schedule, sizes) variants therefore cannot fill the disk.

The default cache directory comes from the ``REPRO_CACHE_DIR`` environment
variable (unset ⇒ persistence disabled); tests and the serving demo pass an
explicit directory instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["PersistentCache", "CACHE_DIR_ENV_VAR", "CACHE_MAX_BYTES_ENV_VAR",
           "DEFAULT_MAX_BYTES", "default_cache_dir", "default_max_bytes"]

CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

#: Default size bound for the cache directory (256 MiB).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def default_cache_dir() -> Optional[str]:
    """The ``REPRO_CACHE_DIR`` directory, or None when persistence is off."""
    return os.environ.get(CACHE_DIR_ENV_VAR) or None


def default_max_bytes() -> int:
    """The size bound from ``REPRO_CACHE_MAX_BYTES`` (0 ⇒ unbounded).

    An unparsable value falls back to the default: misconfiguration must
    degrade to the safe bound, never to an unbounded cache or a crash.
    """
    raw = os.environ.get(CACHE_MAX_BYTES_ENV_VAR)
    if raw is None or not raw.strip():
        return DEFAULT_MAX_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_MAX_BYTES


class PersistentCache:
    """A directory of compiled-program entries keyed by exact key strings.

    ``key_str`` is the printable form of the Pipeline compile-cache key
    (:mod:`repro.core.program_key`) — anything that would change the
    generated program changes the string.  Filenames are a hash of the
    key; the key itself is stored in the entry and compared on load, so
    collisions cannot alias.
    """

    def __init__(self, directory, max_bytes: Optional[int] = None):
        self.directory = Path(directory)
        #: Total-size cap in bytes; 0 disables eviction.  Defaults to
        #: ``REPRO_CACHE_MAX_BYTES`` (itself defaulting to 256 MiB).
        self.max_bytes = default_max_bytes() if max_bytes is None else max(0, int(max_bytes))
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.stores = 0
        self.evictions = 0

    def _path(self, key_str: str) -> Path:
        digest = hashlib.sha256(key_str.encode("utf-8")).hexdigest()
        return self.directory / f"{digest[:32]}.json"

    def load(self, key_str: str) -> Optional[dict]:
        """The stored payload for ``key_str``, or None (miss or bad entry)."""
        path = self._path(key_str)
        try:
            data = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.errors += 1
            return None
        try:
            payload = json.loads(data)
            if payload.get("key") != key_str or not isinstance(payload.get("source"), str):
                raise ValueError("stale or foreign cache entry")
        except Exception:
            # Truncated write, corruption: recompile over it.
            self.errors += 1
            return None
        self.hits += 1
        # Refresh the entry's mtime so eviction is least-recently-*used*,
        # not least-recently-written (best effort; read-only dirs are fine).
        try:
            os.utime(path)
        except OSError:
            pass
        return payload

    def store(self, key_str: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key_str`` (best effort).

        A failure to persist (read-only directory, disk full) is swallowed:
        the cache accelerates restarts, it must never fail a compile.
        """
        path = self._path(key_str)
        record = dict(payload)
        record["key"] = key_str
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=path.stem, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(record, handle)
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self.stores += 1
        self._enforce_limit(keep=path)

    # -- binary blobs (native .so artifacts) ----------------------------
    def blob_path(self, digest: str) -> Path:
        """Where the blob for a content ``digest`` lives (may not exist)."""
        return self.directory / f"{digest}.so"

    def store_blob(self, digest: str, source_path: str) -> Optional[Path]:
        """Copy a built artifact into the cache under its content digest.

        Same guarantees as :meth:`store`: atomic (temp + ``os.replace``),
        best effort (failures return None — the cache accelerates restarts,
        it must never fail a compile), and counted against the size bound.
        Content addressing makes the copy idempotent: an existing blob with
        the same digest is already the right bytes.
        """
        path = self.blob_path(digest)
        if path.exists():
            return path
        temp_name = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=path.stem[:32], suffix=".tmp")
            os.close(fd)
            shutil.copyfile(source_path, temp_name)
            os.replace(temp_name, path)
        except OSError:
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
            return None
        self.stores += 1
        self._enforce_limit(keep=path)
        return path

    def _enforce_limit(self, keep: Optional[Path] = None) -> None:
        """Evict least-recently-used entries until the directory fits
        ``max_bytes``.  The just-stored entry (``keep``) is never evicted —
        a single entry larger than the bound must not thrash.  Best effort:
        any filesystem race (another process evicting the same file) is
        ignored."""
        if not self.max_bytes:
            return
        entries = []
        total = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not (name.endswith(".json") or name.endswith(".so")):
                continue
            path = self.directory / name
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort()  # oldest mtime first
        for _mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and path.name == keep.name:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PersistentCache({str(self.directory)!r}, hits={self.hits}, "
                f"misses={self.misses}, errors={self.errors}, "
                f"stores={self.stores}, evictions={self.evictions})")
