"""Persistent tuning database: best known schedule per (pipeline, sizes, target).

A tuning run is expensive — even with the static cost model it lowers dozens
of candidates, and wall-clock refinement executes the survivors.  This module
makes those results durable: a directory of JSON records (one file per key,
like :mod:`repro.runtime.disk_cache`) mapping

    pipeline fingerprint x output sizes x target key  ->  best schedule found

so later runs of the same search warm-start to the stored winner with zero
re-measurements, in any process with ``REPRO_TUNE_DB`` set.

The fingerprint (:func:`repro.core.program_key.pipeline_fingerprint`) is
stable across processes and runs, which makes cross-run reuse possible.  It
deliberately excludes bound input-image shapes: a schedule tuned for one
input resolution is the right default for another, and the output ``sizes``
(which dominate cost) are part of the key.

Writes are atomic (``mkstemp`` + ``os.replace``) and best-if-better: a record
only overwrites an existing one when its fitness kind matches and its fitness
is strictly better, so concurrent tuners can share one database without
clobbering each other's wins.  Corrupt or foreign files are counted and
ignored, never raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = [
    "TUNE_DB_ENV_VAR",
    "TuningRecord",
    "TuningDatabase",
    "default_tuning_db",
]

TUNE_DB_ENV_VAR = "REPRO_TUNE_DB"

#: Bump when the record layout changes; older records are treated as misses.
FORMAT_VERSION = 1


@dataclass
class TuningRecord:
    """One database entry: the best schedule known for a tuning key."""

    fingerprint: str
    sizes: List[int]
    target: str
    #: The winning schedule as a plain dict (``Schedule.to_dict()`` form).
    schedule: Dict
    #: Lower is better, within one ``fitness_kind``.
    fitness: float
    #: ``"static-cycles"`` or ``"wall-seconds"``.
    fitness_kind: str = "static-cycles"
    #: How many candidate evaluations produced this record.
    evaluations: int = 0
    note: str = ""

    def key(self) -> str:
        return _key_string(self.fingerprint, self.sizes, self.target)

    def to_schedule(self):
        from repro.core.pipeline_schedule import Schedule

        return Schedule.from_dict(self.schedule)


def _key_string(fingerprint: str, sizes: Sequence[int], target: str) -> str:
    return f"{fingerprint}|{'x'.join(str(int(s)) for s in sizes)}|{target}"


#: Fitness kinds ordered by trustworthiness: a measured record is never
#: displaced by a model estimate.  A kind not listed here (a record written
#: by an older version, such as its shipped per-app defaults) ranks below
#: both, so a tuned record of either kind replaces it.
_KIND_RANK = {"static-cycles": 1, "wall-seconds": 2}


class TuningDatabase:
    """A directory of JSON tuning records with atomic, best-if-better writes."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.stores = 0
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return os.path.join(self.directory, f"{digest}.json")

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def lookup(self, fingerprint: str, sizes: Sequence[int],
               target: str) -> Optional[TuningRecord]:
        """The stored best for a key, or None (counts a hit or a miss)."""
        key = _key_string(fingerprint, sizes, target)
        record = self._read(self._path(key), key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def _read(self, path: str, expected_key: Optional[str]) -> Optional[TuningRecord]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.errors += 1
            return None
        try:
            if payload.get("format") != FORMAT_VERSION:
                return None
            record = TuningRecord(
                fingerprint=str(payload["fingerprint"]),
                sizes=[int(s) for s in payload["sizes"]],
                target=str(payload["target"]),
                schedule=dict(payload["schedule"]),
                fitness=float(payload["fitness"]),
                fitness_kind=str(payload.get("fitness_kind", "static-cycles")),
                evaluations=int(payload.get("evaluations", 0)),
                note=str(payload.get("note", "")),
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            self.errors += 1
            return None
        # A hash collision or a file dropped in by hand must not masquerade
        # as a hit for a different pipeline.
        if expected_key is not None and record.key() != expected_key:
            self.errors += 1
            return None
        return record

    def records(self) -> Iterator[TuningRecord]:
        """All readable records (unordered); corrupt files are skipped."""
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            record = self._read(os.path.join(self.directory, name), None)
            if record is not None:
                yield record

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def record(self, record: TuningRecord, only_if_better: bool = True) -> bool:
        """Store ``record`` atomically; returns True if it was written.

        With ``only_if_better`` (the default) an existing entry survives
        unless the newcomer outranks it: a higher-trust ``fitness_kind``
        always wins, and within the same kind a strictly lower fitness wins.
        The read-compare-replace is not transactional, but the replace itself
        is atomic, so racing writers leave a valid record either way.
        """
        key = record.key()
        path = self._path(key)
        if only_if_better:
            existing = self._read(path, key)
            if existing is not None and not _outranks(record, existing):
                return False
        payload = {"format": FORMAT_VERSION, **asdict(record)}
        try:
            fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=1, sort_keys=True)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            self.errors += 1
            return False
        self.stores += 1
        return True

    def info(self) -> Dict[str, object]:
        return {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "stores": self.stores,
            "records": sum(1 for _ in self.records()),
        }


def _outranks(new: TuningRecord, old: TuningRecord) -> bool:
    new_rank = _KIND_RANK.get(new.fitness_kind, 0)
    old_rank = _KIND_RANK.get(old.fitness_kind, 0)
    if new_rank != old_rank:
        return new_rank > old_rank
    return new.fitness < old.fitness


def default_tuning_db() -> Optional[TuningDatabase]:
    """The database named by ``REPRO_TUNE_DB``, or None when unset/empty."""
    directory = os.environ.get(TUNE_DB_ENV_VAR, "").strip()
    if not directory:
        return None
    try:
        return TuningDatabase(directory)
    except OSError:
        return None
