"""The persistent compile cache (``repro.runtime.disk_cache``) and the
batched execution API (``CompiledPipeline.realize_batch``).

The cache's contract, in order of importance:

* **never wrong** — a warm start must produce bit-identical output, and any
  change to the algorithm (``definition_version``), schedule, sizes, target,
  or bound-image shapes must miss;
* **never crash** — truncated, garbage, or semantically-broken entries are
  recompiled over (counted in ``errors``), not raised to the user;
* **concurrent-writer safe** — simultaneous stores leave one complete,
  readable entry.

``realize_batch`` amortizes one compile over N inputs: the batch must be
bit-equal to N serial ``run()`` calls under every dispatch mode, an empty
batch is a no-op, and a shape-mismatched item fails at bind time (before
anything runs).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.lang import Buffer, Func, ImageParam, Var, clamp
from repro.pipeline import CompiledPipeline, DiskCacheInfo, Pipeline, _disk_key_string
from repro.runtime.disk_cache import PersistentCache
from repro.runtime.target import Target
from repro.core.pipeline_schedule import Schedule
from repro.types import Float


def _make_algorithm():
    """A two-stage pipeline over an ImageParam, rebuilt identically per call
    (same function names and definition versions), so separate builds produce
    the same cache key — the warm-start scenario within one process."""
    x, y = Var("x"), Var("y")
    img = ImageParam(Float(32), 2, name="serve_in")
    f, g = Func("serve_f"), Func("serve_g")
    f[x, y] = img[clamp(x, 0, 7), clamp(y, 0, 5)] * 2.0
    g[x, y] = f[x, y] + 1.0
    return g, img


def _input_image(seed=0, shape=(8, 6)):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.random(shape).astype(np.float32))


SIZES = [6, 5]
SCHEDULE = Schedule().func("serve_f").compute_root().schedule
#: serve_g's rows in parallel, each allocating and computing its serve_f row.
PARALLEL_SCHEDULE = (Schedule().func("serve_f").compute_at("serve_g", "y")
                     .func("serve_g").parallel("y").schedule)


def _compile(cache_dir, target="compiled", bind=True, schedule=SCHEDULE):
    output, img = _make_algorithm()
    if bind:
        img.set(Buffer(_input_image(), name="serve_in"))
    pipeline = Pipeline(output, disk_cache=cache_dir)
    compiled = pipeline.compile(SIZES, schedule=schedule, target=target)
    return pipeline, compiled, img


#: One process's compile against a cache directory: prints its disk-cache
#: counters and output bytes as JSON.
_RESTART_PROBE = """
import json, sys
from test_persistent_cache import _compile
pipeline, compiled, _ = _compile(sys.argv[1])
info = pipeline.disk_cache_info()._asdict()
info["output"] = compiled.run().tobytes().hex()
print(json.dumps(info))
"""


# ---------------------------------------------------------------------------
# cold / warm starts
# ---------------------------------------------------------------------------

class TestPersistence:
    def test_cold_start_misses_compiles_and_stores(self, tmp_path):
        pipeline, compiled, _ = _compile(tmp_path)
        assert pipeline.disk_cache_info() == DiskCacheInfo(
            hits=0, misses=1, errors=0, stores=1, lowerings=1)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        assert payload["key"] == _disk_key_string(compiled.key())
        assert "def _pipeline" in payload["source"]

    def test_warm_start_restores_without_relowering(self, tmp_path):
        # The parallel schedule's stored source holds its loop body as a
        # closure; the restored program runs it on four threads.
        for schedule, target in ((SCHEDULE, "compiled"),
                                 (PARALLEL_SCHEDULE, Target("compiled", threads=4))):
            _, first, _ = _compile(tmp_path, target=target, schedule=schedule)
            reference = first.run()
            # A fresh Pipeline over a fresh (identical) algorithm: the disk
            # entry must supply the program — zero lowerings, bit-identical
            # output.
            pipeline, compiled, _ = _compile(tmp_path, target=target, schedule=schedule)
            info = pipeline.disk_cache_info()
            assert info.hits == 1 and info.misses == 0
            assert info.lowerings == 0
            assert ("parallel_for" in compiled.source()) == (schedule is PARALLEL_SCHEDULE)
            assert compiled.run().tobytes() == reference.tobytes()

    def test_warm_start_across_processes(self, tmp_path):
        """A restarted process restores its program from the cache directory
        with zero lowerings: no part of the key is per-process state."""
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(here.parent / "src"), str(here)]))
        cold, warm = (json.loads(subprocess.run(
            [sys.executable, "-c", _RESTART_PROBE, str(tmp_path)],
            capture_output=True, text=True, env=env, check=True,
            timeout=300).stdout) for _ in range(2))
        assert cold["lowerings"] >= 1 and cold["stores"] >= 1, cold
        assert warm["lowerings"] == 0 and warm["hits"] >= 1, warm
        assert warm["output"] == cold["output"]

    def test_restored_pipeline_reruns_and_batches(self, tmp_path):
        _compile(tmp_path)
        _, compiled, _ = _compile(tmp_path)
        a, b = compiled.run(), compiled.run()
        assert a.tobytes() == b.tobytes()
        batch = compiled.realize_batch([None, None])
        assert all(item.tobytes() == a.tobytes() for item in batch)

    def test_interp_target_never_touches_disk(self, tmp_path):
        pipeline, _, _ = _compile(tmp_path, target="interp")
        info = pipeline.disk_cache_info()
        assert info.misses == 0 and info.stores == 0
        assert not list(tmp_path.glob("*.json"))

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        output, img = _make_algorithm()
        img.set(Buffer(_input_image(), name="serve_in"))
        pipeline = Pipeline(output)  # no explicit disk_cache: env var applies
        pipeline.compile(SIZES, schedule=SCHEDULE, target="compiled")
        assert pipeline.disk_cache_info().stores == 1
        assert list(tmp_path.glob("*.json"))

    def test_disk_cache_false_disables_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        output, img = _make_algorithm()
        img.set(Buffer(_input_image(), name="serve_in"))
        pipeline = Pipeline(output, disk_cache=False)
        pipeline.compile(SIZES, schedule=SCHEDULE, target="compiled")
        assert not list(tmp_path.glob("*.json"))


# ---------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_definition_version_bump_misses(self, tmp_path):
        output, img = _make_algorithm()
        img.set(Buffer(_input_image(), name="serve_in"))
        Pipeline(output, disk_cache=tmp_path).compile(
            SIZES, schedule=SCHEDULE, target="compiled")
        # Redefine a stage: the algorithm fingerprint embeds every function's
        # definition_version, so the stored entry must not be reused.
        x, y = Var("x"), Var("y")
        output[x, y] = output[x, y] + 100.0
        pipeline = Pipeline(output, disk_cache=tmp_path)
        compiled = pipeline.compile(SIZES, schedule=SCHEDULE, target="compiled")
        info = pipeline.disk_cache_info()
        assert info.hits == 0 and info.misses == 1 and info.lowerings == 1
        out = compiled.run()
        interp = Pipeline(output).compile(SIZES, schedule=SCHEDULE, target="interp").run()
        assert out.tobytes() == interp.tobytes()

    def test_schedule_and_sizes_key_separately(self, tmp_path):
        cache = PersistentCache(tmp_path)
        _compile(cache)
        output, img = _make_algorithm()
        img.set(Buffer(_input_image(), name="serve_in"))
        pipeline = Pipeline(output, disk_cache=cache)
        pipeline.compile([4, 4], schedule=SCHEDULE, target="compiled")
        other = Schedule().func("serve_g").parallel("y").schedule
        pipeline.compile(SIZES, schedule=other, target="compiled")
        assert cache.hits == 0 and cache.misses == 3
        assert len(list(tmp_path.glob("*.json"))) == 3


# ---------------------------------------------------------------------------
# corruption tolerance
# ---------------------------------------------------------------------------

class TestCorruption:
    def _entry_path(self, tmp_path):
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        return entries[0]

    def test_garbage_file_recompiles_and_heals(self, tmp_path):
        _, first, _ = _compile(tmp_path)
        reference = first.run()
        path = self._entry_path(tmp_path)
        path.write_text("{ not json", encoding="utf-8")
        pipeline, compiled, _ = _compile(tmp_path)
        info = pipeline.disk_cache_info()
        assert info.errors == 1 and info.lowerings == 1 and info.stores == 1
        assert compiled.run().tobytes() == reference.tobytes()
        # The recompile stored a fresh entry over the garbage: next start hits.
        pipeline, _, _ = _compile(tmp_path)
        assert pipeline.disk_cache_info().hits == 1

    def test_truncated_file_recompiles(self, tmp_path):
        _compile(tmp_path)
        path = self._entry_path(tmp_path)
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        pipeline, compiled, _ = _compile(tmp_path)
        assert pipeline.disk_cache_info().errors == 1
        assert compiled.run() is not None

    def test_valid_json_with_broken_source_recompiles(self, tmp_path):
        """A well-formed entry whose stored program no longer execs (format
        drift, manual tampering) degrades to a recompile, never a crash."""
        _compile(tmp_path)
        path = self._entry_path(tmp_path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["source"] = "x = 1\n"  # execs fine but defines no _pipeline
        path.write_text(json.dumps(payload), encoding="utf-8")
        pipeline, compiled, _ = _compile(tmp_path)
        info = pipeline.disk_cache_info()
        assert info.errors == 1 and info.lowerings == 1
        assert compiled.run() is not None

    def test_stale_format_version_is_a_miss_not_an_error(self, tmp_path):
        _compile(tmp_path)
        path = self._entry_path(tmp_path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format"] = -1
        path.write_text(json.dumps(payload), encoding="utf-8")
        cache = PersistentCache(tmp_path)
        key_str = payload["key"]
        assert cache.load(key_str) is None
        assert cache.errors == 1 and cache.hits == 0

    def test_foreign_key_in_entry_cannot_alias(self, tmp_path):
        """Filenames are hashes; the embedded key must match exactly, so a
        (hypothetical) collision degrades to a recompile."""
        cache = PersistentCache(tmp_path)
        cache.store("key-a", {"source": "def _pipeline(s, b, r): pass\n"})
        path = cache._path("key-a")
        path.rename(cache._path("key-b"))
        assert cache.load("key-b") is None

    def test_store_to_unwritable_directory_is_best_effort(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cache = PersistentCache(blocker / "sub")
        cache.store("k", {"source": "pass"})  # must not raise
        assert cache.stores == 0


# ---------------------------------------------------------------------------
# concurrent writers
# ---------------------------------------------------------------------------

class TestConcurrency:
    def test_two_concurrent_writers_leave_a_readable_entry(self, tmp_path):
        """Simultaneous cold starts race to store the same key; the atomic
        write-then-rename means the survivor is always a complete entry."""
        barrier = threading.Barrier(2)
        failures = []

        def compile_one():
            try:
                output, img = _make_algorithm()
                img.set(Buffer(_input_image(), name="serve_in"))
                pipeline = Pipeline(output, disk_cache=tmp_path)
                barrier.wait(timeout=30)
                pipeline.compile(SIZES, schedule=SCHEDULE, target="compiled")
            except Exception as error:  # pragma: no cover - failure detail
                failures.append(error)

        threads = [threading.Thread(target=compile_one) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert not list(tmp_path.glob("*.tmp"))  # temp files cleaned up
        pipeline, compiled, _ = _compile(tmp_path)
        assert pipeline.disk_cache_info() == DiskCacheInfo(
            hits=1, misses=0, errors=0, stores=0, lowerings=0)
        assert compiled.run() is not None

    def test_raw_store_race_single_key(self, tmp_path):
        cache = PersistentCache(tmp_path)
        payload = {"source": "def _pipeline(scope, buffers, rt):\n    pass\n"}
        barrier = threading.Barrier(4)

        def store_one():
            barrier.wait(timeout=30)
            PersistentCache(tmp_path).store("shared-key", payload)

        threads = [threading.Thread(target=store_one) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        loaded = cache.load("shared-key")
        assert loaded is not None and loaded["source"] == payload["source"]


# ---------------------------------------------------------------------------
# batched execution
# ---------------------------------------------------------------------------

def _batch_inputs(count):
    return [{"serve_in": _input_image(seed)} for seed in range(count)]


class TestRealizeBatch:
    @pytest.mark.parametrize("target", [
        Target("compiled"),
        Target("compiled", threads=2),
        Target("compiled", threads=4),
    ])
    def test_batch_bit_equals_serial_runs(self, target, tmp_path):
        _, compiled, _ = _compile(tmp_path, target=target)
        batch = _batch_inputs(5)
        serial = [compiled.run(inputs=item) for item in batch]
        batched = compiled.realize_batch(batch)
        assert len(batched) == 5
        for got, want in zip(batched, serial):
            assert got.tobytes() == want.tobytes()

    def test_batch_of_identical_inputs(self, tmp_path):
        _, compiled, _ = _compile(tmp_path, target=Target("compiled", threads=2))
        item = {"serve_in": _input_image(9)}
        want = compiled.run(inputs=item)
        batched = compiled.realize_batch([item] * 4)
        assert all(out.tobytes() == want.tobytes() for out in batched)

    def test_empty_batch(self, tmp_path):
        _, compiled, _ = _compile(tmp_path, target=Target("compiled", threads=2))
        assert compiled.realize_batch([]) == []

    def test_mixed_shapes_rejected_at_bind_time(self, tmp_path):
        _, compiled, _ = _compile(tmp_path)
        bad = {"serve_in": _input_image(shape=(16, 12))}
        with pytest.raises(ValueError, match="compiled for shape"):
            compiled.realize_batch([_batch_inputs(1)[0], bad])

    def test_batch_works_on_restored_pipeline(self, tmp_path):
        _compile(tmp_path)
        pipeline, compiled, _ = _compile(tmp_path)
        assert pipeline.disk_cache_info().lowerings == 0
        batch = _batch_inputs(3)
        serial = [compiled.run(inputs=item) for item in batch]
        for got, want in zip(compiled.realize_batch(batch), serial):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# size bound + LRU eviction (REPRO_CACHE_MAX_BYTES)
# ---------------------------------------------------------------------------

class TestEviction:
    def _store_entry(self, cache, key, kilobytes, mtime=None):
        cache.store(key, {"source": "x" * (kilobytes * 1024)})
        path = cache._path(key)
        if mtime is not None:
            os.utime(path, (mtime, mtime))
        return path

    def test_oldest_entries_evicted_on_store(self, tmp_path):
        cache = PersistentCache(tmp_path, max_bytes=8 * 1024)
        self._store_entry(cache, "old", 3, mtime=1_000)
        self._store_entry(cache, "mid", 3, mtime=2_000)
        # This store pushes the total over 8 KiB: "old" must go first.
        self._store_entry(cache, "new", 3)
        assert cache.evictions == 1
        assert cache.load("old") is None
        assert cache.load("mid") is not None
        assert cache.load("new") is not None

    def test_just_stored_entry_is_never_evicted(self, tmp_path):
        """One entry larger than the bound must not thrash: it stays."""
        cache = PersistentCache(tmp_path, max_bytes=1 * 1024)
        self._store_entry(cache, "huge", 4)
        assert cache.load("huge") is not None
        assert cache.evictions == 0

    def test_load_refreshes_recency(self, tmp_path):
        cache = PersistentCache(tmp_path, max_bytes=8 * 1024)
        self._store_entry(cache, "a", 3, mtime=1_000)
        self._store_entry(cache, "b", 3, mtime=2_000)
        assert cache.load("a") is not None   # touch "a": now newer than "b"
        self._store_entry(cache, "c", 3)
        assert cache.evictions == 1
        assert cache.load("a") is not None
        assert cache.load("b") is None

    def test_zero_disables_the_bound(self, tmp_path):
        cache = PersistentCache(tmp_path, max_bytes=0)
        for index in range(6):
            self._store_entry(cache, f"k{index}", 4)
        assert cache.evictions == 0
        assert len(list(tmp_path.glob("*.json"))) == 6

    def test_default_bound_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(8 * 1024))
        cache = PersistentCache(tmp_path)
        assert cache.max_bytes == 8 * 1024
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        from repro.runtime.disk_cache import DEFAULT_MAX_BYTES
        assert PersistentCache(tmp_path).max_bytes == DEFAULT_MAX_BYTES

    def test_evictions_surface_in_pipeline_info(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1")
        # Compile twice under different schedules: the second store must
        # evict the first entry (bound of 1 byte) and the counter shows it.
        output, img = _make_algorithm()
        img.set(Buffer(_input_image(), name="serve_in"))
        pipeline = Pipeline(output, disk_cache=tmp_path)
        pipeline.compile(SIZES, schedule=SCHEDULE, target="compiled")
        other = Schedule().func("serve_f").compute_inline().schedule
        pipeline.compile(SIZES, schedule=other, target="compiled")
        info = pipeline.disk_cache_info()
        assert info.evictions >= 1
        assert info.stores == 2
