"""The multi-core runtime behind ``ForType.PARALLEL`` loops.

The compiled backend (:mod:`repro.codegen.source_backend`) lowers every
parallel loop to a call to :meth:`ParallelRuntime.parallel_for`, passing a
closure ``body(lo, hi)`` that executes the iterations ``[lo, hi)``; it reads
buffers and loop variables straight from the enclosing generated function.
:meth:`CompiledPipeline.realize_batch <repro.pipeline.CompiledPipeline.realize_batch>`
dispatches its batch items through the same call.  The runtime splits the
iteration space into contiguous chunks and submits them to a shared
:class:`~concurrent.futures.ThreadPoolExecutor` sized by ``Target.threads``.

Threads (rather than processes) suffice because of the paper's execution
model: bounds inference guarantees that the iterations of a parallel loop
write disjoint slices of the shared flat buffers, so workers never race on
data, and the heavy lifting inside each chunk is whole-array NumPy work that
releases the GIL.  The result is bit-identical for any thread count — each
element of every buffer is computed by exactly one iteration, with the same
arithmetic, regardless of how iterations are grouped into chunks.

Pools are shared process-wide, keyed by worker count, and created lazily;
``threads in (None, 1)`` (and nested parallel loops, which would deadlock a
bounded pool) run the chunk body inline on the calling thread.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["ParallelRuntime", "get_pool", "shutdown_pools"]

#: Chunks submitted per worker: >1 gives the pool slack to balance uneven
#: chunk costs (e.g. boundary tiles) without per-iteration submission overhead.
CHUNKS_PER_WORKER = 4

_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()

#: Set while the current thread is executing a parallel chunk; nested parallel
#: loops run serially instead of re-submitting to the (bounded) pool, which
#: could otherwise deadlock with every worker waiting on queued inner chunks.
_WORKER_STATE = threading.local()


def get_pool(threads: int) -> ThreadPoolExecutor:
    """The shared pool with ``threads`` workers (created on first use)."""
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"repro-par{threads}")
            _POOLS[threads] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down all shared pools (test isolation helper)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def chunk_bounds(mn: int, extent: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``[mn, mn+extent)`` into up to ``chunks`` contiguous ranges."""
    chunks = max(1, min(int(chunks), int(extent)))
    base, remainder = divmod(int(extent), chunks)
    bounds = []
    lo = int(mn)
    for i in range(chunks):
        hi = lo + base + (1 if i < remainder else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _run_chunk(body: Callable, lo: int, hi: int) -> None:
    _WORKER_STATE.active = True
    try:
        body(lo, hi)
    finally:
        _WORKER_STATE.active = False


class ParallelRuntime:
    """Executes parallel-for chunk bodies for one compiled pipeline run
    (or one batch of runs).

    ``threads`` comes from :attr:`repro.runtime.target.Target.threads`; the
    serial fallback (``None`` or ``1``) calls the chunk body inline, so the
    generated code needs no special casing and a single-threaded run has zero
    pool overhead.
    """

    __slots__ = ("threads",)

    def __init__(self, threads: Optional[int] = None):
        self.threads = int(threads) if threads is not None else None

    @staticmethod
    def alloc(buffers: dict, name: str, size: int, dtype) -> np.ndarray:
        """Allocate (or adopt) the flat storage for one Allocate node.

        Externally provided storage (the output buffer, pre-bound inputs)
        takes precedence, exactly as the interpreter's Allocate handling;
        otherwise a private zero-filled buffer is created.
        """
        buf = buffers.get(name)
        if buf is not None:
            return buf
        return np.zeros(max(int(size), 0), dtype=dtype)

    def parallel_for(self, body: Callable, mn: int, extent: int) -> None:
        """Run ``body(lo, hi)`` over ``[mn, mn+extent)``, possibly in chunks."""
        mn, extent = int(mn), int(extent)
        if extent <= 0:
            return
        threads = self.threads
        if (threads is None or threads <= 1 or extent == 1
                or getattr(_WORKER_STATE, "active", False)):
            body(mn, mn + extent)
            return
        pool = get_pool(threads)
        futures = [pool.submit(_run_chunk, body, lo, hi)
                   for lo, hi in chunk_bounds(mn, extent, threads * CHUNKS_PER_WORKER)]
        # Wait for every chunk; the first failure propagates to the caller
        # after the remaining chunks finish (they write disjoint regions, so
        # letting them drain is safe and keeps pool state consistent).
        first_error = None
        for future in futures:
            try:
                future.result()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelRuntime(threads={self.threads})"
