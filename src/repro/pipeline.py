"""The user-facing pipeline driver: compile once, run many.

A :class:`Pipeline` ties together an output :class:`~repro.lang.Func`, the
compiler, and a backend.  The primary entry point is :meth:`Pipeline.compile`:

    pipeline = Pipeline(blur_y)
    compiled = pipeline.compile(sizes=[1024, 768], schedule=s, target="numpy")
    image = compiled.run()      # repeat without re-lowering

``schedule`` is a first-class :class:`~repro.core.Schedule` value applied
*non-destructively* — the algorithm's Funcs are never mutated, so one graph
can be realized under many schedules concurrently; without one, the
schedules set directly on the Funcs are used.  ``target`` is a
:class:`~repro.runtime.Target` (a backend name string is coerced).

Compiled pipelines are cached per Pipeline in a bounded LRU keyed by
(schedule digest, sizes, target, lowering options, algorithm): repeated
:meth:`Pipeline.compile` calls — tests, benchmarks, autotuner generations —
hit the cache and skip lowering entirely.  :meth:`Pipeline.cache_info`
exposes the hit/miss counters; every backend must produce bit-identical
output for the same pipeline and schedule.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict, namedtuple
from dataclasses import astuple, replace as _dc_replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.call_graph import build_environment
from repro.compiler.lower import LoweredPipeline, LoweringOptions, lower
from repro.core.function import Function
from repro.core.pipeline_schedule import Schedule, as_schedule
from repro.core.program_key import algorithm_key, disk_key_string
from repro.ir import expr as E
from repro.ir.visitor import IRVisitor
from repro.runtime.backend import create_executor
from repro.runtime.counters import ExecutionListener
from repro.runtime.target import Target
from repro.types import Type

__all__ = ["Pipeline", "CompiledPipeline", "CacheInfo", "DiskCacheInfo"]

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])

#: Counters for the persistent (on-disk) compile cache plus the number of
#: lowerings this Pipeline has performed — a warm start that restores every
#: program from disk shows ``lowerings == 0``.
DiskCacheInfo = namedtuple(
    "DiskCacheInfo",
    ["hits", "misses", "errors", "stores", "lowerings", "evictions"],
    defaults=(0,))


class _RestoredLowering:
    """Stand-in for a :class:`LoweredPipeline` rebuilt from the persistent
    cache: the program is restored from stored source text (or a cached
    shared object), so no IR exists.  Only the ``compiled`` and ``native``
    backends run against it, and :class:`CompiledPipeline` reads its
    run-time metadata from the cache payload rather than from here."""

    def __init__(self, program=None, native_program=None):
        self._compiled_program = program
        if native_program is not None:
            self._native_program = native_program
        self.output = None
        self.stmt = None
        self.image_layouts: Dict[str, object] = {}


class _ImageCollector(IRVisitor):
    def __init__(self):
        self.images: Dict[str, object] = {}

    def visit_Call(self, node: E.Call):
        if node.call_type == E.CallType.IMAGE and node.target is not None:
            self.images.setdefault(node.name, node.target)
        for a in node.args:
            self.visit(a)


class _ParamCollector(IRVisitor):
    """The free scalar variables of one Function's definitions: every
    Variable that is not a pure argument, a reduction variable or a
    let-bound name.  Those are the algorithm's Params."""

    def __init__(self, bound):
        self.bound = set(bound)
        self.params: Dict[str, Type] = {}

    def visit_Variable(self, node: E.Variable):
        if node.name not in self.bound:
            self.params.setdefault(node.name, node.type)

    def visit_Let(self, node: E.Let):
        self.visit(node.value)
        self.bound.add(node.name)
        self.visit(node.body)


def _collect_params(env: Dict[str, Function]) -> Dict[str, Type]:
    """Name -> type of every Param the algorithm reads."""
    params: Dict[str, Type] = {}
    for func in env.values():
        bound = list(func.args) if func.definition is not None else []
        rdom_bounds = []
        for update in func.updates:
            if update.rdom is not None:
                for rvar in update.rdom:
                    bound.append(rvar.name)
                    rdom_bounds += [rvar.min, rvar.extent]
        collector = _ParamCollector(bound)
        for value in list(func.all_values()) + rdom_bounds:
            collector.visit(value)
        for name, type_ in collector.params.items():
            params.setdefault(name, type_)
    return params


def _check_param(name: str, type_: Type, value):
    """``value`` as the Python scalar every backend binds for a Param of
    ``type_``; a TypeError if it is not exactly representable in an
    integer type, a ValueError if it is out of the type's range."""
    if type_.is_float():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"param {name!r} is {type_!r}; "
                            f"got {value!r}, which is not a real number")
        value = float(value)
    elif isinstance(value, numbers.Integral):
        value = int(value)
    elif isinstance(value, numbers.Real) and float(value).is_integer():
        value = int(value)
    else:
        raise TypeError(f"param {name!r} is {type_!r}; {value!r} "
                        "is not exactly representable in it")
    non_finite = type_.is_float() and not math.isfinite(value)  # inf/nan fit any float
    if not non_finite and not type_.min_value() <= value <= type_.max_value():
        raise ValueError(f"param {name!r} is {type_!r}; {value!r} "
                         f"is outside [{type_.min_value()}, {type_.max_value()}]")
    return bool(value) if type_.is_bool() else value


class CompiledPipeline:
    """A reusable compiled realization of one pipeline.

    Holds the lowered program for a fixed (schedule, sizes, target, options)
    key; :meth:`run` executes the program against fresh buffers.  Obtained
    from :meth:`Pipeline.compile`; safe to run repeatedly and to hold on to
    — it never observes later mutations of the algorithm's Funcs.
    """

    def __init__(self, pipeline: "Pipeline", lowered: LoweredPipeline,
                 sizes: Sequence[int], schedule: Schedule, target: Target,
                 options: Optional[LoweringOptions], *,
                 images: Dict[str, object],
                 env: Optional[Dict[str, Function]] = None,
                 cache_key=None, meta: Optional[Dict[str, object]] = None):
        self.pipeline = pipeline
        self.lowered = lowered
        self.sizes = [int(s) for s in sizes]
        #: The Schedule this program was lowered under (captured, immutable).
        self.schedule = schedule
        self.target = target
        self.options = options
        self._cache_key = cache_key
        #: The input-image map (name -> Buffer/ImageParam) snapshotted at
        #: compile time, so redefining a stage afterwards cannot change which
        #: images this program binds.  The *data* is read at run time
        #: (in-place pixel updates are visible); a shape change is caught by
        #: the bind-time validation below, and fresh compile() calls
        #: recompile automatically because image shapes key the cache.
        self._images = dict(images)
        #: Declared (dtype, rank) of each image, checked at every bind.
        self._image_types = {
            name: (image.type.to_numpy_dtype(), image.dimensions())
            for name, image in self._images.items()}
        # Execution metadata is captured once here (rather than read off the
        # lowered IR at run time) so a program restored from the persistent
        # cache — which has source text but no IR — runs identically.  A
        # fresh compilation reads it off the IR and the algorithm graph
        # ``env``; a restore reads it from the cache payload.
        if meta is None:
            from repro.ir.op import const_value

            output = lowered.output
            if len(self.sizes) != output.dimensions():
                raise ValueError(
                    f"output {output.name!r} has {output.dimensions()} dimensions, "
                    f"compile() was given {len(self.sizes)} sizes"
                )
            #: Declared type of each Param, checked at every bind of ``params=``.
            self._param_types = _collect_params(env)
            self._output_name = output.name
            self._dim_names = [str(dim) for dim in output.args]
            self._out_dtype = np.dtype(output.output_type.to_numpy_dtype())
            self._rounded_shape = [
                int(output.schedule.rounded_extent(dim, size))
                for dim, size in zip(output.args, self.sizes)]
            self._baked_shapes: Dict[str, Optional[tuple]] = {}
            for name, layout in lowered.image_layouts.items():
                baked = [const_value(extent) for extent in layout.extents]
                self._baked_shapes[name] = (
                    tuple(int(b) for b in baked)
                    if all(b is not None for b in baked) else None)
        else:
            self._param_types = {name: Type(code, int(bits))
                                 for name, (code, bits) in dict(meta["params"]).items()}
            self._output_name = str(meta["output_name"])
            self._dim_names = [str(d) for d in meta["dim_names"]]
            self._out_dtype = np.dtype(str(meta["out_dtype"]))
            self._rounded_shape = [int(v) for v in meta["rounded_shape"]]
            self._baked_shapes = {
                name: (tuple(int(v) for v in shape) if shape is not None else None)
                for name, shape in dict(meta["baked_shapes"]).items()}

    @property
    def output_function(self) -> Function:
        return self.lowered.output

    def key(self):
        """The compilation-cache key this entry is stored under."""
        return self._cache_key

    def source(self) -> str:
        """The Python source the ``compiled`` backend generates for this
        pipeline (cached per lowering; generated on first request).

        Useful for debugging schedules: the emitted loops, whole-array NumPy
        regions, and ``parallel_for`` chunk bodies mirror the lowered
        statement one-to-one.  Any target can ask for the source — only the
        ``compiled`` backend executes it.
        """
        from repro.codegen.source_backend import generate_source

        return generate_source(self.lowered)

    def c_source(self) -> str:
        """The C translation unit the ``native`` backend emits for this
        pipeline (cached once built; pure codegen otherwise — no toolchain
        needed, so the C is inspectable on machines without a compiler).
        """
        program = getattr(self.lowered, "_native_program", None)
        if program is not None:
            return program.source
        from repro.codegen.c_backend import generate_c_source

        return generate_c_source(self.lowered)[0]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, params: Optional[Dict[str, object]] = None,
            inputs: Optional[Dict[str, np.ndarray]] = None,
            listeners: Iterable[ExecutionListener] = ()) -> np.ndarray:
        """Execute the compiled program, returning the output array.

        ``params`` binds scalar Params by name; ``inputs`` binds input images
        by name (concrete :class:`~repro.lang.Buffer` inputs are bound
        automatically).  ``listeners`` observe execution events — pass a
        :class:`~repro.runtime.Counters` for operation and memory counters.
        Only ``interp`` and ``numpy`` drive listeners; the ``compiled`` and
        ``native`` backends warn and report nothing.
        """
        listeners = tuple(listeners)
        executor = create_executor(self.lowered, listeners=listeners,
                                   target=self.target)
        if listeners and not getattr(executor, "drives_listeners", True):
            import warnings

            warnings.warn(
                f"backend {self.target.backend!r} does not drive instrumentation "
                "listeners; the listeners passed to run() will observe nothing "
                "(use the 'interp' backend for exact events)",
                RuntimeWarning, stacklevel=2)
        flat_output = self._bind_all(executor, params, inputs)
        executor.run()
        return self._finalize(flat_output)

    def realize_batch(self, batch: Sequence[Optional[Dict[str, np.ndarray]]],
                      params: Optional[Dict[str, object]] = None) -> List[np.ndarray]:
        """Run the compiled program over a batch of inputs (one compile, N runs).

        ``batch`` holds one ``inputs`` dict per item (``None`` for pipelines
        whose images are all pre-bound Buffers).  Batch items are dispatched
        across a thread pool of ``Target.threads`` workers, with *loop-level*
        parallelism disabled inside each item: batch-level parallelism
        composes with, and outranks, loop-level.  Output is bit-identical to
        N sequential :meth:`run` calls; an input whose shape mismatches the
        compiled layout is rejected at bind time, before anything runs.
        """
        items = list(batch)
        if not items:
            return []
        # Bind every item first (shape errors surface before any dispatch),
        # against a serial inner target.
        inner_target = _dc_replace(self.target, threads=None)
        prepared = []
        for inputs in items:
            executor = create_executor(self.lowered, listeners=(),
                                       target=inner_target)
            prepared.append((executor, self._bind_all(executor, params, inputs)))

        from repro.codegen.parallel_runtime import ParallelRuntime

        def run_items(lo: int, hi: int) -> None:
            for executor, _ in prepared[lo:hi]:
                executor.run()

        ParallelRuntime(self.target.threads).parallel_for(run_items, 0, len(prepared))
        return [self._finalize(flat) for _, flat in prepared]

    def realize_stream(self, frames, **kwargs):
        """Stream a frame sequence through this compiled pipeline.

        Yields one output frame per input frame with peak intermediate
        memory bounded by the compiled chunk + temporal window, not the
        stream length.  See :func:`repro.streaming.realize_stream` (this is
        a thin delegate) and ``docs/streaming.md`` for the input-layout
        convention, temporal scheduling, and the pipelining knobs.
        """
        from repro.streaming import realize_stream

        return realize_stream(self, frames, **kwargs)

    # -- run plumbing ---------------------------------------------------
    def _bind_all(self, executor, params: Optional[Dict[str, object]],
                  inputs: Optional[Dict[str, np.ndarray]]) -> np.ndarray:
        """Bind bounds, params, and images; returns the flat output buffer."""
        for dim, size in zip(self._dim_names, self.sizes):
            executor.bind(f"{self._output_name}.{dim}.min", 0)
            executor.bind(f"{self._output_name}.{dim}.extent", size)
            executor.bind(f"{self._output_name}.{dim}.max", size - 1)

        if params:
            for name, value in params.items():
                type_ = self._param_types.get(name)
                if type_ is None:
                    raise ValueError(
                        f"unknown param {name!r}; this pipeline declares "
                        f"{sorted(self._param_types) or 'no params'}")
                executor.bind(name, _check_param(name, type_, value))

        # Bind input images: concrete buffers referenced by the algorithm
        # (map snapshotted at compile time), plus any explicitly supplied
        # arrays (for ImageParams).
        for name, image_target in self._images.items():
            if inputs is not None and name in inputs:
                self._bind_image(executor, name, inputs[name])
            else:
                array = _image_array(image_target)
                if array is not None:
                    self._bind_image(executor, name, array)
        for name, array in (inputs or {}).items():
            if name not in executor.buffers:
                self._bind_image(executor, name, array)

        # Pre-allocate the output buffer so it survives the Allocate scope.
        flat_output = np.zeros(
            int(np.prod(self._rounded_shape)) if self._rounded_shape else 1,
            dtype=self._out_dtype)
        executor.provide_buffer(self._output_name, flat_output)
        return flat_output

    def _finalize(self, flat_output: np.ndarray) -> np.ndarray:
        """The output in the kernel's own x-fastest layout (F-contiguous):
        the output buffer itself, or — when the schedule rounded the
        allocation up — a compacted copy of its ``sizes`` window."""
        result = flat_output.reshape(self._rounded_shape, order="F")
        if self._rounded_shape == self.sizes:
            return result
        window = tuple(slice(0, s) for s in self.sizes)
        return result[window].copy(order="F")

    def _bind_image(self, executor, name: str, array) -> None:
        """Bind one input image, checking it still matches the compiled program.

        Lowering bakes bound images' element types and shapes into the
        program; running it over an array of another dtype, rank or shape
        would silently reinterpret or misread memory, so mismatches fail
        loudly here, on every backend.
        """
        array = np.asarray(array)
        dtype, rank = declared = self._image_types.get(
            name, (array.dtype, array.ndim))  # unknown names: nothing declared
        if (array.dtype, array.ndim) != declared:
            raise TypeError(
                f"input image {name!r} must be a {rank}-dimensional {dtype} "
                f"array, got {array.ndim} dimensions of {array.dtype}; convert "
                f"it first (e.g. array.astype(np.{dtype}))")
        baked = self._baked_shapes.get(name)
        if baked is not None and baked != array.shape:
            raise ValueError(
                f"input image {name!r} has shape {array.shape}, but this "
                f"CompiledPipeline was compiled for shape {baked}; "
                "recompile (Pipeline.compile re-keys the cache on image shapes "
                "automatically)"
            )
        executor.bind_input(name, array)

    # -- persistence ----------------------------------------------------
    def _disk_payload(self) -> Dict[str, object]:
        """The JSON-serializable record the persistent cache stores.

        The ``source`` key always holds the program's source text (Python
        for the ``compiled`` backend, C for ``native``) — the cache's
        validity check requires it, and a native entry whose ``.so`` blob
        was evicted rebuilds from this source without re-lowering.
        """
        payload: Dict[str, object] = {
            "output_name": self._output_name,
            "dim_names": list(self._dim_names),
            "out_dtype": str(self._out_dtype),
            "rounded_shape": [int(v) for v in self._rounded_shape],
            "sizes": list(self.sizes),
            "baked_shapes": {
                name: (list(shape) if shape is not None else None)
                for name, shape in self._baked_shapes.items()},
            "params": {name: [type_.code, type_.bits]
                       for name, type_ in self._param_types.items()},
        }
        if self.target.backend == "native":
            from repro.codegen.c_backend import compile_lowered_native

            program = compile_lowered_native(self.lowered)
            payload["kind"] = "native"
            payload["source"] = program.source
            payload["native_meta"] = program.metadata()
            payload["native_digest"] = program.digest
        else:
            from repro.codegen.source_backend import compile_lowered

            payload["source"] = compile_lowered(self.lowered).source
        return payload

    @classmethod
    def _restore(cls, pipeline: "Pipeline", payload: Dict[str, object],
                 sizes: Sequence[int], schedule: Schedule, target: Target,
                 options: Optional[LoweringOptions], *,
                 images: Dict[str, object],
                 cache_key=None, blob_path=None) -> "CompiledPipeline":
        """Rebuild a CompiledPipeline from a persistent-cache payload.

        Compiled entries re-``exec`` the stored Python source; native
        entries ``dlopen`` the cached ``.so`` blob when ``blob_path`` exists
        (zero compiler invocations) and rebuild from the stored C source
        otherwise.  No lowering happens on either path.
        """
        if payload.get("kind") == "native":
            from repro.codegen.c_backend import restore_native_program

            native = restore_native_program(
                payload, str(blob_path) if blob_path is not None else None)
            lowered = _RestoredLowering(native_program=native)
        else:
            from repro.codegen.source_backend import make_program

            lowered = _RestoredLowering(make_program(
                str(payload["source"]),
                f"<repro.restored:{payload['output_name']}>"))
        return cls(pipeline, lowered, sizes, schedule, target, options,
                   images=images, cache_key=cache_key, meta=payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CompiledPipeline({self.lowered.output.name!r}, sizes={self.sizes}, "
                f"target={self.target}, schedule={self.schedule.digest()})")


def _image_array(image_target) -> Optional[np.ndarray]:
    """The ndarray currently bound to a Buffer / ImageParam (None if unbound)."""
    if hasattr(image_target, "array"):
        return image_target.array
    if hasattr(image_target, "is_bound"):
        return image_target.get().array if image_target.is_bound() else None
    if hasattr(image_target, "get"):
        return image_target.get().array
    return None


def _images_key(images: Dict[str, object]):
    """Fingerprint of the bound input images.  Lowering bakes each bound
    image's shape into constant strides, so rebinding a differently-shaped
    image must miss the cache and recompile."""
    key = []
    for name in sorted(images):
        array = _image_array(images[name])
        key.append((name, None) if array is None
                   else (name, tuple(array.shape), str(array.dtype)))
    return tuple(key)


def _cache_key(schedule: Schedule, sizes: Optional[Sequence[int]],
               target: Target, options: Optional[LoweringOptions],
               env: Dict[str, Function], images: Dict[str, object]):
    sizes_key = tuple(int(s) for s in sizes) if sizes is not None else None
    options_key = astuple(options) if options is not None else None
    return (schedule.digest(), sizes_key, target.key(), options_key,
            algorithm_key(env), _images_key(images))


class Pipeline:
    """A compile-once / run-many image processing pipeline rooted at one Func."""

    #: Default bound on cached compilations per Pipeline (LRU eviction).
    DEFAULT_CACHE_SIZE = 64

    def __init__(self, output, cache_size: Optional[int] = None,
                 disk_cache=None):
        # Accept either a lang.Func or a core Function.
        self.output_function: Function = getattr(output, "function", output)
        self._cache_maxsize = int(cache_size if cache_size is not None
                                  else self.DEFAULT_CACHE_SIZE)
        self._compile_cache: "OrderedDict[tuple, CompiledPipeline]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        #: Persistent compile cache: a PersistentCache, a directory path,
        #: False (disabled, ignoring REPRO_CACHE_DIR), or None (use
        #: REPRO_CACHE_DIR when set).
        self._disk_cache_param = disk_cache
        self._env_disk_cache = None
        self._lowerings = 0

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self, sizes: Optional[Sequence[int]] = None,
                schedule=None, target=None,
                options: Optional[LoweringOptions] = None) -> CompiledPipeline:
        """Compile the pipeline under a schedule and target, with caching.

        ``schedule`` is anything :func:`~repro.core.as_schedule` accepts (a
        :class:`Schedule`, a fluent builder chain, a serialized dict or JSON
        string); it is applied non-destructively — the algorithm's Funcs keep
        their own schedules.  When omitted, the schedules set directly on
        the Funcs are captured and used.

        Results are cached per Pipeline in a bounded LRU keyed by (schedule
        digest, sizes, target, options, algorithm, images); a hit skips all
        lowering work.
        """
        if sizes is None:
            raise ValueError("compile() requires concrete output sizes; "
                             "use lower() for a symbolic (size-generic) lowering")
        target = Target.resolve(target)
        env = self.functions()
        explicit = schedule is not None
        if explicit:
            sched = as_schedule(schedule)
        else:
            # Capture the Funcs' current schedules: together with the
            # algorithm key this keys the cache, so in-place
            # re-scheduling or re-definition between calls is never stale.
            sched = Schedule.from_funcs(env.values())

        images = self._collect_images(env)
        key = _cache_key(sched, sizes, target, options, env, images)
        cached = self._compile_cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            self._compile_cache.move_to_end(key)
            return cached
        self._cache_misses += 1

        # On an LRU miss, try the persistent cache (compiled and native
        # backends only: their programs are source text — plus, for native,
        # a content-addressed .so blob — which survive a process restart).
        disk = self._resolve_disk_cache() \
            if target.backend in ("compiled", "native") else None
        key_str = disk_key_string(key) if disk is not None else None
        if disk is not None:
            payload = disk.load(key_str)
            if payload is not None:
                blob = None
                if payload.get("kind") == "native":
                    digest = payload.get("native_digest")
                    blob = disk.blob_path(str(digest)) if digest else None
                try:
                    compiled = CompiledPipeline._restore(
                        self, payload, sizes, sched, target, options,
                        images=images, cache_key=key, blob_path=blob)
                except Exception:
                    # A well-formed entry whose source no longer execs
                    # (format drift, manual tampering): recompile over it.
                    disk.errors += 1
                else:
                    return self._cache_insert(key, compiled)

        overrides = sched.func_schedules(env) if explicit else None
        lowered = self._lower(sizes, overrides, options)
        if target.backend == "compiled":
            # Generate + exec the Python source now, so compile() really is
            # the compile step: run()/timed regions (the wall-clock evaluator,
            # the benchmarks) never pay one-time codegen cost.
            from repro.codegen.source_backend import compile_lowered

            compile_lowered(lowered)
        elif target.backend == "native":
            # Same contract, heavier step: emit C, invoke the system
            # compiler, dlopen the result.  A missing toolchain surfaces
            # here as one clear ToolchainError — at compile() time.
            from repro.codegen.c_backend import compile_lowered_native

            compile_lowered_native(lowered)
        compiled = CompiledPipeline(self, lowered, sizes, sched, target, options,
                                    images=images, env=env, cache_key=key)
        if disk is not None:
            disk.store(key_str, compiled._disk_payload())
            if target.backend == "native":
                program = lowered._native_program
                if program.so_path:
                    disk.store_blob(program.digest, program.so_path)
        return self._cache_insert(key, compiled)

    def _cache_insert(self, key, compiled: CompiledPipeline) -> CompiledPipeline:
        self._compile_cache[key] = compiled
        while len(self._compile_cache) > self._cache_maxsize:
            self._compile_cache.popitem(last=False)
        return compiled

    def _resolve_disk_cache(self):
        """The active PersistentCache (explicit param > env var > None)."""
        from repro.runtime.disk_cache import PersistentCache, default_cache_dir

        param = self._disk_cache_param
        if param is False:
            return None
        if param is not None:
            if not isinstance(param, PersistentCache):
                param = PersistentCache(param)
                self._disk_cache_param = param
            return param
        directory = default_cache_dir()
        if directory is None:
            return None
        cache = self._env_disk_cache
        if cache is None or str(cache.directory) != directory:
            cache = PersistentCache(directory)
            self._env_disk_cache = cache
        return cache

    def cache_info(self) -> CacheInfo:
        """Hit/miss/occupancy counters of the compilation cache."""
        return CacheInfo(self._cache_hits, self._cache_misses,
                         self._cache_maxsize, len(self._compile_cache))

    def disk_cache_info(self) -> DiskCacheInfo:
        """Counters of the persistent cache, plus lowerings performed.

        ``lowerings`` counts actual lowering runs by this Pipeline — a warm
        start that restores every compiled program from disk shows zero.
        """
        disk = self._resolve_disk_cache()
        if disk is None:
            return DiskCacheInfo(0, 0, 0, 0, self._lowerings, 0)
        return DiskCacheInfo(disk.hits, disk.misses, disk.errors, disk.stores,
                             self._lowerings, disk.evictions)

    def cache_clear(self) -> None:
        """Drop all cached compilations (counters reset too)."""
        self._compile_cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0

    def _lower(self, sizes: Optional[Sequence[int]], overrides,
               options: Optional[LoweringOptions]) -> LoweredPipeline:
        output_bounds = None
        if sizes is not None:
            output_bounds = [(0, int(size)) for size in sizes]
        self._lowerings += 1
        return lower(self.output_function, schedule_overrides=overrides, options=options,
                     output_bounds=output_bounds)

    def lower(self, sizes: Optional[Sequence[int]] = None, schedule=None,
              options: Optional[LoweringOptions] = None) -> LoweredPipeline:
        """Lower the pipeline (uncached; prefer :meth:`compile`).

        With ``sizes``, the compiler specializes the loop nest for that output
        region (all inferred bounds fold to constants); without, bounds remain
        symbolic and are bound by the runtime.  ``schedule`` optionally
        applies a :class:`Schedule` value non-destructively.
        """
        overrides = None
        if schedule is not None:
            overrides = as_schedule(schedule).func_schedules(self.functions())
        return self._lower(sizes, overrides, options)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _collect_images(self, env: Dict[str, Function]) -> Dict[str, object]:
        collector = _ImageCollector()
        for func in env.values():
            for value in func.all_values():
                collector.visit(value)
        return collector.images

    def functions(self) -> Dict[str, Function]:
        """All functions reachable from the output, keyed by name."""
        return build_environment([self.output_function])

    def print_loop_nest(self, schedule=None) -> str:
        """A human-readable rendering of the synthesized loop nest."""
        from repro.ir.printer import pretty_print

        return pretty_print(self.lower(schedule=schedule).stmt)
