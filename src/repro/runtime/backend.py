"""Execution backend protocol and registry.

A *backend* turns a :class:`~repro.compiler.lower.LoweredPipeline` into
results over numpy buffers.  All backends share the executor binding API
(:meth:`bind`, :meth:`bind_input`, :meth:`provide_buffer`, :meth:`run`), so
the :class:`~repro.pipeline.Pipeline` driver, the autotuner's evaluators and
the benchmark harness select one by name:

* ``"interp"`` — the scalar tree-walking interpreter
  (:class:`~repro.runtime.executor.Executor`).  The reference backend: exact
  per-operation instrumentation for the machine model, but slow.
* ``"numpy"`` — the vectorized NumPy backend
  (:class:`~repro.codegen.numpy_backend.NumpyExecutor`).  Batches innermost
  loops into whole-array operations; bit-identical to the interpreter and
  10-100x faster, but instrumentation sees batched (per-array) events.
* ``"compiled"`` — the compile-to-Python source backend
  (:class:`~repro.codegen.source_backend.CompiledExecutor`).  Emits one
  Python/NumPy function per lowered pipeline (``compile()``+``exec()``'d
  once), runs ``ForType.PARALLEL`` loops on a thread pool sized by
  ``Target.threads``, and drives no instrumentation listeners.  The fastest
  pure-Python backend; bit-identical to the interpreter.
* ``"native"`` — the compile-to-C backend
  (:class:`~repro.codegen.c_backend.NativeExecutor`).  Emits one C
  translation unit per lowered pipeline, builds it into a shared object with
  the system C compiler (OpenMP parallel-for when available), and calls it
  through :mod:`ctypes`.  Bit-identical to the interpreter and the fastest
  backend by far; requires a C toolchain (see
  :mod:`repro.codegen.c_toolchain`).

The default is ``"interp"``; pass ``target=`` to :meth:`Pipeline.compile` to
select another.

Backend factories are called as ``factory(lowered, listeners=..., target=...)``
where ``target`` is the resolved :class:`~repro.runtime.target.Target`;
backends that cannot honour parts of the target (e.g. ``threads``) ignore
them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.compiler.lower import LoweredPipeline
from repro.runtime.counters import ExecutionListener

__all__ = [
    "Backend",
    "BackendFactory",
    "register_backend",
    "get_backend",
    "backend_names",
    "validate_backend_name",
    "create_executor",
    "DEFAULT_BACKEND",
]

DEFAULT_BACKEND = "interp"


@runtime_checkable
class Backend(Protocol):
    """What the pipeline driver requires of an executor instance."""

    def bind(self, name: str, value) -> None: ...

    def bind_input(self, name: str, array: np.ndarray) -> None: ...

    def provide_buffer(self, name: str, flat_array: np.ndarray) -> None: ...

    def run(self) -> None: ...


#: A backend is registered as a factory: (lowered, listeners, target) -> Backend.
BackendFactory = Callable[..., Backend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _BACKENDS[name] = factory


def _ensure_builtin_backends() -> None:
    # Imported lazily to avoid import cycles (the executor imports runtime
    # modules; codegen imports the executor).
    if "interp" not in _BACKENDS:
        from repro.runtime.executor import Executor

        register_backend("interp", Executor)
    if "numpy" not in _BACKENDS:
        from repro.codegen.numpy_backend import NumpyExecutor

        register_backend("numpy", NumpyExecutor)
    if "compiled" not in _BACKENDS:
        from repro.codegen.source_backend import CompiledExecutor

        register_backend("compiled", CompiledExecutor)
    if "native" not in _BACKENDS:
        from repro.codegen.c_backend import NativeExecutor

        register_backend("native", NativeExecutor)


def backend_names() -> tuple:
    """The names of all registered backends."""
    _ensure_builtin_backends()
    return tuple(sorted(_BACKENDS))


def validate_backend_name(name: str) -> str:
    """Check a backend name against the registry, with a clear early error.

    :class:`~repro.runtime.target.Target` calls this at construction time, so
    an unknown backend fails before any lowering work happens, listing the
    registered backends.
    """
    _ensure_builtin_backends()
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available backends: {', '.join(backend_names())}")
    return name


def get_backend(name: str) -> BackendFactory:
    """Look up a backend factory by name."""
    return _BACKENDS[validate_backend_name(name)]


def create_executor(lowered: LoweredPipeline,
                    listeners: Iterable[ExecutionListener] = (),
                    target=None) -> Backend:
    """Instantiate a backend over a lowered pipeline.

    ``target`` is a :class:`~repro.runtime.target.Target` or anything its
    ``resolve`` accepts; the resolved Target is forwarded to the backend
    factory, so execution parameters such as ``Target.threads`` reach the
    runtime.
    """
    from repro.runtime.target import Target  # local import: Target imports us

    resolved = Target.resolve(target)
    return get_backend(resolved.backend)(lowered, listeners=listeners,
                                         target=resolved)
