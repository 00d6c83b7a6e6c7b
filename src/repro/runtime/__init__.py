"""Runtime backends: the IR interpreter, the backend registry, and
execution instrumentation used by the machine model.

The vectorized NumPy backend and the compile-to-Python source backend live
in :mod:`repro.codegen` and register here under the names ``"numpy"`` and
``"compiled"``; select backends through :func:`get_backend` /
``Pipeline.compile(target=...)`` (a :class:`Target` carries the backend name
plus execution parameters such as ``threads``).
"""

from repro.runtime.backend import (
    Backend,
    BackendFactory,
    backend_names,
    create_executor,
    get_backend,
    register_backend,
    validate_backend_name,
)
from repro.runtime.counters import Counters, ExecutionListener
from repro.runtime.disk_cache import (
    CACHE_DIR_ENV_VAR,
    PersistentCache,
    default_cache_dir,
)
from repro.runtime.executor import ExecutionError, Executor
from repro.runtime.target import Target, as_target

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "PersistentCache",
    "default_cache_dir",
    "Executor",
    "ExecutionError",
    "Counters",
    "ExecutionListener",
    "Backend",
    "BackendFactory",
    "Target",
    "as_target",
    "backend_names",
    "create_executor",
    "get_backend",
    "register_backend",
    "validate_backend_name",
]
