"""C toolchain discovery and shared-object builds for the native backend.

The native backend (:mod:`repro.codegen.c_backend`) emits one C translation
unit per lowered pipeline and needs a working C compiler to turn it into a
shared object.  This module owns everything platform-shaped about that step:

* **Probe** — find a compiler (``REPRO_CC``, then ``cc``/``gcc``/``clang`` on
  PATH), verify it can actually produce a loadable shared object, and check
  OpenMP support separately (``-fopenmp``; pipelines still build and run
  serially without it).  The probe runs at most once per process and caches
  its result — including failures — so ``Target("native")`` with no compiler
  raises exactly one clear :class:`ToolchainError` at ``compile()`` time
  instead of a deep subprocess traceback per attempt.
* **Build** — :func:`compile_shared_object` runs the compiler with the fixed
  flag set the backend's bit-exactness contract depends on (``-fwrapv`` for
  two's-complement integer wrap matching NumPy, ``-ffp-contract=off`` so FMA
  contraction cannot change float results, no ``-ffast-math`` ever) and
  moves the result into place atomically (temp + ``os.replace``), so a
  concurrent build of the same cache entry never exposes a half-written
  ``.so``.
* **Counters** — :data:`compile_count` tracks actual compiler invocations;
  the warm-start tests assert it stays at zero when the persistent cache
  supplies the ``.so``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "Toolchain",
    "ToolchainError",
    "compile_count",
    "compile_shared_object",
    "ensure_toolchain",
    "openmp_available",
    "probe_toolchain",
    "reset_probe_cache",
    "toolchain_available",
]

CC_ENV_VAR = "REPRO_CC"

#: Compiler candidates tried in order when ``REPRO_CC`` is unset.
DEFAULT_COMPILERS = ("cc", "gcc", "clang")

#: Flags every native build uses.  ``-fwrapv`` makes signed overflow wrap
#: (matching NumPy's fixed-width arithmetic), ``-ffp-contract=off`` forbids
#: FMA contraction (which would change float32/float64 bit patterns), and
#: ``-ffast-math`` is never passed: the backend's contract is bit-identical
#: output, not approximately-fast output.
BASE_FLAGS = ("-O3", "-fPIC", "-shared", "-fwrapv", "-ffp-contract=off")

#: Number of C-compiler invocations this process has made (warm starts that
#: load a cached ``.so`` must leave this untouched).
compile_count = 0


class ToolchainError(RuntimeError):
    """No usable C compiler for ``Target("native")``.

    Raised once, at ``compile()`` time, with the actionable fix in the
    message — never as a subprocess traceback from deep inside a build.
    """


@dataclass(frozen=True)
class Toolchain:
    """A probed, known-working compiler configuration."""

    cc: str
    openmp: bool

    def flags(self) -> List[str]:
        flags = list(BASE_FLAGS)
        if self.openmp:
            flags.append("-fopenmp")
        return flags

    def build_digest(self, source: str) -> str:
        """Names the shared object built from ``source`` by this compiler with
        these flags, so a build made otherwise is never reused."""
        return hashlib.sha256("\0".join([self.cc, *self.flags(), source]).encode()).hexdigest()


_PROBE_LOCK = threading.Lock()
#: The cached probe outcome: unset, a Toolchain, or an error message string.
_PROBE_RESULT: Optional[object] = None

_PROBE_SOURCE = "int repro_probe(void) { return 42; }\n"


def _candidate_compilers() -> List[str]:
    explicit = os.environ.get(CC_ENV_VAR)
    if explicit:
        return [explicit]
    return [cc for cc in DEFAULT_COMPILERS if shutil.which(cc)]


def _try_compile(cc: str, extra_flags: List[str], workdir: str) -> bool:
    source = os.path.join(workdir, "probe.c")
    output = os.path.join(workdir, "probe.so")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(_PROBE_SOURCE)
    command = [cc, *BASE_FLAGS, *extra_flags, source, "-o", output]
    try:
        result = subprocess.run(command, capture_output=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return False
    return result.returncode == 0 and os.path.exists(output)


def probe_toolchain() -> Optional[Toolchain]:
    """The working toolchain, or None — probed once and cached per process."""
    global _PROBE_RESULT
    with _PROBE_LOCK:
        if _PROBE_RESULT is None:
            _PROBE_RESULT = _probe_uncached()
        result = _PROBE_RESULT
    return result if isinstance(result, Toolchain) else None


def _probe_uncached():
    candidates = _candidate_compilers()
    if not candidates:
        return (
            f"no C compiler found (checked ${CC_ENV_VAR} and "
            f"{'/'.join(DEFAULT_COMPILERS)} on PATH)"
        )
    with tempfile.TemporaryDirectory(prefix="repro_cc_probe_") as workdir:
        for cc in candidates:
            if not _try_compile(cc, [], workdir):
                continue
            openmp = _try_compile(cc, ["-fopenmp"], workdir)
            return Toolchain(cc=cc, openmp=openmp)
    return (
        f"C compiler(s) {', '.join(candidates)} found but failed to build a "
        "probe shared object"
    )


def reset_probe_cache() -> None:
    """Forget the cached probe result (tests only)."""
    global _PROBE_RESULT
    with _PROBE_LOCK:
        _PROBE_RESULT = None


def toolchain_available() -> bool:
    """Whether ``Target("native")`` can build on this machine."""
    return probe_toolchain() is not None


def openmp_available() -> bool:
    """Whether the probed compiler supports ``-fopenmp`` (parallel loops run
    serially — still bit-identical — when it does not)."""
    toolchain = probe_toolchain()
    return toolchain is not None and toolchain.openmp


def ensure_toolchain() -> Toolchain:
    """The probed toolchain, or a single clear :class:`ToolchainError`."""
    toolchain = probe_toolchain()
    if toolchain is not None:
        return toolchain
    detail = _PROBE_RESULT if isinstance(_PROBE_RESULT, str) else "probe failed"
    raise ToolchainError(
        f"Target('native') needs a C compiler, but {detail}. "
        f"Install one (e.g. `apt-get install gcc`) or point ${CC_ENV_VAR} at "
        "an existing compiler; the 'compiled' backend runs the same schedules "
        "without a toolchain."
    )


def compile_shared_object(source: str, out_path: str) -> str:
    """Compile C ``source`` into a shared object at ``out_path`` (atomic).

    Returns ``out_path``.  Raises :class:`ToolchainError` when no compiler is
    available or the build fails (the compiler's stderr is included — a build
    failure on generated code is a codegen bug, not a user error).
    """
    global compile_count
    toolchain = ensure_toolchain()
    out_dir = os.path.dirname(os.path.abspath(out_path)) or "."
    os.makedirs(out_dir, exist_ok=True)
    fd, temp_c = tempfile.mkstemp(dir=out_dir, suffix=".c")
    temp_so = temp_c[:-2] + ".so.tmp"
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(source)
        command = [toolchain.cc, *toolchain.flags(), temp_c, "-o", temp_so, "-lm"]
        compile_count += 1
        result = subprocess.run(command, capture_output=True, timeout=300)
        if result.returncode != 0 or not os.path.exists(temp_so):
            stderr = result.stderr.decode("utf-8", "replace").strip()
            raise ToolchainError(
                f"native codegen: {toolchain.cc} failed to compile generated "
                f"source (exit {result.returncode}):\n{stderr[:4000]}"
            )
        os.replace(temp_so, out_path)
    finally:
        for leftover in (temp_c, temp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return out_path
