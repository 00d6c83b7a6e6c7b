"""Code generation backends.

The interpreter in :mod:`repro.runtime.executor` evaluates one scalar
expression per pixel, which makes every schedule orders of magnitude slower
than the same loop nest in C.  This package recovers most of that gap without
leaving Python, in two steps:

* the legality analysis (:mod:`repro.codegen.legality`) marks the innermost
  loops of a lowered pipeline whose bodies can be evaluated as whole-array
  NumPy operations, and :class:`~repro.codegen.numpy_backend.NumpyExecutor`
  peels those loops — binding the loop variable to an ``arange`` index vector
  and letting NumPy broadcasting evaluate the body once for all iterations —
  while falling back to the scalar interpreter for anything it cannot batch;
* the source backend (:mod:`repro.codegen.source_backend`) goes further and
  stops interpreting entirely: it emits a self-contained Python function per
  lowered pipeline (batchable loops as whole-array NumPy code, the rest as
  plain Python loops), ``compile()``+``exec()``'d once, with
  ``ForType.PARALLEL`` loops chunked over a shared thread pool
  (:mod:`repro.codegen.parallel_runtime`) sized by ``Target.threads``.

All backends are required to produce bit-identical output for every pipeline
and schedule; ``tests/test_numpy_backend.py`` and
``tests/test_compiled_backend.py`` enforce this across all the paper's
applications.
"""

from repro.codegen.legality import (
    BatchabilityError,
    LoopBatchInfo,
    StoreCheck,
    affine_coefficient,
    analyze_batchable_loops,
)
from repro.codegen.numpy_backend import NumpyExecutor
from repro.codegen.parallel_runtime import ParallelRuntime
from repro.codegen.source_backend import (
    CompiledExecutor,
    CompiledProgram,
    SourceCodegenError,
    compile_lowered,
    generate_source,
)

__all__ = [
    "NumpyExecutor",
    "CompiledExecutor",
    "CompiledProgram",
    "ParallelRuntime",
    "SourceCodegenError",
    "compile_lowered",
    "generate_source",
    "analyze_batchable_loops",
    "affine_coefficient",
    "LoopBatchInfo",
    "StoreCheck",
    "BatchabilityError",
]
