"""repro: a Python reproduction of Halide (PLDI 2013).

The package provides:

* an embedded DSL for describing image processing pipelines as chains of pure
  functions plus bounded reductions (:mod:`repro.lang`);
* a schedule representation decoupled from the algorithm (:mod:`repro.core`);
* a compiler that lowers algorithm + schedule into a complete loop nest using
  interval-analysis bounds inference, sliding-window optimization, storage
  folding, flattening, unrolling and vectorization (:mod:`repro.compiler`);
* runtime backends over numpy — a reference interpreter, a vectorized
  whole-array backend, and a compile-to-Python-source backend with a
  multi-core parallel runtime — plus an abstract machine model for
  performance analysis (:mod:`repro.runtime`, :mod:`repro.codegen`,
  :mod:`repro.machine`);
* a stochastic (genetic) autotuner over the schedule space (:mod:`repro.autotuner`);
* the paper's example applications and expert-style numpy baselines
  (:mod:`repro.apps`, :mod:`repro.reference`).
"""

from repro.types import Bool, Float, Int, Type, UInt
from repro.lang import (
    Buffer,
    Func,
    ImageParam,
    Param,
    RDom,
    Var,
    cast,
    clamp,
    max_,
    min_,
    select,
    sum_,
)
from repro.core.pipeline_schedule import Schedule, as_schedule
from repro.pipeline import CompiledPipeline, Pipeline
from repro.runtime.target import Target, as_target
from repro.compiler import LoweringOptions

__version__ = "0.9.0"

__all__ = [
    "Bool",
    "Float",
    "Int",
    "Type",
    "UInt",
    "Buffer",
    "Func",
    "ImageParam",
    "Param",
    "RDom",
    "Var",
    "cast",
    "clamp",
    "max_",
    "min_",
    "select",
    "sum_",
    "Pipeline",
    "CompiledPipeline",
    "Schedule",
    "as_schedule",
    "Target",
    "as_target",
    "LoweringOptions",
    "__version__",
]
