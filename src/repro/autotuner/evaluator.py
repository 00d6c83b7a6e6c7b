"""Candidate evaluation for the autotuner.

Two evaluators are provided:

* :class:`CostModelEvaluator` — scores candidates with the abstract machine
  model.  In its default ``mode="static"`` the score comes from
  :func:`repro.analysis.static_cost.analyze_lowered` — a walk of the lowered
  IR that never executes the pipeline, so a candidate costs microseconds to
  score instead of a full interpreted run.  ``mode="dynamic"`` keeps the
  interpreter-event model as a cross-check (tests assert the two agree on
  op/load/store counts and schedule ordering).
* :class:`WallClockEvaluator` — times real executions, matching the paper's
  use of measured running time.  By default it runs candidates on the
  ``native`` compile-to-C backend when a C toolchain is available (timing the
  machine code a deployed pipeline would actually run), falling back to the
  ``compiled`` backend (generated Python/NumPy source, orders of magnitude
  faster than the interpreter and bit-identical to it) otherwise; both reward
  ``.parallel()`` directives with real wall time.

The executing evaluators verify the candidate's output against the reference
schedule's output (Section 5: "we also verify the program output against a
correct reference schedule"); the static mode cannot (nothing runs), which is
fine because lowering legality is checked either way and measured survivors
are re-verified by the wall-clock stage.

Candidate *rejections* — the documented scheduling errors
(:class:`ScheduleError`, :class:`VectorizeError`, :class:`UnrollError`) — are
converted to ``INVALID_FITNESS``.  Anything else escaping lowering or
execution is a compiler bug (PR 5's fuzzing contract) and is re-raised, never
silently folded into "invalid candidate".
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.compiler.unroll import UnrollError
from repro.compiler.vectorize import VectorizeError
from repro.core.schedule import ScheduleError
from repro.machine.cost_model import CostModel
from repro.machine.profiles import MachineProfile, XEON_W3520
from repro.pipeline import Pipeline
from repro.runtime.target import Target

__all__ = [
    "EvaluationResult",
    "CostModelEvaluator",
    "WallClockEvaluator",
    "INVALID_FITNESS",
    "REJECTION_ERRORS",
]

INVALID_FITNESS = float("inf")

#: The only exceptions that mean "this candidate schedule is illegal".
#: Everything else raised during lowering or execution is an internal error
#: and must propagate (the autotuner counts those separately).
REJECTION_ERRORS = (ScheduleError, VectorizeError, UnrollError)


class EvaluationResult:
    """Fitness (lower is better) plus diagnostic details for one candidate."""

    def __init__(self, fitness: float, valid: bool, error: Optional[str] = None):
        self.fitness = fitness
        self.valid = valid
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvaluationResult(fitness={self.fitness}, valid={self.valid}, error={self.error})"


class _BaseEvaluator:
    def __init__(self, pipeline: Pipeline, sizes: Sequence[int],
                 params: Optional[Dict[str, object]] = None,
                 inputs: Optional[Dict[str, np.ndarray]] = None,
                 verify: bool = True, tolerance: float = 1e-4,
                 target=None):
        self.pipeline = pipeline
        self.sizes = list(sizes)
        self.params = params
        self.inputs = inputs
        self.verify = verify
        self.tolerance = tolerance
        #: The execution target, resolved early so an unknown backend fails
        #: here, not mid-search.
        self.target = Target.resolve(target)
        self._reference_output: Optional[np.ndarray] = None

    def _run(self, schedule=None, listeners=()) -> np.ndarray:
        compiled = self.pipeline.compile(self.sizes, schedule=schedule,
                                         target=self.target)
        return compiled.run(params=self.params, inputs=self.inputs,
                            listeners=listeners)

    def reference_output(self) -> np.ndarray:
        """The output of the default (breadth-first-ish) schedule, computed once."""
        if self._reference_output is None:
            self._reference_output = self._run()
        return self._reference_output

    def _check(self, output: np.ndarray) -> bool:
        if not self.verify:
            return True
        reference = self.reference_output()
        if output.shape != reference.shape:
            return False
        return bool(np.allclose(output, reference, rtol=self.tolerance, atol=self.tolerance))

    def evaluate_schedules(self, schedule) -> EvaluationResult:
        """Score one candidate :class:`~repro.core.Schedule`."""
        raise NotImplementedError


class CostModelEvaluator(_BaseEvaluator):
    """Scores candidates by estimated cycles on a machine profile.

    ``mode="static"`` (the default) lowers the candidate and scores the IR
    with :func:`repro.analysis.static_cost.analyze_lowered` — no execution at
    all, so one evaluation costs about as much as a compile-cache lookup.
    ``mode="dynamic"`` runs the interpreter backend and feeds the cost model
    from the per-operation event stream (only the scalar interpreter reports
    events exactly; the NumPy backend batches them); it also verifies the
    candidate's output, which the static mode cannot.
    """

    def __init__(self, pipeline: Pipeline, sizes: Sequence[int],
                 profile: MachineProfile = XEON_W3520,
                 mode: str = "static", **kwargs):
        kwargs.setdefault("target", "interp")
        super().__init__(pipeline, sizes, **kwargs)
        if mode not in ("static", "dynamic"):
            raise ValueError(f"unknown cost-model mode {mode!r}; "
                             "expected 'static' or 'dynamic'")
        self.profile = profile
        self.mode = mode

    def _evaluate_static(self, schedule) -> EvaluationResult:
        from repro.analysis.static_cost import analyze_lowered

        compiled = self.pipeline.compile(self.sizes, schedule=schedule,
                                         target=self.target)
        report = analyze_lowered(compiled.lowered, self.profile,
                                 sizes=self.sizes, params=self.params)
        return EvaluationResult(report.cycles, True)

    def _evaluate_dynamic(self, schedule) -> EvaluationResult:
        model = CostModel(self.profile)
        output = self._run(schedule, listeners=[model])
        if not self._check(output):
            return EvaluationResult(INVALID_FITNESS, False, "output mismatch")
        return EvaluationResult(model.report().cycles, True)

    def evaluate_schedules(self, schedule) -> EvaluationResult:
        try:
            if self.mode == "static":
                return self._evaluate_static(schedule)
            return self._evaluate_dynamic(schedule)
        except REJECTION_ERRORS as error:
            return EvaluationResult(INVALID_FITNESS, False, str(error))


class WallClockEvaluator(_BaseEvaluator):
    """Scores candidates by wall-clock time (median of ``repeats`` runs).

    Defaults to the ``native`` compile-to-C backend when a C toolchain is on
    PATH (machine code is what a deployed pipeline runs, so its timings rank
    schedules most faithfully) and falls back to ``compiled`` (generated
    Python/NumPy source) otherwise — both reward ``.parallel()`` directives
    with real wall time (pass ``target=Target(..., threads=N)`` to search
    with a thread pool).  Pass ``target="compiled"``/``"numpy"``/``"interp"``
    to time a specific backend instead.  Compilation happens *outside* the
    timed region (matching the paper, which measures run time of compiled
    programs), so a candidate's fitness is independent of whether its
    compilation was already cached.
    """

    def __init__(self, pipeline: Pipeline, sizes: Sequence[int], repeats: int = 1, **kwargs):
        from repro.codegen.c_toolchain import toolchain_available

        kwargs.setdefault("target",
                          "native" if toolchain_available() else "compiled")
        super().__init__(pipeline, sizes, **kwargs)
        self.repeats = max(1, repeats)

    def evaluate_schedules(self, schedule) -> EvaluationResult:
        try:
            compiled = self.pipeline.compile(self.sizes, schedule=schedule,
                                             target=self.target)
            times = []
            output = None
            for _ in range(self.repeats):
                start = time.perf_counter()
                output = compiled.run(params=self.params, inputs=self.inputs)
                times.append(time.perf_counter() - start)
            if not self._check(output):
                return EvaluationResult(INVALID_FITNESS, False, "output mismatch")
            return EvaluationResult(float(np.median(times)), True)
        except REJECTION_ERRORS as error:
            return EvaluationResult(INVALID_FITNESS, False, str(error))
