"""Candidate evaluation for the autotuner.

Two evaluators are provided:

* :class:`CostModelEvaluator` — scores candidates with the abstract machine
  model: :func:`repro.machine.cost_model.estimate_cost` walks the lowered IR
  without executing the pipeline, so a candidate costs about as much to
  score as a compile-cache lookup.
* :class:`WallClockEvaluator` — times real executions, matching the paper's
  use of measured running time.  By default it runs candidates on the
  ``native`` compile-to-C backend when a C toolchain is available (timing the
  machine code a deployed pipeline would actually run), falling back to the
  ``compiled`` backend (generated Python/NumPy source, orders of magnitude
  faster than the interpreter and bit-identical to it) otherwise; both reward
  ``.parallel()`` directives with real wall time.

The wall-clock evaluator verifies the candidate's output against the
reference schedule's output (Section 5: "we also verify the program output
against a correct reference schedule").  The cost model cannot (nothing
runs), which is fine because lowering legality is checked either way and
measured survivors are re-verified by the wall-clock stage.

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
from repro.machine.cost_model import estimate_cost
from repro.machine.profiles import MachineProfile
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
                 params: Optional[Dict[str, object]] = None, target=None):
        self.pipeline = pipeline
        self.sizes = list(sizes)
        self.params = params
        #: The execution target, resolved early so an unknown backend fails
        #: here, not mid-search.
        self.target = Target.resolve(target)

    def evaluate_schedules(self, schedule) -> EvaluationResult:
        """Score one candidate :class:`~repro.core.Schedule`."""
        raise NotImplementedError


class CostModelEvaluator(_BaseEvaluator):
    """Scores candidates by estimated cycles on a machine profile.

    Each candidate is lowered, never executed, and scored by
    :func:`~repro.machine.cost_model.estimate_cost`.  ``profile`` defaults to
    the target's own (:meth:`~repro.runtime.target.Target.machine_profile`),
    so a tuning run filed under a target's key is scored on that target's
    machine.
    """

    def __init__(self, pipeline: Pipeline, sizes: Sequence[int],
                 profile: Optional[MachineProfile] = None,
                 params: Optional[Dict[str, object]] = None,
                 target="interp"):
        super().__init__(pipeline, sizes, params=params, target=target)
        self.profile = profile if profile is not None \
            else self.target.machine_profile()

    def evaluate_schedules(self, schedule) -> EvaluationResult:
        try:
            report = estimate_cost(self.pipeline, self.sizes, schedule=schedule,
                                   profile=self.profile, params=self.params)
        except REJECTION_ERRORS as error:
            return EvaluationResult(INVALID_FITNESS, False, str(error))
        return EvaluationResult(report.cycles, True)


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
    compilation was already cached.  With ``verify`` (the default) each
    candidate's output must match the default schedule's within
    ``tolerance``, or it scores invalid.
    """

    def __init__(self, pipeline: Pipeline, sizes: Sequence[int], repeats: int = 1,
                 params: Optional[Dict[str, object]] = None,
                 inputs: Optional[Dict[str, np.ndarray]] = None,
                 verify: bool = True, tolerance: float = 1e-4, target=None):
        from repro.codegen.c_toolchain import toolchain_available

        if target is None:
            target = "native" if toolchain_available() else "compiled"
        super().__init__(pipeline, sizes, params=params, target=target)
        self.repeats = max(1, repeats)
        self.inputs = inputs
        self.verify = verify
        self.tolerance = tolerance
        self._reference_output: Optional[np.ndarray] = None

    def reference_output(self) -> np.ndarray:
        """The output of the default (breadth-first-ish) schedule, computed once."""
        if self._reference_output is None:
            compiled = self.pipeline.compile(self.sizes, target=self.target)
            self._reference_output = compiled.run(params=self.params,
                                                  inputs=self.inputs)
        return self._reference_output

    def _check(self, output: np.ndarray) -> bool:
        if not self.verify:
            return True
        reference = self.reference_output()
        if output.shape != reference.shape:
            return False
        return bool(np.allclose(output, reference, rtol=self.tolerance, atol=self.tolerance))

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
