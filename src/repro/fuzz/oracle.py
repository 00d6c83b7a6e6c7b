"""The differential oracle: one case, every backend, bit-identical or bust.

A :class:`FuzzCase` bundles everything needed to replay one differential run
— a :class:`~repro.fuzz.spec.PipelineSpec`, a first-class
:class:`~repro.core.Schedule`, the realization sizes and the thread counts —
and is JSON-serializable, so failing cases travel as self-contained repro
scripts (:func:`repro_script`).

:func:`run_case` realizes the case on the scalar interpreter (the reference),
the NumPy backend, the compiled backend at each thread count, and — when the
case requests it and a C toolchain is available — the native compile-to-C
backend, and checks:

* **bit-identical output** — same dtype, same shape, same bytes, across every
  backend and thread count (no tolerance: the paper's guarantee is that a
  schedule never changes *what* is computed);
* **valid bounds** — the realized output has exactly the requested shape and
  the output stage's declared dtype, and no backend faults on an
  out-of-bounds access (the interpreter checks every store);
* **matching instrumentation** — the interpreter's and the NumPy backend's
  memory-traffic counters agree exactly (loads, stores, bytes moved, loops
  entered, allocations, peak footprint).  Arithmetic-op counters are *not*
  compared: batching intentionally replaces per-element index arithmetic
  with whole-array operations, so those totals legitimately differ.  The
  compiled backend drives no listeners and is excluded by design.

Exceptions raised by a backend are captured as failures (with the reference
backend's failure short-circuiting the case).  Schedules the compiler rejects
with a documented diagnostic (:data:`~repro.fuzz.schedule_gen.REJECTION_ERRORS`)
mark the case *invalid* rather than failing — the minimizer uses this to
discard shrink candidates that fell out of the legal space.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline_schedule import Schedule, as_schedule
from repro.fuzz.pipeline_gen import GeneratorConfig, build_pipeline, generate_spec
from repro.fuzz.schedule_gen import REJECTION_ERRORS, generate_schedules
from repro.fuzz.spec import PipelineSpec
from repro.pipeline import Pipeline
from repro.runtime.counters import Counters
from repro.runtime.target import Target

__all__ = ["FuzzCase", "CaseReport", "FuzzFailure", "run_case", "repro_script",
           "COMPARED_COUNTERS", "SIZE_CHOICES", "SIZE_CHOICES_3D"]

CASE_FORMAT_VERSION = 1

#: Counter-summary keys the oracle requires to match between the interpreter
#: and the NumPy backend (the memory-traffic subset; see module docstring).
COMPARED_COUNTERS = ("loads", "stores", "bytes_loaded", "bytes_stored",
                     "loops_entered", "allocations", "peak_allocated_bytes",
                     "peak_allocated_by_buffer")

#: Realization sizes the case generator draws from: deliberately awkward —
#: single pixels, primes, sizes below/straddling typical split factors, and a
#: couple of comfortable ones.
SIZE_CHOICES = ((1, 1), (2, 3), (5, 4), (7, 5), (8, 8), (11, 7), (13, 9),
                (16, 12), (17, 13), (24, 16))

#: Realization sizes for 3-D (time-dimensioned) specs: the same awkwardness,
#: with short time extents (every frame multiplies work).
SIZE_CHOICES_3D = ((1, 1, 2), (2, 3, 2), (5, 4, 3), (7, 5, 4), (8, 6, 5),
                   (11, 7, 3), (13, 9, 4))


class FuzzFailure(AssertionError):
    """Raised by :func:`run_case` (with ``raise_on_failure``) for a failing case."""

    def __init__(self, report: "CaseReport"):
        self.report = report
        super().__init__(report.summary())


@dataclass(frozen=True)
class FuzzCase:
    """One differential-testing case: pipeline + schedule + sizes + threads."""

    spec: PipelineSpec
    schedule: Schedule
    sizes: Tuple[int, ...]        # matches the spec's dimensionality
    thread_counts: Tuple[int, ...] = (1, 4)
    #: Thread counts for the native compile-to-C leg.  Empty ⇒ the leg is
    #: skipped, and the case serializes exactly as the pre-native format
    #: (stable keys/corpora).  Silently skipped when no C toolchain exists —
    #: the leg proves the codegen, not the platform.
    native_thread_counts: Tuple[int, ...] = ()
    #: The seed this case was derived from (informational; replay uses the
    #: embedded spec/schedule, never the generator).
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "schedule", as_schedule(self.schedule))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "thread_counts",
                           tuple(int(t) for t in self.thread_counts))
        object.__setattr__(self, "native_thread_counts",
                           tuple(int(t) for t in self.native_thread_counts))

    @classmethod
    def from_seed(cls, seed: int, config: Optional[GeneratorConfig] = None,
                  thread_counts: Sequence[int] = (1, 4),
                  native_thread_counts: Sequence[int] = ()) -> "FuzzCase":
        """Derive a full case (pipeline, schedule, sizes) from one seed."""
        import random

        spec = generate_spec(seed, config)
        built = build_pipeline(spec)
        schedule = generate_schedules(built, seed, count=1)[0]
        # One draw either way, so the 2-D size stream is unchanged.
        choices = SIZE_CHOICES if len(spec.input_shape) == 2 else SIZE_CHOICES_3D
        sizes = random.Random(f"repro-fuzz-sizes-{int(seed)}").choice(choices)
        return cls(spec=spec, schedule=schedule, sizes=sizes,
                   thread_counts=tuple(thread_counts),
                   native_thread_counts=tuple(native_thread_counts),
                   seed=int(seed))

    def key(self) -> str:
        """A short stable identifier (for filenames and dedup)."""
        import hashlib

        body = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        data = {
            "version": CASE_FORMAT_VERSION,
            "seed": self.seed,
            "spec": self.spec.to_dict(),
            "schedule": self.schedule.to_dict(),
            "sizes": list(self.sizes),
            "thread_counts": list(self.thread_counts),
        }
        # Emitted only when set: pre-existing corpora (and their key()
        # hashes) are byte-for-byte unchanged.
        if self.native_thread_counts:
            data["native_thread_counts"] = list(self.native_thread_counts)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzCase":
        version = data.get("version", CASE_FORMAT_VERSION)
        if version != CASE_FORMAT_VERSION:
            raise ValueError(f"unsupported fuzz-case format version {version!r}")
        # A stored "process_worker_counts" key (the retired process-pool
        # leg) is ignored, so older corpora still replay.
        return cls(
            spec=PipelineSpec.from_dict(data["spec"]),
            schedule=Schedule.from_dict(data["schedule"]),
            sizes=tuple(data["sizes"]),
            thread_counts=tuple(data.get("thread_counts", (1, 4))),
            native_thread_counts=tuple(data.get("native_thread_counts", ())),
            seed=data.get("seed"),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        native = (f" native_threads={list(self.native_thread_counts)}"
                  if self.native_thread_counts else "")
        lines = [f"sizes={list(self.sizes)} threads={list(self.thread_counts)}"
                 f"{native} seed={self.seed}",
                 "--- pipeline ---", self.spec.describe(),
                 "--- schedule ---", self.schedule.describe() or "(default)"]
        return "\n".join(lines)


@dataclass
class CaseReport:
    """The outcome of one differential run."""

    case: FuzzCase
    ok: bool
    #: Human-readable descriptions of every check that failed.
    failures: List[str] = field(default_factory=list)
    #: True when the schedule was rejected with a documented diagnostic —
    #: the case is outside the legal space and proves nothing either way.
    invalid: bool = False

    def summary(self) -> str:
        if self.invalid:
            return f"case {self.case.key()}: INVALID ({self.failures[0]})"
        if self.ok:
            return f"case {self.case.key()}: ok"
        lines = [f"case {self.case.key()}: {len(self.failures)} failure(s)"]
        lines += [f"  - {f.splitlines()[0]}" for f in self.failures]
        return "\n".join(lines)


def _bit_identical(a: np.ndarray, b: np.ndarray) -> Optional[str]:
    """None if arrays are bit-identical, else a description of the difference."""
    if a.dtype != b.dtype:
        return f"dtype {b.dtype} != reference {a.dtype}"
    if a.shape != b.shape:
        return f"shape {b.shape} != reference {a.shape}"
    if a.tobytes() == b.tobytes():
        return None
    if a.size:
        eq = (a == b) | (np.isnan(a.astype(np.float64, copy=False))
                         & np.isnan(b.astype(np.float64, copy=False))) \
            if np.issubdtype(a.dtype, np.floating) else (a == b)
        bad = int(a.size - int(np.count_nonzero(eq)))
        if bad == 0:
            return "outputs differ only in bit patterns (NaN payloads or signed zeros)"
        idx = np.argwhere(~eq)
        first = tuple(int(v) for v in idx[0])
        return (f"{bad}/{a.size} elements differ (bitwise); first at {first}: "
                f"{b[first]!r} != reference {a[first]!r}")
    return "zero-size arrays differ bitwise"


def run_case(case: FuzzCase, raise_on_failure: bool = False,
             check_counters: bool = True) -> CaseReport:
    """Realize one case on every backend and collect differential failures."""
    failures: List[str] = []

    built = build_pipeline(case.spec)
    pipeline = Pipeline(built.output)
    sizes = list(case.sizes)

    def run_on(target, listeners=()):
        compiled = pipeline.compile(sizes, schedule=case.schedule, target=target)
        return compiled.run(listeners=listeners)

    # Reference: the scalar interpreter (with instrumentation).
    ref_counters = Counters()
    try:
        ref = run_on("interp", [ref_counters])
    except REJECTION_ERRORS as error:
        report = CaseReport(case, ok=False, invalid=True,
                            failures=[f"schedule rejected: {error}"])
        if raise_on_failure:
            raise FuzzFailure(report) from error
        return report
    except Exception as error:  # noqa: BLE001 - a reference crash IS the finding
        failures.append(f"interp raised {type(error).__name__}: {error}\n"
                        + traceback.format_exc(limit=6))
        report = CaseReport(case, ok=False, failures=failures)
        if raise_on_failure:
            raise FuzzFailure(report) from error
        return report

    expected_dtype = np.dtype(case.spec.stages[-1].dtype)
    if tuple(ref.shape) != tuple(case.sizes):
        failures.append(f"bounds: output shape {ref.shape} != requested {case.sizes}")
    if ref.dtype != expected_dtype:
        failures.append(f"bounds: output dtype {ref.dtype} != declared {expected_dtype}")

    # NumPy backend: output + instrumentation parity.
    try:
        numpy_counters = Counters()
        diff = _bit_identical(ref, run_on("numpy", [numpy_counters]))
        if diff:
            failures.append(f"numpy output: {diff}")
        if check_counters:
            a, b = ref_counters.summary(), numpy_counters.summary()
            for key in COMPARED_COUNTERS:
                if a[key] != b[key]:
                    failures.append(
                        f"counters: {key} interp={a[key]} numpy={b[key]}")
    except Exception as error:  # noqa: BLE001 - captured as a finding
        failures.append(f"numpy raised {type(error).__name__}: {error}\n"
                        + traceback.format_exc(limit=6))

    # Compiled backend at every requested thread count.
    for threads in case.thread_counts:
        try:
            diff = _bit_identical(ref, run_on(Target("compiled", threads=threads)))
            if diff:
                failures.append(f"compiled(threads={threads}) output: {diff}")
        except Exception as error:  # noqa: BLE001 - captured as a finding
            failures.append(
                f"compiled(threads={threads}) raised {type(error).__name__}: "
                f"{error}\n" + traceback.format_exc(limit=6))

    # Fourth leg: the native compile-to-C backend at every requested thread
    # count (silently skipped without a C toolchain — the leg proves the
    # codegen, not the platform).
    if case.native_thread_counts:
        from repro.codegen.c_toolchain import toolchain_available

        if toolchain_available():
            for threads in case.native_thread_counts:
                try:
                    diff = _bit_identical(
                        ref, run_on(Target("native", threads=threads)))
                    if diff:
                        failures.append(
                            f"native(threads={threads}) output: {diff}")
                except Exception as error:  # noqa: BLE001 - captured as a finding
                    failures.append(
                        f"native(threads={threads}) raised "
                        f"{type(error).__name__}: {error}\n"
                        + traceback.format_exc(limit=6))

    report = CaseReport(case, ok=not failures, failures=failures)
    if raise_on_failure and failures:
        raise FuzzFailure(report)
    return report


_REPRO_TEMPLATE = '''#!/usr/bin/env python
"""Auto-generated repro for a repro.fuzz differential-testing failure.

Replay:  PYTHONPATH=src python {filename}
The case is fully embedded below (generator not involved in replay).

{summary}
"""

CASE_JSON = r\'\'\'{case_json}\'\'\'


def main():
    from repro.fuzz import FuzzCase, run_case

    case = FuzzCase.from_json(CASE_JSON)
    print(case.describe())
    report = run_case(case, raise_on_failure=True)
    print(report.summary())


if __name__ == "__main__":
    main()
'''


def repro_script(report_or_case, filename: str = "repro.py") -> str:
    """A self-contained Python script replaying one case.

    Accepts a :class:`CaseReport` (failure summaries are embedded in the
    docstring) or a bare :class:`FuzzCase`.
    """
    if isinstance(report_or_case, CaseReport):
        case, summary = report_or_case.case, report_or_case.summary()
    else:
        case, summary = report_or_case, "status at dump time: not yet run"
    return _REPRO_TEMPLATE.format(filename=filename, summary=summary,
                                  case_json=case.to_json())
