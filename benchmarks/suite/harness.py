"""The measuring loop every workload goes through, and its metrics.

Closed loop, one client, one process: the next call is issued only after the
previous one returned and was checked.  Every operation is timed from outside,
around a call into a public function; with ``trace`` on, the same calls are
also bracketed by spans (see ``trace.py``) and a few fixed probes run.

Life cycle of a run::

    set-up    two cold rounds: fresh apps, empty cache dir, every program
              compiled.  Round k is 16*k pixels wider, so every round emits C
              with a new digest and really invokes the C compiler.  Then the
              inputs, one warm-up call per program and the references.
    window    short turns: [a cold round at evenly spaced offsets] -> one warm
              restore and ten LRU hits per program -> one load's burst of calls
    probes    (traced run only) small calls, backend ladder, static cost, ...
"""

from __future__ import annotations

import contextlib
import copy
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from math import exp, log
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import Target
from repro.codegen import c_toolchain
from repro.streaming import StreamStats, realize_stream

from . import trace
from .programs import Program, Workload, small_programs
from .trace import PASSES, clock

TARGET = Target("native", threads=1)
#: Cold rounds before the window (more follow inside it); ``setup_s`` is the
#: median over all of them.
SETUP_ROUNDS = 2
#: LRU-hit ``compile()`` calls per program in every turn of the window.
HITS_PER_TURN = 10


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> Tuple[float, float]:
    if len(values) < 2:
        return (median(values),) * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value (the maximum when there are too few samples for that)."""
    ordered = sorted(values)
    beyond = len(ordered) - 10
    if beyond <= 0:
        return 100.0, ordered[-1]
    return 100.0 * beyond / len(ordered), ordered[beyond - 1]


def geomean(values) -> float:
    positive = [v for v in values if v > 0]
    return exp(sum(map(log, positive)) / len(positive)) if positive else 0.0


# ---------------------------------------------------------------------------
# programs, built and loaded
# ---------------------------------------------------------------------------

@dataclass
class Built:
    """One program after a cold round: its app, compiled pipeline and inputs."""

    program: Program
    app: object
    compiled: object
    image: np.ndarray
    inputs: List[np.ndarray]
    sizes: List[int]
    references: Dict[int, np.ndarray] = field(default_factory=dict)
    verified: Dict[int, np.ndarray] = field(default_factory=dict)

    def check(self, index: int, output: np.ndarray) -> Optional[str]:
        """Reference check for the first output of an input, bit-identity to
        that verified output afterwards.  Returns what is wrong, if anything."""
        known = self.verified.get(index)
        if known is not None:
            return None if np.array_equal(output, known) else \
                f"output for input {index} differs from its verified output"
        expected = self.references.pop(index, None)
        if expected is not None:
            spec = self.program.spec
            inner = (slice(spec.margin, -spec.margin),) * 2 if spec.margin else ()
            if output.shape != expected.shape:
                return f"shape {output.shape}, reference has {expected.shape}"
            error = np.abs(output[inner].astype(np.float64) - expected[inner])
            if not error.size:
                return f"a margin of {spec.margin} leaves nothing of {output.shape} to check"
            missed = np.count_nonzero(~(error <= spec.tolerance))
            if missed > spec.rare * error.size or \
                    not error.max() <= max(spec.tolerance, spec.rare_tolerance):
                return (f"{missed} of {error.size} values miss the reference by more than "
                        f"{spec.tolerance} (worst {error.max()})")
        self.verified[index] = output
        return None


@dataclass
class Load:
    """One way of pushing a program's inputs through its compiled pipeline."""

    kind: str
    built: Built
    span: str
    #: Consecutive calls per turn of the round-robin.
    burst: int
    #: Frames one call produces.
    frames: int
    call: Callable[[int], object]
    check: Callable[[int, object], Optional[str]]

    @property
    def label(self) -> str:
        return self.built.program.label

    @property
    def pixels(self) -> int:
        return self.built.program.width * self.built.program.height


def run_load(built: Built) -> Load:
    name, inputs = built.program.spec.input_name, built.inputs
    small = built.program.width * built.program.height <= 128 * 96

    def call(i):
        return built.compiled.run(inputs={name: inputs[i % len(inputs)]})

    return Load("run", built, "pipeline.run", 256 if small else 1, 1, call,
                lambda i, out: built.check(i % len(inputs), out))


def batch_load(built: Built) -> Load:
    batch = [{built.program.spec.input_name: frame} for frame in built.inputs]

    def check(i, outputs):
        errors = [built.check(j, out) for j, out in enumerate(outputs)]
        return next((e for e in errors if e), None)

    return Load("batch", built, "pipeline.realize_batch", 8, len(batch),
                lambda i: built.compiled.realize_batch(batch), check)


def stream_load(built: Built) -> Load:
    clip, verified = built.inputs[0], []

    def check(i, frames):
        if not verified:
            verified.extend(frames)
            return built.check(0, np.stack(frames, axis=2))
        same = len(frames) == len(verified) and all(map(np.array_equal, frames, verified))
        return None if same else "stream differs from its verified output"

    return Load("stream", built, "streaming.realize_stream", 1, clip.shape[2],
                lambda i: list(realize_stream(built.compiled, clip)), check)


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

class Session:
    """One run of one workload: samples, failures and (traced) spans."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 traced: bool, quick: bool, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.quick = quick
        self.work_dir = work_dir
        self.recorder = trace.Recorder()
        #: Wall seconds per operation, keyed ``(kind, program label, traced)``.
        self.samples: Dict[Tuple[str, str, bool], List[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: List[str] = []
        self.round_s: List[float] = []
        self.reference_s = 0.0
        self.base: Dict[str, Built] = {}
        #: Operation number of every traced cold compile, keyed ``(label, round)``.
        self.cold_ops: Dict[Tuple[str, int], int] = {}
        self.warm_lowerings = 0
        self.loads: List[Load] = []
        self.probe_loads: List[Load] = []
        self.extra: Dict[str, float] = {}
        #: The latest warm-restored pipeline of every program.
        self.restored: Dict[str, object] = {}

    # -- plumbing ---------------------------------------------------------
    def rng(self, *key) -> np.random.Generator:
        """A generator that depends on the seed and ``key`` only."""
        words = [self.seed] + [int.from_bytes(str(k).encode(), "little") % 2**32 for k in key]
        return np.random.default_rng(words)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def tracing(self, on: bool):
        return trace.install(self.recorder) if on else contextlib.nullcontext()

    def time_op(self, kind: str, label: str, span: str, fn: Callable, traced: bool,
                catch: bool = False):
        """Time one operation from outside.  With ``catch`` an exception counts
        as a failed operation instead of ending the run."""
        self.attempted += 1
        if traced:
            self.recorder.open(span, label)
        start = clock()
        try:
            result = fn()
        except Exception:
            if not catch:
                raise
            self.fail(f"{kind} {label} raised:\n{traceback.format_exc()}")
            return None
        finally:
            end = clock()
            if traced:
                self.recorder.close()
        self.samples[kind, label, traced].append(end - start)
        return result

    def use_cache(self, name: str) -> None:
        os.environ["REPRO_CACHE_DIR"] = str(self.work_dir / f"cache-{name}")

    # -- phases -----------------------------------------------------------
    def cold_round(self, programs, k: int, traced: bool, probe: bool = False) -> Dict[str, Built]:
        """Fresh apps over an empty cache: build and cold-compile every program.
        The time of a workload's round — builds and compiles, not the
        benchmark's own input generation — is a sample of ``setup_s``."""
        self.use_cache("probe" if probe else str(k))
        round_: Dict[str, Built] = {}
        spent = 0.0
        with self.tracing(traced):
            for p in programs:
                spec, width = p.spec, p.width + 16 * k
                # A streamed app binds its own placeholder; only the shape is used.
                image = np.zeros((width, p.height, 1), np.float32) if p.streamed else \
                    spec.make_input(self.rng("bound", p.label), width, p.height)
                inputs = [spec.make_input(self.rng("input", p.label, i), width, p.height)
                          for i in range(p.inputs if k == 0 else 0)]
                sizes = spec.sizes(width, p.height)
                start = clock()
                app = self.time_op("build", p.label, "lang.build",
                                   partial(spec.make, image), traced)
                compiled = self.time_op(
                    "cold", p.label, "pipeline.compile",
                    partial(app.compile, p.schedule, sizes=sizes, target=TARGET), traced)
                spent += clock() - start
                if traced:
                    self.cold_ops[p.label, k] = self.recorder.current_op
                round_[p.label] = Built(p, app, compiled, image, inputs, sizes)
        if not probe:
            self.round_s.append(spent)
        return round_

    def first_calls(self, builts, traced: bool) -> None:
        """The one untimed-for-run_ms warm-up call of every program."""
        with self.tracing(traced):
            for built in builts:
                self.time_op("first", built.program.label, "pipeline.first_run",
                             built.compiled.run, traced)

    def make_references(self, builts) -> None:
        start = clock()
        for built in builts:
            spec = built.program.spec
            if spec.reference is not None:
                for i, array in enumerate(built.inputs):
                    built.references[i] = spec.reference(
                        array, built.program.width, built.program.height)
        self.reference_s += clock() - start

    def restore(self, traced: bool) -> None:
        """Restore every program from round 0's cache into a fresh Pipeline."""
        self.use_cache("0")
        for label, built in self.base.items():
            p = built.program
            app = p.spec.make(built.image)
            invocations = c_toolchain.compile_count
            # Restores of one cached blob share a library handle whose
            # transcendental-callback table belongs to the latest restore, so
            # only the latest restored pipeline of a program is kept and run.
            self.restored[label] = self.time_op(
                "warm", label, "pipeline.restore",
                partial(app.compile, p.schedule, sizes=built.sizes, target=TARGET), traced)
            lowerings = app.pipeline().disk_cache_info().lowerings
            self.warm_lowerings += lowerings
            if lowerings or c_toolchain.compile_count != invocations:
                self.fail(f"warm restore of {label} lowered or invoked the C compiler")

    def hit(self, traced: bool) -> None:
        for _ in range(HITS_PER_TURN):
            for label, built in self.base.items():
                p = built.program
                got = self.time_op(
                    "hit", label, "pipeline.compile_hit",
                    partial(built.app.compile, p.schedule, sizes=built.sizes, target=TARGET),
                    traced)
                if got is not built.compiled:
                    self.fail(f"LRU hit of {label} returned another pipeline")

    def call_load(self, load: Load, turn: int, traced: bool) -> None:
        """One burst of a load; every output is checked outside its timing."""
        for i in range(turn * load.burst, (turn + 1) * load.burst):
            out = self.time_op(load.kind, load.label, load.span,
                               partial(load.call, i), traced, catch=True)
            error = load.check(i, out) if out is not None else None
            if error:
                self.fail(f"{load.kind} {load.label}: {error}")

    def check_restored(self) -> None:
        """A restored program must compute what the cold-compiled one does."""
        for load in self.loads:
            if load.kind == "run":
                name = load.built.program.spec.input_name
                self.attempted += 1
                error = load.check(0, self.restored[load.label].run(
                    inputs={name: load.built.inputs[0]}))
                if error:
                    self.fail(f"restored {load.label}: {error}")

    @staticmethod
    def make_loads(builts, small_calls: bool) -> List[Load]:
        loads = []
        for built in builts:
            if built.program.streamed:
                loads.append(stream_load(built))
            else:
                loads.append(run_load(built))
                if small_calls:
                    loads.append(batch_load(built))
        return loads

    # -- the run ----------------------------------------------------------
    def run(self) -> None:
        workload = self.workload
        rounds = SETUP_ROUNDS
        for k in range(rounds):
            # In a traced run round 0 stays untraced: it is the base of
            # trace.overhead_pct for the compile path.
            round_ = self.cold_round(workload.programs, k, self.traced and k > 0)
            if k == 0:
                self.base = round_
        self.first_calls(self.base.values(), False)
        self.make_references(self.base.values())
        self.loads = self.make_loads(self.base.values(), workload.small_calls)

        # The machine's speed shifts for seconds at a time, so every kind of
        # operation is spread over the whole window: each short turn restores
        # and hits every program and gives one load its burst, and the
        # window's cold rounds start at evenly spaced offsets.  A traced run
        # leaves every fourth pass over the loads untraced (the overhead base)
        # and the last third of the window to the probes.
        window = clock()
        seconds = self.seconds * (0.65 if self.traced else 1.0)
        turn = 0
        while turn < 2 * len(self.loads) or clock() - window < seconds:
            elapsed = clock() - window
            traced = self.traced and turn // len(self.loads) % 4 != 0
            if rounds - SETUP_ROUNDS < workload.window_rounds * min(elapsed / seconds, 1.0):
                self.cold_round(workload.programs, rounds, traced)
                rounds += 1
            with self.tracing(traced):
                self.restore(traced)
                self.hit(traced)
                self.call_load(self.loads[turn % len(self.loads)],
                               turn // len(self.loads), traced)
            turn += 1
        self.check_restored()
        if self.traced:
            self.probes()

    # -- probes (traced run only) ------------------------------------------
    def probes(self) -> None:
        small = small_programs(self.quick)
        missing = [p for p in small if p.label not in self.base]
        probe = self.cold_round(missing, 0, True, probe=True)
        self.first_calls(probe.values(), True)
        self.make_references(probe.values())
        everything = {**self.base, **probe}
        have = {(load.kind, load.label) for load in self.loads}
        candidates = self.make_loads([everything[p.label] for p in small], True)
        self.probe_loads = [c for c in candidates if (c.kind, c.label) not in have]
        with self.tracing(True):
            for turn in range(2):
                for load in self.probe_loads:
                    self.call_load(load, turn, True)
        self.probe_stream_memory(everything[small[1].label])
        self.probe_ladder(everything[small[0].label])
        self.probe_static_cost()
        for load in self.loads:
            if load.kind == "run":
                self.probe_threads(load)
                self.probe_memcpy(load)

    def probe_stream_memory(self, built: Built) -> None:
        """Static worst-case intermediate peak beside the peak the numpy
        backend's allocation listener measures (native drives no listeners)."""
        p, clip = built.program, built.inputs[0][:, :, :8]
        stats = StreamStats()
        list(realize_stream(built.compiled, clip, stats=stats))
        self.extra["streaming.static_peak_kb"] = (stats.static_peak_bytes or 0) / 1024
        measured = StreamStats()
        instrumented = built.app.compile(p.schedule, sizes=built.sizes,
                                         target=Target("numpy", threads=1))
        list(realize_stream(instrumented, clip, stats=measured))
        self.extra["streaming.stats_peak_kb"] = measured.peak_intermediate_bytes / 1024

    def probe_ladder(self, built: Built) -> None:
        """The same small program on the three Python backends; outputs must
        be bit-identical to the native one's."""
        p, name = built.program, built.program.spec.input_name
        ladder = (("interp", "runtime.interp_ms", 2), ("numpy", "codegen.numpy_ms", 5),
                  ("compiled", "codegen.compiled_ms", 9))
        for backend, metric, calls in ladder:
            start = clock()
            compiled = built.app.compile(p.schedule, sizes=built.sizes,
                                         target=Target(backend, threads=1))
            if backend == "compiled":
                self.extra["codegen.py_compile_ms"] = (clock() - start) * 1e3
            times = []
            for i in range(calls):
                self.attempted += 1
                start = clock()
                out = compiled.run(inputs={name: built.inputs[i % len(built.inputs)]})
                times.append(clock() - start)
                error = built.check(i % len(built.inputs), out)
                if error:
                    self.fail(f"{backend} backend, {p.label}: {error}")
            self.extra[metric] = median(times) * 1e3

    def probe_static_cost(self) -> None:
        """``analyze_lowered`` — what the autotuner pays per candidate — at
        512x384: blur/tuned alone takes ~5 s at 1 MP, more than a run may spend."""
        from repro.analysis.static_cost import analyze_lowered

        width, height = (160, 128) if self.quick else (512, 384)
        times = []
        for name in ("blur", "camera_pipe"):
            spec = Program(name, "tuned", width, height).spec
            app = spec.make(spec.make_input(self.rng("static", name), width, height))
            sizes = spec.sizes(width, height)
            lowered = app.pipeline().lower(sizes, schedule=app.named_schedule("tuned"))
            start = clock()
            analyze_lowered(lowered, sizes=sizes)
            times.append(clock() - start)
            self.extra[f"analysis.static_cost_s {name}/tuned@{width}x{height}"] = times[-1]
        self.extra["analysis.static_cost_s"] = geomean(times)

    def probe_threads(self, load: Load) -> None:
        """The same loaded program with one OpenMP thread per CPU (informational)."""
        wide = copy.copy(load.built.compiled)
        wide.target = Target("native", threads=os.cpu_count())
        name = load.built.program.spec.input_name
        with self.tracing(True):
            for i in range(3):
                with self.recorder.span("pipeline.run_nproc", load.label):
                    wide.run(inputs={name: load.built.inputs[i % len(load.built.inputs)]})

    def probe_memcpy(self, load: Load) -> None:
        """``np.copyto`` of the program's input and output bytes: the roofline
        a bandwidth-bound kernel is placed against."""
        source, output = load.built.inputs[0], load.built.verified[0]
        targets = np.empty_like(source), np.empty_like(output)
        times = []
        for _ in range(5):
            start = clock()
            np.copyto(targets[0], source)
            np.copyto(targets[1], output)
            times.append(clock() - start)
        self.extra[f"memcpy {load.label}"] = median(times)

    # -- metrics ----------------------------------------------------------
    def series(self, kind: str, label: str, traced: Optional[bool] = None) -> List[float]:
        if traced is None:
            return self.samples[kind, label, False] + self.samples[kind, label, True]
        return self.samples[kind, label, traced]

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        # This box alternates, for seconds at a time, between two speed levels
        # ~25% apart, and the share of a window spent at each varies from run
        # to run: a median lands on either level or in between (6-17% spread
        # between runs), the best sample sits on the fast level (1-6%).  So a
        # timing is the best of its samples (the rows print the medians), and
        # the two throughputs are sustained: all the work over all the time.
        labels = list(self.base)

        def compile_metric(kind):
            return geomean(min(self.series(kind, label, False)) for label in labels)

        per_frame, rates, pixels, busy = [], [], 0.0, 0.0
        for load in self.loads:
            times = self.series(load.kind, load.label, False)
            per_frame.append(min(times) / load.frames)
            rates.append(load.frames * len(times) / sum(times))
            pixels += load.pixels * load.frames * len(times)
            busy += sum(times)
        return {
            "setup_s": (median(self.round_s), "s"),
            "run_ms": (geomean(per_frame) * 1e3, "ms"),
            "mpix_per_s": (pixels / busy / 1e6, "MP/s"),
            "frames_per_s": (geomean(rates), "1/s"),
            "compile_cold_s": (compile_metric("cold"), "s"),
            "compile_warm_ms": (compile_metric("warm") * 1e3, "ms"),
            "compile_hit_ms": (compile_metric("hit") * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        rec = self.recorder
        compiles, restores = rec.per_op("pipeline.compile"), rec.per_op("pipeline.restore")
        runs, wide = rec.per_op("pipeline.run"), rec.per_op("pipeline.run_nproc")
        labels = list(self.base)
        mains = [load.label for load in self.loads if load.kind == "run"]

        def layer(ops, name, over, scale):
            """Geomean over programs of the median over operations of one
            span name's self time."""
            return geomean(median([row[name] for row in ops[label]]) for label in over) * scale

        def count(name):
            return sum(rec.counts[name, self.cold_ops[label, 1]] for label in labels)

        def layers(ops, over, rows):
            return {metric: (layer(ops, span, over, 1e6 if unit == "us" else 1e3), unit)
                    for metric, span, unit in rows}

        # run path
        metrics: Dict[str, Tuple[float, str]] = layers(runs, mains, (
            ("pipeline.run_self_ms", "pipeline.run", "ms"),
            ("runtime.bind_input_ms", "runtime.bind_input", "ms"),
            ("runtime.create_executor_us", "runtime.create_executor", "us"),
            ("runtime.kernel_ms", "runtime.kernel", "ms")))
        kernel = {label: median([row["runtime.kernel"] for row in runs[label]])
                  for label in mains}
        metrics["pipeline.run_over_kernel"] = (geomean(
            median([row["total"] for row in runs[label]]) / kernel[label]
            for label in mains), "ratio")
        metrics["runtime.kernel_over_memcpy"] = (geomean(
            kernel[label] / self.extra[f"memcpy {label}"] for label in mains), "ratio")
        metrics["pipeline.first_run_ms"] = (geomean(
            median(self.series("first", label)) for label in labels) * 1e3, "ms")
        metrics["pipeline.run_p_tail_ms"] = (geomean(
            tail(self.series("run", label, True))[1] for label in mains) * 1e3, "ms")
        metrics.update(layers(wide, mains, (
            ("runtime.kernel_ms_nproc", "runtime.kernel", "ms"),)))
        # compile path: times, then the exact counts of cold round 1
        metrics["lang.build_ms"] = (geomean(
            median(self.series("build", label)) for label in labels) * 1e3, "ms")
        metrics.update(layers(compiles, labels, (
            ("compiler.lower_self_ms", "compiler.lower", "ms"),
            *((f"compiler.{name}_ms", f"compiler.{name}", "ms") for name in PASSES),
            ("codegen.emit_c_ms", "codegen.emit_c", "ms"),
            ("codegen.cc_ms", "codegen.cc", "ms"),
            ("codegen.dlopen_ms", "codegen.dlopen", "ms"),
            ("runtime.disk_store_ms", "runtime.disk_store", "ms"),
            ("pipeline.compile_self_ms", "pipeline.compile", "ms"))))
        metrics.update(layers(restores, labels, (
            ("runtime.disk_load_ms", "runtime.disk_load", "ms"),
            ("pipeline.restore_self_ms", "pipeline.restore", "ms"))))
        metrics["compiler.ir_nodes_before_simplify"] = (
            count("ir_nodes_before_simplify"), "count")
        metrics["compiler.ir_nodes_final"] = (count("ir_nodes_final"), "count")
        metrics["codegen.c_source_kb"] = (count("c_source_bytes") / 1024, "KB")
        metrics["codegen.cc_invocations"] = (count("cc_invocations"), "count")
        metrics["codegen.so_kb"] = (count("so_bytes") / 1024, "KB")
        metrics["pipeline.warm_lowerings"] = (self.warm_lowerings, "count")
        metrics["analysis.static_cost_s"] = (self.extra["analysis.static_cost_s"], "s")
        # small calls
        blur, video, chunk1 = (p.label for p in small_programs(self.quick))
        metrics["pipeline.run_small_us"] = (
            median([row["total"] for row in runs[blur]]) * 1e6, "us")
        metrics["runtime.kernel_small_us"] = (
            median([row["runtime.kernel"] for row in runs[blur]]) * 1e6, "us")
        for name, kind, label, scale, unit in (
                ("pipeline.batch_item_us", "batch", blur, 1e6, "us"),
                ("streaming.frame_ms", "stream", video, 1e3, "ms"),
                ("streaming.frame_ms_chunk1", "stream", chunk1, 1e3, "ms")):
            frames = next(load.frames for load in self.loads + self.probe_loads
                          if (load.kind, load.label) == (kind, label))
            metrics[name] = (median(self.series(kind, label, True)) / frames * scale, unit)
        for name, unit in (("streaming.static_peak_kb", "KB"), ("streaming.stats_peak_kb", "KB"),
                           ("runtime.interp_ms", "ms"), ("codegen.numpy_ms", "ms"),
                           ("codegen.compiled_ms", "ms"), ("codegen.py_compile_ms", "ms")):
            metrics[name] = (self.extra[name], unit)
        metrics["trace.overhead_pct"] = (self.overhead_pct(), "%")
        return metrics

    def overhead_pct(self) -> float:
        """Traced against untraced best time of the workload's main operation."""
        if self.workload.main == "cold":
            pairs = [("cold", label) for label in self.base]
        else:
            pairs = [(load.kind, load.label) for load in self.loads]
        ratios = [min(self.series(kind, label, True)) / min(self.series(kind, label, False))
                  for kind, label in pairs]
        return (geomean(ratios) - 1.0) * 100.0

    # -- report -----------------------------------------------------------
    def print_rows(self) -> None:
        """One row per series and program: best, median, quartiles, tail, count."""
        print(f"{'series':<12} {'program':<36} {'traced':<6} {'n':>6} {'best':>12} {'median':>12} "
              f"{'p25':>12} {'p75':>12} {'tail':>16}  (ms)")
        for (kind, label, traced), values in sorted(self.samples.items()):
            if not values:
                continue
            q1, q3 = quartiles(values)
            pct, high = tail(values)
            print(f"{kind:<12} {label:<36} {str(traced):<6} {len(values):>6} "
                  f"{min(values) * 1e3:>12.4f} {median(values) * 1e3:>12.4f} "
                  f"{q1 * 1e3:>12.4f} {q3 * 1e3:>12.4f} "
                  f"{f'p{pct:.1f}={high * 1e3:.4f}':>16}")
        print(f"set-up rounds (s): {[round(v, 3) for v in self.round_s]}; "
              f"references {self.reference_s:.3f} s")

    def print_layers(self) -> None:
        """Per program: median self time of every span name, in ms and as a
        share of the operation's median.  Within one operation the self times
        add up to it exactly; their medians only nearly do."""
        for root in ("pipeline.compile", "pipeline.restore", "pipeline.run",
                     "pipeline.realize_batch", "streaming.realize_stream"):
            for label, rows in sorted(self.recorder.per_op(root).items()):
                total = median([row["total"] for row in rows])
                names = sorted({name for row in rows for name in row} - {"total"})
                parts = [(name, median([row.get(name, 0.0) for row in rows])) for name in names]
                covered = sum(value for _, value in parts)
                print(f"{root} {label}: n={len(rows)} median {total * 1e3:.4f} ms; "
                      f"median self times add up to {100 * covered / total:.1f}% of it")
                for name, value in sorted(parts, key=lambda part: -part[1]):
                    print(f"    {name:<32} {value * 1e3:>12.4f} ms {100 * value / total:>6.1f}%")
        for name, value in sorted(self.extra.items()):
            print(f"probe {name}: {value:.6g}")


def provenance(seed: int) -> Dict[str, object]:
    """What a result must carry to be compared with another."""
    def output_of(command):
        try:
            return subprocess.run(command, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    toolchain = c_toolchain.probe_toolchain()
    return {
        "seed": seed,
        "repro_version": repro.__version__,
        "git_sha": output_of(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": output_of([toolchain.cc, "--version"]).splitlines()[0] if toolchain else "none",
        "cc_flags": " ".join(toolchain.flags()) if toolchain else "",
        "target": str(TARGET),
    }
