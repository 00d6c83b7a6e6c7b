"""First-class pipeline-wide schedules: immutable, serializable values.

The paper's central claim is that a schedule is *data* decoupled from the
algorithm.  :class:`Schedule` makes that literal: it is an immutable map of
function name -> directive list that can be

* built fluently (``Schedule().func("blur_y").tile(...).parallel("yo")``),
* captured from already-scheduled Funcs (:meth:`Schedule.from_funcs`),
* serialized to/from plain dicts and JSON with a stable content digest
  (the compilation-cache key of :meth:`repro.pipeline.Pipeline.compile`),
* applied *non-destructively* at lowering time, so one algorithm graph can
  be realized under many schedules concurrently.

A directive is a plain tuple ``(op, *args)`` — a row of
:data:`repro.core.schedule.DIRECTIVES`, whose meaning is the
:class:`FuncSchedule` method of the same name (reference table:
docs/scheduling.md, "The two axes of a schedule").

Directives are applied in order to a fresh :class:`FuncSchedule`; functions
the schedule does not mention get the default (inline/root) schedule, so
applying a Schedule is hermetic — nothing stacks on previous schedules.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.dims import ForType
from repro.core.loop_level import LoopLevel
from repro.core.schedule import (
    FluentDirectives,
    FuncSchedule,
    ScheduleError,
    as_name,
    normalize_directive,
)

__all__ = ["Schedule", "ScheduleBuilder", "as_schedule"]

SCHEDULE_FORMAT_VERSION = 1

_MARK_OPS = {
    ForType.PARALLEL: "parallel",
    ForType.VECTORIZED: "vectorize",
    ForType.UNROLLED: "unroll",
    ForType.GPU_BLOCK: "gpu_blocks",
    ForType.GPU_THREAD: "gpu_threads",
}


def _capture_func_schedule(sched: FuncSchedule) -> Tuple[Tuple, ...]:
    """Directives that rebuild ``sched`` exactly when replayed on a fresh one.

    Emission order matters: splits, then the explicit loop order, then bounds
    (a ``vectorize`` mark may rely on a bound for its constant extent), then
    folds and markings, then the call schedule.
    """
    directives: List[Tuple] = []
    replay = FuncSchedule(sched.storage_dims)
    for s in sched.splits:
        directives.append(("split", s.old, s.outer, s.inner, int(s.factor), s.tail.value))
        replay.split(s.old, s.outer, s.inner, int(s.factor), s.tail)
    if replay.dim_names() != sched.dim_names():
        directives.append(("reorder", tuple(sched.dim_names())))
    for var in sorted(sched.bounds):
        mn, extent = sched.bounds[var]
        directives.append(("bound", var, int(mn), int(extent)))
    for var in sorted(sched.storage_folds):
        directives.append(("storage_fold", var, int(sched.storage_folds[var])))
    if sched.rdom_is_outer:
        directives.append(("rdom_outer",))
    for d in sched.dims:
        if d.for_type != ForType.SERIAL:
            directives.append((_MARK_OPS[d.for_type], d.var))
    compute, store = sched.compute_level, sched.store_level
    if compute.is_root():
        directives.append(("compute_root",))
        implied_store = LoopLevel.root()
    elif compute.is_at():
        directives.append(("compute_at", compute.func, compute.var))
        implied_store = compute
    else:
        implied_store = LoopLevel.inlined()
    if store != implied_store:
        if store.is_root():
            directives.append(("store_root",))
        elif store.is_at():
            directives.append(("store_at", store.func, store.var))
    return tuple(directives)


class Schedule:
    """An immutable pipeline-wide schedule: function name -> directive list.

    Instances are values: hashable, comparable, serializable.  All builder
    methods return *new* Schedule objects; nothing ever mutates one.
    """

    __slots__ = ("_funcs",)

    def __init__(self, funcs: Optional[Mapping[str, Iterable[Sequence]]] = None):
        normalized: Dict[str, Tuple[Tuple, ...]] = {}
        for name, directives in (funcs or {}).items():
            normalized[str(name)] = tuple(normalize_directive(d) for d in directives)
        object.__setattr__(self, "_funcs", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("Schedule is immutable; builder methods return new objects")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def func(self, name) -> "ScheduleBuilder":
        """A fluent cursor appending directives for one function."""
        return ScheduleBuilder(self, as_name(name))

    def with_directives(self, name: str, *directives: Sequence) -> "Schedule":
        """A new Schedule with ``directives`` appended for function ``name``."""
        funcs = dict(self._funcs)
        funcs[name] = funcs.get(name, ()) + tuple(normalize_directive(d) for d in directives)
        return Schedule(funcs)

    def without_func(self, name: str) -> "Schedule":
        """A new Schedule with every directive of ``name`` dropped."""
        funcs = {n: d for n, d in self._funcs.items() if n != as_name(name)}
        return Schedule(funcs)

    def merged(self, other: "Schedule") -> "Schedule":
        """A new Schedule where functions named by ``other`` replace this one's."""
        other = as_schedule(other)
        funcs = dict(self._funcs)
        funcs.update(other._funcs)
        return Schedule(funcs)

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    @classmethod
    def from_func_schedules(cls, schedules: Mapping[str, FuncSchedule]) -> "Schedule":
        """Capture concrete :class:`FuncSchedule` objects as schedule data."""
        return cls({name: _capture_func_schedule(sched)
                    for name, sched in schedules.items() if sched is not None})

    @classmethod
    def from_funcs(cls, funcs) -> "Schedule":
        """Capture the current schedules of scheduled Funcs.

        ``funcs`` is a mapping or iterable of :class:`~repro.lang.Func` (or
        core :class:`~repro.core.function.Function`) objects; entries are
        keyed by the *function* name, which is how the compiler addresses
        stages.  Undefined functions (no schedule yet) are skipped.
        """
        values = funcs.values() if hasattr(funcs, "values") else funcs
        schedules: Dict[str, FuncSchedule] = {}
        for f in values:
            function = getattr(f, "function", f)
            if getattr(function, "schedule", None) is not None:
                schedules[function.name] = function.schedule
        return cls.from_func_schedules(schedules)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def funcs(self) -> Tuple[str, ...]:
        """The function names this schedule carries directives for."""
        return tuple(sorted(self._funcs))

    def directives(self, name) -> Tuple[Tuple, ...]:
        """The directive list recorded for one function (empty if absent)."""
        return self._funcs.get(as_name(name), ())

    def is_empty(self) -> bool:
        return not any(self._funcs.values())

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def func_schedules(self, env: Mapping[str, object]) -> Dict[str, FuncSchedule]:
        """Materialize concrete per-function schedules for a pipeline graph.

        ``env`` maps function name -> core Function (as produced by
        ``Pipeline.functions()``).  Every function in ``env`` gets a fresh
        schedule — default for unmentioned functions — so application is
        hermetic and never stacks on prior schedules.  Directives naming a
        function absent from ``env`` raise :class:`ScheduleError`.
        """
        unknown = sorted(set(self._funcs) - set(env))
        if unknown:
            raise ScheduleError(
                f"schedule names unknown function(s) {unknown}; "
                f"pipeline has: {sorted(env)}"
            )
        result: Dict[str, FuncSchedule] = {}
        for name, func in env.items():
            schedule = FuncSchedule(func.args)
            for directive in self._funcs.get(name, ()):
                try:
                    schedule.apply(*directive)
                except ScheduleError as error:
                    raise ScheduleError(f"in schedule of {name!r}: {error}") from None
            result[name] = schedule
        return result

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """A plain-data rendering (stable order; JSON-compatible)."""
        return {
            "version": SCHEDULE_FORMAT_VERSION,
            "funcs": {
                name: [[d[0], *[list(a) if isinstance(a, tuple) else a for a in d[1:]]]
                       for d in self._funcs[name]]
                for name in sorted(self._funcs)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Schedule":
        version = data.get("version", SCHEDULE_FORMAT_VERSION)
        if version != SCHEDULE_FORMAT_VERSION:
            raise ScheduleError(
                f"unsupported schedule format version {version!r} "
                f"(this build reads version {SCHEDULE_FORMAT_VERSION})"
            )
        return cls(data.get("funcs", {}))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """A stable content digest (the compilation-cache key component)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------
    def _canonical(self) -> Tuple:
        return tuple((name, self._funcs[name]) for name in sorted(self._funcs))

    def __eq__(self, other) -> bool:
        other = other.schedule if isinstance(other, ScheduleBuilder) else other
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def describe(self) -> str:
        """A compact human-readable rendering (for logs)."""
        lines = []
        for name in sorted(self._funcs):
            rendered = " ".join(
                f"{d[0]}({', '.join(str(a) for a in d[1:])})" for d in self._funcs[name]
            )
            lines.append(f"{name}: {rendered or '(default)'}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule(funcs={sorted(self._funcs)}, digest={self.digest()})"


class ScheduleBuilder(FluentDirectives):
    """A fluent, immutable cursor over one function of a :class:`Schedule`.

    Every directive method (:class:`~repro.core.schedule.FluentDirectives`)
    returns a *new* builder; ``.func(name)`` switches the cursor;
    ``.schedule`` yields the accumulated Schedule.  Builders are accepted
    anywhere a Schedule is (via :func:`as_schedule`), so chains never need an
    explicit terminator.
    """

    __slots__ = ("_sched", "_current")

    def __init__(self, schedule: Schedule, current: str):
        object.__setattr__(self, "_sched", schedule)
        object.__setattr__(self, "_current", current)

    def __setattr__(self, name, value):
        raise AttributeError("ScheduleBuilder is immutable")

    @property
    def schedule(self) -> Schedule:
        return self._sched

    def func(self, name) -> "ScheduleBuilder":
        return ScheduleBuilder(self._sched, as_name(name))

    def _directive(self, op: str, *args) -> "ScheduleBuilder":
        return ScheduleBuilder(self._sched.with_directives(self._current, (op, *args)),
                               self._current)

    # -- Schedule delegation (a builder is usable as a Schedule) --------
    def funcs(self):
        return self._sched.funcs()

    def directives(self, name):
        return self._sched.directives(name)

    def func_schedules(self, env):
        return self._sched.func_schedules(env)

    def to_dict(self):
        return self._sched.to_dict()

    def to_json(self, indent: Optional[int] = None):
        return self._sched.to_json(indent)

    def digest(self):
        return self._sched.digest()

    def describe(self):
        return self._sched.describe()

    def __eq__(self, other) -> bool:
        return self._sched == other

    def __hash__(self) -> int:
        return hash(self._sched)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduleBuilder(func={self._current!r}, {self._sched!r})"


def as_schedule(value) -> Optional[Schedule]:
    """Coerce schedule-like values to :class:`Schedule`.

    Accepts ``None`` (returned unchanged), Schedule, a fluent builder chain,
    a JSON string, a serialized dict, a mapping of name -> directive list, or
    a mapping of name -> :class:`FuncSchedule` (captured).
    """
    if value is None or isinstance(value, Schedule):
        return value
    if isinstance(value, ScheduleBuilder):
        return value.schedule
    if isinstance(value, str):
        try:
            return Schedule.from_json(value)
        except json.JSONDecodeError:
            raise ScheduleError(
                f"string schedule {value!r} is not Schedule JSON; named app "
                "schedules resolve through AppPipeline "
                "(app.compile(name) / app.named_schedule(name)), "
                "not through a raw Pipeline"
            ) from None
    if isinstance(value, Mapping):
        if "funcs" in value and "version" in value:
            return Schedule.from_dict(value)
        if any(isinstance(v, FuncSchedule) for v in value.values()):
            return Schedule.from_func_schedules(value)
        return Schedule(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a Schedule")
