"""Static cost analysis of lowered pipelines (no execution).

The dynamic :class:`~repro.machine.cost_model.CostModel` listens to the
interpreter's per-operation event stream — exact, but it costs a full
interpreted execution per estimate, which makes it the slowest part of the
autotuner by orders of magnitude.  This pass computes the same
:class:`~repro.machine.cost_model.CostReport` by *walking the lowered
Stmt/Expr tree*:

* **Operation counts are exact.**  The walker mirrors the interpreter's event
  semantics precisely — which nodes emit an arithmetic event (binary
  arithmetic, comparisons, intrinsic calls; not casts, selects, boolean ops,
  ramps or broadcasts), how vector lanes are derived, that a ``For`` evaluates
  its min/extent once per *entry*, that only the taken branch of an
  ``IfThenElse`` executes — and multiplies per-iteration counts by loop
  extents instead of iterating.  When a count genuinely depends on a loop
  variable (sliding-window extents, ``GUARD_WITH_IF`` tails), the enclosing
  loop is re-walked per concrete iteration, so the totals stay exact; the
  interior of constant-extent nests is still summarized analytically.
* **Memory traffic is summarized per access site.**  Every load/store site
  records its execution count, vector shape, and the affine form of its index
  (via :mod:`repro.analysis.linear`).  Closing loops turn these into
  per-buffer stride/footprint summaries: how far the site advances per
  iteration, the total span it touches, and — for loops that *re*-touch the
  same region — the working set between reuses.  The report phase classifies
  the resulting line traffic against the profile's cache geometry (the same
  L1/L2 sizes and line length the :class:`~repro.machine.cache.CacheSimulator`
  uses) into spatial L1 hits, temporal hits at the level whose capacity holds
  the reuse working set, and compulsory memory misses.
* **Parallel structure is charged identically** to the dynamic model: work
  inside ``ForType.PARALLEL``/GPU loops is divided by
  ``min(product of open parallel extents, cores)`` and each parallel-loop
  entry pays the profile's dispatch overhead.

``ops``/``loads``/``stores`` match the dynamic model exactly (property-tested
across fuzz-generated pipelines); cycle totals are analytic estimates whose
*ordering* of schedules matches the trace-driven simulation — which is what
the autotuner needs from a fitness function.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.linear import to_linear
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir import op
from repro.ir.visitor import children_of

__all__ = [
    "StaticAnalysisError",
    "StaticCostAnalyzer",
    "analyze_lowered",
    "estimate_cost_static",
]


class StaticAnalysisError(RuntimeError):
    """Raised when the lowered tree cannot be analyzed statically."""


class _Needs(Exception):
    """Internal: a control-flow value depends on enclosing loop variables."""

    def __init__(self, names):
        super().__init__(", ".join(sorted(names)))
        self.names = frozenset(names)


_PARALLEL_TYPES = (S.ForType.PARALLEL, S.ForType.GPU_BLOCK, S.ForType.GPU_THREAD)


class _Site:
    """One load/store site: execution count + stride/footprint summary."""

    __slots__ = ("kind", "buffer", "element_bytes", "lanes", "execs", "factor",
                 "ramp_stride", "coeffs", "span_elems", "inner_advance",
                 "reuse_ws")

    def __init__(self, kind, buffer, element_bytes, lanes, execs, factor,
                 ramp_stride, coeffs, span_elems):
        self.kind = kind
        self.buffer = buffer
        self.element_bytes = element_bytes
        self.lanes = lanes
        self.execs = execs
        self.factor = factor
        #: Constant lane stride of a Ramp index (0 for broadcast/scalar,
        #: None when the index is not an affine vector).
        self.ramp_stride = ramp_stride
        #: Affine coefficients of the index over still-open loop variables
        #: (None when the index is not affine).
        self.coeffs = coeffs
        #: Elements spanned by the site across all closed loops (grows as
        #: enclosing loops close).
        self.span_elems = span_elems
        #: Element advance per iteration of the innermost loop the index
        #: varies with (None until such a loop closes).
        self.inner_advance = None
        #: Bytes touched between temporal reuses of this site's lines, set
        #: when a loop whose variable the index does *not* use closes.
        self.reuse_ws = None


class StaticCostAnalyzer:
    """Walks a lowered statement and accumulates cost-model quantities.

    ``env`` maps free variable names (output bounds, scalar params) to
    numbers.  ``exact`` stays True as long as every control-flow value
    (loop extents, branch conditions, allocation sizes) was resolvable;
    when it goes False the counts are best-effort estimates.
    """

    def __init__(self, profile, env: Optional[Dict[str, object]] = None):
        self.profile = profile
        self.env: Dict[str, object] = dict(env or {})
        self.exact = True

        self.ops = 0
        self.loads = 0
        self.stores = 0
        self.arith_cycles = 0.0
        self.parallel_overhead = 0.0
        self.sites: List[_Site] = []

        #: Buffer capacity in elements / element size in bytes (from
        #: Allocate nodes and image layouts).
        self.buffer_elems: Dict[str, int] = {}
        self.buffer_eb: Dict[str, int] = {}
        self.current_alloc_bytes = 0
        self.peak_alloc_bytes = 0

        self._lanes_env: Dict[str, int] = {}
        #: Let-bound names whose value is affine in open loop variables.
        self._linear_env: Dict[str, Tuple[Dict[str, float], float]] = {}
        #: Let-bound names whose value is unknown -> the root unknowns.
        self._unknown_roots: Dict[str, frozenset] = {}
        self._active_loops: Set[str] = set()
        self._parallel_stack: List[int] = []
        self._factor = 1.0

        self._stmt_table = {
            "Block": self._stmt_Block,
            "LetStmt": self._stmt_LetStmt,
            "ProducerConsumer": self._stmt_ProducerConsumer,
            "For": self._stmt_For,
            "Allocate": self._stmt_Allocate,
            "Store": self._stmt_Store,
            "IfThenElse": self._stmt_IfThenElse,
            "AssertStmt": self._stmt_AssertStmt,
            "Evaluate": self._stmt_Evaluate,
        }

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self, stmt: S.Stmt) -> None:
        self._stmt(stmt, 1)

    def report(self):
        from repro.machine.cache import CacheStats
        from repro.machine.cost_model import CostReport

        profile = self.profile
        line = profile.cache_line_bytes
        latency = {1: profile.l1_latency, 2: profile.l2_latency,
                   3: profile.memory_latency}
        stats = CacheStats()
        memory_cycles = 0.0
        for site in self.sites:
            eb = max(1, site.element_bytes)
            elems_per_line = max(1, line // eb)
            capacity = self.buffer_elems.get(site.buffer)

            # Cache accesses per execution: the dynamic model touches each
            # distinct line of a vector access once, every scalar access once.
            if site.lanes <= 1:
                per_exec_lines = 1
            elif site.ramp_stride is None:
                per_exec_lines = site.lanes
            else:
                per_exec_lines = min(site.lanes, max(1, math.ceil(
                    site.lanes * abs(site.ramp_stride) / elems_per_line)))
            accesses = site.execs * per_exec_lines
            if accesses <= 0:
                continue

            span = site.span_elems
            if capacity is not None:
                span = min(span, capacity)
            span_bytes = max(1, int(span)) * eb
            distinct = max(1, min(accesses, math.ceil(span_bytes / line)))

            # New-line events: accesses that leave the just-touched line.
            if site.coeffs is None:
                new_lines = accesses
            elif site.inner_advance is None:
                new_lines = distinct
            else:
                rate = min(float(per_exec_lines),
                           abs(site.inner_advance) / elems_per_line)
                new_lines = int(site.execs * rate)
            new_lines = max(distinct, min(accesses, new_lines))

            spatial = accesses - new_lines          # same-line repeats -> L1
            compulsory = distinct                   # cold misses -> memory
            temporal = new_lines - distinct         # line revisits
            ws = site.reuse_ws if site.reuse_ws is not None else span_bytes
            if ws <= profile.l1_size:
                level = 1
            elif ws <= profile.l2_size:
                level = 2
            else:
                level = 3

            t1 = temporal if level == 1 else 0
            t2 = temporal if level == 2 else 0
            t3 = temporal if level == 3 else 0
            stats.l1_hits += spatial + t1
            stats.l1_misses += t2 + t3 + compulsory
            stats.l2_hits += t2
            stats.l2_misses += t3 + compulsory
            cost = ((spatial + t1) * latency[1] + t2 * latency[2] +
                    (t3 + compulsory) * latency[3])
            memory_cycles += cost * (1.0 - profile.latency_hiding) / site.factor

        cycles = self.arith_cycles + memory_cycles + self.parallel_overhead
        return CostReport(
            profile_name=profile.name,
            cycles=cycles,
            arithmetic_cycles=self.arith_cycles,
            memory_cycles=memory_cycles,
            parallel_overhead_cycles=self.parallel_overhead,
            cache=stats,
            milliseconds=cycles / (profile.frequency_ghz * 1e6),
            ops=int(self.ops),
            loads=int(self.loads),
            stores=int(self.stores),
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _snapshot(self):
        return (self.ops, self.loads, self.stores, self.arith_cycles,
                self.parallel_overhead, len(self.sites), self.exact,
                self.current_alloc_bytes, self.peak_alloc_bytes)

    def _restore(self, snap) -> None:
        (self.ops, self.loads, self.stores, self.arith_cycles,
         self.parallel_overhead, num_sites, self.exact,
         self.current_alloc_bytes, self.peak_alloc_bytes) = snap
        del self.sites[num_sites:]

    def _recompute_factor(self) -> None:
        available = 1
        for extent in self._parallel_stack:
            available *= max(extent, 1)
        self._factor = float(min(available, self.profile.cores)) or 1.0

    def _arith(self, times: int, lanes: int) -> None:
        self.ops += times * lanes
        issues = times * math.ceil(lanes / self.profile.vector_width)
        self.arith_cycles += issues * self.profile.issue_cost / self._factor

    def _roots(self, e: E.Expr) -> frozenset:
        """Root unknown variables an expression's value depends on."""
        names: Set[str] = set()
        self._collect_roots(e, names)
        return frozenset(names)

    def _collect_roots(self, e: E.Expr, out: Set[str]) -> None:
        if isinstance(e, E.Variable):
            if e.name in self.env:
                return
            roots = self._unknown_roots.get(e.name)
            if roots is not None:
                out.update(roots)
            elif e.name in self._linear_env:
                out.update(self._linear_env[e.name][0].keys())
            else:
                out.add(e.name)
            return
        if isinstance(e, E.Let):
            body_roots: Set[str] = set()
            self._collect_roots(e.body, body_roots)
            if e.name in body_roots:
                body_roots.discard(e.name)
                self._collect_roots(e.value, body_roots)
            out.update(body_roots)
            return
        for child in children_of(e):
            if isinstance(child, E.Expr):
                self._collect_roots(child, out)

    def _linearize(self, e: E.Expr) -> Optional[Tuple[Dict[str, float], float]]:
        """Affine form of ``e`` over *unresolved* variables.

        Numeric bindings fold into the constant; let-bound affine values are
        substituted, so the remaining coefficients are over open loop
        variables (or genuinely unknown names).
        """
        linear = to_linear(e)
        if linear is None:
            return None
        coeffs: Dict[str, float] = {}
        constant = float(linear.constant)
        for name, c in linear.coefficients.items():
            if not c:
                continue
            value = self.env.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                constant += c * value
                continue
            sub = self._linear_env.get(name)
            if sub is not None:
                sub_coeffs, sub_const = sub
                constant += c * sub_const
                for sub_name, sub_c in sub_coeffs.items():
                    coeffs[sub_name] = coeffs.get(sub_name, 0.0) + c * sub_c
                continue
            coeffs[name] = coeffs.get(name, 0.0) + c
        return coeffs, constant

    def _resolve_control(self, e: E.Expr, value, fallback):
        """A control-flow value: raise ``_Needs`` when an enclosing loop can
        supply it by iterating, otherwise fall back (marking the analysis
        inexact)."""
        if value is not None:
            return value
        roots = self._roots(e)
        if roots & self._active_loops:
            raise _Needs(roots)
        self.exact = False
        return fallback

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _stmt(self, stmt: S.Stmt, times: int) -> None:
        if stmt is None or times <= 0:
            return
        handler = self._stmt_table.get(type(stmt).__name__)
        if handler is None:
            raise StaticAnalysisError(
                f"cannot analyze statement {type(stmt).__name__}; "
                "run the flattening pass first")
        handler(stmt, times)

    def _stmt_Block(self, stmt: S.Block, times: int) -> None:
        for s in stmt.stmts:
            self._stmt(s, times)

    def _stmt_ProducerConsumer(self, stmt: S.ProducerConsumer, times: int) -> None:
        self._stmt(stmt.body, times)

    def _stmt_Evaluate(self, stmt: S.Evaluate, times: int) -> None:
        self._expr(stmt.value, times)

    def _stmt_AssertStmt(self, stmt: S.AssertStmt, times: int) -> None:
        self._expr(stmt.condition, times)

    def _stmt_LetStmt(self, stmt: S.LetStmt, times: int) -> None:
        value, lanes = self._expr(stmt.value, times)
        self._with_binding(stmt.name, stmt.value, value, lanes,
                           lambda: self._stmt(stmt.body, times))

    def _with_binding(self, name, value_expr, value, lanes, thunk):
        saved_env = self.env.get(name, _MISSING)
        saved_lanes = self._lanes_env.get(name, _MISSING)
        saved_linear = self._linear_env.get(name, _MISSING)
        saved_roots = self._unknown_roots.get(name, _MISSING)
        self.env.pop(name, None)
        self._linear_env.pop(name, None)
        self._unknown_roots.pop(name, None)
        if value is not None:
            self.env[name] = value
        else:
            linear = self._linearize(value_expr)
            if linear is not None:
                self._linear_env[name] = linear
            else:
                self._unknown_roots[name] = self._roots(value_expr)
        if lanes > 1:
            self._lanes_env[name] = lanes
        try:
            return thunk()
        finally:
            _restore_key(self.env, name, saved_env)
            _restore_key(self._lanes_env, name, saved_lanes)
            _restore_key(self._linear_env, name, saved_linear)
            _restore_key(self._unknown_roots, name, saved_roots)

    def _stmt_IfThenElse(self, stmt: S.IfThenElse, times: int) -> None:
        value, _lanes = self._expr(stmt.condition, times)
        if value is None:
            # GUARD_WITH_IF conditions depend on loop variables: the
            # enclosing loop iterates concretely so the branch stays exact.
            value = self._resolve_control(stmt.condition, None, True)
        if bool(value):
            self._stmt(stmt.then_case, times)
        elif stmt.else_case is not None:
            self._stmt(stmt.else_case, times)

    def _stmt_Allocate(self, stmt: S.Allocate, times: int) -> None:
        size_value, _ = self._expr(stmt.size, times)
        size_value = self._resolve_control(stmt.size, size_value, 0)
        elems = max(int(size_value), 0)
        eb = stmt.type.to_numpy_dtype().itemsize
        self.buffer_elems[stmt.name] = max(self.buffer_elems.get(stmt.name, 0), elems)
        self.buffer_eb[stmt.name] = eb
        self.current_alloc_bytes += elems * eb
        self.peak_alloc_bytes = max(self.peak_alloc_bytes, self.current_alloc_bytes)
        try:
            self._stmt(stmt.body, times)
        finally:
            self.current_alloc_bytes -= elems * eb

    def _stmt_Store(self, stmt: S.Store, times: int) -> None:
        _iv, index_lanes = self._expr(stmt.index, times)
        _vv, value_lanes = self._expr(stmt.value, times)
        if index_lanes > 1:
            lanes = index_lanes
        elif value_lanes > 1:
            lanes = value_lanes
        else:
            lanes = 1
        self.stores += times * lanes
        self._record_site("store", stmt.name, stmt.index, index_lanes, times,
                          element_type=stmt.value.type)

    def _stmt_For(self, stmt: S.For, times: int) -> None:
        # Min and extent are evaluated once per loop *entry*.
        min_value, _ = self._expr(stmt.min, times)
        extent_value, _ = self._expr(stmt.extent, times)
        extent_value = self._resolve_control(stmt.extent, extent_value, 1)
        extent = int(extent_value)

        parallel = stmt.for_type in _PARALLEL_TYPES
        if parallel:
            self.parallel_overhead += (
                times * self.profile.parallel_task_overhead / self._factor)
            self._parallel_stack.append(max(extent, 1))
            self._recompute_factor()
        try:
            if extent > 0:
                self._walk_loop_body(stmt, times, min_value, extent)
        finally:
            if parallel:
                self._parallel_stack.pop()
                self._recompute_factor()

    def _walk_loop_body(self, stmt: S.For, times: int, min_value, extent: int) -> None:
        snap = self._snapshot()
        site_mark = len(self.sites)
        self._active_loops.add(stmt.name)
        try:
            self._stmt(stmt.body, times * extent)
        except _Needs as needs:
            self._active_loops.discard(stmt.name)
            if stmt.name not in needs.names:
                raise
            # Something in the body (an inner extent, a guard condition, an
            # allocation size) depends on this loop's variable: re-walk the
            # body once per concrete iteration.  Counts stay exact; it costs
            # one tree walk per iteration instead of one total.
            self._restore(snap)
            start = int(self._resolve_control(stmt.min, min_value, 0))
            saved = self.env.get(stmt.name, _MISSING)
            try:
                for i in range(start, start + extent):
                    self.env[stmt.name] = i
                    self._stmt(stmt.body, times)
            finally:
                _restore_key(self.env, stmt.name, saved)
        else:
            self._active_loops.discard(stmt.name)
            self._close_loop(stmt.name, extent, site_mark)

    def _close_loop(self, var: str, extent: int, site_mark: int) -> None:
        """Fold one analytic loop level into the enclosed sites' summaries."""
        closed = self.sites[site_mark:]
        if not closed:
            return
        # Bytes touched by one iteration of this loop, per buffer (overlapping
        # sites on the same buffer count once: the max span wins).
        per_buffer: Dict[str, float] = {}
        for site in closed:
            span_bytes = site.span_elems * site.element_bytes
            if span_bytes > per_buffer.get(site.buffer, 0.0):
                per_buffer[site.buffer] = span_bytes
        body_bytes = sum(per_buffer.values())
        for site in closed:
            if site.coeffs is None:
                capacity = self.buffer_elems.get(site.buffer)
                site.span_elems = min(site.span_elems * extent,
                                      capacity if capacity else site.span_elems * extent)
                continue
            coeff = site.coeffs.get(var, 0.0)
            if coeff:
                if site.inner_advance is None:
                    site.inner_advance = abs(coeff)
                site.span_elems = (extent - 1) * abs(coeff) + site.span_elems
            elif site.reuse_ws is None:
                site.reuse_ws = body_bytes

    # ------------------------------------------------------------------
    # access sites
    # ------------------------------------------------------------------
    def _record_site(self, kind: str, buffer: str, index: E.Expr,
                     index_lanes: int, times: int, element_type) -> None:
        eb = self.buffer_eb.get(buffer)
        if eb is None:
            eb = element_type.element_of().to_numpy_dtype().itemsize
        if isinstance(index, E.Ramp):
            lanes = index.lanes
            ramp_stride = op.const_value(index.stride)
            base = index.base
        elif isinstance(index, E.Broadcast):
            lanes = max(index.lanes, index_lanes)
            ramp_stride = 0
            base = index.value
        elif index_lanes > 1:
            # Non-affine vector index (gather/scatter).
            lanes = index_lanes
            ramp_stride = None
            base = None
        else:
            lanes = 1
            ramp_stride = 0
            base = index
        coeffs = None
        if base is not None and ramp_stride is not None:
            linear = self._linearize(base)
            if linear is not None:
                coeffs = {name: c for name, c in linear[0].items() if c}
        if ramp_stride is None or coeffs is None:
            span = float(lanes)
            coeffs = None
            ramp_stride = None if lanes > 1 else 0
        elif lanes > 1:
            span = (lanes - 1) * abs(float(ramp_stride)) + 1.0
        else:
            span = 1.0
        self.sites.append(_Site(kind, buffer, eb, lanes, times, self._factor,
                                ramp_stride, coeffs, span))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _expr(self, e: E.Expr, times: int):
        """Count events for one evaluation of ``e`` (scaled by ``times``);
        returns ``(value, lanes)`` with ``value`` None when unknown."""
        method = _EXPR_TABLE.get(type(e).__name__)
        if method is None:
            raise StaticAnalysisError(f"cannot analyze expression {type(e).__name__}")
        return method(self, e, times)

    def _expr_IntImm(self, e, times):
        return e.value, 1

    def _expr_FloatImm(self, e, times):
        return e.value, 1

    def _expr_Variable(self, e, times):
        return self.env.get(e.name), self._lanes_env.get(e.name, 1)

    def _expr_Cast(self, e, times):
        value, lanes = self._expr(e.value, times)
        if value is not None:
            if e.type.is_float():
                value = float(value)
            elif e.type.is_bool():
                value = bool(value)
            else:
                value = int(value)
        return value, lanes

    def _binary_operands(self, e, times):
        va, la = self._expr(e.a, times)
        vb, lb = self._expr(e.b, times)
        lanes = max(la, lb)
        self._arith(times, lanes)
        return va, vb, lanes

    def _expr_Add(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va + vb), lanes

    def _expr_Sub(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va - vb), lanes

    def _expr_Mul(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va * vb), lanes

    def _expr_Div(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        if va is None or vb is None:
            return None, lanes
        if e.type.is_float():
            return (va / vb if vb else None), lanes
        if vb == 0:
            return 0, lanes
        return int(math.floor(va / vb)), lanes

    def _expr_Mod(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        if va is None or vb is None:
            return None, lanes
        if e.type.is_float():
            return (math.fmod(va, vb) if vb else None), lanes
        if vb == 0:
            return 0, lanes
        return va - vb * int(math.floor(va / vb)), lanes

    def _expr_Min(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else min(va, vb)), lanes

    def _expr_Max(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else max(va, vb)), lanes

    def _expr_EQ(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va == vb), lanes

    def _expr_NE(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va != vb), lanes

    def _expr_LT(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va < vb), lanes

    def _expr_LE(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va <= vb), lanes

    def _expr_GT(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va > vb), lanes

    def _expr_GE(self, e, times):
        va, vb, lanes = self._binary_operands(e, times)
        return (None if va is None or vb is None else va >= vb), lanes

    def _expr_And(self, e, times):
        # Both operands are evaluated (no short-circuit) and no arithmetic
        # event is emitted — matching the interpreter.
        va, la = self._expr(e.a, times)
        vb, lb = self._expr(e.b, times)
        value = None if va is None or vb is None else bool(va) and bool(vb)
        return value, max(la, lb)

    def _expr_Or(self, e, times):
        va, la = self._expr(e.a, times)
        vb, lb = self._expr(e.b, times)
        value = None if va is None or vb is None else bool(va) or bool(vb)
        return value, max(la, lb)

    def _expr_Not(self, e, times):
        value, lanes = self._expr(e.a, times)
        return (None if value is None else not bool(value)), lanes

    def _expr_Select(self, e, times):
        # The interpreter evaluates all three operands eagerly.
        cv, cl = self._expr(e.condition, times)
        tv, tl = self._expr(e.true_value, times)
        fv, fl = self._expr(e.false_value, times)
        lanes = max(cl, tl, fl)
        if cv is None:
            return None, lanes
        return (tv if bool(cv) else fv), lanes

    def _expr_Let(self, e, times):
        value, lanes = self._expr(e.value, times)
        return self._with_binding(e.name, e.value, value, lanes,
                                  lambda: self._expr(e.body, times))

    def _expr_Ramp(self, e, times):
        self._expr(e.base, times)
        self._expr(e.stride, times)
        return None, e.lanes

    def _expr_Broadcast(self, e, times):
        value, lanes = self._expr(e.value, times)
        return None, (lanes if lanes > 1 else e.lanes)

    def _expr_Load(self, e, times):
        _iv, index_lanes = self._expr(e.index, times)
        lanes = index_lanes if index_lanes > 1 else 1
        self.loads += times * lanes
        self._record_site("load", e.name, e.index, index_lanes, times,
                          element_type=e.type)
        return None, lanes

    def _expr_Call(self, e, times):
        if e.call_type != E.CallType.INTRINSIC:
            raise StaticAnalysisError(
                f"call to {e.name!r} survived lowering; it should have become a Load")
        values = []
        lanes = 1
        for arg in e.args:
            value, arg_lanes = self._expr(arg, times)
            values.append(value)
            lanes = max(lanes, arg_lanes)
        self._arith(times, lanes)
        fn = _INTRINSIC_VALUES.get(e.name)
        if fn is not None and all(v is not None for v in values):
            try:
                return fn(*values), lanes
            except (ValueError, OverflowError, ZeroDivisionError):
                return None, lanes
        return None, lanes


class _Missing:
    pass


_MISSING = _Missing()


def _restore_key(mapping, key, saved):
    if saved is _MISSING:
        mapping.pop(key, None)
    else:
        mapping[key] = saved


_EXPR_TABLE = {
    name[len("_expr_"):]: getattr(StaticCostAnalyzer, name)
    for name in vars(StaticCostAnalyzer)
    if name.startswith("_expr_")
}

_INTRINSIC_VALUES = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "floor": lambda x: float(math.floor(x)),
    "ceil": lambda x: float(math.ceil(x)),
    "round": lambda x: float(np_round(x)),
    "abs": abs,
    "pow": lambda a, b: a ** b,
    "likely": lambda x: x,
}


def np_round(x):
    """Banker's rounding, matching ``np.round``."""
    floor = math.floor(x)
    diff = x - floor
    if diff > 0.5:
        return floor + 1
    if diff < 0.5:
        return floor
    return floor if floor % 2 == 0 else floor + 1


def _base_environment(lowered, sizes: Optional[Sequence[int]],
                      params: Optional[Dict[str, object]]) -> Dict[str, object]:
    env: Dict[str, object] = {}
    if sizes is not None:
        output = lowered.output
        for dim, size in zip(output.args, sizes):
            env[f"{output.name}.{dim}.min"] = 0
            env[f"{output.name}.{dim}.extent"] = int(size)
            env[f"{output.name}.{dim}.max"] = int(size) - 1
    for layout in lowered.image_layouts.values():
        stride = 1
        for i, extent in enumerate(layout.extents):
            value = op.const_value(extent)
            if value is None:
                break
            env.setdefault(f"{layout.name}.min.{i}", 0)
            env.setdefault(f"{layout.name}.extent.{i}", int(value))
            env.setdefault(f"{layout.name}.stride.{i}", stride)
            stride *= int(value)
    for name, value in (params or {}).items():
        if isinstance(value, (int, float, bool)):
            env[name] = value
    return env


def analyze_lowered(lowered, profile=None, *, sizes: Optional[Sequence[int]] = None,
                    params: Optional[Dict[str, object]] = None,
                    analyzer_out: Optional[list] = None):
    """Statically analyze a :class:`~repro.compiler.lower.LoweredPipeline`.

    ``sizes`` supplies the output bounds when the lowering did not already
    substitute them (``compile()`` always does).  Returns the same
    :class:`~repro.machine.cost_model.CostReport` the dynamic model produces.
    ``analyzer_out``, when given, receives the analyzer (exposes ``exact``
    and ``peak_alloc_bytes`` for callers that want more than the report).
    """
    from repro.machine.profiles import XEON_W3520

    if profile is None:
        profile = XEON_W3520
    analyzer = StaticCostAnalyzer(profile, _base_environment(lowered, sizes, params))
    for layout in lowered.image_layouts.values():
        elems = 1
        for extent in layout.extents:
            value = op.const_value(extent)
            if value is None:
                elems = None
                break
            elems *= int(value)
        if elems is not None:
            analyzer.buffer_elems.setdefault(layout.name, elems)
    analyzer.run(lowered.stmt)
    if analyzer_out is not None:
        analyzer_out.append(analyzer)
    return analyzer.report()


def estimate_cost_static(pipeline, sizes: Sequence[int], *,
                         schedule=None, options=None,
                         params=None, profile=None, target=None):
    """Compile (cached) and statically analyze ``pipeline`` at ``sizes``.

    The drop-in static counterpart of
    :func:`repro.machine.cost_model.estimate_cost`: same arguments, same
    :class:`~repro.machine.cost_model.CostReport`, no execution.
    """
    from repro.machine.profiles import XEON_W3520
    from repro.pipeline import Pipeline
    from repro.runtime.target import Target

    if not isinstance(pipeline, Pipeline):
        pipeline = Pipeline(pipeline)
    if profile is None:
        profile = Target.resolve(target).machine_profile() if target is not None \
            else XEON_W3520
    compiled = pipeline.compile(sizes, schedule=schedule, options=options,
                                target="interp")
    return analyze_lowered(compiled.lowered, profile, sizes=sizes, params=params)
