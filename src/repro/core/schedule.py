"""The per-function schedule: domain order plus call schedule.

This is the concrete realization of the scheduling model of Section 3.2:

* the **domain order** is a list of loop :class:`~repro.core.dims.Dim` entries
  (innermost first), together with the :class:`~repro.core.split.Split`
  transformations that created any non-root dimensions, and per-dim execution
  markings (serial / parallel / vectorized / unrolled / GPU block / GPU thread);
* the **call schedule** is the pair of :class:`~repro.core.loop_level.LoopLevel`
  values saying at which loop of its consumers the function's values are
  stored and computed.

Schedules are plain data: the compiler reads them, the autotuner mutates them,
and neither needs to know about the other.

This module is also the one place the schedule *vocabulary* is written:
:data:`DIRECTIVES` is the table (name -> argument kinds), every row is a
:class:`FuncSchedule` method of that name holding the directive's meaning, and
:meth:`FuncSchedule.apply` validates a directive against the table and
dispatches.  The chainable ``Func`` / ``ScheduleBuilder`` methods
(:class:`FluentDirectives`), ``Schedule`` replay and the autotuner's genes
all go through it.  docs/scheduling.md ("Adding a directive") has the recipe.
"""

from __future__ import annotations

import inspect
import operator
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dims import Dim, ForType
from repro.core.loop_level import LoopLevel
from repro.core.split import Split, TailStrategy

__all__ = ["DIRECTIVES", "FluentDirectives", "FuncSchedule", "ScheduleError",
           "as_name", "normalize_directive"]


class ScheduleError(ValueError):
    """Raised when a scheduling directive is malformed or inconsistent."""


#: The directive table: name -> argument kinds, in order ("?" = optional).
#: ``name`` is a dimension or function name (a str, Var or Func), ``names`` a
#: sequence of them, ``int`` an integral number, ``tail`` a
#: :class:`~repro.core.split.TailStrategy` or its value string.
DIRECTIVES: Dict[str, Tuple[str, ...]] = {
    "split": ("name", "name", "name", "int", "tail?"),
    "tile": ("name",) * 6 + ("int", "int"),
    "reorder": ("names",),
    "parallel": ("name",),
    "serial": ("name",),
    "vectorize": ("name", "int?"),
    "unroll": ("name", "int?"),
    "gpu_blocks": ("name",),
    "gpu_threads": ("name",),
    "gpu_tile": ("name",) * 4 + ("int", "int"),
    "bound": ("name", "int", "int"),
    "storage_fold": ("name", "int"),
    "rdom_outer": (),
    "compute_root": (),
    "compute_inline": (),
    "compute_at": ("name", "name"),
    "store_root": (),
    "store_at": ("name", "name"),
}


def as_name(value) -> str:
    """The plain name of a dimension or function given as a str, Var or Func."""
    name = getattr(value, "name", value)
    if not isinstance(name, str):
        raise ScheduleError(
            f"argument {value!r} must be a dimension or function name "
            "(a str, Var or Func)")
    return name


def _as_names(value) -> Tuple[str, ...]:
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ScheduleError(
            f"argument {value!r} must be a sequence of dimension names")
    return tuple(as_name(v) for v in value)


def _as_int(value) -> int:
    """Plain ints, so semantically equal schedules share one digest (numpy
    integer scalars included); anything non-integral is an error, never a
    silent truncation."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ScheduleError(f"argument {value!r} must be an integer")


def _as_tail(value) -> str:
    try:
        return TailStrategy(value).value
    except ValueError:
        raise ScheduleError(
            f"unknown tail strategy {value!r}; valid: "
            f"{', '.join(t.value for t in TailStrategy)}") from None


_COERCE = {"name": as_name, "names": _as_names, "int": _as_int, "tail": _as_tail}


def normalize_directive(directive: Sequence) -> Tuple:
    """Validate a directive ``(op, *args)`` against :data:`DIRECTIVES` and
    return its canonical tuple: plain names, ints and tail value strings.
    Optional arguments given as ``None`` are omitted."""
    if not directive:
        raise ScheduleError("empty schedule directive")
    op, *args = directive
    kinds = DIRECTIVES.get(op) if isinstance(op, str) else None
    if kinds is None:
        raise ScheduleError(
            f"unknown schedule directive {op!r}; known: {', '.join(sorted(DIRECTIVES))}")
    required = sum(not kind.endswith("?") for kind in kinds)
    while len(args) > required and args[-1] is None:
        args = args[:-1]
    if not required <= len(args) <= len(kinds):
        raise ScheduleError(
            f"directive {op!r} takes {required}..{len(kinds)} arguments, got {len(args)}")
    try:
        return (op, *(_COERCE[kind.rstrip("?")](arg) for kind, arg in zip(kinds, args)))
    except ScheduleError as error:
        raise ScheduleError(f"directive {op!r}: {error}") from None


class FuncSchedule:
    """The complete schedule of one pipeline stage (its pure definition)."""

    def __init__(self, pure_args: Sequence[str]):
        #: Storage dimensions, in declaration order (x first = innermost storage).
        self.storage_dims: List[str] = list(pure_args)
        #: Loop dimensions, innermost first.
        self.dims: List[Dim] = [Dim(a) for a in pure_args]
        #: Splits applied, in application order.
        self.splits: List[Split] = []
        #: Where values of this function are computed.
        self.compute_level: LoopLevel = LoopLevel.inlined()
        #: Where storage for this function is allocated.
        self.store_level: LoopLevel = LoopLevel.inlined()
        #: Explicit bounds promises: dim -> (min, extent), used by the
        #: autotuner to avoid tiling tiny dimensions (e.g. color channels).
        self.bounds: Dict[str, tuple] = {}
        #: Dimensions whose storage should be folded if legal (set by the
        #: storage-folding pass; may also be forced by the user).
        self.storage_folds: Dict[str, int] = {}
        #: Set by the ``rdom_outer`` directive: update stages iterate with the
        #: reduction-domain loops *outside* the free pure-variable loops.
        self.rdom_is_outer: bool = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def dim_names(self) -> List[str]:
        return [d.var for d in self.dims]

    def has_dim(self, var: str) -> bool:
        return any(d.var == var for d in self.dims)

    def find_dim(self, var: str) -> Dim:
        for d in self.dims:
            if d.var == var:
                return d
        raise ScheduleError(f"no loop dimension named {var!r}; have {self.dim_names()}")

    def is_inlined(self) -> bool:
        return self.compute_level.is_inlined()

    def root_of(self, var: str) -> str:
        """The storage dimension a loop dimension was derived from by splitting."""
        name = var
        while True:
            for s in self.splits:
                if s.outer == name or s.inner == name:
                    name = s.old
                    break
            else:
                return name

    def split_children(self, var: str) -> Optional[Split]:
        """The split (if any) that consumed ``var`` as its old dimension."""
        for s in self.splits:
            if s.old == var:
                return s
        return None

    def is_split(self, var: str) -> bool:
        return self.split_children(var) is not None

    def rounded_extent(self, storage_dim: str, extent: int) -> int:
        """Contiguous elements the rounded-up traversal of the loops derived
        from ``storage_dim`` may touch, given a requested extent.

        A ``split(old -> outer, inner, f)`` with the default round-up tail
        traverses ``ceil(extent/f)`` tiles of stride ``f``; each tile covers
        the rounded traversal of the ``inner`` chain over ``f`` iterations,
        which can exceed ``f`` when ``inner`` is re-split by a non-dividing
        factor (e.g. split x by 2, then split x_i by 4: each tile covers 4
        elements at stride 2).  Allocations must therefore be sized by this
        recursion — for outer-chain-only splits it reduces to rounding up to
        the product of factors, but no single multiplicative factor is sound
        in general.
        """
        return self._cover(storage_dim, int(extent))

    def _cover(self, var: str, extent: int) -> int:
        split = self.split_children(var)
        if split is None:
            return extent
        tiles = self._cover(split.outer, -(-extent // split.factor))
        inner = self._cover(split.inner, split.factor)
        return (tiles - 1) * split.factor + inner

    def split_padding(self, storage_dim: str) -> int:
        """An upper bound on ``rounded_extent(d, E) - E`` over all extents.

        Used to pad allocations whose computed region may start anywhere
        inside the stored region (sliding windows): for a plain split this is
        ``factor - 1``, matching the classic round-up pad.
        """
        split = self.split_children(storage_dim)
        if split is None:
            return 0
        inner_cover = self._cover(split.inner, split.factor)
        return self.split_padding(split.outer) * split.factor + inner_cover - 1

    def vector_width(self) -> int:
        """The widest vectorized dimension's extent (1 if nothing is vectorized)."""
        width = 1
        for d in self.dims:
            if d.for_type == ForType.VECTORIZED:
                extent = self.constant_extent(d.var)
                if extent is not None:
                    width = max(width, extent)
        return width

    def constant_extent(self, var: str) -> Optional[int]:
        """The statically known extent of a dimension, if any.

        Inner split dimensions have extent equal to their factor; dimensions
        with a ``bound`` promise have the promised extent.
        """
        for s in self.splits:
            if s.inner == var:
                return s.factor
        if var in self.bounds:
            return int(self.bounds[var][1])
        return None

    # ------------------------------------------------------------------
    # directives: one method per DIRECTIVES row, taking the row's arguments
    # ------------------------------------------------------------------
    def apply(self, op: str, *args) -> None:
        """Apply one directive: validate ``(op, *args)`` against
        :data:`DIRECTIVES` (arity, names, integral factors, tail names —
        :class:`ScheduleError` otherwise) and dispatch to the method ``op``."""
        op, *args = normalize_directive((op, *args))
        getattr(self, op)(*args)

    def _mark(self, var: str, for_type: ForType) -> None:
        self.find_dim(var).for_type = for_type

    def _fresh_names(self, base: str) -> Tuple[str, str]:
        """Unused outer/inner names for an implicit split of ``base``."""
        outer, inner = f"{base}o", f"{base}i"
        suffix = 0
        while self.has_dim(outer) or self.has_dim(inner):
            suffix += 1
            outer, inner = f"{base}o{suffix}", f"{base}i{suffix}"
        return outer, inner

    def _mark_constant(self, var: str, for_type: ForType, factor: Optional[int]) -> None:
        """Mark a constant-extent dimension: with ``factor``, the inner half
        (``<var>i``) of an implicit split of ``var`` by it."""
        if factor is not None:
            outer, inner = self._fresh_names(var)
            self.split(var, outer, inner, factor)
            var = inner
        elif self.constant_extent(var) is None:
            raise ScheduleError(
                f"{for_type.value} dimension {var!r} must have a constant extent; "
                "split it first (or pass a factor)")
        self._mark(var, for_type)

    # -- domain order ---------------------------------------------------
    def split(self, old, outer, inner, factor, tail=TailStrategy.ROUND_UP) -> None:
        """Split dimension ``old`` into ``outer`` (slow) and ``inner`` (fast,
        of extent ``factor``); ``tail`` rounds the traversal up or guards it."""
        if factor <= 0:
            raise ScheduleError(f"split factor must be positive, got {factor}")
        if not self.has_dim(old):
            raise ScheduleError(f"cannot split unknown dimension {old!r} of dims {self.dim_names()}")
        if self.has_dim(outer) or self.has_dim(inner):
            raise ScheduleError(f"split names {outer!r}/{inner!r} collide with existing dims")
        index = next(i for i, d in enumerate(self.dims) if d.var == old)
        old_dim = self.dims[index]
        # Replace old with [inner, outer] (inner stays innermost at old's position).
        self.dims[index:index + 1] = [
            Dim(inner, old_dim.for_type, old_dim.is_rvar),
            Dim(outer, old_dim.for_type, old_dim.is_rvar),
        ]
        self.splits.append(Split(old, outer, inner, int(factor), TailStrategy(tail)))

    def tile(self, x, y, xo, yo, xi, yi, xfactor, yfactor) -> None:
        """Tile the (x, y) domain: split both and order the tile loops innermost."""
        self.split(x, xo, xi, xfactor)
        self.split(y, yo, yi, yfactor)
        self.reorder([xi, yi, xo, yo])

    def reorder(self, vars) -> None:
        """Reorder loop dimensions; ``vars`` are given innermost first."""
        names = list(vars)
        for name in names:
            if not self.has_dim(name):
                raise ScheduleError(f"reorder references unknown dimension {name!r}")
        if len(set(names)) != len(names):
            raise ScheduleError(f"reorder lists a dimension twice: {names}")
        listed = [d for d in self.dims if d.var in names]
        listed_sorted = sorted(listed, key=lambda d: names.index(d.var))
        iterator = iter(listed_sorted)
        new_dims = []
        for d in self.dims:
            if d.var in names:
                new_dims.append(next(iterator))
            else:
                new_dims.append(d)
        self.dims = new_dims

    def parallel(self, var) -> None:
        """Execute a dimension's iterations in parallel."""
        self._mark(var, ForType.PARALLEL)

    def serial(self, var) -> None:
        """Execute a dimension sequentially (the default)."""
        self._mark(var, ForType.SERIAL)

    def vectorize(self, var, width=None) -> None:
        """Vectorize a dimension.

        With ``width``, the dimension is first split by it (the outer part
        ``<var>o`` keeps iterating serially, the inner part ``<var>i`` is
        vectorized); without, the dimension must already have a constant
        extent (e.g. be the inner half of a split, or carry a ``bound``).
        """
        self._mark_constant(var, ForType.VECTORIZED, width)

    def unroll(self, var, factor=None) -> None:
        """Unroll a constant-extent dimension (splitting first when a factor is given)."""
        self._mark_constant(var, ForType.UNROLLED, factor)

    def gpu_blocks(self, var) -> None:
        """Map a dimension onto the simulated GPU's block grid."""
        self._mark(var, ForType.GPU_BLOCK)

    def gpu_threads(self, var) -> None:
        """Map a dimension onto the simulated GPU's threads within a block."""
        self._mark(var, ForType.GPU_THREAD)

    def gpu_tile(self, x, y, xi, yi, xfactor, yfactor) -> None:
        """Tile, mapping the tile grid (``<x>_blk``, ``<y>_blk``) to GPU blocks
        and the intra-tile loops ``xi``, ``yi`` to threads."""
        xo, yo = f"{x}_blk", f"{y}_blk"
        self.tile(x, y, xo, yo, xi, yi, xfactor, yfactor)
        self.gpu_blocks(xo)
        self.gpu_blocks(yo)
        self.gpu_threads(xi)
        self.gpu_threads(yi)

    def bound(self, var, min_value, extent) -> None:
        """Promise that a storage dimension spans exactly ``[min, min+extent)``
        (e.g. color channels)."""
        if var not in self.storage_dims:
            raise ScheduleError(f"bound applies to storage dimensions; {var!r} is not one")
        self.bounds[var] = (int(min_value), int(extent))

    def storage_fold(self, var, factor) -> None:
        """Fold this stage's storage along ``var`` into a ring of ``factor`` entries.

        The factor need not be a power of two, but must cover the widest
        window any consumer iteration touches; an illegal fold raises
        :class:`ScheduleError` during lowering with a diagnostic saying why
        (unknown dimension, parallel consumer loop, non-constant window,
        non-marching accesses, ...).
        """
        self.storage_folds[var] = int(factor)

    def rdom_outer(self) -> None:
        """Iterate update stages with the reduction loops hoisted outermost.

        The default update nest runs the RDom loops innermost; with this
        directive the free pure-variable loops run inside (first argument
        innermost), which exposes them to batching and parallelism — e.g. an
        ordered blend ``f[x, y] = f[x, y] * (1 - a) + src * a`` becomes a
        per-``r`` data-parallel sweep over the image.  Lowering validates the
        interchange is observationally sound (the update must reference the
        function only at its own point, and the RDom bounds must not depend
        on the pure variables) and raises :class:`ScheduleError` otherwise.
        """
        self.rdom_is_outer = True

    # -- call schedule --------------------------------------------------
    def compute_at(self, consumer, var) -> None:
        """Compute this stage as needed for each iteration of ``consumer``'s loop ``var``."""
        self.compute_level = LoopLevel.at(consumer, var)
        if self.store_level.is_inlined():
            self.store_level = self.compute_level

    def compute_root(self) -> None:
        """Compute this stage entirely before any consumer runs (breadth-first)."""
        self.compute_level = LoopLevel.root()
        if self.store_level.is_inlined():
            self.store_level = LoopLevel.root()

    def compute_inline(self) -> None:
        """Inline this stage into its callers (the default for pure stages)."""
        self.compute_level = LoopLevel.inlined()
        self.store_level = LoopLevel.inlined()

    def store_at(self, consumer, var) -> None:
        """Allocate this stage's storage at ``consumer``'s loop ``var``."""
        self.store_level = LoopLevel.at(consumer, var)

    def store_root(self) -> None:
        """Allocate this stage's storage outside all loops."""
        self.store_level = LoopLevel.root()

    # ------------------------------------------------------------------
    # copying (the autotuner mutates copies of schedules)
    # ------------------------------------------------------------------
    def copy(self) -> "FuncSchedule":
        clone = FuncSchedule(self.storage_dims)
        clone.dims = [d.copy() for d in self.dims]
        clone.splits = [s.copy() for s in self.splits]
        clone.compute_level = self.compute_level
        clone.store_level = self.store_level
        clone.bounds = dict(self.bounds)
        clone.storage_folds = dict(self.storage_folds)
        clone.rdom_is_outer = self.rdom_is_outer
        return clone

    def reset_domain_order(self) -> None:
        """Drop all splits/reorderings/markings, keeping only the call schedule."""
        self.dims = [Dim(a) for a in self.storage_dims]
        self.splits = []

    def describe(self) -> str:
        """A one-line human-readable summary (used in logs and EXPERIMENTS.md)."""
        parts = []
        for s in self.splits:
            parts.append(f"split({s.old},{s.outer},{s.inner},{s.factor})")
        order = ",".join(self.dim_names())
        parts.append(f"order[{order}]")
        for d in self.dims:
            if d.for_type != ForType.SERIAL:
                parts.append(f"{d.for_type.value}({d.var})")
        if self.rdom_is_outer:
            parts.append("rdom_outer")
        parts.append(f"compute@{self.compute_level!r}")
        parts.append(f"store@{self.store_level!r}")
        return " ".join(parts)

    def __deepcopy__(self, memo):
        return self.copy()


def _fluent(op: str):
    """The chainable method for directive ``op``: the signature and docstring
    of ``FuncSchedule.<op>``, forwarding to the host's ``_directive`` sink."""
    method = getattr(FuncSchedule, op)
    kinds = DIRECTIVES[op]
    if kinds == ("names",):
        def fluent(self, *vars):
            return self._directive(op, vars)
    elif kinds == ("name",):
        def fluent(self, *vars):
            sink = self
            for var in vars:
                sink = sink._directive(op, var)
            return sink
    else:
        signature = inspect.signature(method)

        def fluent(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            return self._directive(op, *bound.args[1:])
        fluent.__signature__ = signature.replace(return_annotation=inspect.Signature.empty)
    fluent.__name__ = op
    fluent.__qualname__ = f"FluentDirectives.{op}"
    fluent.__doc__ = method.__doc__
    return fluent


class FluentDirectives:
    """The chainable form of every directive, shared by ``Func`` and
    ``ScheduleBuilder``: one method per :data:`DIRECTIVES` row, each handing
    ``(op, *args)`` to the host's ``_directive`` sink and returning what it
    returns.  ``Func``'s sink applies to its schedule and returns the Func;
    the builder's returns a new builder with the tuple appended.

    Arguments are those of the ``FuncSchedule`` method of the same name
    (names may be given as Vars/Funcs).  A ``names`` argument is taken
    variadically (``reorder(xi, yi, xo, yo)``), and a marking that takes one
    dimension accepts several (``gpu_blocks(xo, yo)``), one directive each.
    """

    __slots__ = ()

    def _directive(self, op: str, *args):
        raise NotImplementedError


for _op in DIRECTIVES:
    setattr(FluentDirectives, _op, _fluent(_op))
del _op
