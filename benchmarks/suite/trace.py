"""Outside-in tracing: spans recorded by the benchmark around calls into the layers.

Nothing under ``src/`` knows about this module.  A :class:`Recorder` keeps
spans in memory; :func:`interpose` temporarily swaps a public callable (a
module attribute or a method on a public class) for a wrapper that opens a
span around the original, and puts the original back on exit.  The patch
points are the names *as bound in the calling module* — ``repro.pipeline``
holds its own reference to ``create_executor``, and ``repro.compiler.lower``
(the module, reached through ``importlib`` because the package attribute of
that name is the function) holds its own references to every pass.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for the root of an operation) and ``op`` numbers the
operation — one ``run()``, one ``compile()`` — that all its spans share.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Recorder", "interpose", "install", "count_ir_nodes", "LAYER_SPANS"]

clock = time.perf_counter

NAME, START, END, PARENT, OP = range(5)


class Recorder:
    """In-memory span store with a stack of open spans (single-threaded)."""

    def __init__(self):
        self.spans: List[list] = []
        #: One ``(root span index, tag)`` per operation; ``tag`` names the program.
        self.ops: List[Tuple[int, str]] = []
        #: Exact counts taken at layer boundaries, keyed ``(counter, op)``.
        self.counts: Dict[Tuple[str, int], int] = defaultdict(int)
        self._stack: List[int] = []
        #: False while interposers are installed but a section must run untraced.
        self.active = False

    @property
    def current_op(self) -> int:
        """Number of the operation whose root span was opened last."""
        return len(self.ops) - 1

    def open(self, name: str, tag: str = "") -> None:
        if self._stack:
            parent = self._stack[-1]
            op = self.spans[parent][OP]
        else:
            parent, op = -1, len(self.ops)
            self.ops.append((len(self.spans), tag))
        self._stack.append(len(self.spans))
        self.spans.append([name, clock(), None, parent, op])

    def close(self) -> None:
        self.spans[self._stack.pop()][END] = clock()

    @contextlib.contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[None]:
        self.open(name, tag)
        try:
            yield
        finally:
            self.close()

    def self_times(self) -> List[float]:
        """Self time of every span, by span index."""
        selfs = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                selfs[span[PARENT]] -= span[END] - span[START]
        return selfs

    def per_op(self, root_name: str) -> Dict[str, List[Dict[str, float]]]:
        """For every operation rooted at ``root_name``: self seconds summed by
        span name (plus ``"total"``, the root's duration), grouped by tag."""
        selfs = self.self_times()
        by_op: Dict[int, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            root, _ = self.ops[span[OP]]
            if self.spans[root][NAME] != root_name:
                continue
            row = by_op.setdefault(span[OP], defaultdict(float))
            row[span[NAME]] += selfs[index]
            if index == root:
                row["total"] = span[END] - span[START]
        grouped: Dict[str, List[Dict[str, float]]] = defaultdict(list)
        for op, row in by_op.items():
            grouped[self.ops[op][1]].append(row)
        return grouped

    def dump(self, path, header: dict) -> None:
        """Write every span (times relative to the first) as one JSON file."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], round(s[START] - origin, 7), round(s[END] - origin, 7),
                 s[PARENT], s[OP]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"header": header,
                       "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                       "op_tags": [tag for _, tag in self.ops],
                       "counts": {f"{k[0]}|{k[1]}": v for k, v in self.counts.items()},
                       "spans": rows}, handle)


@contextlib.contextmanager
def interpose(recorder: Recorder, owner, attr: str, span_name: str,
              after: Callable = None) -> Iterator[None]:
    """Swap ``owner.attr`` for a wrapper that records ``span_name`` around it.

    ``after(recorder, args, result)`` runs once the span is closed (inside its
    own ``trace.count`` span, so the parent's self time excludes it).  On exit
    the original object is put back, and it is an error if it is not there.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        recorder.open(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close()
        if after is not None:
            with recorder.span("trace.count"):
                after(recorder, args, result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"interpose: {owner!r}.{attr} was not restored")


def count_ir_nodes(node) -> int:
    """Number of Expr/Stmt nodes in a lowered tree (iterative, exact)."""
    from repro.ir.visitor import children_of

    total, stack = 0, [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        total += 1
        stack.extend(children_of(current))
    return total


def _count_simplify(recorder: Recorder, args, result) -> None:
    recorder.counts["ir_nodes_before_simplify", recorder.current_op] += count_ir_nodes(args[0])
    recorder.counts["ir_nodes_final", recorder.current_op] += count_ir_nodes(result)


def _count_source(recorder: Recorder, args, result) -> None:
    recorder.counts["c_source_bytes", recorder.current_op] += len(result[0].encode("utf-8"))


def _count_cc(recorder: Recorder, args, result) -> None:
    import os

    recorder.counts["cc_invocations", recorder.current_op] += 1
    recorder.counts["so_bytes", recorder.current_op] += os.path.getsize(result)


PASSES = ("validate_schedules", "inline_all_inlined", "schedule_functions",
          "bounds_inference", "storage_folding", "sliding_window",
          "flatten_storage", "unroll_loops", "vectorize_loops", "simplify")

#: ``(module, class or None, attribute, span name, after-hook)`` — every patch
#: point of a traced run.  Span names are ``<repo module>.<layer>``.
LAYER_SPANS = tuple(
    [("repro.pipeline", None, "lower", "compiler.lower", None)]
    + [("repro.compiler.lower", None, name, f"compiler.{name}",
        _count_simplify if name == "simplify" else None) for name in PASSES]
    + [("repro.codegen.c_backend", None, "generate_c_source", "codegen.emit_c", _count_source),
       ("repro.codegen.c_backend", None, "compile_shared_object", "codegen.cc", _count_cc),
       ("repro.codegen.c_backend", "NativeProgram", "load", "codegen.dlopen", None),
       ("repro.runtime.disk_cache", "PersistentCache", "store", "runtime.disk_store", None),
       ("repro.runtime.disk_cache", "PersistentCache", "store_blob", "runtime.disk_store", None),
       ("repro.runtime.disk_cache", "PersistentCache", "load", "runtime.disk_load", None),
       ("repro.pipeline", None, "create_executor", "runtime.create_executor", None),
       ("repro.runtime.executor", "Executor", "bind_input", "runtime.bind_input", None),
       ("repro.codegen.c_backend", "NativeExecutor", "run", "runtime.kernel", None)])


@contextlib.contextmanager
def install(recorder: Recorder) -> Iterator[None]:
    """Interpose every layer boundary in :data:`LAYER_SPANS` and record while
    inside; every patched attribute is the original object again on exit."""
    with contextlib.ExitStack() as stack:
        for module_name, class_name, attr, span_name, after in LAYER_SPANS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            stack.enter_context(interpose(recorder, owner, attr, span_name, after))
        recorder.active = True
        try:
            yield
        finally:
            recorder.active = False
