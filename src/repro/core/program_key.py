"""What a compiled program is: the content key of its algorithm and compiler.

Each :class:`~repro.core.function.Function` folds a digest of every
definition into ``Function.digest`` when it is defined: node kinds and
types, constants, names, update coordinates and reduction bounds.  The
sorted ``(name, digest)`` pairs of the reachable Functions key the compile
caches and fingerprint the algorithm for the tuning database; on disk, a
digest of the ``repro`` package's own sources rolls every key when the
compiler changes.  Each is a function of content, the same in every process.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from pathlib import Path

from repro.ir.expr import Expr

__all__ = ["fold_definition", "algorithm_key", "pipeline_fingerprint",
           "compiler_digest", "disk_key_string"]


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _token(value, memo) -> str:
    """Canonical text of a node; a long subtree is replaced by its hash, so
    a shared subexpression costs one visit and the text stays short."""
    if not isinstance(value, Expr):
        return str(value.value) if isinstance(value, enum.Enum) else repr(value)
    token = memo.get(id(value))
    if token is None:
        parts = [f"({type(value).__name__}:{value.type!r}"]
        for field in value._key():  # one frame per tree level: no generators
            for f in field if isinstance(field, tuple) else (field,):  # Call args
                parts.append(_token(f, memo))
        token = " ".join(parts) + ")"
        if len(token) > 64:
            token = "#" + _hash(token)
        memo[id(value)] = token
    return token


def fold_definition(previous: str, lhs, value: Expr, rdom=None) -> str:
    """``previous`` digest extended by one definition: pure argument names or
    update coordinates (``lhs``), the value, and the update's reduction domain."""
    memo = {}
    parts = [previous, *(_token(a, memo) for a in lhs), "=", _token(value, memo)]
    for rvar in rdom or ():
        parts += [rvar.name, _token(rvar.min, memo), _token(rvar.extent, memo)]
    return _hash("\n".join(parts))


def algorithm_key(env):
    """Sorted ``(name, digest)`` of every Function in ``env`` (name -> Function)."""
    return tuple(sorted((name, func.digest) for name, func in env.items()))


def pipeline_fingerprint(pipeline) -> str:
    """The schedule-free digest of a Pipeline's algorithm (the tuning-DB key)."""
    return _hash(repr((pipeline.output_function.name, algorithm_key(pipeline.functions()))))


@functools.lru_cache(maxsize=None)
def compiler_digest(root=None) -> str:
    """SHA-256 of every ``.py`` file (path, bytes) under ``root``, default ``repro``'s."""
    root = Path(root or Path(__file__).resolve().parent.parent)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()[:32]


def disk_key_string(key) -> str:
    """A compile-cache key's process-stable text, behind the compiler digest."""
    return f"repro/{compiler_digest()}/{key!r}"
