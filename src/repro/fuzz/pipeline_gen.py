"""Seeded random algorithm-graph generation and spec -> Func graph building.

:func:`generate_spec` draws a random :class:`~repro.fuzz.spec.PipelineSpec` —
a DAG of point-wise stages, stencils, guarded selects, bounded reductions,
computed-coordinate gathers and ordered blends over one input image, with
mixed dtypes — and :func:`build_pipeline` turns any spec into a fresh
:class:`~repro.lang.Func` graph plus its input :class:`~repro.lang.Buffer`.
Generation is deterministic: the same seed always yields the same spec, and
the same spec always builds the same pipeline (the input image is synthesized
from ``spec.seed``).

The default :class:`GeneratorConfig` draws 2-D specs from the original four
stage kinds and its rng stream is frozen — pinned corpus seeds depend on it.
:func:`extended_config` widens the vocabulary: ``gather`` and ``blend`` stage
kinds, and 3-D ``(x, y, t)`` time-dimensioned specs (Array-OL-style frame
stacks).  The extra draws those features need happen only on code paths the
default config cannot reach, so default-config specs are byte-identical to
older releases.

Expression construction keeps every case *total and bit-reproducible*:

* input-image reads are clamped to the image bounds, so any realization size
  is legal;
* ``sqrt`` only sees ``abs(...)`` (no NaNs), divisors and moduli are nonzero
  constants;
* values cast from float into integer stages are numerically clamped first,
  so the cast never overflows (int32 arithmetic itself may wrap, which numpy
  does identically in every backend);
* integer stages never multiply two data values (only by small constants),
  bounding value growth;
* gather coordinates are clamped to a constant range, so computed reads stay
  total; blend alphas are exact eighths (float) or the matching fixed-point
  form (int), so accumulation order is observable but arithmetic stays exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fuzz.spec import INPUT, DTYPES, PipelineSpec, StageSpec
from repro.lang import Buffer, Func, RDom, Var, abs_, cast, clamp, max_, min_, select, sqrt
from repro.types import Float, Int, Type

__all__ = ["GeneratorConfig", "BuiltPipeline", "generate_spec", "build_pipeline",
           "generate_pipeline", "input_image_for", "extended_config",
           "spec_uses_extended_ops"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable knobs of the pipeline generator (defaults match the corpus)."""

    min_stages: int = 2
    max_stages: int = 7
    max_arity: int = 2           # inputs per stage
    max_tap_offset: int = 2      # |dx|, |dy| of stencil taps
    max_taps: int = 5
    max_reduce_extent: int = 5
    input_shapes: Tuple[Tuple[int, ...], ...] = ((16, 12), (24, 16), (13, 9))
    dtypes: Tuple[str, ...] = DTYPES
    #: Probability weights per stage kind.
    kind_weights: Tuple[Tuple[str, float], ...] = (
        ("pointwise", 0.40), ("stencil", 0.30), ("select", 0.15), ("reduce", 0.15),
    )


#: Shapes the extended vocabulary draws from: the 2-D defaults plus small
#: 3-D (w, h, t) frame stacks (t kept short — every frame multiplies work).
EXTENDED_INPUT_SHAPES: Tuple[Tuple[int, ...], ...] = (
    (16, 12), (24, 16), (13, 9), (10, 8, 6), (9, 7, 5),
)

#: Kind weights with the new op kinds mixed in at meaningful rates.
EXTENDED_KIND_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("pointwise", 0.26), ("stencil", 0.18), ("select", 0.10),
    ("reduce", 0.14), ("gather", 0.18), ("blend", 0.14),
)


def extended_config(**overrides) -> GeneratorConfig:
    """A config with the widened vocabulary: gather/blend kinds + 3-D shapes.

    Keyword overrides are forwarded to :class:`GeneratorConfig` (e.g.
    ``max_stages=3``) on top of the extended shape/kind tables.
    """
    base = dict(input_shapes=EXTENDED_INPUT_SHAPES,
                kind_weights=EXTENDED_KIND_WEIGHTS)
    base.update(overrides)
    return GeneratorConfig(**base)


def spec_uses_extended_ops(spec: PipelineSpec) -> bool:
    """Whether a spec uses the extended vocabulary (new kinds or 3-D shape)."""
    return (len(spec.input_shape) != 2
            or any(s.kind in ("gather", "blend") for s in spec.stages))


_FLOAT_POINTWISE_OPS = ("affine", "add", "sub", "mul", "min", "max",
                        "abs", "sqrt_abs", "div_const")
_INT_POINTWISE_OPS = ("affine", "add", "sub", "min", "max", "abs",
                      "div_const", "mod_const")


def _is_float(dtype: str) -> bool:
    return dtype.startswith("float")


def _random_const(rng: random.Random, dtype: str, lo: float = -4.0, hi: float = 4.0):
    if _is_float(dtype):
        # Small multiples of 1/8: exactly representable, so constant folding
        # and runtime arithmetic agree to the bit.
        return rng.randrange(int(lo * 8), int(hi * 8) + 1) / 8.0
    return rng.randrange(int(lo), int(hi) + 1)


def _random_pointwise(rng: random.Random, dtype: str, arity: int) -> Tuple:
    ops = _FLOAT_POINTWISE_OPS if _is_float(dtype) else _INT_POINTWISE_OPS
    binary = {"add", "sub", "mul", "min", "max"}
    op = rng.choice([o for o in ops if arity >= 2 or o not in binary])
    if op == "affine":
        return ("affine", _random_const(rng, dtype), _random_const(rng, dtype))
    if op == "div_const":
        return ("div_const", rng.choice((2, 3, 4, 8)))
    if op == "mod_const":
        return ("mod_const", rng.choice((3, 5, 7, 16)))
    return (op,)


def _random_stencil(rng: random.Random, dtype: str, config: GeneratorConfig,
                    ndim: int = 2) -> Tuple:
    # The 2-D draw sequence here is frozen (pinned corpus seeds); the extra
    # time-offset draw happens only for 3-D specs, which the default config
    # never generates.
    num_taps = rng.randint(2, config.max_taps)
    offsets = set()
    while len(offsets) < num_taps:
        tap = (rng.randint(-config.max_tap_offset, config.max_tap_offset),
               rng.randint(-config.max_tap_offset, config.max_tap_offset))
        if ndim == 3:
            tap = tap + (rng.randint(-1, 1),)
        offsets.add(tap)
    taps = tuple(sorted(offsets))
    weights = tuple(_random_const(rng, dtype, -3, 3) for _ in taps)
    return (taps, weights)


def _random_select(rng: random.Random, dtype: str, arity: int) -> Tuple:
    if arity >= 2 and rng.random() < 0.5:
        return ("cmp", _random_const(rng, dtype))
    modulus = rng.choice((2, 3, 4))
    return ("stripe", modulus, rng.randrange(modulus))


def _random_reduce(rng: random.Random, config: GeneratorConfig,
                   ndim: int = 2) -> Tuple:
    op = rng.choice(("sum", "min", "max"))
    extent = rng.randint(2, config.max_reduce_extent)
    if ndim == 3:
        direction = rng.choice(((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                (1, 1, 0), (1, 0, 1), (-1, 1, 0)))
    else:
        direction = rng.choice(((1, 0), (0, 1), (1, 1), (-1, 1)))
    return (op, extent) + tuple(direction)


def _random_gather(rng: random.Random, ndim: int = 2) -> Tuple:
    """Params of a computed-coordinate read: (axis, num, den, offset, hi, weight).

    The stage reads its input at ``clamp((c * num) / den + offset, 0, hi)``
    along ``axis`` — a non-integer rate change.  ``weight`` 0 means nearest
    sample; 1..7 linearly interpolates the two adjacent taps with exact
    eighth weights (``(a * (8 - w) + b * w) / 8``).
    """
    axis = rng.randrange(ndim)
    num = rng.choice((1, 2, 3))
    den = rng.choice((1, 2, 3))
    offset = rng.randint(-2, 2)
    hi = rng.randint(2, 15)
    weight = rng.choice((0, 1, 2, 3, 5, 7))
    return (axis, num, den, offset, hi, weight)


def _random_blend(rng: random.Random, config: GeneratorConfig,
                  ndim: int = 2) -> Tuple:
    """Params of an ordered accumulation: (extent, *direction, alpha_base).

    The stage initializes to its input and then, for each RDom step, combines
    ``dst * (1 - a) + src * a`` with ``a = ((r % 3) + alpha_base) / 8`` —
    order-sensitive, unlike sum/min/max, so it pins the executors' iteration
    order.  ``alpha_base`` in 1..5 keeps the numerator in 1..7.
    """
    extent = rng.randint(2, config.max_reduce_extent)
    if ndim == 3:
        direction = rng.choice(((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                (1, 1, 0), (-1, 1, 0)))
    else:
        direction = rng.choice(((1, 0), (0, 1), (1, 1), (-1, 1)))
    alpha_base = rng.randint(1, 5)
    return (extent,) + tuple(direction) + (alpha_base,)


def generate_spec(seed: int, config: Optional[GeneratorConfig] = None) -> PipelineSpec:
    """Draw a random pipeline spec.  Deterministic in ``seed``."""
    config = config or GeneratorConfig()
    # String seeds hash via sha512 (stable across processes), unlike tuples,
    # whose hash() is randomized per process by PYTHONHASHSEED.
    rng = random.Random(f"repro-fuzz-pipeline-{int(seed)}")
    num_stages = rng.randint(config.min_stages, config.max_stages)
    input_shape = rng.choice(config.input_shapes)
    input_dtype = rng.choice(("float32", "float32", "int32"))
    ndim = len(input_shape)

    stages: List[StageSpec] = []
    producers: List[str] = []   # candidate inputs for later stages

    for i in range(num_stages):
        name = f"s{i}"
        dtype = rng.choice(config.dtypes)
        kind = rng.choices([k for k, _ in config.kind_weights],
                           [w for _, w in config.kind_weights])[0]
        # Bias reads toward recent stages (deep chains) but allow fan-out
        # (diamonds) and direct input reads.
        candidates = [INPUT] + producers
        primary = producers[-1] if producers and rng.random() < 0.7 else rng.choice(candidates)

        if kind in ("stencil", "reduce", "gather", "blend"):
            inputs: Tuple[str, ...] = (primary,)
            if kind == "stencil":
                params = _random_stencil(rng, dtype, config, ndim)
            elif kind == "reduce":
                params = _random_reduce(rng, config, ndim)
            elif kind == "gather":
                params = _random_gather(rng, ndim)
            else:
                params = _random_blend(rng, config, ndim)
        else:
            arity = 1 if rng.random() < 0.4 else min(2, config.max_arity)
            if arity == 2:
                inputs = (primary, rng.choice(candidates))
            else:
                inputs = (primary,)
            params = (_random_pointwise(rng, dtype, len(inputs))
                      if kind == "pointwise" else _random_select(rng, dtype, len(inputs)))
            params = params if kind == "pointwise" else params
        stages.append(StageSpec(name, kind, inputs, dtype, params))
        producers.append(name)

    # The output stage must be float or int — it already is; prune dead stages
    # so every stage participates in the differential run.
    return PipelineSpec(int(seed), input_shape, input_dtype, tuple(stages)).pruned()


# ---------------------------------------------------------------------------
# building specs into Func graphs
# ---------------------------------------------------------------------------

_TYPE_BY_NAME: Dict[str, Type] = {
    "float32": Float(32),
    "float64": Float(64),
    "int32": Int(32),
}

#: Pure-variable names by dimension: (x, y) for 2-D specs, (x, y, t) for 3-D.
_COORD_NAMES = ("x", "y", "t")


@dataclass
class BuiltPipeline:
    """A spec realized as a live Func graph (fresh objects every build)."""

    spec: PipelineSpec
    output: Func
    funcs: Dict[str, Func]
    input_buffer: Buffer

    @property
    def output_name(self) -> str:
        return self.output.name


def input_image_for(spec: PipelineSpec) -> np.ndarray:
    """The deterministic input image a spec's pipeline reads."""
    import hashlib

    key = f"repro-fuzz-image-{spec.seed}-{spec.input_shape}-{spec.input_dtype}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    shape = spec.input_shape
    if _is_float(spec.input_dtype):
        return (rng.random(shape) * 2.0 - 0.5).astype(spec.input_dtype)
    return rng.integers(0, 17, size=shape).astype(spec.input_dtype)


def _clamped_input_read(buffer: Buffer, pt: Tuple):
    return buffer[tuple(clamp(e, 0, s - 1) for e, s in zip(pt, buffer.shape))]


def build_pipeline(spec: PipelineSpec) -> BuiltPipeline:
    """Construct a fresh Func graph for a spec (no shared state with prior builds)."""
    coords = tuple(Var(n) for n in _COORD_NAMES[:len(spec.input_shape)])
    input_buffer = Buffer(input_image_for(spec), name="in")
    funcs: Dict[str, Func] = {}

    def read(name: str, pt: Tuple, dtype: Type):
        """Read one input of a stage at point ``pt``, cast to the stage's type."""
        if name == INPUT:
            raw = _clamped_input_read(input_buffer, pt)
            src_float = _is_float(spec.input_dtype)
        else:
            raw = funcs[name][pt]
            src_float = _is_float(spec.stage(name).dtype)
        if not dtype.is_float() and src_float:
            # Bound the magnitude before a float -> int cast so the cast can
            # never overflow (int arithmetic afterwards may wrap; the cast
            # itself must not be undefined).
            raw = min_(max_(raw, -1048576.0), 1048576.0)
        return cast(dtype, raw)

    for stage in spec.stages:
        dtype = _TYPE_BY_NAME[stage.dtype]
        f = Func(stage.name)
        if stage.kind == "pointwise":
            f[coords] = _pointwise_value(stage, read, coords, dtype)
        elif stage.kind == "stencil":
            f[coords] = _stencil_value(stage, read, coords, dtype)
        elif stage.kind == "select":
            f[coords] = _select_value(stage, read, coords, dtype)
        elif stage.kind == "gather":
            f[coords] = _gather_value(stage, read, coords, dtype)
        elif stage.kind == "reduce":
            op = stage.params[0]
            extent = int(stage.params[1])
            direction = tuple(int(d) for d in stage.params[2:])
            r = RDom(0, extent, name=f"r_{stage.name}")
            src = stage.inputs[0]
            sample = read(src, tuple(c + d * r.x for c, d in zip(coords, direction)),
                          dtype)
            if op == "sum":
                f[coords] = cast(dtype, 0)
                f[coords] = f[coords] + sample
            elif op == "min":
                f[coords] = cast(dtype, dtype.max_value())
                f[coords] = min_(f[coords], sample)
            else:
                f[coords] = cast(dtype, dtype.min_value())
                f[coords] = max_(f[coords], sample)
        elif stage.kind == "blend":
            extent = int(stage.params[0])
            alpha_base = int(stage.params[-1])
            direction = tuple(int(d) for d in stage.params[1:-1])
            r = RDom(0, extent, name=f"r_{stage.name}")
            src = stage.inputs[0]
            s = read(src, tuple(c + d * r.x for c, d in zip(coords, direction)),
                     dtype)
            an = (r.x % 3) + alpha_base     # alpha numerator, in 1..7
            f[coords] = read(src, coords, dtype)
            if dtype.is_float():
                # Exact eighths: the blend arithmetic is bit-reproducible, and
                # the combine is order-sensitive (unlike sum), so the oracle
                # observes each executor's iteration order.
                a = cast(dtype, an) / _imm(dtype, 8)
                f[coords] = f[coords] * (_imm(dtype, 1) - a) + s * a
            else:
                # Fixed-point form of the same combine.
                f[coords] = (f[coords] * (8 - an) + s * an) / 8
        else:  # pragma: no cover - guarded by StageSpec validation
            raise ValueError(f"unknown stage kind {stage.kind!r}")
        funcs[stage.name] = f

    return BuiltPipeline(spec, funcs[spec.output_name], funcs, input_buffer)


def _pointwise_value(stage: StageSpec, read, pt: Tuple, dtype: Type):
    op = stage.params[0]
    a = read(stage.inputs[0], pt, dtype)
    if op == "affine":
        scale, offset = stage.params[1], stage.params[2]
        return cast(dtype, a * _imm(dtype, scale) + _imm(dtype, offset))
    if op == "div_const":
        return cast(dtype, a / _imm(dtype, stage.params[1]))
    if op == "mod_const":
        return cast(dtype, a % int(stage.params[1]))
    if op == "abs":
        return cast(dtype, abs_(a))
    if op == "sqrt_abs":
        return cast(dtype, sqrt(abs_(a)))
    b = read(stage.inputs[1] if len(stage.inputs) > 1 else stage.inputs[0], pt, dtype)
    if op == "add":
        return cast(dtype, a + b)
    if op == "sub":
        return cast(dtype, a - b)
    if op == "mul":
        return cast(dtype, a * b)
    if op == "min":
        return cast(dtype, min_(a, b))
    if op == "max":
        return cast(dtype, max_(a, b))
    raise ValueError(f"unknown pointwise op {op!r}")


def _stencil_value(stage: StageSpec, read, pt: Tuple, dtype: Type):
    taps, weights = stage.params
    src = stage.inputs[0]
    total = None
    for tap, w in zip(taps, weights):
        at = tuple(c + int(d) for c, d in zip(pt, tap))
        term = read(src, at, dtype) * _imm(dtype, w)
        total = term if total is None else total + term
    return cast(dtype, total)


def _select_value(stage: StageSpec, read, pt: Tuple, dtype: Type):
    mode = stage.params[0]
    a = read(stage.inputs[0], pt, dtype)
    b = (read(stage.inputs[1], pt, dtype) if len(stage.inputs) > 1
         else cast(dtype, a * _imm(dtype, 2 if not dtype.is_float() else 0.5)))
    if mode == "cmp":
        threshold = _imm(dtype, stage.params[1])
        return cast(dtype, select(a < b + threshold, a, b))
    modulus, residue = int(stage.params[1]), int(stage.params[2])
    stripe = pt[0]
    for c in pt[1:]:
        stripe = stripe + c
    return cast(dtype, select((stripe % modulus).eq(residue), a, b))


def _gather_value(stage: StageSpec, read, pt: Tuple, dtype: Type):
    axis, num, den, offset, hi, weight = (int(v) for v in stage.params)
    src = stage.inputs[0]
    base = (pt[axis] * num) / den + offset

    def at(coord):
        q = list(pt)
        q[axis] = coord
        return tuple(q)

    a = read(src, at(clamp(base, 0, hi)), dtype)
    if weight == 0:
        return cast(dtype, a)
    b = read(src, at(clamp(base + 1, 0, hi)), dtype)
    # Two-tap interpolation with exact eighth weights (see _random_gather).
    return cast(dtype, (a * _imm(dtype, 8 - weight) + b * _imm(dtype, weight))
                / _imm(dtype, 8))


def _imm(dtype: Type, value):
    """A constant of the stage's type (keeps int stages free of float promotion)."""
    if dtype.is_float():
        return float(value)
    return int(value)


def generate_pipeline(seed: int,
                      config: Optional[GeneratorConfig] = None) -> BuiltPipeline:
    """Generate and build the random pipeline for ``seed`` in one step."""
    return build_pipeline(generate_spec(seed, config))
