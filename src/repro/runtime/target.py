"""First-class compilation/execution targets.

A :class:`Target` is a structured descriptor of *where and how* a pipeline
runs: the execution backend, an optional SIMD width and thread count, and an
optional machine profile (for the abstract machine model).  A backend name
string is coerced via :meth:`Target.resolve`; either way the object is
validated *early* — an unknown backend raises immediately with the list of
registered backends, instead of surfacing as a late failure deep inside
executor creation.

Targets are immutable values: hashable, comparable, serializable, and usable
as compilation-cache key components (:meth:`Target.key`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from repro.runtime.backend import DEFAULT_BACKEND, validate_backend_name

__all__ = ["Target", "as_target"]


@dataclass(frozen=True)
class Target:
    """A structured descriptor of an execution target.

    ``backend`` defaults to the interpreter; it is validated against the
    backend registry at construction time.  ``vector_width`` and ``threads``
    describe the machine the schedule is tuned for (consumed by the cost
    model as overrides of the named ``profile``); ``threads`` additionally
    sizes the thread pool the ``compiled`` backend runs parallel loops on.  Backends that cannot honour
    a parameter simply ignore it.
    """

    backend: str = DEFAULT_BACKEND
    vector_width: Optional[int] = None
    threads: Optional[int] = None
    #: Name of a machine profile (see :data:`repro.machine.profiles.PROFILES`).
    profile: Optional[str] = None

    def __post_init__(self):
        validate_backend_name(self.backend)
        profile = self.profile
        if profile is not None and not isinstance(profile, str):
            # Accept MachineProfile instances; store the stable name.
            profile = profile.name
            object.__setattr__(self, "profile", profile)
        if profile is not None:
            from repro.machine.profiles import get_profile

            get_profile(profile)  # validate early
        for attr in ("vector_width", "threads"):
            value = getattr(self, attr)
            if value is not None:
                if int(value) <= 0:
                    raise ValueError(f"Target.{attr} must be positive, got {value}")
                object.__setattr__(self, attr, int(value))

    # ------------------------------------------------------------------
    # coercion
    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, value: Union[None, str, "Target", Dict]) -> "Target":
        """Coerce target-like values: None (the default backend), a backend
        name string, a serialized dict, or a Target (returned unchanged)."""
        if isinstance(value, Target):
            return value
        if value is None:
            return cls()
        if isinstance(value, str):
            return cls(backend=value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as a Target")

    def with_backend(self, backend: str) -> "Target":
        return replace(self, backend=backend)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def machine_profile(self):
        """The :class:`MachineProfile` this target models.

        The named ``profile`` (default: the paper's Xeon W3520) with
        ``vector_width`` / ``threads`` overrides applied.
        """
        from dataclasses import replace as dc_replace

        from repro.machine.profiles import XEON_W3520, get_profile

        profile = get_profile(self.profile) if self.profile else XEON_W3520
        overrides = {}
        if self.vector_width is not None:
            overrides["vector_width"] = self.vector_width
        if self.threads is not None:
            overrides["cores"] = self.threads
        return dc_replace(profile, **overrides) if overrides else profile

    def key(self) -> Tuple:
        """A hashable cache-key component identifying this target."""
        return (self.backend, self.vector_width, self.threads, self.profile)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "backend": self.backend,
            "vector_width": self.vector_width,
            "threads": self.threads,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Target":
        # A stored "parallel" key (written when a process-pool runtime
        # existed) is ignored: parallel loops always run on threads.
        return cls(
            backend=data.get("backend") or DEFAULT_BACKEND,
            vector_width=data.get("vector_width"),
            threads=data.get("threads"),
            profile=data.get("profile"),
        )

    def __str__(self) -> str:
        parts = [self.backend]
        if self.vector_width is not None:
            parts.append(f"vec{self.vector_width}")
        if self.threads is not None:
            parts.append(f"threads{self.threads}")
        if self.profile is not None:
            parts.append(self.profile)
        return "-".join(parts)


def as_target(value) -> Target:
    """Alias for :meth:`Target.resolve` (symmetry with ``as_schedule``)."""
    return Target.resolve(value)
