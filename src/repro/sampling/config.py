"""Sampling configuration and the ``--sampling`` spec-string parser."""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["SamplingConfig", "parse_sampling", "DEFAULT_SAMPLING_SPEC"]

DEFAULT_SAMPLING_SPEC = "ci=0.02,conf=0.95"


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    """Knobs for statistically sampled simulation.

    Attributes:
        target_ci: escalation target — relative CI half-width the
            estimator must reach (0.02 = ±2% of the IPC estimate).
        confidence: two-sided confidence level of the interval.
        min_units: measurement units in the first escalation round.
        max_units: hard cap on units; normalized up to the nearest
            ``min_units * 2**k`` so every round's placement grid is a
            subset of the next round's.
        unit_uops: committed micro-ops detailed-simulated per unit
            (``None`` → ``max(length // 48, 50)`` chosen at run time).
        unit_warm: committed micro-ops of *detailed* re-warm simulated
            before each measurement window opens (refills pipeline-local
            state — ROB, schedulers, LPT timing — that the functional
            image cannot carry).  ``None`` → ``max(unit_uops // 5, 32)``.
            The defaults keep the full-escalation detailed budget at
            ``max_units * (unit_uops + unit_warm) = length / 5`` — a
            guaranteed >= 5x cut in detailed-simulated micro-ops.
        bias_floor: relative systematic-error floor.  Adding it in
            quadrature would be wrong for a bias, so the reported
            half-width is ``max(statistical, bias_floor * |mean|)``, to
            keep intervals honest about slice-boundary effects the t
            statistic can't see.
    """

    target_ci: float = 0.02
    confidence: float = 0.95
    min_units: int = 4
    max_units: int = 8
    unit_uops: Optional[int] = None
    unit_warm: Optional[int] = None
    bias_floor: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.target_ci < 1.0:
            raise ValueError("target_ci must be in (0, 1)")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.min_units < 2:
            raise ValueError("min_units must be at least 2")
        if self.max_units < self.min_units:
            raise ValueError("max_units must be >= min_units")
        if self.unit_uops is not None and self.unit_uops < 10:
            raise ValueError("unit_uops must be at least 10")
        if self.unit_warm is not None and self.unit_warm < 0:
            raise ValueError("unit_warm must be non-negative")
        if self.bias_floor < 0.0:
            raise ValueError("bias_floor must be non-negative")
        # Normalize max_units up to min_units * 2**k so escalation
        # rounds nest on the power-of-two placement grid.
        cap = self.min_units
        while cap < self.max_units:
            cap *= 2
        if cap != self.max_units:
            object.__setattr__(self, "max_units", cap)

    def resolved_unit_uops(self, length: int) -> int:
        """Committed uops per measurement unit (default ``length/48``)."""
        if self.unit_uops is not None:
            return self.unit_uops
        return max(length // 48, 50)

    def resolved_unit_warm(self, unit_uops: int) -> int:
        """Detailed re-warm uops per unit (default ``unit_uops/5``)."""
        if self.unit_warm is not None:
            return self.unit_warm
        return max(unit_uops // 5, 32)

    def spec(self) -> str:
        """Canonical spec string; ``parse_sampling(cfg.spec()) == cfg``."""
        parts = ["ci=%g" % self.target_ci, "conf=%g" % self.confidence]
        default = SamplingConfig()
        if self.min_units != default.min_units:
            parts.append("min=%d" % self.min_units)
        if self.max_units != default.max_units:
            parts.append("max=%d" % self.max_units)
        if self.unit_uops is not None:
            parts.append("unit=%d" % self.unit_uops)
        if self.unit_warm is not None:
            parts.append("warm=%d" % self.unit_warm)
        if self.bias_floor != default.bias_floor:
            parts.append("bias=%g" % self.bias_floor)
        return ",".join(parts)


_KEY_ALIASES = {
    "ci": "target_ci",
    "target_ci": "target_ci",
    "conf": "confidence",
    "confidence": "confidence",
    "min": "min_units",
    "min_units": "min_units",
    "max": "max_units",
    "max_units": "max_units",
    "unit": "unit_uops",
    "unit_uops": "unit_uops",
    "warm": "unit_warm",
    "unit_warm": "unit_warm",
    "bias": "bias_floor",
    "bias_floor": "bias_floor",
}

_INT_FIELDS = {"min_units", "max_units", "unit_uops", "unit_warm"}


def parse_sampling(spec) -> Optional[SamplingConfig]:
    """Parse a ``--sampling`` value into a :class:`SamplingConfig`.

    Accepts ``None`` (→ ``None``: exact mode), an existing
    :class:`SamplingConfig` (passed through), the bare words ``"on"`` /
    ``"default"`` (→ defaults), ``"off"`` / ``"none"`` (→ ``None``), or
    a comma-separated ``key=value`` list, e.g.
    ``"ci=0.02,conf=0.95,min=4,max=32"``.
    """
    if spec is None:
        return None
    if isinstance(spec, SamplingConfig):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            "sampling spec must be None, a string, or a SamplingConfig, "
            "got %r" % (type(spec).__name__,)
        )
    text = spec.strip()
    if not text or text.lower() in ("off", "none", "exact"):
        return None
    if text.lower() in ("on", "default", "defaults"):
        return SamplingConfig()
    kwargs = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                "bad sampling spec item %r (expected key=value)" % item
            )
        raw_key, raw_value = item.split("=", 1)
        key = _KEY_ALIASES.get(raw_key.strip().lower())
        if key is None:
            raise ValueError(
                "unknown sampling option %r (known: %s)"
                % (raw_key.strip(), ", ".join(sorted(set(_KEY_ALIASES))))
            )
        value = raw_value.strip()
        try:
            if key in _INT_FIELDS:
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        except ValueError as exc:
            raise ValueError(
                "bad value %r for sampling option %r" % (value, raw_key)
            ) from exc
    return SamplingConfig(**kwargs)
