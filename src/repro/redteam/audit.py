"""Second-order metadata audit: is the protection's own metadata a channel?

A scheme that blocks the cache side channel can still leak through its
*protection metadata*: which loads it delayed and for how long, how many
reveal-bit lookups hit, how much taint it propagated.  An attacker who
can see those signals (a co-tenant reading shared performance counters,
a profiling interface) would learn the secret without ever touching the
cache.

The audit plays that attacker with a two-run check.  For each
protected scheme it runs matched pairs of gadget trials — same benign
noise seed, *different secret value* — with telemetry enabled, and
extracts a feature vector of scheme-visible metadata per run
(delay/taint/reveal counters plus the per-load ``delay_cycles``
histogram buckets).  The simulator is deterministic, so metadata that
does not depend on the secret is identical within every pair; a feature
that differs in any pair is a channel and fails the audit.

The positive control (:func:`control_audit`) proves the check has
teeth: under the unsafe baseline with *timing* features and a secret
that selects a warm vs. cold transmit target, the pairs differ.

The audit always runs with telemetry, on the same cycle loop as every
measured number.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.params import SystemParams
from repro.common.types import SchemeKind
from repro.sim.system import System
from repro.telemetry.events import TelemetryConfig
from repro.workloads.gadgets import build_gadget, get_gadget

__all__ = [
    "AUDIT_STAT_FEATURES",
    "AuditResult",
    "PROTECTED_SCHEMES",
    "audit_all",
    "audit_scheme",
    "control_audit",
]

#: The matrix's protected columns — every one must pass the audit.
PROTECTED_SCHEMES: Tuple[SchemeKind, ...] = (
    SchemeKind.NDA,
    SchemeKind.STT,
    SchemeKind.NDA_RECON,
    SchemeKind.STT_RECON,
    SchemeKind.DOM,
)

#: StatSet fields that are protection metadata (visible to a co-tenant
#: through scheme-level counters, unlike raw cache contents).
AUDIT_STAT_FEATURES: Tuple[str, ...] = (
    "delayed_loads",
    "delay_cycles",
    "tainted_loads",
    "deferred_broadcasts",
    "reveal_hits",
    "reveal_misses",
    "load_pairs_detected",
    "lpt_conflicts",
    "words_concealed",
    "bitvector_merges",
)

#: Timing/footprint features for the unsafe positive control.
_CONTROL_FEATURES: Tuple[str, ...] = (
    "cycles",
    "l1_hits",
    "l1_misses",
    "l2_misses",
    "llc_misses",
)

#: The two candidate secrets: word-aligned pointers to two different
#: always-cold lines (matched trials differ in nothing else).
_SECRET_A = 0x7000
_SECRET_B = 0x7800


@dataclasses.dataclass(frozen=True)
class AuditResult:
    """Matched-pair audit outcome for one (scheme, gadget)."""

    scheme: SchemeKind
    gadget: str
    trials: int
    #: Features that differ within some matched pair -> their (secret-A,
    #: secret-B) values in the first such pair by noise seed.
    differing: Dict[str, Tuple[float, float]]

    @property
    def ok(self) -> bool:
        """True when every matched pair had identical features."""
        return not self.differing

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary of the audit outcome."""
        return {
            "scheme": self.scheme.value,
            "gadget": self.gadget,
            "trials": self.trials,
            "differing": {
                name: list(pair) for name, pair in sorted(self.differing.items())
            },
            "ok": self.ok,
        }


def _run_trial(
    gadget: str,
    scheme: SchemeKind,
    *,
    secret_value: int,
    noise_seed: int,
    warm_line: Optional[int] = None,
) -> Tuple[object, object]:
    """One telemetry-enabled in-process run; returns (stats, telemetry)."""
    kwargs: Dict[str, object] = {
        "secret_value": secret_value,
        "noise_seed": noise_seed,
    }
    if warm_line is not None:
        kwargs["warm_line"] = warm_line
    built = build_gadget(gadget, **kwargs)
    result = System(
        SystemParams(num_cores=built.threads),
        [prog.trace() for prog in built.programs],
        scheme,
        warmup_uops=0,
        telemetry=TelemetryConfig(sample_rate=1),
    ).run()
    return result.aggregate, result.telemetry


def _metadata_features(stats, telemetry) -> Dict[str, float]:
    """Protection-metadata feature vector for one run."""
    features = {name: float(getattr(stats, name)) for name in AUDIT_STAT_FEATURES}
    histogram = None
    if telemetry is not None:
        histogram = telemetry.metrics.get("histograms", {}).get("delay_cycles")
    if histogram:
        for i, count in enumerate(histogram.get("counts", [])):
            features[f"delay_hist_{i}"] = float(count)
        features["delay_hist_sum"] = float(histogram.get("sum", 0))
    return features


def _timing_features(stats, _telemetry) -> Dict[str, float]:
    """Timing/footprint feature vector (the positive control's view)."""
    return {name: float(getattr(stats, name)) for name in _CONTROL_FEATURES}


def _compare_pairs(
    gadget: str,
    scheme: SchemeKind,
    trials: int,
    features: Callable[[object, object], Dict[str, float]],
    warm_line: Optional[int] = None,
) -> AuditResult:
    """Run ``trials`` matched pairs (noise seeds ``0..trials-1``) and
    collect every feature whose secret-A and secret-B values differ."""
    if trials < 1:
        raise ValueError("trials must be at least 1 (one matched pair)")
    differing: Dict[str, Tuple[float, float]] = {}
    for seed in range(trials):
        a, b = (
            features(
                *_run_trial(
                    gadget,
                    scheme,
                    secret_value=secret,
                    noise_seed=seed,
                    warm_line=warm_line,
                )
            )
            for secret in (_SECRET_A, _SECRET_B)
        )
        for name in sorted(a.keys() | b.keys()):
            pair = (a.get(name, 0.0), b.get(name, 0.0))
            if pair[0] != pair[1]:
                differing.setdefault(name, pair)
    return AuditResult(
        scheme=scheme, gadget=gadget, trials=trials, differing=differing
    )


def audit_scheme(
    scheme: SchemeKind,
    gadget: str = "v1_bounds_bypass",
    *,
    trials: int = 6,
) -> AuditResult:
    """Audit one protected scheme's metadata on one gadget.

    Runs ``trials`` matched pairs (secret A vs secret B, shared noise
    seed) and compares every metadata feature within each pair.  The
    gadget must accept a tunable secret (``GadgetCase.secret_tunable``).
    """
    if not get_gadget(gadget).secret_tunable:
        raise ValueError(f"gadget {gadget!r} has no tunable secret to audit")
    return _compare_pairs(gadget, scheme, trials, _metadata_features)


def audit_all(
    schemes: Sequence[SchemeKind] = PROTECTED_SCHEMES,
    gadget: str = "v1_bounds_bypass",
    *,
    trials: int = 6,
) -> List[AuditResult]:
    """Audit every scheme in ``schemes`` (default: all protected ones)."""
    return [audit_scheme(scheme, gadget, trials=trials) for scheme in schemes]


def control_audit(*, trials: int = 6) -> AuditResult:
    """Positive control: the pair check must detect a real channel.

    Unsafe baseline, timing features, and a secret that points at a
    *warmed* line (secret A) vs. a cold one (secret B): the
    transmitter's hit/miss difference shows up in cycles and miss
    counters, so the pairs differ.  Both runs of a pair execute
    structurally identical programs (the same line is warmed in both),
    so the only difference is the secret value itself.
    """
    return _compare_pairs(
        "v1_bounds_bypass",
        SchemeKind.UNSAFE,
        trials,
        _timing_features,
        warm_line=_SECRET_A,  # warm the secret-A target in BOTH runs
    )
