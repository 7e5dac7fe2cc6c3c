"""Second-order metadata audit: is the protection's own metadata a channel?

A scheme that blocks the cache side channel can still leak through its
*protection metadata*: which loads it delayed and for how long, how many
reveal-bit lookups hit, how much taint it propagated.  An attacker who
can see those signals (a co-tenant reading shared performance counters,
a profiling interface) would learn the secret without ever touching the
cache.

The audit plays that attacker.  For each protected scheme it runs
matched pairs of gadget trials — same benign noise seed, *different
secret value* — with telemetry enabled, extracts a feature vector of
scheme-visible metadata per run (delay/taint/reveal counters plus the
per-load ``delay_cycles`` histogram buckets), and scores every feature
as a one-dimensional classifier of "which secret was it?" via the
Mann-Whitney U statistic (midrank AUC).  If the metadata is independent
of the secret, matched trials produce *identical* features and every
AUC is exactly 0.5; the acceptance band is ``[0.4, 0.6]``.

The positive control (:func:`control_audit`) proves the classifier has
teeth: under the unsafe baseline with *timing* features and a secret
that selects a warm vs. cold transmit target, the AUC saturates.

The audit always runs with telemetry, on the same cycle loop as every
measured number.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

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
    "mann_whitney_auc",
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


def mann_whitney_auc(xs: Sequence[float], ys: Sequence[float]) -> float:
    """AUC of "larger value => class y" with midrank tie handling.

    Equals the Mann-Whitney U statistic normalized by ``len(xs) *
    len(ys)``; 0.5 means the feature carries no class information,
    0.0/1.0 mean perfect (anti-)separation.
    """
    if not xs or not ys:
        raise ValueError("both classes need at least one sample")
    greater = ties = 0
    for x in xs:
        for y in ys:
            if y > x:
                greater += 1
            elif y == x:
                ties += 1
    return (greater + 0.5 * ties) / (len(xs) * len(ys))


@dataclasses.dataclass(frozen=True)
class AuditResult:
    """AUC audit outcome for one (scheme, gadget)."""

    scheme: SchemeKind
    gadget: str
    trials: int
    #: Per-feature AUC (feature -> AUC of secret-A vs secret-B samples).
    feature_aucs: Dict[str, float]
    #: The feature with the largest deviation from 0.5, and its AUC.
    worst_feature: str
    worst_auc: float

    @property
    def ok(self) -> bool:
        """True when even the most discriminative feature is in band."""
        return 0.4 <= self.worst_auc <= 0.6

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary of the audit outcome."""
        return {
            "scheme": self.scheme.value,
            "gadget": self.gadget,
            "trials": self.trials,
            "feature_aucs": dict(sorted(self.feature_aucs.items())),
            "worst_feature": self.worst_feature,
            "worst_auc": self.worst_auc,
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


def _score(
    class_a: List[Dict[str, float]], class_b: List[Dict[str, float]]
) -> Tuple[Dict[str, float], str, float]:
    names = sorted(set().union(*class_a, *class_b))
    aucs = {
        name: mann_whitney_auc(
            [sample.get(name, 0.0) for sample in class_a],
            [sample.get(name, 0.0) for sample in class_b],
        )
        for name in names
    }
    worst = max(aucs, key=lambda name: abs(aucs[name] - 0.5))
    return aucs, worst, aucs[worst]


def audit_scheme(
    scheme: SchemeKind,
    gadget: str = "v1_bounds_bypass",
    *,
    trials: int = 6,
) -> AuditResult:
    """Audit one protected scheme's metadata on one gadget.

    Runs ``trials`` matched pairs (secret A vs secret B, shared noise
    seed) and scores every metadata feature.  The gadget must accept a
    tunable secret (``GadgetCase.secret_tunable``).
    """
    case = get_gadget(gadget)
    if not case.secret_tunable:
        raise ValueError(f"gadget {gadget!r} has no tunable secret to audit")
    if trials < 2:
        raise ValueError("need at least 2 trials for a meaningful AUC")
    class_a: List[Dict[str, float]] = []
    class_b: List[Dict[str, float]] = []
    for trial in range(trials):
        for secret, bucket in ((_SECRET_A, class_a), (_SECRET_B, class_b)):
            stats, telemetry = _run_trial(
                gadget, scheme, secret_value=secret, noise_seed=trial
            )
            bucket.append(_metadata_features(stats, telemetry))
    aucs, worst, worst_auc = _score(class_a, class_b)
    return AuditResult(
        scheme=scheme,
        gadget=gadget,
        trials=trials,
        feature_aucs=aucs,
        worst_feature=worst,
        worst_auc=worst_auc,
    )


def audit_all(
    schemes: Sequence[SchemeKind] = PROTECTED_SCHEMES,
    gadget: str = "v1_bounds_bypass",
    *,
    trials: int = 6,
) -> List[AuditResult]:
    """Audit every scheme in ``schemes`` (default: all protected ones)."""
    return [audit_scheme(scheme, gadget, trials=trials) for scheme in schemes]


def control_audit(*, trials: int = 6) -> AuditResult:
    """Positive control: the classifier must detect a real channel.

    Unsafe baseline, timing features, and a secret that points at a
    *warmed* line (class A) vs. a cold one (class B): the transmitter's
    hit/miss difference shows up in cycles and miss counters, so the
    worst-feature AUC should saturate.  Both classes run structurally
    identical programs (the same line is warmed in both), so the only
    difference is the secret value itself.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a meaningful AUC")
    gadget = "v1_bounds_bypass"
    class_a: List[Dict[str, float]] = []
    class_b: List[Dict[str, float]] = []
    for trial in range(trials):
        for secret, bucket in ((_SECRET_A, class_a), (_SECRET_B, class_b)):
            stats, telemetry = _run_trial(
                gadget,
                SchemeKind.UNSAFE,
                secret_value=secret,
                noise_seed=trial,
                warm_line=_SECRET_A,  # warm the class-A target in BOTH classes
            )
            bucket.append(_timing_features(stats, telemetry))
    aucs, worst, worst_auc = _score(class_a, class_b)
    return AuditResult(
        scheme=SchemeKind.UNSAFE,
        gadget=gadget,
        trials=trials,
        feature_aucs=aucs,
        worst_feature=worst,
        worst_auc=worst_auc,
    )
