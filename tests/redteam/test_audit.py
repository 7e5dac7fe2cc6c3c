"""The second-order metadata audit: protection metadata must be a
secret-independent signal (AUC ~ 0.5) for every protected scheme, and
the classifier itself must be able to find a real channel (the unsafe
positive control)."""

import pytest

from repro.common.types import SchemeKind
from repro.redteam import (
    PROTECTED_SCHEMES,
    audit_all,
    audit_scheme,
    control_audit,
    mann_whitney_auc,
)


class TestMannWhitneyAuc:
    def test_perfect_separation(self):
        assert mann_whitney_auc([1, 2, 3], [4, 5, 6]) == 1.0
        assert mann_whitney_auc([4, 5, 6], [1, 2, 3]) == 0.0

    def test_identical_samples_are_exactly_half(self):
        assert mann_whitney_auc([7, 7, 7], [7, 7, 7]) == 0.5

    def test_midrank_tie_handling(self):
        # ys: one above, one equal, one below -> (1 + 0.5) / 3
        assert mann_whitney_auc([2.0], [1.0, 2.0, 3.0]) == pytest.approx(
            0.5
        )

    def test_interleaved_is_near_half(self):
        auc = mann_whitney_auc([1, 3, 5, 7], [2, 4, 6, 8])
        assert 0.4 <= auc <= 0.7

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_auc([], [1.0])


class TestProtectedSchemeAudit:
    @pytest.mark.parametrize(
        "scheme", PROTECTED_SCHEMES, ids=lambda scheme: scheme.value
    )
    def test_metadata_auc_stays_in_band(self, scheme):
        """The acceptance criterion: AUC in [0.4, 0.6] per scheme."""
        audit = audit_scheme(scheme, trials=3)
        assert audit.ok, (
            f"{scheme.value} metadata leaks the secret: "
            f"{audit.worst_feature} AUC={audit.worst_auc:.3f}"
        )
        assert 0.4 <= audit.worst_auc <= 0.6
        assert audit.feature_aucs  # the audit actually scored something

    def test_matched_pairs_make_auc_exactly_half(self):
        """Same noise seed + secret-independent metadata means the two
        classes are identical sample-by-sample, so the AUC is not just
        in band but exactly 0.5."""
        audit = audit_scheme(SchemeKind.STT_RECON, trials=3)
        assert all(
            auc == pytest.approx(0.5)
            for auc in audit.feature_aucs.values()
        )

    def test_audit_all_covers_every_protected_scheme(self):
        results = audit_all(trials=2)
        assert [r.scheme for r in results] == list(PROTECTED_SCHEMES)
        assert all(r.ok for r in results)

    def test_untunable_gadget_rejected(self):
        with pytest.raises(ValueError, match="tunable"):
            audit_scheme(SchemeKind.NDA, "indirect_chain", trials=2)

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            audit_scheme(SchemeKind.NDA, trials=1)


class TestControlAudit:
    def test_control_detects_the_planted_channel(self):
        """The unsafe baseline with timing features must NOT be in band
        — otherwise an in-band audit result is meaningless."""
        control = control_audit(trials=3)
        assert not control.ok
        assert abs(control.worst_auc - 0.5) >= 0.4
        # The channel shows up in cache/timing behaviour.
        assert control.worst_feature in (
            "cycles",
            "l1_hits",
            "l1_misses",
            "l2_misses",
            "llc_misses",
        )

    def test_result_serializes(self):
        control = control_audit(trials=2)
        payload = control.as_dict()
        assert payload["scheme"] == "unsafe"
        assert payload["ok"] is False
        assert set(payload["feature_aucs"]) == set(control.feature_aucs)
