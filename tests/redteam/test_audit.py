"""The second-order metadata audit: protection metadata must not depend
on the secret for any protected scheme — matched runs (same noise seed,
different secret) agree on every feature — and the pair check itself
must be able to find a real channel (the unsafe positive control)."""

import pytest

import repro.redteam.audit as audit_mod
from repro.common.types import SchemeKind
from repro.redteam import (
    PROTECTED_SCHEMES,
    audit_all,
    audit_scheme,
    control_audit,
)


class TestProtectedSchemeAudit:
    @pytest.mark.parametrize(
        "scheme", PROTECTED_SCHEMES, ids=lambda scheme: scheme.value
    )
    def test_metadata_auc_stays_in_band(self, scheme):
        """The acceptance criterion: no metadata feature differs within
        any matched pair, for every protected scheme."""
        audit = audit_scheme(scheme, trials=3)
        assert audit.ok, (
            f"{scheme.value} metadata leaks the secret: {audit.differing}"
        )
        assert audit.differing == {}

    def test_matched_pairs_make_auc_exactly_half(self):
        """Same noise seed + secret-independent metadata means the two
        runs of every pair are identical feature by feature."""
        audit = audit_scheme(SchemeKind.STT_RECON, trials=3)
        assert audit.differing == {}
        assert audit.as_dict()["differing"] == {}

    def test_one_differing_pair_fails_the_audit(self, monkeypatch):
        """A leak a statistical band would miss: one feature off by 1 in
        one of 6 pairs (a Mann-Whitney AUC of 0.583, inside [0.4, 0.6])
        must fail."""
        real_trial = audit_mod._run_trial

        def leaky_trial(gadget, scheme, *, secret_value, noise_seed, **kwargs):
            stats, telemetry = real_trial(
                gadget,
                scheme,
                secret_value=secret_value,
                noise_seed=noise_seed,
                **kwargs,
            )
            if secret_value == audit_mod._SECRET_B and noise_seed == 3:
                stats.delayed_loads += 1
            return stats, telemetry

        monkeypatch.setattr(audit_mod, "_run_trial", leaky_trial)
        audit = audit_scheme(SchemeKind.NDA, trials=6)
        assert not audit.ok
        assert list(audit.differing) == ["delayed_loads"]
        a, b = audit.differing["delayed_loads"]
        assert b == a + 1

    def test_audit_all_covers_every_protected_scheme(self):
        results = audit_all(trials=2)
        assert [r.scheme for r in results] == list(PROTECTED_SCHEMES)
        assert all(r.ok for r in results)

    def test_untunable_gadget_rejected(self):
        with pytest.raises(ValueError, match="tunable"):
            audit_scheme(SchemeKind.NDA, "indirect_chain", trials=2)

    def test_too_few_trials_rejected(self):
        """Zero pairs would pass with nothing compared."""
        with pytest.raises(ValueError, match="trials"):
            audit_scheme(SchemeKind.NDA, trials=0)
        with pytest.raises(ValueError, match="trials"):
            control_audit(trials=0)

    def test_one_pair_is_a_real_check(self):
        assert audit_scheme(SchemeKind.NDA, trials=1).ok
        assert not control_audit(trials=1).ok


class TestControlAudit:
    def test_control_detects_the_planted_channel(self):
        """The unsafe baseline with timing features must differ within
        its pairs — otherwise a clean audit result is meaningless."""
        control = control_audit(trials=3)
        assert not control.ok
        # The channel shows up in cache/timing behaviour.
        assert set(control.differing) <= {
            "cycles",
            "l1_hits",
            "l1_misses",
            "l2_misses",
            "llc_misses",
        }
        # Secret A's line is warm, secret B's is cold.
        a_hits, b_hits = control.differing["l1_hits"]
        assert a_hits > b_hits

    def test_result_serializes(self):
        control = control_audit(trials=2)
        payload = control.as_dict()
        assert payload["scheme"] == "unsafe"
        assert payload["ok"] is False
        assert payload["differing"] == {
            name: list(pair) for name, pair in control.differing.items()
        }
