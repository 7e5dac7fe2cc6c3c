"""Tests for SamplingConfig, the spec-string parser, and RunConfig wiring."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import DEFAULT_SAMPLING_SPEC, SamplingConfig, parse_sampling
from repro.sim import RunConfig

settings.register_profile(
    "repro", settings(max_examples=50, derandomize=True, deadline=None)
)
settings.load_profile("repro")


class TestParseSampling:
    @pytest.mark.parametrize("spec", [None, "off", "none", "exact", "", "  "])
    def test_exact_mode_spellings(self, spec):
        assert parse_sampling(spec) is None

    @pytest.mark.parametrize("spec", ["on", "default", "defaults", "ON"])
    def test_default_spellings(self, spec):
        assert parse_sampling(spec) == SamplingConfig()

    def test_config_passthrough(self):
        cfg = SamplingConfig(target_ci=0.05)
        assert parse_sampling(cfg) is cfg

    def test_default_spec_constant(self):
        assert parse_sampling(DEFAULT_SAMPLING_SPEC) == SamplingConfig()

    def test_full_spec(self):
        cfg = parse_sampling(
            "ci=0.05,conf=0.9,min=8,max=32,unit=200,warm=64,"
            "warmup=cold,bias=0.02"
        )
        assert cfg == SamplingConfig(
            target_ci=0.05,
            confidence=0.9,
            min_units=8,
            max_units=32,
            unit_uops=200,
            unit_warm=64,
            warmup_mode="cold",
            bias_floor=0.02,
        )

    def test_long_aliases(self):
        short = parse_sampling("ci=0.03,conf=0.9,min=4,max=8,unit=100,warm=20")
        long = parse_sampling(
            "target_ci=0.03,confidence=0.9,min_units=4,max_units=8,"
            "unit_uops=100,unit_warm=20"
        )
        assert short == long

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown sampling option"):
            parse_sampling("frobnicate=1")
        # Warm images always live on the trace cache entry.
        with pytest.raises(ValueError, match="unknown sampling option"):
            parse_sampling("memoize=0")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_sampling("ci")

    def test_bad_value_type(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_sampling("ci=lots")

    def test_wrong_python_type(self):
        with pytest.raises(TypeError):
            parse_sampling(0.02)

    def test_validation_propagates(self):
        with pytest.raises(ValueError, match="target_ci"):
            parse_sampling("ci=1.5")
        with pytest.raises(ValueError, match="min_units"):
            parse_sampling("min=1")
        with pytest.raises(ValueError, match="warmup_mode"):
            parse_sampling("warmup=psychic")


class TestSamplingConfig:
    def test_max_units_normalized_to_power_of_two_grid(self):
        cfg = SamplingConfig(min_units=4, max_units=13)
        assert cfg.max_units == 16
        cfg = SamplingConfig(min_units=3, max_units=20)
        assert cfg.max_units == 24  # 3 * 2**3
        cfg = SamplingConfig(min_units=4, max_units=4)
        assert cfg.max_units == 4

    def test_resolved_unit_sizes(self):
        cfg = SamplingConfig()
        assert cfg.resolved_unit_uops(12_000) == 250
        assert cfg.resolved_unit_uops(100) == 50  # floor
        assert cfg.resolved_unit_warm(250) == 50
        assert cfg.resolved_unit_warm(100) == 32  # floor
        pinned = SamplingConfig(unit_uops=400, unit_warm=16)
        assert pinned.resolved_unit_uops(12_000) == 400
        assert pinned.resolved_unit_warm(400) == 16

    def test_default_budget_is_a_fifth_of_the_trace(self):
        """max_units * (unit_uops + unit_warm) == length / 5 (long traces).

        This identity is what guarantees the >= 5x detailed-uop cut the
        acceptance gate (benchmarks/bench_sampling.py) asserts.
        """
        cfg = SamplingConfig()
        for length in (12_000, 48_000, 240_000):
            unit = cfg.resolved_unit_uops(length)
            warm = cfg.resolved_unit_warm(unit)
            assert cfg.max_units * (unit + warm) == length // 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(confidence=1.0)
        with pytest.raises(ValueError):
            SamplingConfig(max_units=2, min_units=4)
        with pytest.raises(ValueError):
            SamplingConfig(unit_uops=5)
        with pytest.raises(ValueError):
            SamplingConfig(unit_warm=-1)
        with pytest.raises(ValueError):
            SamplingConfig(bias_floor=-0.1)

    def test_spec_round_trip_defaults(self):
        cfg = SamplingConfig()
        assert cfg.spec() == DEFAULT_SAMPLING_SPEC
        assert parse_sampling(cfg.spec()) == cfg

    @given(
        target_ci=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
        confidence=st.sampled_from([0.9, 0.95, 0.99]),
        min_units=st.sampled_from([2, 4, 8]),
        max_factor=st.sampled_from([1, 2, 4]),
        unit_uops=st.sampled_from([None, 100, 250]),
        unit_warm=st.sampled_from([None, 0, 64]),
        warmup_mode=st.sampled_from(["functional", "cold"]),
        bias_floor=st.sampled_from([0.0, 0.01, 0.05]),
    )
    def test_spec_round_trip(
        self,
        target_ci,
        confidence,
        min_units,
        max_factor,
        unit_uops,
        unit_warm,
        warmup_mode,
        bias_floor,
    ):
        cfg = SamplingConfig(
            target_ci=target_ci,
            confidence=confidence,
            min_units=min_units,
            max_units=min_units * max_factor,
            unit_uops=unit_uops,
            unit_warm=unit_warm,
            warmup_mode=warmup_mode,
            bias_floor=bias_floor,
        )
        assert parse_sampling(cfg.spec()) == cfg

    def test_frozen(self):
        cfg = SamplingConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.target_ci = 0.5


class TestRunConfigWiring:
    def test_run_config_accepts_sampling(self):
        cfg = RunConfig(sampling=SamplingConfig())
        assert cfg.sampling == SamplingConfig()
        assert RunConfig().sampling is None

    def test_sampling_and_telemetry_conflict(self):
        with pytest.raises(ValueError, match="telemetry"):
            RunConfig(telemetry=True, sampling=SamplingConfig())
