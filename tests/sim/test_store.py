"""Tests for the persistent result store."""

import dataclasses
import json
import warnings

import pytest

from repro.common import SchemeKind, SystemParams
from repro.sim import RunConfig, run_suite
from repro.sim.runner import run_benchmark
from repro.sim.store import (
    ResultStore,
    default_store_root,
    result_from_dict,
    result_to_dict,
    run_key,
)
from repro.workloads import get_benchmark


def _result(length=700):
    profile = get_benchmark("spec2017", "gcc")
    return run_benchmark(profile, SchemeKind.STT_RECON, length)


def _key(profile, length=700, params=None, **overrides):
    profile = dataclasses.replace(profile, **overrides)
    return run_key(
        profile,
        SchemeKind.STT_RECON,
        length,
        1,
        params or SystemParams(),
        0,
    )


class TestRunKey:
    def test_stable_for_identical_inputs(self):
        profile = get_benchmark("spec2017", "gcc")
        assert _key(profile) == _key(profile)

    def test_changed_system_params_invalidate(self):
        profile = get_benchmark("spec2017", "gcc")
        small_lpt = SystemParams(lpt_entries=4)
        assert _key(profile) != _key(profile, params=small_lpt)

    def test_changed_seed_invalidates(self):
        profile = get_benchmark("spec2017", "gcc")
        assert _key(profile) != _key(profile, seed=99)

    def test_changed_length_invalidates(self):
        profile = get_benchmark("spec2017", "gcc")
        assert _key(profile, length=700) != _key(profile, length=800)

    def test_schema_version_invalidates(self, monkeypatch):
        from repro.sim import store as store_module

        profile = get_benchmark("spec2017", "gcc")
        before = _key(profile)
        monkeypatch.setattr(store_module, "SCHEMA_VERSION", 999)
        assert _key(profile) != before


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        result = _result()
        restored = result_from_dict(result_to_dict(result))
        assert restored.profile == result.profile
        assert restored.scheme is result.scheme
        assert restored.cycles == result.cycles
        assert restored.stats.as_dict() == result.stats.as_dict()
        assert len(restored.per_core) == len(result.per_core)
        assert restored.ipc == result.ipc

    def test_dict_form_is_json_safe(self):
        json.dumps(result_to_dict(_result()))


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        result = _result()
        store.put("ab" * 32, result)
        restored = store.get("ab" * 32)
        assert restored is not None
        assert restored.cycles == result.cycles
        assert store.hits == 1

    def test_missing_key_counts_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("cd" * 32) is None
        assert store.misses == 1

    def test_corrupt_entry_is_quarantined_not_swallowed(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, _result())
        path = store._path("ab" * 32)
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get("ab" * 32) is None
        assert store.corrupt_entries == 1
        assert store.misses == 1
        # The damaged file is renamed aside, inspectable but inert.
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_text() == "{not json"
        assert len(store) == 0  # *.corrupt no longer matches lookups

    def test_schema_invalid_entry_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store._path("cd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"valid": "json", "wrong": "schema"}))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get("cd" * 32) is None
        assert store.corrupt_entries == 1

    def test_missing_entry_is_a_plain_miss_no_warning(self, tmp_path):
        store = ResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get("ef" * 32) is None
        assert store.corrupt_entries == 0
        assert store.misses == 1

    def test_len_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, _result())
        store.put("cd" * 32, _result())
        assert len(store) == 2
        store.clear()
        assert len(store) == 0

    def test_default_root_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "/tmp/somewhere")
        assert str(default_store_root()) == "/tmp/somewhere"
        monkeypatch.setenv("REPRO_STORE", "off")
        assert default_store_root() is None
        monkeypatch.delenv("REPRO_STORE")
        assert default_store_root() is not None


class TestLayout:
    def test_entry_sits_under_one_prefix_dir(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "abcdef" + "00" * 29
        store.put(key, _result())
        # One layout: a lookup is a single open, and the durable write
        # leaves no temp file beside the entry.
        assert sorted(tmp_path.rglob("*")) == [
            tmp_path / "ab",
            tmp_path / "ab" / f"{key}.json",
        ]
        assert store.get(key) is not None


class TestSuiteMemoization:
    def test_second_invocation_fully_served_from_store(self, tmp_path):
        profiles = [
            get_benchmark("spec2017", "gcc"),
            get_benchmark("spec2017", "lbm"),
        ]
        schemes = (SchemeKind.UNSAFE, SchemeKind.STT)
        first = run_suite(
            profiles, schemes, 800, store=ResultStore(tmp_path)
        )
        assert first.store_hits == 0 and first.store_misses == 4
        second = run_suite(
            profiles, schemes, 800, store=ResultStore(tmp_path)
        )
        assert second.store_hits == 4 and second.store_misses == 0
        for key in first:
            assert first[key].cycles == second[key].cycles
            assert first[key].stats.as_dict() == second[key].stats.as_dict()

    def test_changed_params_miss_the_store(self, tmp_path):
        profiles = [get_benchmark("spec2017", "gcc")]
        schemes = (SchemeKind.STT_RECON,)
        run_suite(profiles, schemes, 800, store=ResultStore(tmp_path))
        varied = run_suite(
            profiles,
            schemes,
            800,
            config=RunConfig(params=SystemParams(lpt_entries=8)),
            store=ResultStore(tmp_path),
        )
        assert varied.store_hits == 0 and varied.store_misses == 1

    def test_interrupted_sweep_resumes(self, tmp_path):
        """Partial store contents are reused; only the gap is simulated."""
        profiles = [
            get_benchmark("spec2017", "gcc"),
            get_benchmark("spec2017", "lbm"),
        ]
        run_suite(
            profiles[:1],
            (SchemeKind.UNSAFE, SchemeKind.STT),
            800,
            store=ResultStore(tmp_path),
        )
        resumed = run_suite(
            profiles,
            (SchemeKind.UNSAFE, SchemeKind.STT),
            800,
            store=ResultStore(tmp_path),
        )
        assert resumed.store_hits == 2
        assert resumed.store_misses == 2
