"""Functional warm-up, warm-image memoization, and store integration."""

import json

import pytest

from repro import SchemeKind
from repro.sampling import SamplingConfig
from repro.sampling.executor import (
    WARM_IMAGE_KIND,
    _WARM_MEMO,
    get_warm_images,
    run_sampled,
    warm_images_key,
)
from repro.sampling.warmup import (
    FunctionalWarmer,
    build_warm_images,
    restore_hierarchy,
    snapshot_hierarchy,
)
from repro.sim import RunConfig, TraceCache
from repro.sim.store import ResultStore, run_key
from repro.workloads import get_benchmark

LENGTH = 2_000


@pytest.fixture
def profile():
    return get_benchmark("spec2017", "mcf")


@pytest.fixture
def traces(profile):
    return TraceCache().get(profile, 1, LENGTH)


@pytest.fixture
def params():
    return RunConfig().resolved_params()


@pytest.fixture(autouse=True)
def _clean_memo():
    _WARM_MEMO.clear()
    yield
    _WARM_MEMO.clear()


class TestFunctionalWarmer:
    def test_snapshot_is_deterministic(self, params, traces):
        a = FunctionalWarmer(params, traces).snapshot(500)
        b = FunctionalWarmer(params, traces).snapshot(500)
        assert a == b

    def test_forward_only(self, params, traces):
        warmer = FunctionalWarmer(params, traces)
        warmer.advance(300)
        with pytest.raises(ValueError, match="forward-only"):
            warmer.advance(200)

    def test_incremental_equals_one_shot(self, params, traces):
        stepped = FunctionalWarmer(params, traces)
        stepped.advance(200)
        stepped.advance(500)
        direct = FunctionalWarmer(params, traces)
        assert stepped.snapshot(500) == direct.snapshot(500)

    def test_snapshot_restore_round_trip(self, params, traces):
        warmer = FunctionalWarmer(params, traces)
        image = warmer.snapshot(600)
        restored = restore_hierarchy(params, image)
        again = snapshot_hierarchy(restored, [dict() for _ in traces])
        assert again["llc"] == image["llc"]
        assert again["cores"] == image["cores"]

    def test_restore_rejects_wrong_version(self, params, traces):
        image = FunctionalWarmer(params, traces).snapshot(100)
        image["version"] = 999
        with pytest.raises(ValueError, match="version"):
            restore_hierarchy(params, image)

    def test_restore_rejects_wrong_core_count(self, params, traces):
        image = FunctionalWarmer(params, traces).snapshot(100)
        image["cores"] = image["cores"] + image["cores"]
        with pytest.raises(ValueError, match="cores"):
            restore_hierarchy(params, image)

    def test_build_warm_images_requires_ascending_offsets(
        self, params, traces
    ):
        with pytest.raises(ValueError, match="ascending"):
            build_warm_images(params, traces, [500, 100])

    def test_images_are_json_serializable(self, params, traces):
        images = build_warm_images(params, traces, [100, 400])
        round_tripped = json.loads(json.dumps(images))
        assert set(round_tripped["offsets"]) == {"100", "400"}


class TestWarmImagesKey:
    def test_scheme_free_and_param_sensitive(self, profile, params):
        base = warm_images_key(profile, 1, LENGTH, params, [100, 400])
        # No scheme argument exists at all — the key is shared across
        # schemes by construction; it must react to everything else.
        assert warm_images_key(profile, 1, LENGTH, params, [100, 400]) == base
        assert warm_images_key(profile, 2, LENGTH, params, [100, 400]) != base
        assert warm_images_key(profile, 1, 4_000, params, [100, 400]) != base
        assert warm_images_key(profile, 1, LENGTH, params, [100, 401]) != base
        other = get_benchmark("spec2017", "gcc")
        assert warm_images_key(other, 1, LENGTH, params, [100, 400]) != base

    def test_in_process_memo(self, profile, params, traces):
        offsets = [100, 400]
        first = get_warm_images(profile, 1, LENGTH, params, offsets, traces)
        second = get_warm_images(profile, 1, LENGTH, params, offsets, traces)
        assert second is first  # memo hit, not a rebuild

    def test_store_round_trip(self, profile, params, traces, tmp_path):
        store = ResultStore(tmp_path)
        offsets = [100, 400]
        built = get_warm_images(
            profile, 1, LENGTH, params, offsets, traces, store=store
        )
        _WARM_MEMO.clear()
        loaded = get_warm_images(
            profile, 1, LENGTH, params, offsets, traces, store=store
        )
        assert loaded == built
        key = warm_images_key(profile, 1, LENGTH, params, offsets)
        assert store.get_entry(WARM_IMAGE_KIND, key) == built


class TestStoreBlobEntries:
    def test_round_trip_and_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_entry("warm_images", "ab" * 32) is None
        payload = {"offsets": {"0": {"llc": []}}}
        store.put_entry("warm_images", "ab" * 32, payload)
        assert store.get_entry("warm_images", "ab" * 32) == payload

    def test_blobs_invisible_to_run_enumeration(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_entry("warm_images", "cd" * 32, {"x": 1})
        assert len(store) == 0
        store.clear()
        assert store.get_entry("warm_images", "cd" * 32) == {"x": 1}

    def test_corrupt_blob_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" * 32
        store.put_entry("warm_images", key, {"x": 1})
        path = store._entry_path("warm_images", key)
        path.write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get_entry("warm_images", key) is None
        assert store.corrupt_entries == 1
        assert path.with_name(path.name + ".corrupt").exists()
        # Quarantine means the next lookup is a clean miss, no warning.
        assert store.get_entry("warm_images", key) is None

    def test_non_object_blob_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "aa" * 32
        path = store._entry_path("warm_images", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get_entry("warm_images", key) is None

    def test_bad_kind_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for kind in ("", "a/b", "a.b", "a\\b"):
            with pytest.raises(ValueError):
                store.put_entry(kind, "ab" * 32, {})


class TestRunKeyGating:
    def test_exact_key_unchanged_by_sampling_field(self, profile, params):
        exact = run_key(profile, SchemeKind.UNSAFE, LENGTH, 1, params, 800)
        explicit_none = run_key(
            profile, SchemeKind.UNSAFE, LENGTH, 1, params, 800, sampling=None
        )
        assert exact == explicit_none

    def test_sampled_key_differs(self, profile, params):
        exact = run_key(profile, SchemeKind.UNSAFE, LENGTH, 1, params, 800)
        sampled = run_key(
            profile,
            SchemeKind.UNSAFE,
            LENGTH,
            1,
            params,
            800,
            sampling=SamplingConfig(),
        )
        assert sampled != exact
        tighter = run_key(
            profile,
            SchemeKind.UNSAFE,
            LENGTH,
            1,
            params,
            800,
            sampling=SamplingConfig(target_ci=0.01),
        )
        assert tighter not in (exact, sampled)


class TestCrossSchemeSharing:
    def test_one_blob_serves_every_scheme(self, profile, traces, tmp_path):
        store = ResultStore(tmp_path)
        config = RunConfig(sampling=SamplingConfig())
        for scheme in (SchemeKind.UNSAFE, SchemeKind.STT):
            result = run_sampled(
                profile,
                scheme,
                LENGTH,
                config=config,
                traces=traces,
                store=store,
            )
            assert result.sampling is not None
        blob_dir = tmp_path / ".blobs" / WARM_IMAGE_KIND
        blobs = list(blob_dir.rglob("*.json"))
        assert len(blobs) == 1  # scheme-free key: second scheme reused it
