"""Functional warm-up, warm images on the trace cache, and the store."""

import dataclasses

import pytest

from repro import SchemeKind
from repro.common.types import MESIState
from repro.memory.hierarchy import MemoryHierarchy
from repro.sampling import SamplingConfig, executor
from repro.sampling.executor import get_warm_images, warm_images_key
from repro.sampling.warmup import (
    FunctionalWarmer,
    restore_hierarchy,
    snapshot_hierarchy,
)
from repro.sim import RunConfig, TraceCache, run_benchmark, runner
from repro.sim.engine import RunSpec, run_specs
from repro.sim.store import STORE_ENV, ResultStore, run_key
from repro.workloads import get_benchmark

LENGTH = 2_000


@pytest.fixture
def profile():
    return get_benchmark("spec2017", "mcf")


@pytest.fixture
def cache():
    return TraceCache()


@pytest.fixture
def traces(profile, cache):
    return cache.get(profile, 1, LENGTH)


@pytest.fixture
def params():
    return RunConfig().resolved_params()


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
        again = snapshot_hierarchy(restored)
        assert again["llc"] == image["llc"]
        assert again["cores"] == image["cores"]

    def test_sharer_masks_round_trip_on_four_cores(self):
        traces = TraceCache().get(get_benchmark("parsec", "canneal"), 4, 4_000)
        params = RunConfig(threads=4).resolved_params()
        image = FunctionalWarmer(params, traces).snapshot(2_000)
        restored = restore_hierarchy(params, image)
        masks = [line.sharers for line in restored.llc]
        assert all(type(mask) is int for mask in masks)
        assert any(bin(mask).count("1") > 1 for mask in masks)
        again = snapshot_hierarchy(restored)
        assert again["llc"] == image["llc"]
        assert again["cores"] == image["cores"]

    def test_restore_rejects_wrong_core_count(self, params, traces):
        image = FunctionalWarmer(params, traces).snapshot(100)
        image["cores"] = image["cores"] + image["cores"]
        with pytest.raises(ValueError, match="cores"):
            restore_hierarchy(params, image)

    def test_snapshot_offsets_must_ascend(self, params, traces):
        warmer = FunctionalWarmer(params, traces)
        warmer.snapshot(500)
        with pytest.raises(ValueError, match="forward-only"):
            warmer.snapshot(100)

    def test_images_carry_no_load_pair_maps(self, params, traces):
        image = FunctionalWarmer(params, traces).snapshot(600)
        assert set(image) == {"llc", "cores"}


def _insert_restore(params, image):
    """The restore that inserts each dumped line through the cache API."""
    hierarchy = MemoryHierarchy(params)
    arrays = [(hierarchy.llc, image["llc"], True)]
    for priv, dump in zip(hierarchy._privs, image["cores"]):
        arrays += [(priv.l1, dump["l1"], False), (priv.l2, dump["l2"], False)]
    for array, dump, directory in arrays:
        for i, addr in enumerate(dump["addr"]):
            line, victim = array.insert(
                addr, MESIState(dump["state"][i]), dump["reveal"][i]
            )
            assert victim is None
            line.dirty = dump["dirty"][i]
            if directory:
                line.owner = dump["owner"][i]
                line.sharers = dump["sharers"][i]
        array.evictions = 0
    return hierarchy


def _array_state(array):
    return {
        "tick": array._tick,
        "evictions": array.evictions,
        "sets": [
            [
                (
                    addr,
                    line.addr,
                    line.state,
                    line.reveal,
                    line.dirty,
                    line.lru,
                    line.owner,
                    line.sharers,
                )
                for addr, line in cache_set.items()
            ]
            for cache_set in array._sets
        ],
    }


def _hierarchy_state(hierarchy):
    return [_array_state(hierarchy.llc)] + [
        _array_state(array)
        for priv in hierarchy._privs
        for array in (priv.l1, priv.l2)
    ]


class TestRestoreParity:
    """The one-pass restore leaves every array exactly as inserting the
    dumped lines one by one would: every line's fields, each set's dict
    order, each array's ``_tick`` and ``evictions``."""

    @pytest.mark.parametrize(
        "suite,name,threads,offset",
        [
            ("spec2017", "mcf", 1, 6_000),
            ("spec2017", "gcc", 1, 6_000),
            ("spec2017", "xalancbmk", 1, 3_000),
            ("spec2017", "lbm", 1, 6_000),
            ("spec2006", "omnetpp", 1, 6_000),
            ("parsec", "canneal", 4, 3_000),
        ],
    )
    def test_matches_insert_restore(self, suite, name, threads, offset):
        traces = TraceCache().get(get_benchmark(suite, name), threads, 8_000)
        params = RunConfig(threads=threads).resolved_params()
        image = FunctionalWarmer(params, traces).snapshot(offset)
        expected = _hierarchy_state(_insert_restore(params, image))
        restored = _hierarchy_state(restore_hierarchy(params, image))
        assert restored == expected
        # The image exercises what it should: lines at every level, and
        # on the multicore image directory sharers and owners.
        assert all(state["tick"] > 0 for state in expected)
        if threads > 1:
            llc = [line for s in expected[0]["sets"] for line in s]
            assert any(bin(line[7]).count("1") > 1 for line in llc)
            assert any(line[6] is not None for line in llc)

    def test_rejects_image_over_capacity(self, params, traces):
        image = FunctionalWarmer(params, traces).snapshot(600)
        l1 = params.memory.l1
        # One line more than a set holds, all mapping to set 0.
        stride = l1.line_bytes * l1.num_sets
        ways = l1.ways + 1
        image["cores"][0]["l1"] = {
            "addr": [way * stride for way in range(ways)],
            "state": "S" * ways,
            "reveal": [0] * ways,
            "dirty": [False] * ways,
        }
        with pytest.raises(ValueError, match="capacity"):
            restore_hierarchy(params, image)


class TestWarmImagesKey:
    def test_scheme_free_and_param_sensitive(self, params):
        base = warm_images_key(LENGTH, params, [100, 400])
        # No scheme argument exists at all — the key is shared across
        # schemes by construction; it must react to everything else.
        # The trace's cache entry fixes profile, seed and threads.
        assert warm_images_key(LENGTH, params, [100, 400]) == base
        assert warm_images_key(4_000, params, [100, 400]) != base
        assert warm_images_key(LENGTH, params, [100, 401]) != base
        other = dataclasses.replace(params, num_cores=2)
        assert warm_images_key(LENGTH, other, [100, 400]) != base

    def test_in_process_memo(self, profile, params, cache):
        offsets = [100, 400]
        first = get_warm_images(cache, profile, 1, LENGTH, params, offsets)
        second = get_warm_images(cache, profile, 1, LENGTH, params, offsets)
        assert second is first  # kept on the cache entry, not a rebuild
        other = get_benchmark("spec2017", "gcc")
        assert get_warm_images(cache, other, 1, LENGTH, params, offsets) != first


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


class TestNoStoreBlobs:
    def test_sampled_sweep_writes_no_blobs(self, profile, tmp_path, monkeypatch):
        """Warm images never reach a store: a sampled sweep on a
        configured store records its runs and nothing beside them."""
        monkeypatch.setenv(STORE_ENV, str(tmp_path))
        config = RunConfig(sampling=SamplingConfig())
        specs = [
            RunSpec.build(profile, scheme, LENGTH, config)
            for scheme in (SchemeKind.UNSAFE, SchemeKind.STT)
        ]
        results, _ = run_specs(specs, jobs=1, store=ResultStore(tmp_path))
        assert all(result.sampling is not None for result in results)
        assert len(ResultStore(tmp_path)) == len(specs)
        assert not (tmp_path / ".blobs").exists()


class TestWarmImagesOnTraceCache:
    """Warm images live on the trace's cache entry: a row's schemes
    share one set in any cell order, a fresh cache starts without any,
    and an evicted entry takes its images' bytes with it."""

    NAMES = ("mcf", "gcc", "lbm", "xz", "leela")
    SCHEMES = (SchemeKind.UNSAFE, SchemeKind.STT_RECON)

    @pytest.fixture
    def snapshots(self, monkeypatch):
        calls = []
        snapshot = FunctionalWarmer.snapshot

        def counting(warmer, at):
            calls.append(at)
            return snapshot(warmer, at)

        monkeypatch.setattr(FunctionalWarmer, "snapshot", counting)
        return calls

    def _diagonal(self, cache):
        """Every benchmark under every scheme, in diagonal rounds: all
        five benchmarks come between two schemes of one row."""
        config = RunConfig(sampling=SamplingConfig(), cache=cache)
        profiles = [get_benchmark("spec2017", name) for name in self.NAMES]
        return [
            run_benchmark(
                profile,
                self.SCHEMES[(i + r) % len(self.SCHEMES)],
                LENGTH,
                config=config,
            ).sampling
            for r in range(len(self.SCHEMES))
            for i, profile in enumerate(profiles)
        ]

    def test_diagonal_grid_builds_each_image_set_once(self, snapshots):
        offsets = SamplingConfig().max_units
        first = self._diagonal(TraceCache())
        assert len(snapshots) == len(self.NAMES) * offsets
        # A fresh cache holds no images, so a second pass is as cold.
        second = self._diagonal(TraceCache())
        assert len(snapshots) == 2 * len(self.NAMES) * offsets
        assert second == first

    def test_evicted_entry_gives_its_image_bytes_back(self, snapshots):
        cache = TraceCache(max_entries=1)
        config = RunConfig(sampling=SamplingConfig(), cache=cache)
        mcf = get_benchmark("spec2017", "mcf")
        run_benchmark(mcf, SchemeKind.UNSAFE, LENGTH, config=config)
        built = len(snapshots)
        (entry,) = cache._cache.values()
        (images,) = [
            value
            for key, value in entry.derived.items()
            if key[0] == "warm_images"
        ]
        trace_bytes = sum(map(len, entry.traces)) * runner._UOP_EST_BYTES
        image_bytes = executor._image_bytes(images)
        assert image_bytes > 0
        assert cache.approx_bytes == entry.approx_bytes
        assert entry.approx_bytes >= trace_bytes + image_bytes
        other = get_benchmark("spec2017", "gcc")
        traces = cache.get(other, 1, LENGTH)
        assert len(cache) == 1
        assert cache.approx_bytes == sum(map(len, traces)) * runner._UOP_EST_BYTES
        # The images went with mcf's entry: its next cell rebuilds them.
        run_benchmark(mcf, SchemeKind.STT, LENGTH, config=config)
        assert len(snapshots) == 2 * built
