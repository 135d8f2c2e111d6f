"""IVF index tests: exactness envelope, recall floor, inserts, maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, Telemetry, Tracer, use_telemetry
from repro.retrieval import BruteForceIndex, IVFIndex, recall_at_k


def _clustered(rng, n, dim, n_clusters=10, spread=0.15):
    """Gaussian-mixture vectors — the shape two-tower embeddings take."""
    centers = rng.normal(size=(n_clusters, dim))
    assignment = rng.integers(0, n_clusters, size=n)
    return centers[assignment] + spread * rng.normal(size=(n, dim))


class TestExactnessEnvelope:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nlist=st.integers(1, 12))
    def test_full_probe_matches_brute_force(self, seed, nlist):
        """Property: nprobe == nlist recovers the exact top-k set."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(120, 6))
        queries = rng.normal(size=(4, 6))

        brute = BruteForceIndex(6)
        brute.add(data)
        ivf = IVFIndex(6, nlist=nlist, nprobe=nlist, train_floor=2, seed=seed)
        ivf.rebuild(data)

        bid, _ = brute.search(queries, 9)
        iid, _ = ivf.search(queries, 9)
        for row in range(queries.shape[0]):
            assert set(bid[row].tolist()) == set(iid[row].tolist())

    def test_untrained_index_is_exact(self, rng):
        data = rng.normal(size=(60, 5))
        ivf = IVFIndex(5, nlist=8, nprobe=1, train_floor=1_000)
        ivf.add(data)
        assert not ivf.trained
        brute = BruteForceIndex(5)
        brute.add(data)
        queries = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(
            ivf.search(queries, 10)[0], brute.search(queries, 10)[0]
        )

    def test_single_partition_nlist_1(self, rng):
        data = rng.normal(size=(50, 5))
        ivf = IVFIndex(5, nlist=1, nprobe=1, train_floor=2)
        ivf.rebuild(data)
        brute = BruteForceIndex(5)
        brute.add(data)
        q = rng.normal(size=5)
        assert set(ivf.search(q, 8)[0]) == set(brute.search(q, 8)[0])


class TestRecallFloor:
    def test_recall_at_fixed_nprobe(self, rng):
        """On clustered data, nprobe = nlist/4 keeps recall@10 high."""
        data = _clustered(rng, 4_000, 16)
        queries = _clustered(rng, 50, 16)
        brute = BruteForceIndex(16)
        brute.add(data)
        ivf = IVFIndex(16, nlist=32, nprobe=8, seed=0)
        ivf.rebuild(data)
        assert ivf.trained

        reference, _ = brute.search(queries, 10)
        candidates, _ = ivf.search(queries, 10)
        recall = recall_at_k(reference, candidates)
        assert recall >= 0.8, f"recall@10 collapsed to {recall:.3f}"

    def test_more_probes_never_lower_measured_recall_much(self, rng):
        data = _clustered(rng, 2_000, 8)
        queries = _clustered(rng, 30, 8)
        brute = BruteForceIndex(8)
        brute.add(data)
        ivf = IVFIndex(8, nlist=16, nprobe=2, seed=0)
        ivf.rebuild(data)
        reference, _ = brute.search(queries, 10)
        low = recall_at_k(reference, ivf.search(queries, 10)[0])
        ivf.nprobe = 16
        high = recall_at_k(reference, ivf.search(queries, 10)[0])
        assert high == 1.0 and high >= low


class TestIncrementalInserts:
    def test_inserted_vector_retrievable_before_any_rebuild(self, rng):
        """The cold-start contract: insert → immediately searchable.

        The inserted vectors are mutually orthogonal spikes with norms far
        above the corpus, so each is provably its own top-1 by inner
        product (a vector is NOT its own MIPS neighbour in general).
        """
        data = _clustered(rng, 1_000, 8)
        ivf = IVFIndex(8, nlist=8, nprobe=8, seed=0)
        ivf.rebuild(data)
        builds_before = ivf.repartitions

        fresh = 50.0 * np.eye(8, dtype=np.float64)[:5]
        ids = ivf.add(fresh)
        np.testing.assert_array_equal(ids, np.arange(1_000, 1_005))
        for row in range(5):
            found, _ = ivf.search(fresh[row], 1)
            assert found[0] == ids[row]
        assert ivf.repartitions == builds_before  # no rebuild happened

    def test_inserts_preserve_existing_ids(self, rng):
        data = rng.normal(size=(200, 4))
        spike = np.zeros(4)
        spike[0] = 40.0
        data[17] = spike  # dominant along e0: top-1 for query e0
        ivf = IVFIndex(4, nlist=4, nprobe=4, seed=1)
        ivf.rebuild(data)
        probe = np.eye(4)[0]
        before, _ = ivf.search(probe, 1)
        ivf.add(rng.normal(size=(50, 4)))
        after, _ = ivf.search(probe, 1)
        assert before[0] == after[0] == 17

    def test_add_crossing_train_floor_trains_quantizer(self, rng):
        ivf = IVFIndex(4, nlist=4, nprobe=4, train_floor=64, seed=0)
        ivf.add(rng.normal(size=(32, 4)))
        assert not ivf.trained
        ivf.add(rng.normal(size=(40, 4)))
        assert ivf.trained
        assert ivf.partition_sizes.sum() == 72

    def test_update_migrates_partitions(self, rng):
        data = _clustered(rng, 500, 6)
        ivf = IVFIndex(6, nlist=8, nprobe=1, seed=0)
        ivf.rebuild(data)
        # Move row 3 into a distant region; with nprobe=1 it is only
        # findable if it physically migrated to the right partition.
        target = rng.normal(size=6) + 12.0
        ivf.update(np.array([3]), target[None, :])
        found, _ = ivf.search(target, 1)
        assert found[0] == 3
        assert ivf.partition_sizes.sum() == 500  # nothing lost

    def test_update_in_place_without_migration(self, rng):
        """A tiny nudge keeps the same nearest centroid: no migration,
        the partition row is overwritten where it sits."""
        data = rng.normal(size=(100, 4))
        ivf = IVFIndex(4, nlist=2, nprobe=2, seed=0)
        ivf.rebuild(data)
        part = int(ivf._id_part[5])
        pos = int(ivf._id_pos[5])
        nudged = (data[5] + 1e-6).astype(ivf.dtype)
        ivf.update(np.array([5]), nudged[None, :])
        assert int(ivf._id_part[5]) == part and int(ivf._id_pos[5]) == pos
        np.testing.assert_allclose(
            ivf._part_vectors[part][pos], nudged, rtol=0, atol=1e-12
        )


def _contents(ivf, part):
    return set(ivf._part_ids[part][: int(ivf._part_sizes[part])].tolist())


def _assert_exact(ivf, rng, k=15, same_ids=True):
    """Every stored id is present and nprobe = nlist search is exact.

    ``same_ids=False`` compares only the top-k scores, for corpora with
    duplicate vectors whose ids tie.
    """
    ids, vectors = ivf._gather_all()
    np.testing.assert_array_equal(np.sort(ids), np.arange(ivf.ntotal))
    brute = BruteForceIndex(ivf.dim)
    brute.add(vectors[np.argsort(ids)])
    queries = rng.normal(size=(4, ivf.dim))
    for row in range(queries.shape[0]):
        found, scores = ivf.search(queries[row], k)
        expected, expected_scores = brute.search(queries[row], k)
        np.testing.assert_allclose(scores, expected_scores)
        if same_ids:
            assert set(found) == set(expected)


class TestRepartition:
    def test_imbalance_triggers_repartition(self, rng):
        """An imbalanced insert splits partitions locally, and the index
        stays complete and exact at nprobe = nlist."""
        ivf = IVFIndex(
            2, nlist=8, nprobe=8, imbalance_factor=2.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(200, 2)))
        assert ivf.trained and ivf.repartitions == 0
        corner = 0.01 * rng.normal(size=(400, 2)) + 50.0
        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            ivf.add(corner)
        assert ivf.repartitions >= 1
        assert registry.counter("index.repartitions").value == ivf.repartitions
        assert ivf.partition_sizes.size == 8 + ivf.repartitions
        assert ivf.imbalance() <= 2.0
        # All 600 vectors still present and exactly retrievable.
        assert ivf.partition_sizes.sum() == 600
        assert ivf.probe_count() == ivf.partition_sizes.size
        _assert_exact(ivf, rng)

    def test_corner_flood_splits_only_the_overfull_partition(self, rng):
        ivf = IVFIndex(
            2, nlist=8, nprobe=8, imbalance_factor=2.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(200, 2)))
        corner = 0.01 * rng.normal(size=(400, 2)) + 50.0
        flooded = np.unique(ivf._assign(corner))
        assert flooded.size == 1  # the whole flood lands in one partition
        others = [part for part in range(8) if part != flooded[0]]
        contents = {part: _contents(ivf, part) for part in others}
        centroids = ivf._centroids.copy()
        ivf.add(corner)
        assert ivf.repartitions >= 1
        for part in others:
            assert _contents(ivf, part) == contents[part]
        np.testing.assert_array_equal(ivf._centroids[others], centroids[others])
        # The flooded partition and the ones split off it hold exactly
        # its old rows plus the flood.
        split = [flooded[0], *range(8, ivf.partition_sizes.size)]
        held = set().union(*(_contents(ivf, part) for part in split))
        assert held == set(range(600)) - set().union(*contents.values())

    def test_split_cost_is_bounded_by_the_partition(self, rng, monkeypatch):
        """2-means sees only the overfull partition's rows, not the corpus."""
        import repro.retrieval.ivf as ivf_module

        ivf = IVFIndex(
            2, nlist=8, nprobe=8, imbalance_factor=2.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(2_000, 2)))
        seen = []
        real_kmeans = ivf_module.kmeans

        def spying_kmeans(points, k, **kwargs):
            seen.append((points.shape[0], k))
            return real_kmeans(points, k, **kwargs)

        monkeypatch.setattr(ivf_module, "kmeans", spying_kmeans)
        ivf.add(0.01 * rng.normal(size=(1_000, 2)) + 50.0)
        assert seen and all(k == 2 for _, k in seen)
        assert max(rows for rows, _ in seen) < 1_500 < ivf.ntotal

    def test_identical_vectors_terminate_without_looping(self, rng):
        """2-means cannot separate identical rows: the split gives up
        instead of spinning, and later inserts stay cheap and correct."""
        ivf = IVFIndex(
            2, nlist=8, nprobe=8, imbalance_factor=2.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(200, 2)))
        same = np.full((400, 2), 50.0)
        ivf.add(same)
        parts = ivf.partition_sizes.size
        assert parts <= 9  # at most the split peeling the old rows away
        stuck = int(ivf._id_part[200])
        assert _contents(ivf, stuck) == set(range(200, 600))
        assert ivf.imbalance() > 2.0
        assert not ivf._split(stuck)
        ivf.add(same[:10])
        assert ivf.partition_sizes.size == parts
        assert ivf.partition_sizes.sum() == 610
        _assert_exact(ivf, rng, same_ids=False)

    def test_split_emits_counter_histogram_and_span(self, rng):
        ivf = IVFIndex(
            2, nlist=8, nprobe=8, imbalance_factor=2.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(200, 2)))
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_telemetry(Telemetry(registry=registry, tracer=tracer)):
            ivf.add(0.01 * rng.normal(size=(400, 2)) + 50.0)
        splits = ivf.repartitions
        assert splits >= 1
        assert registry.counter("index.repartitions").value == splits
        assert registry.histogram("index.repartition_seconds").count == splits
        assert tracer.stats("index.repartition").calls == splits

    def test_probe_count_scales_with_splits(self, rng):
        ivf = IVFIndex(
            2, nlist=8, nprobe=2, imbalance_factor=2.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(200, 2)))
        assert ivf.probe_count() == 2
        ivf.add(0.01 * rng.normal(size=(400, 2)) + 50.0)
        live = ivf.partition_sizes.size
        assert live > 8
        assert ivf.probe_count() == -(-2 * live // 8)
        ivf.repartition()  # an explicit retrain returns to nlist
        assert ivf.partition_sizes.size == 8 and ivf.probe_count() == 2

    def test_disabled_maintenance_never_repartitions(self, rng):
        ivf = IVFIndex(
            2, nlist=8, nprobe=8, imbalance_factor=None, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(200, 2)))
        ivf.add(0.01 * rng.normal(size=(400, 2)) + 50.0)
        assert ivf.repartitions == 0
        assert ivf.imbalance() > 2.0

    def test_manual_repartition_preserves_ids(self, rng):
        data = rng.normal(size=(300, 4))
        spike = np.zeros(4)
        spike[2] = 30.0
        data[42] = spike
        ivf = IVFIndex(4, nlist=6, nprobe=6, seed=0)
        ivf.rebuild(data)
        probe = np.eye(4)[2]
        before, _ = ivf.search(probe, 1)
        ivf.repartition()
        after, _ = ivf.search(probe, 1)
        assert before[0] == after[0] == 42
        assert ivf.repartitions == 1


class TestObservability:
    def test_search_and_insert_counters(self, rng):
        data = _clustered(rng, 1_000, 8)
        registry = MetricsRegistry()
        ivf = IVFIndex(8, nlist=10, nprobe=3, seed=0)
        ivf.rebuild(data)
        with use_telemetry(Telemetry(registry=registry)):
            ivf.search(rng.normal(size=(4, 8)), 5)
            ivf.add(rng.normal(size=(7, 8)))
        assert registry.counter("index.searches").value == 4
        # Each query probes >= nprobe partitions (more only if it must
        # widen to find k candidates).
        assert registry.counter("index.probe_partitions").value >= 4 * 3
        assert registry.counter("index.inserts").value == 7

    def test_probe_widening_guarantees_k_results(self, rng):
        """A tiny probe set over tiny partitions must widen, not truncate."""
        data = rng.normal(size=(64, 4))
        ivf = IVFIndex(4, nlist=16, nprobe=1, train_floor=2, seed=0)
        ivf.rebuild(data)
        ids, _ = ivf.search(rng.normal(size=4), 32)
        assert np.unique(ids).size == 32


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IVFIndex(4, nlist=0)
        with pytest.raises(ValueError):
            IVFIndex(4, nprobe=0)
        with pytest.raises(ValueError):
            IVFIndex(4, imbalance_factor=1.0)
        with pytest.raises(ValueError):
            IVFIndex(4, nlist=100, train_sample=50)

    def test_empty_index_rejects_search(self, rng):
        with pytest.raises(ValueError):
            IVFIndex(4).search(rng.normal(size=4), 1)
