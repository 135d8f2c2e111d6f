"""Streaming quality estimators and the QualityMonitor façade."""

import warnings

import numpy as np
import pytest

from repro.metrics.auc import roc_auc
from repro.metrics.classification import calibration_error
from repro.obs import (
    AlertRule,
    CohortCTR,
    ColdStartTracker,
    MetricsRegistry,
    QualityMonitor,
    SlidingBlocks,
    StreamingAUC,
    WindowedECE,
    default_quality_rules,
    Telemetry,
    current_telemetry,
    use_telemetry,
)
from repro.serving.events import Event, EventKind, join_click_outcomes


def _outcome_stream(n, rng, signal=0.2):
    labels = rng.integers(0, 2, n).astype(float)
    scores = np.clip(rng.normal(0.4 + signal * labels, 0.15), 0.0, 1.0)
    return labels, scores


class TestSlidingBlocks:
    def test_cumulative_mode_keeps_everything(self):
        blocks = SlidingBlocks((4,))
        for _ in range(100):
            blocks.add(10, np.ones(4))
        assert blocks.count == 1000
        (total,) = blocks.totals()
        assert total.tolist() == [100.0] * 4

    def test_window_evicts_old_blocks(self):
        blocks = SlidingBlocks((2,), window=100, block_size=10)
        for _ in range(50):
            blocks.add(10, np.array([1.0, 0.0]))
        # Retained span stays within [window, window + block).
        assert 100 <= blocks.count < 110
        assert blocks.total_seen == 500

    @pytest.mark.parametrize("leftover", [0, 3])
    def test_one_add_of_a_window_evicts_every_older_block(self, leftover):
        blocks = SlidingBlocks((2,), window=100, block_size=12)
        for _ in range(10):
            blocks.add(20, np.array([1.0, 0.0]))
        blocks.add(leftover, np.array([0.0, float(leftover)]))
        blocks.add(100, np.array([0.0, 100.0]))
        # Unsealed observations seal into the new block with it.
        assert blocks.count == 100 + leftover
        (total,) = blocks.totals()
        assert total.tolist() == [0.0, 100.0 + leftover]

    def test_one_add_short_of_a_window_keeps_an_older_block(self):
        blocks = SlidingBlocks((2,), window=100, block_size=12)
        for _ in range(10):
            blocks.add(20, np.array([1.0, 0.0]))
        blocks.add(99, np.array([0.0, 99.0]))
        assert blocks.count == 119
        (total,) = blocks.totals()
        assert total.tolist() == [1.0, 99.0]

    def test_totals_are_fresh_copies(self):
        blocks = SlidingBlocks((2,))
        blocks.add(1, np.array([1.0, 2.0]))
        (first,) = blocks.totals()
        first += 100
        (second,) = blocks.totals()
        assert second.tolist() == [1.0, 2.0]


class TestStreamingAUC:
    def test_matches_exact_auc_on_50k_stream(self):
        rng = np.random.default_rng(7)
        labels, scores = _outcome_stream(50_000, rng)
        estimator = StreamingAUC()
        for start in range(0, labels.size, 1000):
            estimator.update(
                labels[start : start + 1000], scores[start : start + 1000]
            )
        exact = roc_auc(labels, scores)
        assert estimator.value == pytest.approx(exact, abs=0.01)
        # With 512 bins it should actually be far tighter than the contract.
        assert abs(estimator.value - exact) < 1e-3

    def test_single_class_returns_none(self):
        estimator = StreamingAUC()
        estimator.update([1.0, 1.0], [0.5, 0.7])
        assert estimator.value is None
        estimator.update([0.0], [0.2])
        assert estimator.value is not None

    def test_windowed_forgets_old_regime(self):
        rng = np.random.default_rng(3)
        estimator = StreamingAUC(window=5000)
        # First regime: anti-correlated scores (AUC < 0.5).
        labels, scores = _outcome_stream(10_000, rng, signal=-0.2)
        estimator.update(labels, scores)
        assert estimator.value < 0.5
        # Second regime fills the whole window: good scores.
        labels, scores = _outcome_stream(10_000, rng, signal=0.2)
        estimator.update(labels, scores)
        assert estimator.value > 0.7

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StreamingAUC().update([1.0, 0.0], [0.5])


    def test_infinite_scores_land_in_the_edge_bins(self):
        auc = StreamingAUC(n_bins=4)
        # +inf is the top score and -inf the bottom one, so the positive
        # outranks the negative.
        auc.update([1.0, 0.0], [np.inf, -np.inf])
        assert auc.value == 1.0
        huge = StreamingAUC(n_bins=4)
        huge.update([1.0, 0.0], [2.0**70, 0.5])
        assert huge.value == 1.0

    def test_nan_scores_are_left_out(self):
        auc = StreamingAUC(n_bins=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auc.update([1.0, 0.0, 1.0, 0.0], [0.9, 0.2, np.nan, np.nan])
        assert auc.count == 2
        assert auc.value == 1.0


class TestWindowedECE:
    def test_matches_exact_calibration_error_on_full_window(self):
        rng = np.random.default_rng(11)
        labels, scores = _outcome_stream(20_000, rng)
        estimator = WindowedECE(n_bins=10)
        for start in range(0, labels.size, 512):
            estimator.update(
                labels[start : start + 512], scores[start : start + 512]
            )
        exact = calibration_error(labels, scores, n_bins=10)
        assert estimator.value == pytest.approx(exact, abs=1e-12)

    def test_empty_returns_none(self):
        assert WindowedECE().value is None

    def test_perfectly_calibrated_is_near_zero(self):
        rng = np.random.default_rng(5)
        probabilities = rng.uniform(0.0, 1.0, 30_000)
        labels = (rng.uniform(size=probabilities.size) < probabilities).astype(
            float
        )
        estimator = WindowedECE()
        estimator.update(labels, probabilities)
        assert estimator.value < 0.02


    def test_nan_probabilities_are_left_out(self):
        ece = WindowedECE(n_bins=10)
        labels = np.array([1.0, 0.0, 1.0, 1.0])
        probabilities = np.array([0.8, 0.3, np.nan, 0.6])
        ece.update(labels, probabilities)
        assert ece.count == 3
        assert ece.value == pytest.approx(
            calibration_error(labels[[0, 1, 3]], probabilities[[0, 1, 3]], 10)
        )


class TestCohortCTR:
    def test_per_cohort_rates(self):
        ctr = CohortCTR()
        ctr.record("cold", 100, 10)
        ctr.record("warm", 200, 50)
        ctr.record("cold", 100, 30)
        assert ctr.ctr("cold") == pytest.approx(0.2)
        assert ctr.ctr("warm") == pytest.approx(0.25)
        assert ctr.ctr("unknown") is None
        snapshot = ctr.snapshot()
        assert snapshot["cold"]["impressions"] == 200
        assert snapshot["cold"]["clicks"] == 40

    def test_ctrs_read_every_cohort_at_once(self):
        ctr = CohortCTR(window=100, block_size=50)
        ctr.record("warm", 60, 6)
        ctr.record("cold", 80, 2)
        ctr.record("idle", 0, 1)
        assert list(ctr.ctrs()) == ctr.cohorts() == ["cold", "idle", "warm"]
        assert ctr.ctrs() == {name: ctr.ctr(name) for name in ctr.cohorts()}
        assert ctr.ctrs()["idle"] is None

    def test_windowed_rotation(self):
        ctr = CohortCTR(window=100, block_size=50)
        ctr.record("a", 100, 0)
        ctr.record("a", 100, 100)
        ctr.record("a", 100, 100)
        # The zero-click era has rotated out.
        assert ctr.ctr("a") > 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CohortCTR().record("a", -1, 0)


class TestColdStartTracker:
    def test_lifecycle_accounting(self):
        tracker = ColdStartTracker(n_slots=5, warm_view_threshold=3)
        tracker.note_release(0, 10.0)
        items = np.array([0, 0, 0, 1])
        times = np.array([12.0, 13.0, 14.0, 20.0])
        assert tracker.cold_mask(items).all()
        tracker.observe_impressions(items, times)
        assert tracker.items_seen == 2
        assert tracker.warm_items == 1  # slot 0 crossed threshold 3
        assert not tracker.cold_mask(np.array([0]))[0]
        assert tracker.cold_mask(np.array([1]))[0]
        summary = tracker.summary()
        assert summary["time_to_first_impression"]["mean"] >= 0
        assert summary["impressions_until_warm"]["mean"] == pytest.approx(3.0)

    def test_first_impression_not_overwritten(self):
        tracker = ColdStartTracker(n_slots=2, warm_view_threshold=10)
        tracker.observe_impressions(np.array([0]), np.array([5.0]))
        tracker.observe_impressions(np.array([0]), np.array([50.0]))
        assert tracker.summary()["time_to_first_impression"]["mean"] == 5.0

    def test_divergence_summary(self):
        tracker = ColdStartTracker(n_slots=4)
        tracker.observe_divergence(np.array([0, 1]), np.array([0.1, 0.3]))
        assert tracker.divergence_mean() == pytest.approx(0.2)
        stats = tracker.summary()["vector_divergence"]
        assert stats["max"] == pytest.approx(0.3)

    def test_grow_keeps_lifecycle_state(self):
        tracker = ColdStartTracker(3, warm_view_threshold=2)
        tracker.note_release(0, 1.0)
        tracker.observe_impressions(np.array([0, 0, 2]), np.array([4.0, 5.0, 6.0]))
        tracker.observe_divergence(np.array([0]), np.array([0.25]))
        before = tracker.summary()
        for n_new in (1, 70, 200):  # outgrows the first buffer twice
            tracker.grow(n_new)
        after = tracker.summary()
        assert after["n_slots"] == 274
        for key in ("items_seen", "warm_items", "time_to_first_impression",
                    "impressions_until_warm", "vector_divergence_current_mean"):
            assert after[key] == before[key]
        # New slots start cold and unseen, and track like the old ones.
        assert not np.any(tracker.cold_mask(np.array([0])))
        assert np.all(tracker.cold_mask(np.arange(3, 274)))
        tracker.observe_impressions(np.array([273, 273]), np.array([9.0, 9.5]))
        assert tracker.items_seen == 3
        assert tracker.warm_items == 2

    def test_grow_validation(self):
        with pytest.raises(ValueError):
            ColdStartTracker(3).grow(0)

    @pytest.mark.parametrize("seed", range(4))
    def test_running_totals_match_scans(self, seed):
        """items_seen, warm_items and divergence_mean are running values;
        through random impressions, divergences and growth they equal
        scans of the per-slot columns."""
        rng = np.random.default_rng(seed)
        tracker = ColdStartTracker(5, warm_view_threshold=4)
        for _ in range(150):
            action = rng.integers(3)
            if action == 0:
                items = rng.integers(0, tracker.n_slots, size=rng.integers(0, 12))
                tracker.observe_impressions(items, rng.random(items.size))
            elif action == 1:
                # Repeated slots (last write wins) and NaN samples.
                slots = rng.integers(0, tracker.n_slots, size=rng.integers(1, 6))
                values = rng.random(slots.size)
                values[rng.random(slots.size) < 0.2] = np.nan
                tracker.observe_divergence(slots, values)
            else:
                tracker.grow(int(rng.integers(1, 4)))
            assert tracker.items_seen == np.count_nonzero(
                ~np.isnan(tracker._first_impression)
            )
            assert tracker.warm_items == np.count_nonzero(tracker._warm_at >= 0)
            latest = tracker._last_divergence
            if np.all(np.isnan(latest)):
                assert tracker.divergence_mean() is None
            else:
                assert tracker.divergence_mean() == pytest.approx(
                    float(np.nanmean(latest)), rel=1e-12, abs=1e-12
                )


class TestQualityMonitor:
    def _batch(self, item, user, t, clicked):
        events = [Event(EventKind.VIEW, item, user, t)]
        if clicked:
            events.append(Event(EventKind.CLICK, item, user, t + 1.0))
        return events

    def test_observe_serving_batch_updates_everything(self):
        monitor = QualityMonitor(min_outcomes=1)
        monitor.attach_catalogue(10, warm_view_threshold=2)
        scores = np.linspace(0.05, 0.95, 10)
        rng = np.random.default_rng(0)
        events = []
        for i in range(500):
            item = int(rng.integers(0, 10))
            clicked = rng.uniform() < scores[item]
            events.extend(self._batch(item, i, float(i), clicked))
        monitor.observe_serving_batch(events, scores=scores)
        snapshot = monitor.snapshot()
        assert snapshot["quality.streaming_auc"] > 0.6
        assert snapshot["quality.impressions"] == 500.0
        assert "quality.ctr.cold" in snapshot or "quality.ctr.warm" in snapshot
        assert monitor.cold_start.items_seen == 10

    def test_streaming_matches_exact_through_event_pipeline(self):
        # The same (outcome, score) joining the monitor uses, done offline.
        monitor = QualityMonitor(min_outcomes=1)
        monitor.attach_catalogue(50, warm_view_threshold=10_000)
        scores = np.linspace(0.02, 0.98, 50)
        rng = np.random.default_rng(42)
        all_events = []
        for batch_index in range(20):
            events = []
            for i in range(500):
                item = int(rng.integers(0, 50))
                clicked = bool(rng.uniform() < scores[item])
                events.extend(
                    self._batch(item, batch_index * 500 + i, float(i), clicked)
                )
            monitor.observe_serving_batch(events, scores=scores)
            all_events.extend(events)
        items, _, _, clicked = join_click_outcomes(all_events)
        exact = roc_auc(clicked.astype(float), scores[items])
        assert monitor.snapshot()["quality.streaming_auc"] == pytest.approx(
            exact, abs=0.01
        )

    def test_release_events_set_release_time(self):
        monitor = QualityMonitor()
        monitor.observe_serving_batch(
            [
                Event(EventKind.RELEASE, 3, None, 7.0),
                Event(EventKind.VIEW, 3, 1, 9.0),
            ]
        )
        summary = monitor.cold_start.summary()
        assert summary["time_to_first_impression"]["mean"] == pytest.approx(2.0)

    def test_observe_divergence_cosine(self):
        monitor = QualityMonitor()
        monitor.attach_catalogue(4)
        generated = np.array([[1.0, 0.0], [0.0, 1.0]])
        encoded = np.array([[1.0, 0.0], [1.0, 0.0]])
        monitor.observe_divergence(np.array([0, 1]), generated, encoded)
        assert monitor.cold_start.divergence_mean() == pytest.approx(0.5)

    def test_validation_records(self):
        monitor = QualityMonitor()
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        scores = np.array([0.9, 0.1, 0.8, 0.3])
        monitor.observe_validation("encoder", labels, scores)
        snapshot = monitor.snapshot()
        assert snapshot["quality.validation.encoder.auc"] == pytest.approx(1.0)
        assert "quality.validation.encoder.ece" in snapshot

    def test_evaluate_pushes_gauges_and_alerts(self):
        registry = MetricsRegistry()
        rules = (
            AlertRule(
                "low-auc",
                "quality.streaming_auc",
                1.0,  # breaches at <= 1.0, i.e. always once AUC reports
                direction="below",
                consecutive=1,
            ),
        )
        monitor = QualityMonitor(min_outcomes=1, rules=rules, sinks=())
        monitor.attach_catalogue(4)
        monitor.observe_serving_batch(
            [
                Event(EventKind.VIEW, 0, 1, 0.0),
                Event(EventKind.CLICK, 0, 1, 1.0),
                Event(EventKind.VIEW, 1, 2, 2.0),
            ],
            scores=np.array([0.9, 0.1, 0.5, 0.5]),
        )
        with use_telemetry(Telemetry(registry=registry)):
            transitions = monitor.evaluate()
        assert [t.rule for t in transitions] == ["low-auc"]
        assert registry.gauge("quality.streaming_auc").value == pytest.approx(1.0)
        assert registry.counter("alerts.fired").value == 1.0

    def test_min_outcomes_warmup_hides_auc(self):
        monitor = QualityMonitor(min_outcomes=1000)
        monitor.attach_catalogue(4)
        monitor.observe_serving_batch(
            [
                Event(EventKind.VIEW, 0, 1, 0.0),
                Event(EventKind.CLICK, 0, 1, 1.0),
                Event(EventKind.VIEW, 1, 2, 2.0),
            ],
            scores=np.array([0.9, 0.1, 0.5, 0.5]),
        )
        snapshot = monitor.snapshot()
        assert snapshot["quality.streaming_auc"] is None
        assert snapshot["quality.ece"] is None

    def test_iter_records_are_typed(self):
        monitor = QualityMonitor()
        monitor.attach_catalogue(4)
        types = {record["type"] for record in monitor.iter_records()}
        assert {"quality", "drift", "coldstart"} <= types

    def test_default_rules_have_unique_names(self):
        rules = default_quality_rules()
        assert len({rule.name for rule in rules}) == len(rules)


class TestScoreDriftChannel:
    """observe_rescored is observe_scores at the cost of the changed slots."""

    def _twins(self, **kwargs):
        return QualityMonitor(**kwargs), QualityMonitor(**kwargs)

    def _assert_same_drift(self, a, b):
        assert a.score_drift.n_reference == b.score_drift.n_reference
        assert a.score_drift.n_live == b.score_drift.n_live
        assert np.array_equal(a.score_drift._reference, b.score_drift._reference)
        for x, y in zip(a.score_drift._live.totals(), b.score_drift._live.totals()):
            assert np.array_equal(x, y)
        assert a.score_drift.divergences() == b.score_drift.divergences()
        assert a.score_emissions == b.score_emissions

    @pytest.mark.parametrize("size", [150, 700])
    def test_matches_full_passes(self, size):
        rng = np.random.default_rng(size)
        full, incremental = self._twins(drift_reference=400, drift_window=500)
        scores = rng.beta(2, 5, size)
        previous = None
        for step in range(12):
            if step:
                scores = scores.copy()
                slots = np.sort(rng.choice(scores.size, 7, replace=False))
                scores[slots] = rng.beta(5, 2, slots.size)
                if step % 3 == 0:  # arrivals, some re-scored right away
                    scores = np.concatenate([scores, rng.beta(2, 2, 5)])
                    slots = np.append(slots, scores.size - 2)
            else:
                slots = np.zeros(0, dtype=np.int64)
            full.observe_scores(scores)
            incremental.observe_rescored(scores, slots, previous)
            previous = scores
            self._assert_same_drift(full, incremental)

    def test_a_previous_it_did_not_bin_is_a_full_pass(self):
        rng = np.random.default_rng(1)
        full, incremental = self._twins(drift_reference=100, drift_window=100)
        first = rng.beta(2, 5, 300)
        for monitor in (full, incremental):
            monitor.observe_scores(first)
            monitor.observe_scores(first)
        # The caller changed every slot, but claims a previous array the
        # monitor never saw: the monitor must not trust the slot list.
        second = rng.beta(5, 2, 300)
        full.observe_scores(second)
        incremental.observe_rescored(second, np.array([0]), first.copy())
        self._assert_same_drift(full, incremental)

    def test_nan_scores_stay_out_of_the_histogram(self):
        full, incremental = self._twins(drift_reference=10, drift_window=100)
        scores = np.linspace(0.0, 1.0, 40)
        for monitor in (full, incremental):
            monitor.observe_scores(scores)
        rescored = scores.copy()
        rescored[[3, 5]] = [np.nan, np.inf]
        full.observe_scores(rescored)
        incremental.observe_rescored(rescored, np.array([3, 5]), scores)
        self._assert_same_drift(full, incremental)
        # 30 of the first 40 scores went live after the 10 of the
        # reference; the NaN of the second pass is no observation.
        assert incremental.score_drift.n_live == 30 + 39

    def test_unsorted_slots_with_repeats(self):
        full, incremental = self._twins(drift_reference=10, drift_window=100)
        scores = np.linspace(0.0, 1.0, 40)
        for monitor in (full, incremental):
            monitor.observe_scores(scores)
            monitor.observe_scores(scores)
        rescored = scores.copy()
        rescored[[9, 2]] = [0.95, 0.99]
        full.observe_scores(rescored)
        incremental.observe_rescored(rescored, np.array([9, 2, 9]), scores)
        self._assert_same_drift(full, incremental)


class TestOneSnapshotPerRefresh:
    def test_evaluate_keeps_its_snapshot(self):
        monitor = QualityMonitor(min_outcomes=1, sinks=())
        monitor.attach_catalogue(4)
        assert monitor.last_snapshot is None
        monitor.evaluate()
        assert monitor.last_snapshot == monitor.snapshot()

    def test_gauges_follow_the_active_registry(self):
        monitor = QualityMonitor(sinks=())
        monitor.attach_catalogue(4)
        first, second = MetricsRegistry(), MetricsRegistry()
        with use_telemetry(Telemetry(registry=first)):
            monitor.evaluate()
        monitor.impressions_seen = 7
        with use_telemetry(Telemetry(registry=second)):
            monitor.evaluate()
        assert first.gauge("quality.impressions").value == 0.0
        assert second.gauge("quality.impressions").value == 7.0
        monitor.impressions_seen = 9
        with use_telemetry(Telemetry(registry=first)):
            monitor.evaluate()
        assert first.gauge("quality.impressions").value == 9.0


class TestSortedUnique:
    @pytest.mark.parametrize("size", [0, 1, 5, 300])
    def test_matches_np_unique(self, size):
        from repro.obs.quality import _sorted_unique

        values = np.random.default_rng(size).integers(0, 50, size)
        assert np.array_equal(_sorted_unique(values), np.unique(values))


class TestJoinOutcomeColumns:
    def test_matches_the_isin_join(self):
        from repro.serving.events import join_outcome_columns

        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 60))
            kinds = rng.integers(0, 6, n)
            items = rng.integers(0, 8, n)
            users = rng.integers(-1, 5, n)
            timestamps = rng.random(n)
            got = join_outcome_columns(kinds, items, users, timestamps)
            views, clicks = kinds == 0, kinds == 1
            view_pairs = list(zip(items[views], users[views]))
            click_pairs = set(zip(items[clicks], users[clicks]))
            expected = [pair in click_pairs for pair in view_pairs]
            assert got[0].tolist() == items[views].tolist()
            assert got[1].tolist() == users[views].tolist()
            assert got[2].tolist() == timestamps[views].tolist()
            assert got[3].dtype == bool
            assert got[3].tolist() == expected


class TestUseMonitor:
    def test_scoped_activation(self):
        assert current_telemetry().monitor is None
        monitor = QualityMonitor()
        with use_telemetry(Telemetry(monitor=monitor)):
            assert current_telemetry().monitor is monitor
            inner = QualityMonitor()
            with use_telemetry(Telemetry(monitor=inner)):
                assert current_telemetry().monitor is inner
            assert current_telemetry().monitor is monitor
        assert current_telemetry().monitor is None
