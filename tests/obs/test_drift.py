"""PSI/KL drift detection: fires on real shifts, quiet under noise."""

import warnings

import numpy as np
import pytest

from repro.obs import DriftDetector, kl_divergence, psi


class TestDivergences:
    def test_identical_distributions_near_zero(self):
        counts = np.array([100.0, 200.0, 300.0, 400.0])
        assert psi(counts, counts) == pytest.approx(0.0, abs=1e-12)
        assert kl_divergence(counts, counts) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_distribution_large_psi(self):
        reference = np.array([400.0, 300.0, 200.0, 100.0])
        shifted = np.array([100.0, 200.0, 300.0, 400.0])
        assert psi(reference, shifted) > 0.25
        assert kl_divergence(reference, shifted) > 0.1

    def test_psi_symmetric_kl_not(self):
        a = np.array([900.0, 50.0, 50.0])
        b = np.array([500.0, 250.0, 250.0])
        assert psi(a, b) == pytest.approx(psi(b, a))
        assert kl_divergence(a, b) != pytest.approx(kl_divergence(b, a))

    def test_empty_bins_are_smoothed(self):
        reference = np.array([0.0, 1000.0])
        live = np.array([1000.0, 0.0])
        value = psi(reference, live)
        assert np.isfinite(value) and value > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            psi(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            psi(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            psi(np.ones(3), np.ones(3), alpha=0.0)


class TestDriftDetector:
    def test_warmup_reports_none(self):
        detector = DriftDetector(reference_size=100, window=100)
        detector.update(np.random.default_rng(0).uniform(0, 1, 50))
        assert not detector.reference_frozen
        assert detector.psi() is None
        assert detector.kl() is None
        assert not detector.ready

    def test_live_window_minimum(self):
        rng = np.random.default_rng(0)
        detector = DriftDetector(reference_size=100, window=100, min_live=50)
        detector.update(rng.uniform(0, 1, 100))  # fills the reference exactly
        assert detector.reference_frozen
        detector.update(rng.uniform(0, 1, 10))  # live below min_live
        assert detector.psi() is None
        detector.update(rng.uniform(0, 1, 40))
        assert detector.psi() is not None

    def test_quiet_under_resampling_noise(self):
        rng = np.random.default_rng(1)
        detector = DriftDetector(reference_size=2000, window=2000)
        detector.update(rng.beta(2, 5, 2000))
        # Fresh draws from the SAME distribution: PSI stays under the
        # conventional 0.1 "watch" threshold.
        for _ in range(5):
            detector.update(rng.beta(2, 5, 1000))
            assert detector.psi() < 0.1

    def test_fires_on_injected_shift(self):
        rng = np.random.default_rng(2)
        detector = DriftDetector(reference_size=2000, window=2000)
        detector.update(rng.beta(2, 5, 2000))
        # Injected mean shift: the live window now comes from beta(5, 2).
        detector.update(rng.beta(5, 2, 2000))
        assert detector.psi() > 0.25
        assert detector.kl() > 0.1

    def test_batch_split_across_freeze_boundary(self):
        rng = np.random.default_rng(3)
        detector = DriftDetector(reference_size=100, window=100, min_live=1)
        # One batch covering reference fill + live spill.
        detector.update(rng.uniform(0, 1, 150))
        assert detector.n_reference == 100
        assert detector.n_live == 50

    def test_out_of_range_values_clamp(self):
        detector = DriftDetector(reference_size=4, window=4, min_live=1)
        detector.update([-5.0, 0.5, 99.0, 0.2])
        detector.update([-1.0, 2.0])
        assert detector.psi() is not None  # no crash, edge bins caught them

    def test_snapshot_and_reset(self):
        rng = np.random.default_rng(4)
        detector = DriftDetector(reference_size=10, window=10, min_live=1)
        detector.update(rng.uniform(0, 1, 20))
        snapshot = detector.snapshot()
        assert snapshot["ready"] is True
        assert snapshot["n_reference"] == 10
        detector.reset_reference()
        assert detector.n_reference == 0
        assert detector.psi() is None


class TestBinning:
    """Non-finite and huge values land in the documented bins."""

    def test_infinities_clamp_to_the_edge_bins(self):
        detector = DriftDetector(n_bins=4)
        bins = detector.bin(np.array([-np.inf, -5.0, 0.3, 7.0, np.inf]))
        assert bins.tolist() == [0, 0, 1, 3, 3]

    def test_values_past_int64_clamp_to_the_top_bin(self):
        detector = DriftDetector(n_bins=4)
        assert detector.bin(np.array([1e300, 2.0**70])).tolist() == [3, 3]

    def test_nan_maps_past_the_last_bin(self):
        detector = DriftDetector(n_bins=4)
        assert detector.bin(np.array([np.nan, 0.1])).tolist() == [4, 0]

    def test_update_leaves_nan_out_and_puts_inf_on_top(self):
        detector = DriftDetector(n_bins=4, reference_size=2, window=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detector.update([np.nan, 0.9, np.inf, 0.7])
        # The reference holds the first two observations, 0.9 and +inf;
        # NaN is no observation.
        assert detector._reference.tolist() == [0.0, 0.0, 0.0, 2.0]
        assert detector.n_reference == 2
        assert detector.n_live == 1
        (live,) = detector._live.totals()
        assert live.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_all_nan_batch_is_no_observation(self):
        detector = DriftDetector(n_bins=4, reference_size=1, window=8)
        detector.update([0.5])
        detector.update([np.nan, np.nan])
        assert detector.n_live == 0


class TestUpdateCounts:
    def test_matches_update_once_frozen(self):
        rng = np.random.default_rng(3)
        by_values = DriftDetector(reference_size=500, window=800)
        by_counts = DriftDetector(reference_size=500, window=800)
        reference = rng.beta(2, 5, 500)
        by_values.update(reference)
        by_counts.update(reference)
        for size in (300, 90, 1200, 40):
            values = rng.beta(2, 4, size)
            by_values.update(values)
            counts = np.bincount(by_counts.bin(values), minlength=33)[:32]
            by_counts.update_counts(counts)
            assert by_counts.n_live == by_values.n_live
            assert by_counts.divergences() == by_values.divergences()

    def test_needs_a_frozen_reference(self):
        detector = DriftDetector(n_bins=4, reference_size=10)
        with pytest.raises(ValueError, match="frozen"):
            detector.update_counts(np.ones(4))

    def test_shape_is_checked(self):
        detector = DriftDetector(n_bins=4, reference_size=1)
        detector.update([0.5])
        with pytest.raises(ValueError, match="shape"):
            detector.update_counts(np.ones(5))


class TestDetectorDivergences:
    def test_equal_the_module_functions_bit_for_bit(self):
        rng = np.random.default_rng(5)
        detector = DriftDetector(reference_size=1000, window=1000)
        detector.update(rng.beta(2, 5, 1000))
        detector.update(rng.beta(3, 4, 1500))
        (live,) = detector._live.totals()
        assert detector.divergences() == (
            psi(detector._reference, live),
            kl_divergence(detector._reference, live),
        )
        assert detector.psi() == detector.divergences()[0]
        assert detector.kl() == detector.divergences()[1]

    def test_reset_reference_drops_the_smoothed_reference(self):
        rng = np.random.default_rng(6)
        detector = DriftDetector(reference_size=200, window=200)
        detector.update(rng.beta(2, 5, 400))
        detector.psi()
        detector.reset_reference()
        detector.update(rng.beta(5, 2, 400))
        (live,) = detector._live.totals()
        assert detector.psi() == psi(detector._reference, live)

    def test_alpha_is_validated_up_front(self):
        with pytest.raises(ValueError, match="alpha"):
            DriftDetector(alpha=0.0)
