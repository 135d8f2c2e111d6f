"""End-to-end integration tests on miniature worlds.

These exercise the complete pipelines behind each paper table at a size
where the full run takes seconds.  Shape assertions here are *weak*
(training signal exists, structures line up); the benchmark harness makes
the strong paper-shape assertions on the default preset.
"""

import importlib

import numpy as np
import pytest

from repro.core import ATNN, ATNNTrainer, PopularityPredictor, TowerConfig
from repro.data import train_test_split
from repro.experiments import (
    build_eleme_artifacts,
    build_tmall_artifacts,
    run_complexity,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.metrics import roc_auc


@pytest.fixture(scope="module")
def tmall_artifacts():
    return build_tmall_artifacts("smoke", keep_individual_users=True)


@pytest.fixture(scope="module")
def eleme_artifacts():
    return build_eleme_artifacts("smoke", adversarial=True)


class TestTable1Pipeline:
    @pytest.fixture(scope="class")
    def result(self, tmall_artifacts):
        return run_table1(
            "smoke",
            world=tmall_artifacts.world,
            models=["TNN-DCN", "ATNN"],
        )

    def test_rows_present(self, result):
        assert {row.model for row in result.rows} == {"TNN-DCN", "ATNN"}

    def test_aucs_beat_chance(self, result):
        for row in result.rows:
            assert row.auc_complete > 0.55

    def test_atnn_degrades_less_than_baseline(self, result):
        atnn = result.row("ATNN")
        baseline = result.row("TNN-DCN")
        assert atnn.degradation > baseline.degradation

    def test_render_contains_models(self, result):
        rendered = result.render()
        assert "ATNN" in rendered and "Degradation" in rendered

    def test_as_dict_roundtrip(self, result):
        data = result.as_dict()
        assert data["ATNN"]["complete"] == result.row("ATNN").auc_complete

    def test_unknown_model_rejected(self, tmall_artifacts):
        with pytest.raises(ValueError):
            run_table1("smoke", world=tmall_artifacts.world, models=["SVM"])


class TestTable2Pipeline:
    @pytest.fixture(scope="class")
    def result(self, tmall_artifacts):
        return run_table2("smoke", artifacts=tmall_artifacts)

    def test_panel_shape(self, result):
        assert result.panel.group_labels[-1] == "Average"
        assert len(result.panel.column("IPV", 7)) == 6

    def test_top_group_beats_average(self, result):
        for metric in ("IPV", "AtF", "GMV"):
            for day in (7, 14, 30):
                assert result.top_group_lift(metric, day) > 1.0

    def test_render_layout(self, result):
        rendered = result.render()
        assert "30-day GMV" in rendered and "0-20" in rendered


class TestTable3Pipeline:
    @pytest.fixture(scope="class")
    def result(self, tmall_artifacts):
        return run_table3("smoke", artifacts=tmall_artifacts)

    def test_atnn_beats_expert(self, result):
        assert result.atnn_days < result.expert_days

    def test_improvement_consistent(self, result):
        expected = (result.expert_days - result.atnn_days) / result.expert_days
        assert result.improvement == pytest.approx(expected)

    def test_selection_size(self, result, tmall_artifacts):
        assert result.n_selected == round(
            0.2 * len(tmall_artifacts.world.new_items)
        )


class TestTable4And5Pipeline:
    @pytest.fixture(scope="class")
    def table4(self, eleme_artifacts):
        return run_table4(
            "smoke", world=eleme_artifacts.world, atnn_artifacts=eleme_artifacts
        )

    def test_atnn_improves_both_maes(self, table4):
        assert table4.atnn_vppv_mae < table4.tnn_dcn_vppv_mae
        assert table4.atnn_gmv_mae < table4.tnn_dcn_gmv_mae

    def test_improvements_positive(self, table4):
        assert table4.vppv_improvement > 0
        assert table4.gmv_improvement > 0

    def test_table5_runs_and_reports(self, eleme_artifacts):
        result = run_table5(
            "smoke", world=eleme_artifacts.world, artifacts=eleme_artifacts
        )
        assert result.n_selected > 0
        assert result.expert_vppv > 0 and result.atnn_vppv > 0
        assert "ATNN" in result.render()


class TestComplexityPipeline:
    def test_flat_mean_vector_cost(self, tmall_artifacts, monkeypatch):
        """Each kernel's work, read off the logits it squashes.

        The pairwise kernel squashes ``n_items x n_users`` logits, so 4x
        the users is 4x the work; the mean-vector kernel squashes
        ``n_items`` at every group size.  (Wall-clock timings of the same
        sweep are asserted under ``benchmarks/``.)
        """
        complexity = importlib.import_module("repro.experiments.complexity")
        squashed = []
        real_sigmoid = complexity.sigmoid

        def recording_sigmoid(logits):
            squashed.append(np.shape(logits))
            return real_sigmoid(logits)

        monkeypatch.setattr(complexity, "sigmoid", recording_sigmoid)
        result = run_complexity(
            "smoke", artifacts=tmall_artifacts, user_counts=(100, 400), repeats=1
        )
        assert [row.n_users for row in result.rows] == [100, 400]
        n_items = result.n_items
        assert (n_items, 100) in squashed and (n_items, 400) in squashed
        assert {shape for shape in squashed if len(shape) == 1} == {(n_items,)}

    def test_rank_agreement_high(self, tmall_artifacts):
        result = run_complexity(
            "smoke", artifacts=tmall_artifacts, user_counts=(100,), repeats=1
        )
        assert result.rank_agreement > 0.9


class TestArtifactsPipeline:
    def test_tmall_artifacts_trained(self, tmall_artifacts):
        assert tmall_artifacts.test_auc_encoder > 0.55
        assert tmall_artifacts.test_auc_generator > 0.55
        assert tmall_artifacts.predictor.mean_user_vector is not None

    def test_eleme_artifacts_history(self, eleme_artifacts):
        assert eleme_artifacts.history.n_epochs > 0
        assert "valid_mae_vppv" in eleme_artifacts.history.records[-1]

    def test_popularity_scores_correlate_with_truth(self, tmall_artifacts):
        world = tmall_artifacts.world
        scores = tmall_artifacts.predictor.score_items(world.new_items)
        corr = np.corrcoef(scores, world.new_item_popularity)[0, 1]
        assert corr > 0.3
