"""User-segmentation experiment (the paper's future-work direction).

Compares the single-mean-vector popularity ranking against the segmented
predictor on two axes:

* **overall ranking quality** — Spearman correlation with ground-truth
  population popularity (the weighted-mean aggregation should match or
  beat the single mean);
* **niche discovery** — for items flagged as niche (best segment much
  stronger than the weighted average), verify that their best *true*
  per-segment popularity exceeds their overall popularity by more than it
  does for typical items, i.e. the segments are real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.segmented_popularity import SegmentedPopularityPredictor
from repro.data.synthetic.common import mean_click_probability
from repro.experiments.pipeline import TmallArtifacts, build_tmall_artifacts
from repro.metrics import rank_correlation
from repro.utils.rng import derive_seed
from repro.utils.tabulate import format_table

__all__ = ["SegmentationResult", "run_segmentation"]


@dataclass
class SegmentationResult:
    """Summary of the segmentation comparison."""

    n_segments: int
    corr_single_mean: float
    corr_segmented_mean: float
    corr_segmented_max: float
    per_segment_corr: float
    niche_gap_selected: float
    niche_gap_typical: float
    preset: str

    def as_dict(self):
        """JSON-friendly summary."""
        return {
            "n_segments": self.n_segments,
            "corr_single_mean": self.corr_single_mean,
            "corr_segmented_mean": self.corr_segmented_mean,
            "corr_segmented_max": self.corr_segmented_max,
            "per_segment_corr": self.per_segment_corr,
            "niche_gap_selected": self.niche_gap_selected,
            "niche_gap_typical": self.niche_gap_typical,
        }

    def render(self) -> str:
        """ASCII report."""
        table = format_table(
            ["Ranking strategy", "Rank corr vs true popularity"],
            [
                ["single mean user vector (paper)", self.corr_single_mean],
                ["segmented, weighted mean", self.corr_segmented_mean],
                ["segmented, best segment (max)", self.corr_segmented_max],
            ],
            precision=4,
            title=(
                f"User segmentation (k={self.n_segments}, preset={self.preset})"
            ),
        )
        return table + (
            f"\nMean per-segment rank correlation (predicted vs true segment "
            f"popularity): {self.per_segment_corr:.4f}"
            f"\nTrue niche gap (best-segment minus overall popularity): "
            f"selected niche items {self.niche_gap_selected:.4f} vs "
            f"typical items {self.niche_gap_typical:.4f}"
        )


def _true_segment_popularity(world, predictor: SegmentedPopularityPredictor):
    """Ground-truth per-segment popularity of every new arrival."""
    assignments = predictor.clustering.assignments
    group_users = predictor._group_user_indices
    config = world.config
    segments = []
    for segment in range(predictor.clustering.k):
        members = group_users[assignments == segment]
        if members.size == 0:
            members = group_users
        segments.append(
            mean_click_probability(
                world.new_item_latents,
                world.new_item_quality,
                world.user_latents[members],
                config.click_bias,
                config.affinity_weight,
                config.quality_weight,
            )
        )
    return np.column_stack(segments)


def run_segmentation(
    preset: str = "default",
    artifacts: Optional[TmallArtifacts] = None,
    n_segments: int = 4,
    niche_k: int = 30,
) -> SegmentationResult:
    """Compare single-mean vs segmented popularity prediction.

    Parameters
    ----------
    preset:
        Size preset name (ignored when ``artifacts`` is given).
    artifacts:
        Optional pre-trained stack.
    n_segments:
        Number of taste segments.
    niche_k:
        How many niche items to select for the niche-discovery check.
    """
    if artifacts is None:
        artifacts = build_tmall_artifacts(preset)
    world = artifacts.world
    seed = artifacts.preset.seed

    group = world.active_user_group(0.25)
    predictor = SegmentedPopularityPredictor(artifacts.model, n_segments=n_segments)
    predictor.fit_user_group(
        group, rng=np.random.default_rng(derive_seed(seed, "segmentation"))
    )
    # Remember which world users form the group (for ground-truth checks).
    predictor._group_user_indices = group["user_id"]

    truth = world.new_item_popularity
    single = artifacts.predictor.score_items(world.new_items)
    segmented_mean = predictor.score_items(world.new_items, aggregation="mean")
    segmented_max = predictor.score_items(world.new_items, aggregation="max")

    niche_k = min(niche_k, len(world.new_items))
    niche = predictor.niche_items(world.new_items, top_k=niche_k)
    true_per_segment = _true_segment_popularity(world, predictor)
    true_gap = true_per_segment.max(axis=1) - truth
    selected_gap = float(true_gap[niche].mean())
    typical_gap = float(true_gap.mean())

    predicted_per_segment = predictor.segment_scores(world.new_items)
    segment_corrs = [
        rank_correlation(predicted_per_segment[:, s], true_per_segment[:, s])
        for s in range(predictor.clustering.k)
    ]

    return SegmentationResult(
        n_segments=predictor.clustering.k,
        corr_single_mean=rank_correlation(single, truth),
        corr_segmented_mean=rank_correlation(segmented_mean, truth),
        corr_segmented_max=rank_correlation(segmented_max, truth),
        per_segment_corr=float(np.mean(segment_corrs)),
        niche_gap_selected=selected_gap,
        niche_gap_typical=typical_gap,
        preset=artifacts.preset.name,
    )
