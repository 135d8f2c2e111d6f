"""Benchmark: the O(1) popularity-scoring claim (Section III-D).

Measures per-item scoring cost for the stored-mean-user-vector path and
the exact O(N_U) pairwise path across growing user groups, asserting:

* the mean-vector cost stays flat while the pairwise cost grows;
* the two orderings agree (high Spearman correlation), so the cheap path
  loses no ranking quality.
"""

from repro.experiments import run_complexity


def test_popularity_scoring_complexity(
    benchmark, bench_preset, tmall_artifacts, save_report
):
    result = benchmark.pedantic(
        lambda: run_complexity(
            bench_preset,
            artifacts=tmall_artifacts,
            user_counts=(250, 500, 1000, 2000),
            repeats=3,
        ),
        rounds=1,
        iterations=1,
    )
    save_report("complexity", result.render())

    rows = result.rows
    assert len(rows) >= 2
    smallest, largest = rows[0], rows[-1]
    # Pairwise cost grows with the user count...
    assert largest.pairwise_seconds_per_item > 2.0 * smallest.pairwise_seconds_per_item
    # ...while the mean-vector cost does not (generous 3x slack for timer noise).
    assert (
        largest.mean_vector_seconds_per_item
        < 3.0 * smallest.mean_vector_seconds_per_item + 1e-6
    )
    # At the largest group the speedup is at least an order of magnitude.
    assert largest.speedup > 10.0
    # The cheap ranking agrees with the exact one.
    assert result.rank_agreement > 0.95


def test_flat_mean_vector_cost_smoke_timing(tmall_artifacts):
    """Wall-clock form of the flat-cost check at 100 vs 400 users."""
    result = run_complexity(
        "smoke", artifacts=tmall_artifacts, user_counts=(100, 400), repeats=2
    )
    assert len(result.rows) == 2
    small, large = result.rows
    # Pairwise cost grows with users; mean-vector cost must not.
    assert large.pairwise_seconds_per_item > small.pairwise_seconds_per_item
    assert large.mean_vector_seconds_per_item < small.pairwise_seconds_per_item
