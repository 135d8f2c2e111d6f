"""Synthetic movie-recommendation world (the paper's future-work scenario).

Section VI: *"this strategy can be applied to other scenarios, for
example, movie recommendation."*  This world exercises exactly that
claim: a new-release cold-start problem with the same three-group feature
structure (user profiles / movie profiles / movie statistics), generated
with the same structural principles as the Tmall world —

* intrinsic movie quality is a crossed function of profile attributes
  whose dominant terms hide behind high-cardinality studio/franchise ids;
* engagement statistics (views, historical CTR, ratings, watchlist rate)
  are noisy observations of realised popularity, and are *missing* for
  unreleased titles;
* watch decisions follow the two-tower geometry
  ``Bernoulli(sigmoid(bias + a*<u, v> + b*quality))``.

Because :class:`~repro.core.atnn.ATNN` is schema-generic, the identical
model/trainer code runs here unchanged — which is the point of the
transfer experiment built on top (``repro.experiments.transfer``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.dataset import FeatureTable, InteractionDataset, Side
from repro.data.schema import (
    GROUP_ITEM_PROFILE,
    GROUP_ITEM_STAT,
    GROUP_USER,
    CategoricalFeature,
    FeatureSchema,
    NumericFeature,
    SequenceFeature,
)
from repro.data.synthetic.common import (
    mean_click_probability,
    noisy,
    sigmoid,
    standardize,
)
from repro.utils.rng import derive_seed

__all__ = ["MovieConfig", "MovieWorld", "generate_movie_world"]


@dataclass(frozen=True)
class MovieConfig:
    """Size and noise knobs of the synthetic movie world."""

    n_users: int = 2000
    n_movies: int = 2500
    n_new_movies: int = 800
    n_interactions: int = 80_000
    n_genres: int = 12
    n_studios: int = 40
    n_franchises: int = 80
    latent_dim: int = 6
    n_user_segments: int = 6
    watch_bias: float = -1.1
    affinity_weight: float = 0.9
    quality_weight: float = 1.0
    profile_noise: float = 0.25
    stat_noise: float = 0.4
    seed: int = 21

    def __post_init__(self) -> None:
        for name in (
            "n_users",
            "n_movies",
            "n_new_movies",
            "n_interactions",
            "n_genres",
            "n_studios",
            "n_franchises",
            "latent_dim",
            "n_user_segments",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


class MovieWorld:
    """A generated movie world with released titles and unreleased ones.

    Mirrors :class:`~repro.data.synthetic.tmall.TmallWorld`'s surface:
    ``schema``, ``users``, ``movies`` (released, with statistics),
    ``new_movies`` (unreleased, statistics zeroed), ``interactions`` with
    a ``ctr`` watch label, and ground-truth ``new_movie_popularity``.
    """

    GENRE_LIST_LEN = 3

    def __init__(self, config: MovieConfig) -> None:
        self.config = config
        self._generate()

    # ------------------------------------------------------------------
    def _generate(self) -> None:
        cfg = self.config
        rng_users = np.random.default_rng(derive_seed(cfg.seed, "movie-users"))
        rng_movies = np.random.default_rng(derive_seed(cfg.seed, "movies"))
        rng_new = np.random.default_rng(derive_seed(cfg.seed, "new-movies"))
        rng_inter = np.random.default_rng(derive_seed(cfg.seed, "movie-inter"))
        rng_stats = np.random.default_rng(derive_seed(cfg.seed, "movie-stats"))

        self._genre_latents = rng_movies.normal(
            0.0, 1.0, size=(cfg.n_genres, cfg.latent_dim)
        )
        self._studio_tier = np.clip(
            rng_movies.normal(0.5, 0.22, size=cfg.n_studios), 0.0, 1.0
        )
        self._franchise_strength = np.clip(
            rng_movies.normal(0.4, 0.25, size=cfg.n_franchises), 0.0, 1.0
        )
        self._franchise_latents = rng_movies.normal(
            0.0, 0.6, size=(cfg.n_franchises, cfg.latent_dim)
        )

        self._generate_users(rng_users)
        (
            self.movies,
            self.movie_latents,
            self.movie_quality,
            self.movie_popularity,
        ) = self._generate_movies(rng_movies, cfg.n_movies, stats_rng=rng_stats)
        (
            self.new_movies,
            self.new_movie_latents,
            self.new_movie_quality,
            self.new_movie_popularity,
        ) = self._generate_movies(rng_new, cfg.n_new_movies, stats_rng=None)

        self.schema = self._build_schema()
        self.interactions = self._generate_interactions(rng_inter)

    # ------------------------------------------------------------------
    def _generate_users(self, rng: np.random.Generator) -> None:
        cfg = self.config
        centroids = rng.normal(0.0, 1.0, size=(cfg.n_user_segments, cfg.latent_dim))
        segments = rng.integers(0, cfg.n_user_segments, size=cfg.n_users)
        latents = centroids[segments] + rng.normal(
            0.0, 0.5, size=(cfg.n_users, cfg.latent_dim)
        )
        self.user_latents = latents
        activity = np.clip(rng.gamma(2.0, 0.5, size=cfg.n_users), 0.05, None)
        self.user_activity = activity / activity.sum()

        genre_affinity = latents @ self._genre_latents.T
        top_genres = np.argsort(genre_affinity, axis=1)[:, ::-1][
            :, : self.GENRE_LIST_LEN
        ].astype(np.int64)
        lengths = rng.integers(1, self.GENRE_LIST_LEN + 1, size=cfg.n_users)
        mask = (
            np.arange(self.GENRE_LIST_LEN)[None, :] < lengths[:, None]
        ).astype(np.float64)

        n_proxies = min(3, cfg.latent_dim)
        proxies = noisy(latents[:, :n_proxies], 0.6, rng)
        columns: Dict[str, np.ndarray] = {
            "user_id": np.arange(cfg.n_users, dtype=np.int64),
            "user_age_bucket": rng.integers(0, 7, size=cfg.n_users),
            "user_gender": rng.integers(0, 3, size=cfg.n_users),
            "user_top_genre": genre_affinity.argmax(axis=1).astype(np.int64),
            "user_activity": standardize(np.log(self.user_activity)),
            "user_fav_genres": top_genres,
            "user_fav_genres__mask": mask,
        }
        for index in range(n_proxies):
            columns[f"user_taste_proxy_{index}"] = standardize(proxies[:, index])
        self.users = FeatureTable(columns)
        self._n_user_proxies = n_proxies

    # ------------------------------------------------------------------
    def _generate_movies(
        self,
        rng: np.random.Generator,
        count: int,
        stats_rng: Optional[np.random.Generator],
    ) -> Tuple[FeatureTable, np.ndarray, np.ndarray, np.ndarray]:
        """Profiles, latents, quality and true popularity.

        Statistic columns are drawn from ``stats_rng``, or zeroed when it
        is None (unreleased titles).
        """
        cfg = self.config
        genre = rng.integers(0, cfg.n_genres, size=count)
        studio = rng.integers(0, cfg.n_studios, size=count)
        franchise = rng.integers(0, cfg.n_franchises, size=count)

        log_budget = rng.normal(17.0, 1.0, size=count)
        runtime = np.clip(rng.normal(110, 18, size=count), 60, 200)
        trailer_quality = np.clip(rng.beta(3, 2, size=count), 0, 1)
        studio_tier = self._studio_tier[studio]
        franchise_strength = self._franchise_strength[franchise]

        # Quality: dominated by id-locked crosses (studio tier x trailer,
        # franchise strength), with a mild budget fit term.
        quality_raw = (
            2.4 * studio_tier * trailer_quality
            + 1.5 * franchise_strength
            - 0.5 * (log_budget - 17.0) ** 2 / 4.0
            + 0.3 * studio_tier
            + rng.normal(0.0, 0.15, size=count)
        )
        quality = standardize(quality_raw)

        latents = (
            0.8 * self._genre_latents[genre]
            + self._franchise_latents[franchise]
            + rng.normal(0.0, 0.4, size=(count, cfg.latent_dim))
        )

        columns: Dict[str, np.ndarray] = {
            "movie_genre": genre,
            "movie_studio": studio,
            "movie_franchise": franchise,
            "movie_log_budget": standardize(noisy(log_budget, cfg.profile_noise, rng)),
            "movie_runtime": standardize(noisy(runtime, cfg.profile_noise * 10, rng)),
            "movie_trailer_quality": noisy(trailer_quality, cfg.profile_noise, rng),
        }
        popularity = self._popularity(latents, quality)
        columns.update(
            self._statistic_columns(count, quality, popularity, stats_rng)
        )
        return FeatureTable(columns), latents, quality, popularity

    def _statistic_columns(
        self,
        count: int,
        quality: np.ndarray,
        popularity: np.ndarray,
        rng: Optional[np.random.Generator],
    ) -> Dict[str, np.ndarray]:
        names = ("stat_log_views", "stat_hist_ctr", "stat_rating", "stat_watchlist_rate")
        if rng is None:
            return {name: np.zeros(count) for name in names}
        cfg = self.config
        views = rng.lognormal(mean=6.0, sigma=1.0, size=count) * (0.25 + popularity)
        return {
            "stat_log_views": standardize(np.log1p(views)),
            "stat_hist_ctr": standardize(
                np.clip(noisy(popularity, cfg.stat_noise * 0.2, rng), 1e-4, 1)
            ),
            "stat_rating": standardize(
                np.clip(noisy(3.0 + 1.5 * quality, cfg.stat_noise, rng), 1.0, 5.0)
            ),
            "stat_watchlist_rate": standardize(
                np.clip(noisy(0.2 * popularity, cfg.stat_noise * 0.1, rng), 0, 1)
            ),
        }

    # ------------------------------------------------------------------
    def _popularity(self, latents: np.ndarray, quality: np.ndarray) -> np.ndarray:
        cfg = self.config
        return mean_click_probability(
            latents,
            quality,
            self.user_latents,
            cfg.watch_bias,
            cfg.affinity_weight,
            cfg.quality_weight,
        )

    # ------------------------------------------------------------------
    def _build_schema(self) -> FeatureSchema:
        cfg = self.config
        categorical = [
            CategoricalFeature("user_id", cfg.n_users, 16, GROUP_USER),
            CategoricalFeature("user_age_bucket", 7, 4, GROUP_USER),
            CategoricalFeature("user_gender", 3, 2, GROUP_USER),
            CategoricalFeature("user_top_genre", cfg.n_genres, 8, GROUP_USER),
            CategoricalFeature("movie_genre", cfg.n_genres, 8, GROUP_ITEM_PROFILE),
            CategoricalFeature("movie_studio", cfg.n_studios, 8, GROUP_ITEM_PROFILE),
            CategoricalFeature(
                "movie_franchise", cfg.n_franchises, 8, GROUP_ITEM_PROFILE
            ),
        ]
        numeric = [
            NumericFeature("user_activity", GROUP_USER),
            *[
                NumericFeature(f"user_taste_proxy_{i}", GROUP_USER)
                for i in range(self._n_user_proxies)
            ],
            NumericFeature("movie_log_budget", GROUP_ITEM_PROFILE),
            NumericFeature("movie_runtime", GROUP_ITEM_PROFILE),
            NumericFeature("movie_trailer_quality", GROUP_ITEM_PROFILE),
            NumericFeature("stat_log_views", GROUP_ITEM_STAT),
            NumericFeature("stat_hist_ctr", GROUP_ITEM_STAT),
            NumericFeature("stat_rating", GROUP_ITEM_STAT),
            NumericFeature("stat_watchlist_rate", GROUP_ITEM_STAT),
        ]
        sequence = [
            SequenceFeature(
                "user_fav_genres", cfg.n_genres, 8, self.GENRE_LIST_LEN, GROUP_USER
            )
        ]
        return FeatureSchema(categorical, numeric, sequence)

    # ------------------------------------------------------------------
    def _generate_interactions(self, rng: np.random.Generator) -> InteractionDataset:
        cfg = self.config
        user_indices = rng.choice(
            cfg.n_users, size=cfg.n_interactions, p=self.user_activity
        )
        movie_indices = rng.integers(0, cfg.n_movies, size=cfg.n_interactions)
        affinity = np.einsum(
            "ij,ij->i",
            self.user_latents[user_indices],
            self.movie_latents[movie_indices],
        ) / np.sqrt(cfg.latent_dim)
        logits = (
            cfg.watch_bias
            + cfg.affinity_weight * affinity
            + cfg.quality_weight * self.movie_quality[movie_indices]
        )
        labels = (rng.random(cfg.n_interactions) < sigmoid(logits)).astype(np.float64)

        user_names = self.schema.all_column_names(GROUP_USER)
        movie_names = self.schema.all_column_names(GROUP_ITEM_PROFILE, GROUP_ITEM_STAT)
        sides = [
            Side(FeatureTable(self.users.select(user_names)), user_indices),
            Side(FeatureTable(self.movies.select(movie_names)), movie_indices),
        ]
        self.interaction_user_indices = user_indices
        self.interaction_movie_indices = movie_indices
        return InteractionDataset(self.schema, sides, {"ctr": labels})

    # ------------------------------------------------------------------
    def active_user_group(self, fraction: float = 0.25) -> FeatureTable:
        """The most active users (for the popularity service)."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, int(round(self.config.n_users * fraction)))
        top = np.argsort(self.user_activity)[::-1][:count]
        return self.users.subset(top)


def generate_movie_world(config: Optional[MovieConfig] = None) -> MovieWorld:
    """Build a :class:`MovieWorld` (default config when none is given)."""
    return MovieWorld(config if config is not None else MovieConfig())
