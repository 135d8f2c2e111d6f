"""Synthetic Tmall-like e-commerce world.

The paper evaluates on a proprietary Tmall dataset (23.1M items, 4M users,
40M interactions).  This module builds a laptop-scale synthetic substitute
that preserves the *structural* properties ATNN's results depend on:

1. **Item statistics are the easy signal.**  Each released item carries
   engagement statistics (PV, UV, historical CTR, cart/favourite/purchase
   rates) that are noisy observations of its realised popularity.  Models
   with access to them predict CTR well; removing them hurts.
2. **Item profiles determine quality only through feature crosses.**  The
   latent item quality is a product/cross function of profile features
   (brand tier x seller reputation, image x title quality, price fit), so a
   plain fully connected tower under-uses profiles while a cross-network
   tower (DCN) — or a generator distilled from a statistics-aware teacher —
   can recover them.
3. **Personalised clicks follow a two-tower geometry.**  A click on item
   ``j`` by user ``u`` is Bernoulli of a logistic function of
   ``<u_latent, v_latent> + quality``, the exact structure a two-tower model
   can capture.
4. **New arrivals are items whose statistics never existed**, with held-out
   ground-truth popularity used only by the behaviour simulator.

The generated schema mirrors the paper's feature groups (user profiles,
item profiles, item statistics) at reduced width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

__all__ = ["TmallConfig", "TmallWorld", "generate_tmall_world"]


@dataclass(frozen=True)
class TmallConfig:
    """Size and noise knobs of the synthetic Tmall world.

    Defaults are sized so the full Table I pipeline (four models) runs in a
    few minutes on a laptop; scale up for higher-fidelity runs.
    """

    n_users: int = 3000
    n_items: int = 4000
    n_new_items: int = 1500
    n_interactions: int = 120_000
    n_categories: int = 16
    n_subcategories: int = 48
    n_brands: int = 120
    n_sellers: int = 200
    latent_dim: int = 6
    n_user_segments: int = 8
    # Click-model coefficients: logit = bias + affinity_w * <u, v> + quality_w * q.
    # Kept deliberately moderate so single-click labels are a *noisy* signal
    # (paper-level AUCs in the 0.6-0.75 band): aggregated item statistics
    # then carry real denoised information, which is the regime where the
    # adversarial distillation of ATNN pays off.
    click_bias: float = -1.1
    affinity_weight: float = 0.8
    quality_weight: float = 1.0
    # Observation-noise levels.  Statistic noise is sized so that item
    # statistics are clearly informative but not oracle-grade; it controls
    # how hard complete-feature models lean on them and therefore the size
    # of the cold-start degradation in Table I.
    profile_noise: float = 0.25
    stat_noise: float = 0.45
    preference_proxy_noise: float = 0.6
    seed: int = 7

    def __post_init__(self) -> None:
        for name in (
            "n_users",
            "n_items",
            "n_new_items",
            "n_interactions",
            "n_categories",
            "n_subcategories",
            "n_brands",
            "n_sellers",
            "latent_dim",
            "n_user_segments",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def _price_buckets(log_price: np.ndarray, n_buckets: int = 8) -> np.ndarray:
    """Quantile-bucket log prices into ``n_buckets`` categorical codes."""
    edges = np.quantile(log_price, np.linspace(0, 1, n_buckets + 1)[1:-1])
    return np.searchsorted(edges, log_price, side="right").astype(np.int64)


class TmallWorld:
    """A fully generated synthetic e-commerce world.

    Class attribute ``PREF_LIST_LEN`` is the padded length of the
    multi-valued user preference-category feature.

    Attributes
    ----------
    config:
        The generating configuration.
    schema:
        Feature schema for all tower inputs.
    users:
        :class:`FeatureTable` of user features (one row per user).
    items:
        :class:`FeatureTable` of released items (profiles + statistics).
    new_items:
        :class:`FeatureTable` of new arrivals (profiles only; statistic
        columns are present but zeroed, mirroring a serving-time feature
        join against an empty statistics store).
    interactions:
        :class:`InteractionDataset` of labelled (user, item) samples: the
        join of ``users`` and ``items`` at the two index arrays below.
    interaction_user_indices / interaction_item_indices:
        The user and item row each interaction reads (the dataset's own
        row indices, not copies).
    user_latents / item_latents / new_item_latents:
        Ground-truth latent vectors (hidden from models; used by the
        behaviour simulator and for diagnostics).
    item_quality / new_item_quality:
        Ground-truth intrinsic quality scalars.
    new_item_popularity:
        Ground-truth popularity of each new arrival — the mean click
        probability over the user population.  This is the quantity the
        paper ranks by (and what the behaviour simulator consumes).
    """

    PREF_LIST_LEN = 4

    def __init__(self, config: TmallConfig) -> None:
        self.config = config
        self._generate()

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _generate(self) -> None:
        cfg = self.config
        rng_users = np.random.default_rng(derive_seed(cfg.seed, "users"))
        rng_items = np.random.default_rng(derive_seed(cfg.seed, "items"))
        rng_new = np.random.default_rng(derive_seed(cfg.seed, "new_items"))
        rng_inter = np.random.default_rng(derive_seed(cfg.seed, "interactions"))
        rng_stats = np.random.default_rng(derive_seed(cfg.seed, "statistics"))

        self._category_latents = rng_items.normal(
            0.0, 1.0, size=(cfg.n_categories, cfg.latent_dim)
        )
        self._brand_tier = np.clip(
            rng_items.normal(0.5, 0.22, size=cfg.n_brands), 0.0, 1.0
        )
        self._brand_latents = rng_items.normal(
            0.0, 0.6, size=(cfg.n_brands, cfg.latent_dim)
        )
        self._seller_reputation = np.clip(
            rng_items.normal(0.6, 0.2, size=cfg.n_sellers), 0.0, 1.0
        )
        self._category_log_price = rng_items.normal(3.5, 0.6, size=cfg.n_categories)

        self._generate_users(rng_users)
        (
            self.items,
            self.item_latents,
            self.item_quality,
            self._item_log_price,
            self.item_popularity,
        ) = self._generate_items(rng_items, cfg.n_items, stats_rng=rng_stats)

        (
            self.new_items,
            self.new_item_latents,
            self.new_item_quality,
            new_log_price,
            self.new_item_popularity,
        ) = self._generate_items(rng_new, cfg.n_new_items, stats_rng=None)
        self.new_item_prices = np.exp(new_log_price)

        self.schema = self._build_schema()
        self.interactions = self._generate_interactions(rng_inter)

    # ------------------------------------------------------------------
    def _generate_users(self, rng: np.random.Generator) -> None:
        cfg = self.config
        segment_centroids = rng.normal(
            0.0, 1.0, size=(cfg.n_user_segments, cfg.latent_dim)
        )
        segments = rng.integers(0, cfg.n_user_segments, size=cfg.n_users)
        latents = segment_centroids[segments] + rng.normal(
            0.0, 0.5, size=(cfg.n_users, cfg.latent_dim)
        )
        self.user_latents = latents
        self.user_segments = segments

        activity = np.clip(rng.gamma(2.0, 0.5, size=cfg.n_users), 0.05, None)
        self.user_activity = activity / activity.sum()

        # Observable profile columns.  The "preference proxies" are noisy
        # views of the first latent coordinates — the paper's user profiles
        # include purchase preferences and power ratings, which play the
        # same role of partially revealing taste.
        n_proxies = min(4, cfg.latent_dim)
        proxies = noisy(latents[:, :n_proxies], cfg.preference_proxy_noise, rng)
        # Category affinities drive both the single top preference and the
        # multi-valued preference list (the paper's "purchase preference"
        # profile family).
        affinities = latents @ self._category_latents.T  # (users, categories)
        pref_category = affinities.argmax(axis=1).astype(np.int64)
        top_categories = np.argsort(affinities, axis=1)[:, ::-1][
            :, : self.PREF_LIST_LEN
        ].astype(np.int64)
        list_lengths = rng.integers(2, self.PREF_LIST_LEN + 1, size=cfg.n_users)
        pref_mask = (
            np.arange(self.PREF_LIST_LEN)[None, :] < list_lengths[:, None]
        ).astype(np.float64)
        columns: Dict[str, np.ndarray] = {
            "user_id": np.arange(cfg.n_users, dtype=np.int64),
            "user_gender": rng.integers(0, 3, size=cfg.n_users),
            "user_age_bucket": rng.integers(0, 7, size=cfg.n_users),
            "user_occupation": rng.integers(0, 12, size=cfg.n_users),
            "user_city_tier": rng.integers(0, 5, size=cfg.n_users),
            "user_pref_category": pref_category,
            "user_power_rating": np.clip(
                (standardize(self.user_activity) * 1.5 + 3.5).astype(np.int64), 0, 7
            ),
            "user_activity": standardize(np.log(self.user_activity)),
            "user_price_sensitivity": standardize(rng.normal(size=cfg.n_users)),
        }
        for proxy_index in range(n_proxies):
            columns[f"user_pref_proxy_{proxy_index}"] = standardize(
                proxies[:, proxy_index]
            )
        columns["user_pref_categories"] = top_categories
        columns["user_pref_categories__mask"] = pref_mask
        self.users = FeatureTable(columns)
        self._n_user_proxies = n_proxies

    # ------------------------------------------------------------------
    def _generate_items(
        self,
        rng: np.random.Generator,
        n_items: int,
        stats_rng: Optional[np.random.Generator],
    ) -> Tuple[FeatureTable, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Profiles, latents, quality, log price and true popularity.

        Statistic columns are drawn from ``stats_rng``, or zeroed when it
        is None (new arrivals).
        """
        cfg = self.config
        category = rng.integers(0, cfg.n_categories, size=n_items)
        subcategory = (
            category * (cfg.n_subcategories // cfg.n_categories)
            + rng.integers(0, max(cfg.n_subcategories // cfg.n_categories, 1), size=n_items)
        ) % cfg.n_subcategories
        brand = rng.integers(0, cfg.n_brands, size=n_items)
        seller = rng.integers(0, cfg.n_sellers, size=n_items)

        log_price = self._category_log_price[category] + rng.normal(
            0.0, 0.5, size=n_items
        )
        relative_price = log_price - self._category_log_price[category]
        title_quality = np.clip(rng.beta(3, 2, size=n_items), 0.0, 1.0)
        image_quality = np.clip(rng.beta(3, 2, size=n_items), 0.0, 1.0)
        shipping_speed = np.clip(rng.beta(4, 2, size=n_items), 0.0, 1.0)
        brand_tier = self._brand_tier[brand]
        seller_rep = self._seller_reputation[seller]

        # Ground-truth intrinsic quality: a *crossed* function of profile
        # features.  The dominant term is brand_tier x seller_reputation —
        # quantities only reachable through the high-cardinality brand and
        # seller ids — which is what makes embedding towers (and the
        # adversarially distilled generator) matter and keeps raw-id-code
        # learners (GBDT) weak on profiles alone.
        quality_raw = (
            2.8 * brand_tier * seller_rep
            + 0.8 * image_quality * title_quality
            - 0.6 * relative_price ** 2
            + 0.6 * shipping_speed * seller_rep
            + 0.3 * brand_tier
            + rng.normal(0.0, 0.15, size=n_items)
        )
        quality = standardize(quality_raw)

        latents = (
            0.7 * self._category_latents[category]
            + self._brand_latents[brand]
            + rng.normal(0.0, 0.4, size=(n_items, cfg.latent_dim))
        )

        # Brand tier and seller reputation are *not* exposed as numeric
        # columns: like the real platform, that signal is only reachable
        # through the high-cardinality brand/seller ids.  Embedding-based
        # towers can learn per-id representations; the GBDT baseline sees
        # raw id codes (which split poorly), reproducing its weak
        # profile-only behaviour in the paper's Table I.
        columns: Dict[str, np.ndarray] = {
            "item_category": category,
            "item_subcategory": subcategory,
            "item_brand": brand,
            "item_seller": seller,
            "item_price_bucket": _price_buckets(log_price),
            "item_log_price": standardize(noisy(log_price, cfg.profile_noise, rng)),
            "item_relative_price": standardize(
                noisy(relative_price, cfg.profile_noise, rng)
            ),
            "item_title_quality": noisy(title_quality, cfg.profile_noise, rng),
            "item_image_quality": noisy(image_quality, cfg.profile_noise, rng),
            "item_shipping_speed": noisy(shipping_speed, cfg.profile_noise, rng),
        }

        popularity = self.true_popularity(latents, quality)
        columns.update(self._statistic_columns(n_items, popularity, stats_rng))
        return FeatureTable(columns), latents, quality, log_price, popularity

    # ------------------------------------------------------------------
    def _statistic_columns(
        self,
        n_items: int,
        popularity: np.ndarray,
        rng: Optional[np.random.Generator],
    ) -> Dict[str, np.ndarray]:
        """Engagement statistics for released items (zeros for new arrivals).

        Statistics are noisy transforms of realised popularity — the mean
        click probability over the user population — plus exposure effects,
        matching the paper's PV / UV / behaviour-count feature family.
        """
        names = [
            "stat_log_pv",
            "stat_log_uv",
            "stat_hist_ctr",
            "stat_cart_rate",
            "stat_fav_rate",
            "stat_buy_rate",
            "stat_seller_log_pv",
            "stat_category_ctr",
        ]
        if rng is None:
            return {name: np.zeros(n_items) for name in names}

        cfg = self.config
        exposure = rng.lognormal(mean=5.0, sigma=1.0, size=n_items)
        pv = exposure * (0.25 + popularity)
        uv = pv * np.clip(rng.beta(6, 3, size=n_items), 0.2, 1.0)
        hist_ctr = np.clip(noisy(popularity, cfg.stat_noise * 0.5, rng), 1e-4, 1.0)
        cart_rate = np.clip(noisy(0.30 * popularity, cfg.stat_noise * 0.2, rng), 0, 1)
        fav_rate = np.clip(noisy(0.20 * popularity, cfg.stat_noise * 0.2, rng), 0, 1)
        buy_rate = np.clip(noisy(0.10 * popularity, cfg.stat_noise * 0.1, rng), 0, 1)
        seller_pv = rng.lognormal(mean=7.0, sigma=0.8, size=n_items)
        category_ctr = np.clip(
            noisy(np.full(n_items, popularity.mean()), cfg.stat_noise * 0.3, rng),
            1e-4,
            1.0,
        )
        return {
            "stat_log_pv": standardize(np.log1p(pv)),
            "stat_log_uv": standardize(np.log1p(uv)),
            "stat_hist_ctr": standardize(hist_ctr),
            "stat_cart_rate": standardize(cart_rate),
            "stat_fav_rate": standardize(fav_rate),
            "stat_buy_rate": standardize(buy_rate),
            "stat_seller_log_pv": standardize(np.log1p(seller_pv)),
            "stat_category_ctr": standardize(category_ctr),
        }

    # ------------------------------------------------------------------
    def true_popularity(self, latents: np.ndarray, quality: np.ndarray) -> np.ndarray:
        """Ground-truth popularity: mean click probability over all users."""
        cfg = self.config
        return mean_click_probability(
            latents,
            quality,
            self.user_latents,
            cfg.click_bias,
            cfg.affinity_weight,
            cfg.quality_weight,
        )

    def click_probability(self, user_indices: np.ndarray, item_indices: np.ndarray,
                          latents: np.ndarray, quality: np.ndarray) -> np.ndarray:
        """Per-pair ground-truth click probability."""
        cfg = self.config
        affinity = np.einsum(
            "ij,ij->i",
            self.user_latents[user_indices],
            latents[item_indices],
        ) / np.sqrt(cfg.latent_dim)
        logits = (
            cfg.click_bias
            + cfg.affinity_weight * affinity
            + cfg.quality_weight * quality[item_indices]
        )
        return sigmoid(logits)

    # ------------------------------------------------------------------
    def _build_schema(self) -> FeatureSchema:
        cfg = self.config
        categorical = [
            CategoricalFeature("user_id", cfg.n_users, 16, GROUP_USER),
            CategoricalFeature("user_gender", 3, 2, GROUP_USER),
            CategoricalFeature("user_age_bucket", 7, 4, GROUP_USER),
            CategoricalFeature("user_occupation", 12, 8, GROUP_USER),
            CategoricalFeature("user_city_tier", 5, 4, GROUP_USER),
            CategoricalFeature("user_pref_category", cfg.n_categories, 16, GROUP_USER),
            CategoricalFeature("user_power_rating", 8, 4, GROUP_USER),
            CategoricalFeature("item_category", cfg.n_categories, 6, GROUP_ITEM_PROFILE),
            CategoricalFeature(
                "item_subcategory", cfg.n_subcategories, 16, GROUP_ITEM_PROFILE
            ),
            CategoricalFeature("item_brand", cfg.n_brands, 8, GROUP_ITEM_PROFILE),
            CategoricalFeature("item_seller", cfg.n_sellers, 8, GROUP_ITEM_PROFILE),
            CategoricalFeature("item_price_bucket", 8, 4, GROUP_ITEM_PROFILE),
        ]
        numeric = [
            NumericFeature("user_activity", GROUP_USER),
            NumericFeature("user_price_sensitivity", GROUP_USER),
            *[
                NumericFeature(f"user_pref_proxy_{i}", GROUP_USER)
                for i in range(self._n_user_proxies)
            ],
            NumericFeature("item_log_price", GROUP_ITEM_PROFILE),
            NumericFeature("item_relative_price", GROUP_ITEM_PROFILE),
            NumericFeature("item_title_quality", GROUP_ITEM_PROFILE),
            NumericFeature("item_image_quality", GROUP_ITEM_PROFILE),
            NumericFeature("item_shipping_speed", GROUP_ITEM_PROFILE),
            NumericFeature("stat_log_pv", GROUP_ITEM_STAT),
            NumericFeature("stat_log_uv", GROUP_ITEM_STAT),
            NumericFeature("stat_hist_ctr", GROUP_ITEM_STAT),
            NumericFeature("stat_cart_rate", GROUP_ITEM_STAT),
            NumericFeature("stat_fav_rate", GROUP_ITEM_STAT),
            NumericFeature("stat_buy_rate", GROUP_ITEM_STAT),
            NumericFeature("stat_seller_log_pv", GROUP_ITEM_STAT),
            NumericFeature("stat_category_ctr", GROUP_ITEM_STAT),
        ]
        sequence = [
            SequenceFeature(
                "user_pref_categories",
                cfg.n_categories,
                8,
                self.PREF_LIST_LEN,
                GROUP_USER,
            )
        ]
        return FeatureSchema(categorical, numeric, sequence)

    # ------------------------------------------------------------------
    def _generate_interactions(self, rng: np.random.Generator) -> InteractionDataset:
        cfg = self.config
        # Sample users by activity, items by exposure-ish uniform weighting.
        user_indices = rng.choice(
            cfg.n_users, size=cfg.n_interactions, p=self.user_activity
        )
        item_indices = rng.integers(0, cfg.n_items, size=cfg.n_interactions)
        probabilities = self.click_probability(
            user_indices, item_indices, self.item_latents, self.item_quality
        )
        labels = (rng.random(cfg.n_interactions) < probabilities).astype(np.float64)

        user_names = self.schema.all_column_names(GROUP_USER)
        item_names = self.schema.all_column_names(GROUP_ITEM_PROFILE, GROUP_ITEM_STAT)
        sides = [
            Side(FeatureTable(self.users.select(user_names)), user_indices),
            Side(FeatureTable(self.items.select(item_names)), item_indices),
        ]
        # Row provenance for pairwise analyses: the sides' own index arrays.
        self.interaction_user_indices = user_indices
        self.interaction_item_indices = item_indices
        return InteractionDataset(self.schema, sides, {"ctr": labels})

    # ------------------------------------------------------------------
    def active_user_group(self, fraction: float = 0.25) -> FeatureTable:
        """The top-``fraction`` most active users (the paper's user group).

        The paper selects the top ~20M active users who prefer new arrivals;
        here activity is the sampling weight used for interactions.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, int(round(self.config.n_users * fraction)))
        top = np.argsort(self.user_activity)[::-1][:count]
        return self.users.subset(top)


def generate_tmall_world(config: Optional[TmallConfig] = None) -> TmallWorld:
    """Build a :class:`TmallWorld` (default config when none is given)."""
    return TmallWorld(config if config is not None else TmallConfig())
