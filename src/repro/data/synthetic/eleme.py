"""Synthetic Ele.me-like food-delivery world (Section V of the paper).

The extended ATNN predicts two regression targets for newly signed-up
restaurants — Value per Page View (VpPV) and Gross Merchandise Volume
(GMV) — conditioned on *user groups* formed by location (food delivery is
location sensitive, so the paper replaces single users with per-zone mean
user features).

The synthetic world mirrors that structure:

* restaurants carry brand / theme / cuisine / zone categoricals plus
  numeric profile features; latent *attractiveness* is a crossed function
  of the profile (brand tier x photo quality, cuisine-zone taste match,
  price fit), exactly parallel to the Tmall quality construction;
* signed-up restaurants additionally carry platform statistics
  (overall VpPV / GMV / CTR observed so far) — the features that are
  missing for new applicants;
* each (restaurant, user group) sample is labelled with a VpPV value and a
  ``log1p`` GMV value whose scales are calibrated to the paper's reported
  magnitudes (VpPV ≈ 0.26, VpPV MAE ≈ 0.07, log-GMV MAE ≈ 1.2).
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
)
from repro.data.synthetic.common import noisy, sigmoid, standardize
from repro.utils.rng import derive_seed

__all__ = ["ElemeConfig", "ElemeWorld", "generate_eleme_world"]


@dataclass(frozen=True)
class ElemeConfig:
    """Size and noise knobs of the synthetic food-delivery world."""

    n_restaurants: int = 3000
    n_new_restaurants: int = 1200
    n_zones: int = 24
    n_brands: int = 80
    n_themes: int = 10
    n_cuisines: int = 14
    latent_dim: int = 5
    samples_per_restaurant: int = 8
    profile_noise: float = 0.2
    stat_noise: float = 0.1
    # Label scale calibration.
    vppv_base: float = 0.26
    vppv_spread: float = 0.10
    gmv_log_mean: float = 5.0
    gmv_log_spread: float = 1.1
    label_noise: float = 0.05
    seed: int = 11

    def __post_init__(self) -> None:
        for name in (
            "n_restaurants",
            "n_new_restaurants",
            "n_zones",
            "n_brands",
            "n_themes",
            "n_cuisines",
            "latent_dim",
            "samples_per_restaurant",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


class ElemeWorld:
    """A generated food-delivery world with user groups and two targets.

    Attributes
    ----------
    schema:
        Feature schema (``user`` group = user-group features, item groups =
        restaurant profile / statistics).
    user_groups:
        :class:`FeatureTable` of per-zone user groups.
    restaurants / new_restaurants:
        Signed-up restaurants (with statistics) and new applicants (without).
    samples:
        :class:`InteractionDataset` of (restaurant, user group) rows with
        ``vppv`` and ``gmv`` labels (GMV stored as ``log1p``).
    new_restaurant_attractiveness:
        Ground truth for evaluating recruitment policies (Table V).
    """

    def __init__(self, config: ElemeConfig) -> None:
        self.config = config
        self._generate()

    # ------------------------------------------------------------------
    def _generate(self) -> None:
        cfg = self.config
        rng_groups = np.random.default_rng(derive_seed(cfg.seed, "groups"))
        rng_rest = np.random.default_rng(derive_seed(cfg.seed, "restaurants"))
        rng_new = np.random.default_rng(derive_seed(cfg.seed, "new_restaurants"))
        rng_samples = np.random.default_rng(derive_seed(cfg.seed, "samples"))

        self._cuisine_latents = rng_rest.normal(
            0.0, 1.0, size=(cfg.n_cuisines, cfg.latent_dim)
        )
        self._brand_tier = np.clip(
            rng_rest.normal(0.5, 0.22, size=cfg.n_brands), 0.0, 1.0
        )

        self._generate_user_groups(rng_groups)
        (
            self.restaurants,
            self.restaurant_attractiveness,
            self._restaurant_zone,
        ) = self._generate_restaurants(rng_rest, cfg.n_restaurants, with_stats=True)
        (
            self.new_restaurants,
            self.new_restaurant_attractiveness,
            self.new_restaurant_zone,
        ) = self._generate_restaurants(rng_new, cfg.n_new_restaurants, with_stats=False)

        self.schema = self._build_schema()
        self.samples = self._generate_samples(rng_samples)

    # ------------------------------------------------------------------
    def _generate_user_groups(self, rng: np.random.Generator) -> None:
        cfg = self.config
        taste = rng.normal(0.0, 1.0, size=(cfg.n_zones, cfg.latent_dim))
        self.group_taste = taste
        n_proxies = min(3, cfg.latent_dim)
        columns: Dict[str, np.ndarray] = {
            "group_zone": np.arange(cfg.n_zones, dtype=np.int64),
            "group_city_tier": rng.integers(0, 4, size=cfg.n_zones),
            "group_density": standardize(rng.gamma(3.0, 1.0, size=cfg.n_zones)),
            "group_income": standardize(rng.normal(size=cfg.n_zones)),
        }
        for proxy_index in range(n_proxies):
            columns[f"group_taste_proxy_{proxy_index}"] = standardize(
                noisy(taste[:, proxy_index], 0.3, rng)
            )
        self.user_groups = FeatureTable(columns)
        self._n_group_proxies = n_proxies

    # ------------------------------------------------------------------
    def _generate_restaurants(
        self,
        rng: np.random.Generator,
        count: int,
        with_stats: bool,
    ) -> Tuple[FeatureTable, np.ndarray, np.ndarray]:
        cfg = self.config
        zone = rng.integers(0, cfg.n_zones, size=count)
        brand = rng.integers(0, cfg.n_brands, size=count)
        theme = rng.integers(0, cfg.n_themes, size=count)
        cuisine = rng.integers(0, cfg.n_cuisines, size=count)

        avg_price = rng.lognormal(mean=3.0, sigma=0.4, size=count)
        photo_quality = np.clip(rng.beta(3, 2, size=count), 0, 1)
        menu_breadth = np.clip(rng.gamma(3.0, 4.0, size=count), 3, None)
        n_similar = rng.poisson(8.0, size=count).astype(np.float64)
        brand_tier = self._brand_tier[brand]

        # Taste match between the restaurant's cuisine and its zone's taste.
        taste_match = np.einsum(
            "ij,ij->i",
            self._cuisine_latents[cuisine],
            self.group_taste[zone],
        ) / np.sqrt(cfg.latent_dim)

        price_fit = -((np.log(avg_price) - 3.0) ** 2)
        competition = -np.log1p(n_similar) * 0.4

        # Brand tier is *not* an observable column: as on the real platform,
        # brand strength is only reachable through the brand id, which
        # favours embedding models over salient-feature heuristics.
        attractiveness_raw = (
            2.4 * brand_tier * photo_quality
            + 0.9 * taste_match
            + 0.8 * price_fit
            + competition
            + 0.3 * np.log1p(menu_breadth) * brand_tier
            + rng.normal(0.0, 0.12, size=count)
        )
        attractiveness = standardize(attractiveness_raw)

        columns: Dict[str, np.ndarray] = {
            "rest_brand": brand,
            "rest_theme": theme,
            "rest_cuisine": cuisine,
            "rest_zone_id": zone,
            "rest_avg_price": standardize(noisy(np.log(avg_price), cfg.profile_noise, rng)),
            "rest_photo_quality": noisy(photo_quality, cfg.profile_noise, rng),
            "rest_menu_breadth": standardize(
                noisy(np.log(menu_breadth), cfg.profile_noise, rng)
            ),
            "rest_n_similar_nearby": standardize(
                noisy(np.log1p(n_similar), cfg.profile_noise, rng)
            ),
        }

        if with_stats:
            columns.update(
                {
                    "stat_overall_vppv": standardize(
                        noisy(self._vppv_mean(attractiveness), cfg.stat_noise, rng)
                    ),
                    "stat_overall_log_gmv": standardize(
                        noisy(self._log_gmv_mean(attractiveness), cfg.stat_noise, rng)
                    ),
                    "stat_overall_ctr": standardize(
                        noisy(sigmoid(attractiveness), cfg.stat_noise, rng)
                    ),
                }
            )
        else:
            columns.update(
                {
                    "stat_overall_vppv": np.zeros(count),
                    "stat_overall_log_gmv": np.zeros(count),
                    "stat_overall_ctr": np.zeros(count),
                }
            )
        return FeatureTable(columns), attractiveness, zone

    # ------------------------------------------------------------------
    def _vppv_mean(self, attractiveness: np.ndarray) -> np.ndarray:
        cfg = self.config
        return cfg.vppv_base + cfg.vppv_spread * np.tanh(attractiveness)

    def _log_gmv_mean(self, attractiveness: np.ndarray) -> np.ndarray:
        cfg = self.config
        return cfg.gmv_log_mean + cfg.gmv_log_spread * np.tanh(attractiveness * 0.8)

    def labels_for(
        self,
        attractiveness: np.ndarray,
        zone: np.ndarray,
        group_zone: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ground-truth (vppv, log_gmv) labels for restaurant/group pairs.

        A group in the restaurant's own zone responds according to the
        restaurant's attractiveness; distant groups respond less (delivery
        radius), modelled as a match discount.
        """
        cfg = self.config
        zone_match = np.where(zone == group_zone, 0.0, -0.6)
        effective = attractiveness + zone_match
        vppv = self._vppv_mean(effective) + rng.normal(
            0.0, cfg.label_noise, size=effective.shape
        )
        log_gmv = self._log_gmv_mean(effective) + rng.normal(
            0.0, cfg.label_noise * 14, size=effective.shape
        )
        return np.clip(vppv, 0.0, None), np.clip(log_gmv, 0.0, None)

    # ------------------------------------------------------------------
    def _build_schema(self) -> FeatureSchema:
        cfg = self.config
        categorical = [
            CategoricalFeature("group_zone", cfg.n_zones, 8, GROUP_USER),
            CategoricalFeature("group_city_tier", 4, 3, GROUP_USER),
            CategoricalFeature("rest_brand", cfg.n_brands, 8, GROUP_ITEM_PROFILE),
            CategoricalFeature("rest_theme", cfg.n_themes, 4, GROUP_ITEM_PROFILE),
            CategoricalFeature("rest_cuisine", cfg.n_cuisines, 6, GROUP_ITEM_PROFILE),
            CategoricalFeature("rest_zone_id", cfg.n_zones, 8, GROUP_ITEM_PROFILE),
        ]
        numeric = [
            NumericFeature("group_density", GROUP_USER),
            NumericFeature("group_income", GROUP_USER),
            *[
                NumericFeature(f"group_taste_proxy_{i}", GROUP_USER)
                for i in range(self._n_group_proxies)
            ],
            NumericFeature("rest_avg_price", GROUP_ITEM_PROFILE),
            NumericFeature("rest_photo_quality", GROUP_ITEM_PROFILE),
            NumericFeature("rest_menu_breadth", GROUP_ITEM_PROFILE),
            NumericFeature("rest_n_similar_nearby", GROUP_ITEM_PROFILE),
            NumericFeature("stat_overall_vppv", GROUP_ITEM_STAT),
            NumericFeature("stat_overall_log_gmv", GROUP_ITEM_STAT),
            NumericFeature("stat_overall_ctr", GROUP_ITEM_STAT),
        ]
        return FeatureSchema(categorical, numeric)

    # ------------------------------------------------------------------
    def _generate_samples(self, rng: np.random.Generator) -> InteractionDataset:
        cfg = self.config
        n_samples = cfg.n_restaurants * cfg.samples_per_restaurant
        restaurant_idx = np.repeat(
            np.arange(cfg.n_restaurants), cfg.samples_per_restaurant
        )
        # Bias sampled groups toward the restaurant's own zone.
        own_zone = self._restaurant_zone[restaurant_idx]
        random_zone = rng.integers(0, cfg.n_zones, size=n_samples)
        use_own = rng.random(n_samples) < 0.6
        group_idx = np.where(use_own, own_zone, random_zone)

        vppv, log_gmv = self.labels_for(
            self.restaurant_attractiveness[restaurant_idx],
            own_zone,
            group_idx,
            rng,
        )

        group_names = self.schema.feature_names(GROUP_USER)
        restaurant_names = self.schema.feature_names(GROUP_ITEM_PROFILE, GROUP_ITEM_STAT)
        sides = [
            Side(FeatureTable(self.user_groups.select(group_names)), group_idx),
            Side(FeatureTable(self.restaurants.select(restaurant_names)), restaurant_idx),
        ]
        return InteractionDataset(self.schema, sides, {"vppv": vppv, "gmv": log_gmv})

    # ------------------------------------------------------------------
    def realized_outcomes(
        self, selected: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Realised 30-day (VpPV, raw GMV) for recruited new restaurants.

        Used by the Table V online simulation: whoever recruits restaurants
        observes their actual first-month performance.
        """
        selected = np.asarray(selected)
        attractiveness = self.new_restaurant_attractiveness[selected]
        cfg = self.config
        vppv = self._vppv_mean(attractiveness) + rng.normal(
            0.0, cfg.label_noise, size=attractiveness.shape
        )
        log_gmv = self._log_gmv_mean(attractiveness) + rng.normal(
            0.0, cfg.label_noise * 14, size=attractiveness.shape
        )
        return np.clip(vppv, 0.0, None), np.expm1(np.clip(log_gmv, 0.0, None))


def generate_eleme_world(config: Optional[ElemeConfig] = None) -> ElemeWorld:
    """Build an :class:`ElemeWorld` (default config when none is given)."""
    return ElemeWorld(config if config is not None else ElemeConfig())
