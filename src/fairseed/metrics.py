"""Cost, benefit, profit, community benefit ratios, maximin fairness, and
the single-rollout shaped reward used by training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import InfluencedSet, SeedSet, rollout_masks, simulate_ic
from .graph import CommunityPartition, Graph, NodeAttrs


@dataclass(frozen=True)
class FairnessConfig:
    weight: float = 1.0     # reward-shaping multiplier, >= 0
    threshold: float = 0.0  # reported pass/fail cutoff only, in [0, 1]

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("fairness weight must be nonnegative")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("fairness threshold must lie in [0, 1]")


@dataclass(frozen=True)
class MetricReport:
    profit: float
    benefit: float
    cost: float
    community_ratios: tuple[float, ...]
    fairness: float
    tau_ok: bool


def earned_benefit(influenced: InfluencedSet, attrs: NodeAttrs) -> float:
    return float(attrs.benefit[influenced.mask].sum())


def community_benefit_ratio(community_index: int, influenced: InfluencedSet,
                            attrs: NodeAttrs, parts: CommunityPartition) -> float:
    members = parts.members[community_index]
    realized = attrs.benefit[members[influenced.mask[members]]].sum()
    return float(realized / parts.total_benefit[community_index])


def maximin_fairness(influenced: InfluencedSet, attrs: NodeAttrs,
                     parts: CommunityPartition) -> float:
    return min(
        community_benefit_ratio(i, influenced, attrs, parts)
        for i in range(parts.count)
    )


def shaped_reward(g: Graph, attrs: NodeAttrs, parts: CommunityPartition,
                  s: SeedSet, weight: float, rng: np.random.Generator) -> float:
    """Single-rollout profit plus weight * single-rollout maximin fairness.

    Profit and fairness come from the same rollout; the per-step sampling
    noise is absorbed by replay averaging downstream.
    """
    if weight < 0:
        raise ValueError("fairness weight must be nonnegative")
    influenced = simulate_ic(g, s, rng)
    profit = earned_benefit(influenced, attrs) - s.total_cost
    return profit + weight * maximin_fairness(influenced, attrs, parts)


def marginal_reward(r_t: float, r_prev: float) -> float:
    """Step reward as the increment of the shaped return; may be negative."""
    return r_t - r_prev


def evaluate_seed_set(g: Graph, attrs: NodeAttrs, parts: CommunityPartition,
                      s: SeedSet, m: int, seed: int, cfg: FairnessConfig
                      ) -> tuple[MetricReport, np.ndarray, np.ndarray]:
    """Monte Carlo evaluation over m rollouts on counter-derived streams.

    Returns the aggregate report (mean benefit/profit/fairness; tau flag on
    the fairness mean) plus per-rollout profit and fairness arrays.
    """
    # benefit-weighted community indicator: (masks @ weights)[r, c] is the
    # benefit community c realized in rollout r
    weights = np.zeros((g.n, parts.count))
    for c, members in enumerate(parts.members):
        weights[members, c] = attrs.benefit[members]
    cost = s.total_cost
    profits, ratios = [], []
    for masks in rollout_masks(g, s, m, seed):
        profits.append(masks @ attrs.benefit - cost)
        ratios.append((masks @ weights) / parts.total_benefit)
    profits, ratios = np.concatenate(profits), np.concatenate(ratios)
    fairs = ratios.min(axis=1)
    fairness = float(fairs.mean())
    report = MetricReport(
        profit=float(profits.mean()),
        benefit=float(profits.mean() + cost),
        cost=cost,
        community_ratios=tuple(ratios.mean(axis=0)),
        fairness=fairness,
        tau_ok=fairness >= cfg.threshold,
    )
    return report, profits, fairs
