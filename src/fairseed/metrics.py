"""Profit and community fairness: the shaped return of one rollout, used by
training, and the Monte Carlo evaluation of a seed set."""

from __future__ import annotations

from dataclasses import dataclass
from operator import truediv

import numpy as np

from .diffusion import LiveArcs, SeedSet, rollout_masks
from .graph import CommunityPartition, Graph, NodeAttrs


@dataclass(frozen=True)
class FairnessConfig:
    # reported pass/fail cutoff only, in [0, 1]: tau_ok tests
    # min_c E[ratio_c] >= threshold, the bound on every community
    threshold: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("fairness threshold must lie in [0, 1]")


@dataclass(frozen=True)
class MetricReport:
    profit: float
    benefit: float
    cost: float
    community_ratios: tuple[float, ...]  # E[ratio_c] for each community c
    fairness: float                      # E[min_c ratio_c]
    # min(community_ratios) >= threshold: "each community realizes at least
    # a minimum fraction of its total benefit", in expectation
    tau_ok: bool


def community_ratios(masks: np.ndarray, parts: CommunityPartition) -> np.ndarray:
    """Community benefit ratios of reached masks: (n,) -> (C,), (R, n) -> (R, C).

    ratio_c is the benefit that community c's reached members realize over
    the total benefit of c. Its minimum over c is the maximin fairness of
    one rollout, the per-community criterion of group-fair influence
    maximization (Tsang et al., IJCAI 2019). Apart from the exact oracle in
    `diffusion` and shaped_return, which divides one rollout's running
    community totals by the same `parts.total_benefit`, this is the one
    place that computes the ratios. An (R, n) argument may have any layout:
    evaluate_seed_set passes the transposed view of a node-major (n, R)
    float cast.
    """
    return (masks @ parts.weights) / parts.total_benefit


def shaped_return(earned: float, community_earned, parts: CommunityPartition,
                  cost: float, weight: float) -> float:
    """Shaped return of one rollout: its earned benefit, minus the seed
    cost, plus weight * its maximin fairness min_c ratio_c, from the
    rollout's totals: `earned` is the benefit of its reached nodes and
    `community_earned[c]` the part of it that community c's members earn.

    Training keeps those totals for the episode's one live-arc realization,
    adding each node as the cascade first reaches it, and evaluates this
    after each step, so the difference of consecutive returns is the step's
    exact increment under that realization. Its expectation over
    realizations is exact_expected_shaped_objective of the seed set.
    """
    if weight < 0:
        raise ValueError("fairness weight must be nonnegative")
    fairness = min(map(truediv, community_earned,
                       parts.total_benefit.tolist()))
    return earned - cost + weight * fairness


def evaluate_seed_set(g: Graph, attrs: NodeAttrs, parts: CommunityPartition,
                      s: SeedSet, live: LiveArcs, cfg: FairnessConfig
                      ) -> tuple[MetricReport, np.ndarray, np.ndarray]:
    """Monte Carlo evaluation over the rollouts whose live arcs `live` holds.

    `live` is the packed draw of diffusion.live_arcs and is only read, so
    seed sets evaluated on one draw are compared under common random numbers.

    Returns the aggregate report plus per-rollout profits and per-rollout
    fairness min_c ratio_c. The report's `fairness` is E[min_c ratio_c],
    the mean over rollouts of the per-rollout minimum; its
    `community_ratios` holds E[ratio_c] for each community, whose minimum
    min_c E[ratio_c] is never smaller. `tau_ok` tests that minimum against
    the threshold, the per-community bound of the paper's abstract: "each
    community realizes at least a minimum fraction of its total benefit".
    """
    cost = s.total_cost
    profits, ratios = [], []
    for masks in rollout_masks(g, s, live):
        reached = masks.T.astype(np.float64)  # (n, R), made once
        profits.append(attrs.benefit @ reached - cost)
        ratios.append(community_ratios(reached.T, parts))
        del reached  # freed before the next chunk is unpacked
    profits, ratios = np.concatenate(profits), np.concatenate(ratios)
    fairs = ratios.min(axis=1)
    means = tuple(ratios.mean(axis=0))
    report = MetricReport(
        profit=float(profits.mean()),
        benefit=float(profits.mean() + cost),
        cost=cost,
        community_ratios=means,
        fairness=float(fairs.mean()),
        tau_ok=bool(min(means) >= cfg.threshold),
    )
    return report, profits, fairs
