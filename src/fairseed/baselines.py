"""Non-learning seed selectors: Random, High Degree, Simple-PageRank, and
the parity variants that keep seed-set community proportions close to the
population's.

All selectors fill the budget greedily with skip: pass over a ranking and
take whatever still fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .diffusion import SeedSet
from .graph import CommunityPartition, Graph, NodeAttrs

# PageRank power iteration: damping, L1 convergence tolerance, iteration cap
DAMPING = 0.85
TOL = 1e-8
MAX_ITER = 200


@dataclass(frozen=True)
class ScoreTable:
    scores: np.ndarray
    order: np.ndarray  # node ids by descending score, ties by ascending id

    @classmethod
    def from_scores(cls, scores: np.ndarray) -> "ScoreTable":
        order = np.lexsort((np.arange(len(scores)), -scores))
        return cls(scores=scores, order=order)


def _greedy_fill(order, cost: np.ndarray, budget: float) -> list[int]:
    chosen = []
    remaining = budget
    for v in order:
        if cost[v] <= remaining:
            chosen.append(int(v))
            remaining -= cost[v]
    return chosen


def random_seeds(g: Graph, attrs: NodeAttrs, budget: float,
                 rng: np.random.Generator) -> SeedSet:
    """Uniformly shuffled order, greedy budget fill."""
    return SeedSet.build(_greedy_fill(rng.permutation(g.n), attrs.cost, budget),
                         attrs)


def high_degree_seeds(g: Graph, attrs: NodeAttrs, budget: float) -> SeedSet:
    table = ScoreTable.from_scores(g.out_degree().astype(float))
    return SeedSet.build(_greedy_fill(table.order, attrs.cost, budget), attrs)


def pagerank(g: Graph) -> ScoreTable:
    """Power iteration with uniform teleport; dangling mass spread uniformly."""
    n = g.n
    outdeg = g.out_degree().astype(float)
    src, dst, _ = g.arc_arrays()
    weights = 1.0 / outdeg[src]
    # column u of M holds u's outgoing transition probabilities
    transition = sp.csr_matrix((weights, (dst, src)), shape=(n, n))
    dangling = outdeg == 0
    rank = np.full(n, 1.0 / n)
    teleport = (1.0 - DAMPING) / n
    for _ in range(MAX_ITER):
        nxt = DAMPING * (transition @ rank + rank[dangling].sum() / n) + teleport
        if np.abs(nxt - rank).sum() < TOL:
            rank = nxt
            break
        rank = nxt
    return ScoreTable.from_scores(rank)


def pagerank_seeds(g: Graph, attrs: NodeAttrs, budget: float,
                   table: ScoreTable | None = None) -> SeedSet:
    if table is None:  # the caller may pass pagerank(g), computed once
        table = pagerank(g)
    return SeedSet.build(_greedy_fill(table.order, attrs.cost, budget), attrs)


def _parity_fill(scores: np.ndarray, g: Graph, attrs: NodeAttrs,
                 parts: CommunityPartition, budget: float) -> SeedSet:
    """Interleave per-community rankings so seed-set community proportions
    track population proportions (L1-closest after every pick); unaffordable
    nodes are skipped within each community's ranking."""
    n = g.n
    pop = np.array([len(m) for m in parts.members], dtype=float) / n
    rankings = []
    for members in parts.members:
        order = np.lexsort((members, -scores[members]))
        rankings.append(list(members[order]))
    pointers = [0] * parts.count
    counts = np.zeros(parts.count)
    chosen: list[int] = []
    remaining = budget

    def next_affordable(c: int) -> int | None:
        # budget only shrinks, so skipped nodes stay skipped
        while pointers[c] < len(rankings[c]):
            v = rankings[c][pointers[c]]
            if attrs.cost[v] <= remaining:
                return int(v)
            pointers[c] += 1
        return None

    while True:
        best = None  # (l1, -score, node id, community)
        for c in range(parts.count):
            v = next_affordable(c)
            if v is None:
                continue
            trial = counts.copy()
            trial[c] += 1
            l1 = np.abs(trial / trial.sum() - pop).sum()
            key = (l1, -scores[v], v)
            if best is None or key < best[0]:
                best = (key, v, c)
        if best is None:
            break
        _, v, c = best
        chosen.append(v)
        counts[c] += 1
        remaining -= attrs.cost[v]
        pointers[c] += 1
    return SeedSet.build(chosen, attrs)


def parity_seeds(g: Graph, attrs: NodeAttrs, parts: CommunityPartition,
                 budget: float) -> SeedSet:
    return _parity_fill(g.out_degree().astype(float), g, attrs, parts, budget)


def fair_pagerank_seeds(g: Graph, attrs: NodeAttrs, parts: CommunityPartition,
                        budget: float, table: ScoreTable | None = None) -> SeedSet:
    if table is None:  # the caller may pass pagerank(g), computed once
        table = pagerank(g)
    return _parity_fill(table.scores, g, attrs, parts, budget)
