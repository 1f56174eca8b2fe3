"""Non-learning seed selectors: Random, High Degree, Simple-PageRank, and
the parity variants that keep seed-set community proportions close to the
population's.

All five share one budget fill over groups of nodes: one group of every node
for the first three, the communities for the parity variants. Each pick goes
to the group whose next affordable node (by descending score, ties to the
lowest id) leaves the L1 distance between the picks' group shares and the
groups' shares of all nodes smallest; ties go to the higher score, then the
lower node id. With k_i of T picks (this one included) from group G_i of n
nodes, n*T times that distance is the integer sum_i |k_i*n - |G_i|*T|, so
it is compared exactly. With one group the fill is a greedy pass down the
ranking that takes whatever still fits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .diffusion import SeedSet
from .graph import CommunityPartition, Graph, NodeAttrs

# PageRank power iteration: damping, L1 convergence tolerance, iteration cap
DAMPING = 0.85
TOL = 1e-8
MAX_ITER = 200


def _ranking(scores: np.ndarray) -> np.ndarray:
    """Indices of `scores` by descending score, ties to the lowest index."""
    return np.lexsort((np.arange(len(scores)), -scores))


def _fill(scores: np.ndarray, groups, attrs: NodeAttrs,
          budget: float) -> SeedSet:
    """The module's budget fill; `groups` are disjoint ascending node-id
    arrays that cover the graph."""
    cost, score = attrs.cost.tolist(), scores.tolist()
    sizes = [len(members) for members in groups]
    n = sum(sizes)
    # each group's ranking, best last; members are ascending, so ties still
    # go to the lowest node id
    queues = [members[_ranking(scores[members])][::-1].tolist()
              for members in groups]
    counts = [0] * len(groups)
    chosen: list[int] = []
    remaining = budget
    while True:
        for queue in queues:
            while queue and cost[queue[-1]] > remaining:
                queue.pop()  # the budget only shrinks: dropped for good
        gaps = [k * n - size * (len(chosen) + 1)
                for k, size in zip(counts, sizes)]
        l1 = sum(map(abs, gaps))
        picks = [(l1 - abs(gaps[i]) + abs(gaps[i] + n), -score[q[-1]], q[-1], i)
                 for i, q in enumerate(queues) if q]  # (n*T*L1, -score, id, i)
        if not picks:
            return SeedSet.build(chosen, attrs)
        *_, v, i = min(picks)
        chosen.append(queues[i].pop())
        counts[i] += 1
        remaining -= cost[v]


def random_seeds(g: Graph, attrs: NodeAttrs, budget: float,
                 rng: np.random.Generator) -> SeedSet:
    """Uniformly shuffled order, greedy budget fill."""
    place = np.empty(g.n)
    place[rng.permutation(g.n)] = np.arange(g.n)
    return _fill(-place, [np.arange(g.n)], attrs, budget)


def high_degree_seeds(g: Graph, attrs: NodeAttrs, budget: float) -> SeedSet:
    return _fill(g.out_degree(), [np.arange(g.n)], attrs, budget)


def pagerank(g: Graph) -> np.ndarray:
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
    return rank


def pagerank_seeds(g: Graph, attrs: NodeAttrs, budget: float,
                   scores: np.ndarray | None = None) -> SeedSet:
    if scores is None:  # the caller may pass pagerank(g), computed once
        scores = pagerank(g)
    return _fill(scores, [np.arange(g.n)], attrs, budget)


def parity_seeds(g: Graph, attrs: NodeAttrs, parts: CommunityPartition,
                 budget: float) -> SeedSet:
    return _fill(g.out_degree(), parts.members, attrs, budget)


def fair_pagerank_seeds(g: Graph, attrs: NodeAttrs, parts: CommunityPartition,
                        budget: float, scores: np.ndarray | None = None
                        ) -> SeedSet:
    if scores is None:  # the caller may pass pagerank(g), computed once
        scores = pagerank(g)
    return _fill(scores, parts.members, attrs, budget)
