"""Independent computations the benchmark checks fairseed's outputs against.

Nothing here calls fairseed. Both functions read only plain arrays: the CSR
arcs, probabilities, costs, benefits and community labels of an instance.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def exact_profit(n: int, src, dst, probs, benefit, cost, seeds) -> float:
    """E[benefit of reached nodes] - cost(seeds), enumerating live-arc subsets.

    Each subset's reached set is the transitive closure of the seeds over its
    live arcs, taken with batched boolean matrix products (one n x n
    adjacency per subset), which is a different route from fairseed's
    bit-shift fixpoint.
    """
    arcs = len(src)
    subsets = np.arange(1 << arcs)
    live = ((subsets[:, None] >> np.arange(arcs)) & 1).astype(bool)  # (S, E)
    prob = np.prod(np.where(live, probs, 1.0 - np.asarray(probs)), axis=1)
    adj = np.zeros((len(subsets), n, n))
    adj[:, src, dst] = live
    reached = np.zeros((len(subsets), n))
    reached[:, list(seeds)] = 1.0
    for _ in range(n):
        reached = np.minimum(1.0, reached + np.einsum("sn,snm->sm", reached, adj))
    return float(prob @ (reached @ np.asarray(benefit))
                 - np.asarray(cost)[list(seeds)].sum())


def simulate(n: int, src, dst, probs, benefit, labels, cost, seeds, rollouts: int,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-rollout profit and min-community benefit ratio of an IC cascade.

    Every rollout flips each arc live with its probability, from `rng`, and
    a level-synchronous breadth-first search over the live arcs of all
    rollouts at once (one block-diagonal sparse matrix over (rollout, node)
    pairs) finds the reached nodes.
    """
    src, dst = np.asarray(src), np.asarray(dst)
    live = rng.random((rollouts, len(src))) < np.asarray(probs)
    r, a = np.nonzero(live)
    size = rollouts * n
    # row = target pair, column = source pair, so step = adj @ frontier
    adj = sp.csr_matrix((np.ones(len(r)), (r * n + dst[a], r * n + src[a])),
                        shape=(size, size))
    reached = np.zeros(size, dtype=bool)
    reached[(np.arange(rollouts)[:, None] * n + np.asarray(seeds)).ravel()] = True
    frontier = reached.astype(float)
    while frontier.any():
        fresh = (adj @ frontier > 0) & ~reached
        reached |= fresh
        frontier = fresh.astype(float)
    reached = reached.reshape(rollouts, n)
    benefit = np.asarray(benefit, dtype=float)
    profit = reached @ benefit - np.asarray(cost)[list(seeds)].sum()
    ratios = [reached[:, labels == c] @ benefit[labels == c]
              / benefit[labels == c].sum() for c in np.unique(labels)]
    return profit, np.min(ratios, axis=0)
