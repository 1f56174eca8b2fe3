"""Independent Cascade simulation and exact small-graph oracles.

Under IC each arc is tried at most once, so a rollout is one draw of live
arcs followed by reachability from the seeds (the live-edge equivalence of
Kempe, Kleinberg and Tardos, 2003). Every rollout draws one uniform per arc,
in CSR order; arc a is live when its uniform is below probs[a], and `_reach`
turns a batch of live-arc rows into reached masks. simulate_ic extends one
row's reached mask from new seeds, on a live-arc row the caller keeps: a
training episode draws one row and grows its mask one seed at a time, so
each step pays only for the nodes that seed newly reaches. live_arcs draws
m rollouts on the flat layout of `seeding` (rollout i takes draws
[i*E, (i+1)*E) of the one Philox stream keyed by the seed), as read-only
chunks that every seed set evaluated under common random numbers can
share; rollout_masks reaches a seed set through them and
estimate_spread_and_benefit averages the result. The exact_* functions
enumerate every live-arc realization (feasible up to 20 arcs) and serve as
test oracles for the Monte Carlo path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import CommunityPartition, Graph, NodeAttrs
from .seeding import RolloutStreams


@dataclass(frozen=True)
class SeedSet:
    nodes: tuple[int, ...]  # sorted, unique
    total_cost: float

    @classmethod
    def build(cls, nodes, attrs: NodeAttrs) -> "SeedSet":
        ids = tuple(sorted(int(v) for v in nodes))
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate seed node")
        if ids and (ids[0] < 0 or ids[-1] >= len(attrs.cost)):
            raise ValueError("seed node out of range")
        return cls(nodes=ids, total_cost=float(attrs.cost[list(ids)].sum()))

    @classmethod
    def empty(cls) -> "SeedSet":
        return cls(nodes=(), total_cost=0.0)

    def __len__(self) -> int:
        return len(self.nodes)


# Size of one chunk of rollouts, in matrix entries: a chunk has
# CHUNK_ENTRIES // max(E, n) rows, so its (R, E) live-arc matrix and its
# (R, n) reached masks stay near 1M entries each.
CHUNK_ENTRIES = 1 << 20


def _chunk_rows(g: Graph) -> int:
    return max(1, CHUNK_ENTRIES // max(g.num_arcs, g.n, 1))


def _reach(g: Graph, seeds, live: np.ndarray,
           start: np.ndarray | None = None) -> np.ndarray:
    """Live-arc cascade kernel: the reach of the node ids `seeds` on each of
    R rows of (R, E) bool live arcs, as (R, n) reached masks.

    Reachability is pushed from the frontier only: each step gathers the CSR
    out-arcs of the newly reached (rollout, node) pairs and keeps the live
    ones that land on unreached nodes. Pairs and arcs are addressed flat, as
    r * n + node and r * E + arc. `start`, when given, is an (R, n) mask
    that this kernel reached on the same live rows; it is copied, not
    changed, and the push starts from those of `seeds` it lacks, so the
    result is the reach of its seeds and `seeds` together.
    """
    rows, arcs = live.shape
    n = g.n
    seeds = np.asarray(seeds, dtype=np.int64)
    key = (np.arange(rows)[:, None] * n + seeds).ravel()
    if start is None:
        reached = np.zeros(rows * n, dtype=bool)
    else:
        reached = start.reshape(rows * n).copy()
        key = key[~reached[key]]
    if key.size:
        live = live.ravel()
        indptr, indices, degree = g.indptr, g.indices, g.out_degree()
        reached[key] = True
        owner = np.empty(rows * n, dtype=np.int64)
        while key.size:
            r, v = np.divmod(key, n)
            counts = degree[v]
            ends = np.cumsum(counts)
            if not ends[-1]:
                break
            # flat positions of every out-arc of the frontier pairs
            arc = np.arange(ends[-1]) + np.repeat(
                indptr[v] + r * arcs - ends + counts, counts)
            arc = arc[live[arc]]
            r, a = np.divmod(arc, arcs)
            key = r * n + indices[a]
            key = key[~reached[key]]
            # keep one copy of a pair that several frontier arcs reached
            order = np.arange(key.size)
            owner[key] = order
            key = key[owner[key] == order]
            reached[key] = True
    return reached.reshape(rows, n)


def simulate_ic(g: Graph, live: np.ndarray, reached: np.ndarray,
                seeds) -> np.ndarray:
    """Extend one rollout's reached mask from new seeds: the one-row call of
    the live-arc kernel.

    `live` is the rollout's (E,) bool live-arc row, and `reached` the (n,)
    mask already reached on it (all False for a fresh rollout). Returns a new
    mask, the reach of the old seeds and `seeds` together; `reached` is left
    as it was.
    """
    return _reach(g, seeds, live[None], reached[None])[0]


def live_arcs(g: Graph, m: int, seed: int) -> tuple[np.ndarray, ...]:
    """Live arcs of rollouts 0..m-1 as read-only (R, E) bool chunks, in order.

    Rollout i reads draws [i*E, (i+1)*E) of the Philox stream keyed by
    `seed` (E = g.num_arcs), so its row is
    RolloutStreams(seed).at(i * E).random(E) < g.probs whatever the
    chunking. A chunk of rows lo.. is one contiguous run of draws, filled by
    a single call from position lo * E into one float64 buffer that every
    chunk reuses; only the bools are kept, m * E bytes in all.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    streams = RolloutStreams(seed)
    arcs, step = g.num_arcs, _chunk_rows(g)
    buffer = np.empty(min(step, m) * arcs)
    chunks = []
    for lo in range(0, m, step):
        rows = min(step, m - lo)
        uniforms = buffer[:rows * arcs].reshape(rows, arcs)
        streams.at(lo * arcs).random(out=uniforms)
        live = uniforms < g.probs
        live.flags.writeable = False
        chunks.append(live)
    return tuple(chunks)


def rollout_masks(g: Graph, s: SeedSet, live: tuple[np.ndarray, ...]):
    """Reached masks of the rollouts whose live arcs `live_arcs` drew,
    yielded as one (R, n) chunk per live-arc chunk, in order."""
    for chunk in live:
        yield _reach(g, s.nodes, chunk)


def estimate_spread_and_benefit(g: Graph, attrs: NodeAttrs, s: SeedSet,
                                m: int, seed: int
                                ) -> tuple[float, float, np.ndarray]:
    """Monte Carlo means of spread and earned benefit over m rollouts.

    Returns (mean spread, mean benefit, per-rollout benefits). Rollout i
    always reads the same draws of the stream keyed by `seed` (see
    live_arcs), so results do not depend on execution order.
    """
    spreads, benefits = [], []
    for masks in rollout_masks(g, s, live_arcs(g, m, seed)):
        spreads.append(masks.sum(axis=1))
        benefits.append(masks @ attrs.benefit)
    spreads, benefits = np.concatenate(spreads), np.concatenate(benefits)
    return float(spreads.mean()), float(benefits.mean()), benefits


MAX_ORACLE_ARCS = 20


def _enumerate_reach(g: Graph, s: SeedSet) -> tuple[np.ndarray, np.ndarray]:
    """All live-arc realizations: (probability, reached-node bitmask) arrays.

    Each stored arc is an independent trial, which for undirected graphs
    means both directions of an edge are separate trials (matching the
    cascade's independent activation attempts).
    """
    src, dst, p = g.arc_arrays()
    n_arcs = len(src)
    if n_arcs > MAX_ORACLE_ARCS:
        raise ValueError(
            f"exact oracle limited to {MAX_ORACLE_ARCS} arcs, graph has {n_arcs}")
    if g.n > 62:
        raise ValueError("exact oracle limited to 62 nodes")
    subsets = np.arange(1 << n_arcs, dtype=np.int64)
    prob = np.ones(len(subsets))
    live = [(subsets >> a) & 1 for a in range(n_arcs)]
    for a in range(n_arcs):
        prob *= np.where(live[a] == 1, p[a], 1.0 - p[a])
    seed_mask = 0
    for v in s.nodes:
        seed_mask |= 1 << int(v)
    reach = np.full(len(subsets), seed_mask, dtype=np.int64)
    for _ in range(g.n):
        before = reach
        for a in range(n_arcs):
            cond = live[a] & (reach >> int(src[a])) & 1
            reach = reach | (cond << int(dst[a]))
        if np.array_equal(before, reach):
            break
    return prob, reach


def exact_expected_profit(g: Graph, attrs: NodeAttrs, s: SeedSet) -> float:
    """Exact E[benefit(I(S))] - cost(S) by live-arc enumeration."""
    prob, reach = _enumerate_reach(g, s)
    expected_benefit = 0.0
    for v in range(g.n):
        expected_benefit += attrs.benefit[v] * prob[(reach >> v) & 1 == 1].sum()
    return float(expected_benefit - s.total_cost)


def exact_expected_shaped_objective(g: Graph, attrs: NodeAttrs,
                                    parts: CommunityPartition, s: SeedSet,
                                    weight: float) -> float:
    """Exact E[benefit] - cost + weight * E[min-community benefit ratio]."""
    prob, reach = _enumerate_reach(g, s)
    reached_bit = np.stack([(reach >> v) & 1 for v in range(g.n)])  # (n, 2^E)
    expected_benefit = float(attrs.benefit @ reached_bit @ prob)
    ratios = np.stack([
        (attrs.benefit[m] @ reached_bit[m]) / t
        for m, t in zip(parts.members, parts.total_benefit)
    ])
    expected_fairness = float(ratios.min(axis=0) @ prob)
    return expected_benefit - s.total_cost + weight * expected_fairness
