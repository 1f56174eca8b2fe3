"""Independent Cascade simulation and exact small-graph oracles.

Under IC each arc is tried at most once, so a rollout is one draw of live
arcs followed by reachability from the seeds (the live-edge equivalence of
Kempe, Kleinberg and Tardos, 2003). Every rollout draws one uniform per arc,
in CSR order, and arc a is live when its uniform is below probs[a].
live_arcs draws m rollouts from the Philox lanes of one seed, makes that
compare on one byte digit per trial, reading more bits only on a tie, and
packs the result 64 rollouts to a uint64 word, m * E / 8 bytes that every
seed set evaluated under common random numbers can share; its docstring
gives the stream layout, the compare and its probability
ceil(p * 2**61) / 2**61 against the exact oracles' p, the chunks and the
packing. `_reach` pushes a cascade through those words for 64 rollouts at
once, with bitwise AND and OR; rollout_masks unpacks its result
node-major, one (n, R) bool block per chunk, and yields each block's
(R, n) transposed view.
estimate_spread_and_benefit, like metrics.evaluate_seed_set, sums each
rollout on the node-major block and averages the sums. Training instead
grows one rollout's reached mask a seed at a time: live_arc_lists turns the
rollout's bool live-arc row into Python CSR lists once, and simulate_ic
extends the mask in place by a stack search over them that stops at nodes
already reached and reports the nodes it newly reached, so an episode
expands, and earns the benefit of, each node at most once.
The exact_* functions enumerate every live-arc realization (feasible up to
20 arcs) and serve as test oracles for the Monte Carlo path.
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

    def __len__(self) -> int:
        return len(self.nodes)


# Size of one chunk of rollouts, in matrix entries: rollout_masks yields
# (R, n) reached masks of CHUNK_ENTRIES // max(E, n) rows. Evaluation sums
# each rollout of a chunk with one vector-matrix product over the chunk's
# node-major (n, R) cast, whose rounding can depend on the rollout's place
# in its chunk, so that row count is part of the reported results.
# live_arcs sizes its chunks of 64-rollout blocks from it too, as bytes of
# working memory (see there).
CHUNK_ENTRIES = 1 << 20
WORD_BITS = 64
WORD = np.dtype("<u8")  # little-endian: byte k holds rollouts 8k..8k+7


def _chunk_rows(g: Graph) -> int:
    return max(1, CHUNK_ENTRIES // max(g.num_arcs, g.n, 1))


@dataclass(frozen=True)
class LiveArcs:
    """Live arcs of m rollouts, 64 rollouts per machine word.

    `words` is a read-only (E, ceil(m/64)) uint64 array: bit j of
    words[a, w] is arc a's state in rollout 64w + j. Bits of rollouts m and
    up are 0, and `m` says where the rollouts end.
    """

    words: np.ndarray
    m: int


def _reach(g: Graph, seeds, live: np.ndarray) -> np.ndarray:
    """Live-arc cascade kernel: the reach of the node ids `seeds` on the
    live-arc words of E arcs, as the reached words of the n nodes.

    `live` is (E, W) uint64 words, 64 rollouts each, and the result (n, W)
    words of the same dtype. Reachability is pushed from the frontier only,
    as (node, delta word) rows: each level gathers the CSR out-arcs of the
    frontier nodes, ANDs their live words with the source's delta and with
    the bits not yet reached at the destination, drops all-zero rows, ORs
    together the rows of a destination that several arcs reach and ORs the
    result into the reached words.
    """
    reached = np.zeros((g.n, live.shape[1]), dtype=live.dtype)
    node = np.asarray(seeds, dtype=np.int64)
    delta = ~reached[node]  # a seed is reached in every rollout
    reached[node] |= delta
    indptr, indices, degree = g.indptr, g.indices, g.out_degree()
    owner = np.empty(g.n, dtype=np.int64)
    while node.size:
        counts = degree[node]
        ends = np.cumsum(counts)
        if not ends[-1]:
            break
        # every out-arc of the frontier nodes, with its source's delta
        arc = np.arange(ends[-1]) + np.repeat(indptr[node] - ends + counts,
                                              counts)
        node = indices[arc]
        delta = live[arc] & np.repeat(delta, counts, axis=0) & ~reached[node]
        keep = delta.any(axis=1)
        node, delta = node[keep], delta[keep]
        # one row per destination; a repeated one ORs its rows together
        order = np.arange(node.size)
        owner[node] = order
        rep = owner[node]
        last = rep == order
        if np.count_nonzero(last) < node.size:
            dup = ~last
            np.bitwise_or.at(delta, rep[dup], delta[dup])
            node, delta = node[last], delta[last]
        reached[node] |= delta
    return reached


def live_arc_lists(g: Graph, live: np.ndarray) -> tuple[list, list]:
    """One rollout's live arcs as Python CSR lists (indptr, targets): the
    live out-arcs of node v lead to targets[indptr[v]:indptr[v + 1]], in
    CSR order. `live` is the rollout's (E,) bool live-arc row."""
    indptr = np.concatenate(([0], np.cumsum(live)))[g.indptr]
    return indptr.tolist(), g.indices[live].tolist()


def simulate_ic(arcs: tuple[list, list], reached: np.ndarray,
                seeds) -> list[int]:
    """Grow one rollout's reached mask from new seeds, in place.

    `arcs` is the rollout's live_arc_lists, and `reached` the (n,) bool
    mask already reached on those same live arcs (all False for a fresh
    rollout). The search stops at reached nodes, so `reached` must have been
    grown on these arcs: a mask from other arcs gives a wrong result.
    Afterwards `reached` holds the reach of the old seeds and `seeds`
    together. Returns the nodes it newly reached, each once, in the order
    reached: an episode that grows one mask seed by seed is told of each
    node once, and expands each node once.
    """
    indptr, targets = arcs
    new = []
    stack = list(seeds)
    while stack:
        v = stack.pop()
        if not reached[v]:
            reached[v] = True
            new.append(v)
            stack.extend(targets[indptr[v]:indptr[v + 1]])
    return new


def live_arcs(g: Graph, m: int, seed: int) -> LiveArcs:
    """Live arcs of rollouts 0..m-1, packed 64 rollouts per uint64 word.

    Rollouts go in blocks of 64 on the Philox lanes keyed by `seed`
    (seeding.RolloutStreams), each read from its start; byte k of a lane is
    byte k % 8, little-endian, of its raw word k // 8. On a graph with E
    arcs, block b is bytes [64*E*b, 64*E*(b+1)) of lane 0 as an arc-major
    (E, 64) array: byte 64*E*b + 64*a + j is arc a's digit d in rollout
    64*b + j. The trial compares U = (d + u') / 256, where u' is uniform on
    [0, 1) and read only on a tie, with p = g.probs[a] digit by digit
    (Knuth and Yao, 1976). With F = min(floor(256 p), 255) and
    f = 256 p - F, both exact, d < F makes the arc live and d > F dead. A
    tie, d == F, one trial in 256, reads a raw word x of lane 1, the k-th
    tie in lane-0 byte order taking word k, and is live when
    x >> 11 < ceil(f * 2**53). So the arc is live when U < p for the 61-bit
    uniform U, with probability ceil(p * 2**61) / 2**61, which is p itself
    for p = 0, p = 1 and every multiple of 2**-61 (the exact oracle uses p).
    Rollout i's bits depend on its place alone, not on the chunking or m;
    each call opens its own lanes and shares no generator state.

    A chunk is whole 64-rollout blocks, as many as keep its digit bytes, its
    bool block and its tie mask (three bytes per trial) within
    CHUNK_ENTRIES bytes, and at least one. Its digits are one contiguous run
    of lane-0 words, filled by a single random_raw call; each (E, 64) block
    is compared with the arcs' limits and packed by np.packbits into its
    word column, and the bits of rollouts m and up are zeroed. Raises
    ValueError naming the first arc whose probability is NaN or outside
    [0, 1].
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    probs = g.probs
    # "not all valid" rather than "any invalid": NaN fails every comparison
    bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))
    if bad.size:
        a = int(bad[0])
        src, dst, _ = g.arc_arrays()
        raise ValueError(f"arc {a} ({src[a]} -> {dst[a]}) has probability "
                         f"{probs[a]!r}, outside [0, 1]")
    # both lanes are read in order from their start, chunk after chunk
    streams = RolloutStreams(seed)
    digits, tie_words = streams.at(), streams.at(lane=1)
    arcs, words = g.num_arcs, -(-m // WORD_BITS)
    step = min(words, max(1, CHUNK_ENTRIES // (3 * WORD_BITS * max(arcs, 1))))
    scaled = probs * 256.0
    limit = np.minimum(np.floor(scaled), 255.0)
    refine = np.ceil((scaled - limit) * 2.0 ** 53).astype(np.uint64)
    limit = limit.astype(np.uint8)[:, None]
    packed = np.zeros((arcs, words), dtype=WORD)
    for lo in range(0, words, step):
        blocks = min(step, words - lo)
        drawn = digits.random_raw(blocks * arcs * 8).astype(
            WORD, copy=False).view(np.uint8).reshape(blocks, arcs, WORD_BITS)
        live = drawn < limit
        tie = np.flatnonzero(drawn == limit)  # in stream order
        del drawn
        if tie.size:
            x = tie_words.random_raw(tie.size)
            live.flat[tie] = (x >> 11) < refine[tie // WORD_BITS % arcs]
        packed[:, lo:lo + blocks] = np.packbits(
            live, axis=2, bitorder="little").view(WORD)[:, :, 0].T
    if m % WORD_BITS:
        packed[:, -1] &= np.uint64((1 << m % WORD_BITS) - 1)
    packed.flags.writeable = False
    return LiveArcs(words=packed, m=m)


def rollout_masks(g: Graph, s: SeedSet, live: LiveArcs):
    """Reached masks of the rollouts whose live arcs `live_arcs` drew,
    yielded in order as (R, n) bool chunks, m rows in all.

    The kernel reaches all m rollouts at once, on the packed words; each
    chunk unpacks the bits of its rows only, node-major, and is yielded as
    the transposed view of that (n, R) block, without a copy: `masks.T` is
    the node-major block, on which the estimators sum each rollout.
    """
    octets = _reach(g, s.nodes, live.words).view(np.uint8)
    step = _chunk_rows(g)
    for lo in range(0, live.m, step):
        hi = min(lo + step, live.m)
        first = lo // 8
        bits = np.unpackbits(octets[:, first:-(-hi // 8)], axis=1,
                             bitorder="little").view(bool)
        yield bits[:, lo - 8 * first:hi - 8 * first].T


def estimate_spread_and_benefit(g: Graph, attrs: NodeAttrs, s: SeedSet,
                                m: int, seed: int
                                ) -> tuple[float, float, np.ndarray]:
    """Monte Carlo means of spread and earned benefit over m rollouts.

    Returns (mean spread, mean benefit, per-rollout benefits); the mean
    spread is the count of reached bits over m. Rollout i always reads the
    same trials of the streams keyed by `seed`, whatever m (see live_arcs),
    and an arc of probability p is live in it with probability
    ceil(p * 2**61) / 2**61, where the exact oracles use p.
    """
    reached, benefits = 0, []
    for masks in rollout_masks(g, s, live_arcs(g, m, seed)):
        reached += np.count_nonzero(masks)
        benefits.append(attrs.benefit @ masks.T.astype(np.float64))
    benefits = np.concatenate(benefits)
    return float(reached / m), float(benefits.mean()), benefits


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
    """Exact E[benefit] - cost + weight * E[min-community benefit ratio].

    Like metrics.shaped_return, whose expectation over live-arc
    realizations it is, it rejects a negative weight."""
    if weight < 0:
        raise ValueError("fairness weight must be nonnegative")
    prob, reach = _enumerate_reach(g, s)
    reached_bit = np.stack([(reach >> v) & 1 for v in range(g.n)])  # (n, 2^E)
    expected_benefit = float(attrs.benefit @ reached_bit @ prob)
    ratios = np.stack([
        (attrs.benefit[m] @ reached_bit[m]) / t
        for m, t in zip(parts.members, parts.total_benefit)
    ])
    expected_fairness = float(ratios.min(axis=0) @ prob)
    return expected_benefit - s.total_cost + weight * expected_fairness
