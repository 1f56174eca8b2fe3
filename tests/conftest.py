import numpy as np
import pytest
from hypothesis import settings

from fairseed import trainer
from fairseed.diffusion import live_arc_lists, simulate_ic
from fairseed.graph import (CommunityPartition, Instance, NodeAttrs,
                            graph_from_edges)
from fairseed.metrics import shaped_return

# `--hypothesis-profile=ci` (the CI tier-1 step): the same examples on every
# run, so a property failure seen in CI reproduces locally with that flag;
# runs without it keep exploring new examples
settings.register_profile("ci", derandomize=True, print_blob=True)


def make_attrs(n, cost=None, benefit=None, labels=None) -> NodeAttrs:
    return NodeAttrs(
        cost=np.asarray(cost if cost is not None else np.ones(n), dtype=float),
        benefit=np.asarray(benefit if benefit is not None else np.ones(n),
                           dtype=float),
        community=np.asarray(labels if labels is not None else np.zeros(n),
                             dtype=np.int64),
    )


def make_instance(name, n, edges, directed=False, cost=None, benefit=None,
                  labels=None) -> Instance:
    g = graph_from_edges(n, edges, directed=directed)
    attrs = make_attrs(n, cost=cost, benefit=benefit, labels=labels)
    parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
    return Instance(id=name, graph=g, attrs=attrs, parts=parts)


def random_tiny_instance(rng, max_nodes=6, max_arcs=10) -> Instance:
    """Random directed graph with <= max_arcs arcs and random attributes."""
    n = int(rng.integers(2, max_nodes + 1))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    k = int(rng.integers(1, min(max_arcs, len(possible)) + 1))
    idx = rng.choice(len(possible), size=k, replace=False)
    edges = [possible[i] + (float(rng.uniform(0.05, 1.0)),) for i in idx]
    labels = rng.integers(0, 2, size=n)
    labels[0] = 0
    labels[-1] = 1  # both communities nonempty
    return make_instance(
        f"tiny-{rng.integers(1 << 30)}", n, edges, directed=True,
        cost=rng.uniform(1.0, 10.0, n), benefit=rng.uniform(1.0, 10.0, n),
        labels=labels)


def unpack_live(live) -> np.ndarray:
    """The (m, E) bool live-arc rows that diffusion.live_arcs packed."""
    bits = np.unpackbits(live.words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :live.m].T.astype(bool)


def grow(arcs, reached, seeds) -> np.ndarray:
    """The mask `reached` grown from `seeds` on one rollout's live-arc lists
    `arcs`, as a new array; `reached` is left as it was. simulate_ic grows
    a copy in place, and the nodes it reports must be exactly those newly
    reached, each once."""
    out = reached.copy()
    new = simulate_ic(arcs, out, seeds)
    assert len(new) == len(set(new))
    assert sorted(new) == np.flatnonzero(out & ~reached).tolist()
    return out


def fresh_rollout(g, live_row, nodes) -> np.ndarray:
    """Reached mask of `nodes` on one bool live-arc row, from nothing
    reached."""
    return grow(live_arc_lists(g, live_row), np.zeros(g.n, dtype=bool), nodes)


def mask_shaped_return(attrs, parts, reached, cost, weight) -> float:
    """metrics.shaped_return of one rollout whose (n,) bool reached mask is
    `reached`, its totals summed from the mask."""
    return shaped_return(float(reached @ attrs.benefit),
                         (reached @ parts.weights).tolist(), parts, cost,
                         weight)


def bfs_reach(n, src, dst, live_row, seeds) -> np.ndarray:
    """Reference reach: the nodes reached from `seeds` over the arcs live in
    one rollout, found arc by arc from the (src, dst) arc arrays."""
    reached, stack = set(seeds), list(seeds)
    while stack:
        v = stack.pop()
        for a in np.flatnonzero(live_row & (src == v)):
            if int(dst[a]) not in reached:
                reached.add(int(dst[a]))
                stack.append(int(dst[a]))
    mask = np.zeros(n, dtype=bool)
    mask[list(reached)] = True
    return mask


def q_forward_batch(net, states: np.ndarray) -> np.ndarray:
    """Reference scorer: the value network on whole encode_states rows,
    relu(states W1^T + b1) . w2 + b2."""
    return np.maximum(states @ net.w1.T + net.b1, 0.0) @ net.w2 + net.b2[0]


def q_forward_table(net, table, seed_count, remaining_budget, budget, k_max):
    """Reference table scorer: every node's Q-value at this step from the
    whole hidden table, max(T[v], -s) . w2 + s . w2 + b2 for the step's shift
    s = (R/B) W1[:, d+1] + (k/k_max) W1[:, d+2]."""
    d = net.in_dim - 3
    shift = (remaining_budget / budget) * net.w1[:, d + 1] \
        + (seed_count / k_max) * net.w1[:, d + 2]
    return np.maximum(table.hidden, -shift) @ net.w2 + (shift @ net.w2
                                                        + net.b2[0])


def feasible_candidates(selected, cost: np.ndarray,
                        remaining: float) -> np.ndarray:
    """Reference candidate set: the unselected nodes whose cost fits the
    remaining budget, as ascending node ids."""
    mask = cost <= remaining
    mask[list(selected)] = False
    return np.flatnonzero(mask)


def replay_record(monkeypatch):
    """Record, while trainer.train runs, every transition that
    trainer.run_episode returns, in order, and every batch that
    trainer._bellman_targets receives, with the number of transitions run
    when it was drawn. Returns the (transitions, batches) lists."""
    run, batches = [], []
    episode, targets = trainer.run_episode, trainer._bellman_targets

    def recorded_episode(*args):
        ts = episode(*args)
        run.extend(ts)
        return ts

    def recorded_targets(net, batch, *rest):
        batches.append((batch, len(run)))
        return targets(net, batch, *rest)

    monkeypatch.setattr(trainer, "run_episode", recorded_episode)
    monkeypatch.setattr(trainer, "_bellman_targets", recorded_targets)
    return run, batches


def outside_replay(run, batches, capacity) -> int:
    """How many sampled transitions are not, by identity, among the last
    `capacity` transitions run before their batch was drawn."""
    outside = 0
    for batch, n in batches:
        window = {id(t) for t in run[max(0, n - capacity):n]}
        outside += sum(id(t) not in window for t in batch)
    return outside


def read_lines(path) -> list[str]:
    """The lines of a text file, which is closed again."""
    with open(path) as fh:
        return fh.readlines()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
