"""Deep Q-learning seed selection: episode loop, epsilon-greedy choice over
budget-feasible candidates, FIFO replay, periodic minibatch Bellman updates,
and greedy inference on trained policies."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .diffusion import SeedSet, live_arc_lists, simulate_ic
from .embedding import (EmbeddingParams, NodeEmbeddings, compute_embeddings,
                        init_embedding_params)
from .graph import Instance, InstancePool
from .metrics import shaped_return
from .qnet import QNetwork, QTable, adam_step, best_feasible, \
    best_feasible_rows, encode_states, hidden_table, q_loss_and_grad
from .seeding import derive_seed

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file missing, malformed, or architecture mismatch."""


@dataclass(frozen=True)
class TrainConfig:
    budget: float = 1000.0
    episodes: int = 720
    learning_rate: float = 0.001
    discount: float = 0.95
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.995
    replay_capacity: int = 10_000
    batch_size: int = 32
    update_period: int = 2
    fairness_weight: float = 1.0
    d_emb: int = 64
    t_emb: int = 3
    seed: int = 0

    def __post_init__(self):
        # "not all valid" rather than "any invalid": NaN fails every comparison
        if not 0 < self.budget < np.inf:
            raise ValueError("budget must be positive and finite")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if not 0.0 < self.epsilon_min <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 < epsilon_min <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        if not 1 <= self.batch_size <= self.replay_capacity:
            raise ValueError("batch_size must lie in [1, replay_capacity]")
        if self.update_period < 1:
            raise ValueError("update_period must be >= 1")
        if not 0 <= self.fairness_weight < np.inf:
            raise ValueError("fairness_weight must be nonnegative and finite")
        if self.episodes < 1 or self.d_emb < 1 or self.t_emb < 1:
            raise ValueError("episodes, d_emb, and t_emb must be >= 1")


@dataclass(frozen=True)
class Transition:
    """One episode step. Its next state holds `seeds_before` and `action`,
    with `budget_after` left; with positive costs, a next state with no
    budget left has no feasible node, and so is terminal."""

    instance_id: str
    seeds_before: tuple[int, ...]
    action: int
    reward: float
    budget_after: float  # remaining budget once the action's cost is paid


@dataclass
class TrainedPolicy:
    """Everything inference needs: the value net plus the fixed embedding
    parameters it was trained against."""

    net: QNetwork
    embed: EmbeddingParams
    t_emb: int

    def embeddings_for(self, instance: Instance) -> NodeEmbeddings:
        return compute_embeddings(instance.graph, instance.attrs, self.embed,
                                  self.t_emb)


def epsilon_greedy_select(net: QNetwork, table: QTable, feasible: np.ndarray,
                          seed_count: int, epsilon: float, remaining: float,
                          budget: float, k_max: int,
                          rng: np.random.Generator | None) -> int | None:
    """Pick a node of the (n,) bool mask `feasible` (unselected, affordable),
    or None when it is all False; `seed_count` seeds are selected so far.

    With probability epsilon a uniform random feasible node, otherwise the
    Q-argmax over the feasible nodes (ties to the lowest node id, among
    bit-equal scores: see `best_feasible`). `table`
    is `net`'s current `hidden_table` for this instance and budget. `rng`
    is read only when epsilon > 0, and may be None at epsilon 0.
    """
    if not feasible.any():
        return None
    if epsilon > 0.0 and rng.random() < epsilon:
        ids = np.flatnonzero(feasible)
        return int(ids[rng.integers(len(ids))])
    return best_feasible(net, table, feasible, seed_count, remaining, budget,
                         k_max)


def _max_seeds(cost: np.ndarray, budget: float) -> int:
    """k_max of the state encoding: at least 1 and budget // c_min, and no
    fewer than the seeds `_steps` can pick at `budget`, so k/k_max <= 1 at
    every step and every stored next state.

    The floor alone can undercount, as `_steps` takes each cost off the
    remaining budget in floating point: at cost 0.6 and budget 16.2 it
    gives 26 while 27 seeds fit. Rounding is monotone, so after j picks,
    each costing at least c_min, the remaining budget is at most R_j, the
    budget less c_min j times in floating point, and pick j + 1 needs
    R_j >= c_min. np.cumsum replays those subtractions in order, for the
    n + 1 states an episode of n distinct picks can pass, so tiny costs
    cannot make it run long; a floor of n or more needs no replay. A budget
    so large against c_min that their ratio overflows is a ValueError.
    """
    c_min = float(cost.min())
    if not np.isfinite(budget / c_min):
        raise ValueError(f"budget {budget} over the cheapest node cost "
                         f"{c_min} is not finite")
    floor = max(1, int(budget // c_min))
    if floor >= len(cost):
        return floor
    replay = np.cumsum(np.concatenate(([float(budget)],
                                       np.full(len(cost), -c_min))))
    short = replay < c_min
    return max(floor, int(np.argmax(short)) if short.any() else len(cost))


def _steps(net: QNetwork, table: QTable, cost: np.ndarray, budget: float,
           epsilon: float, rng: np.random.Generator | None):
    """Yield (action, remaining budget after it) while a candidate fits."""
    k_max = _max_seeds(cost, budget)
    # the remaining budget only falls, so the mask of feasible candidates
    # (unselected and affordable) only loses nodes; once it is empty,
    # epsilon_greedy_select returns None without reading `rng`
    feasible = cost <= budget
    remaining, seed_count = budget, 0
    while True:
        action = epsilon_greedy_select(net, table, feasible, seed_count,
                                       epsilon, remaining, budget, k_max, rng)
        if action is None:
            return
        remaining -= float(cost[action])
        seed_count += 1
        feasible[action] = False
        feasible &= cost <= remaining
        yield action, remaining


def run_episode(net: QNetwork, instance: Instance, table: QTable,
                config: TrainConfig, epsilon: float,
                rng: np.random.Generator) -> list[Transition]:
    """One seed-construction episode; returns the emitted transitions.

    `table` is `net`'s current `hidden_table` for the instance at
    `config.budget`. The episode runs on one live-arc realization, drawn
    from `rng` before the first step and turned into live-arc lists once.
    Each step extends the reached mask from the new seed only, by a search
    over those lists that stops at nodes already reached, and adds the
    benefit of the nodes it newly reached to running totals, overall and by
    community (`instance.parts`). Its reward is the increase of the shaped
    return of those totals, so an episode's rewards sum to its final seed
    set's shaped return under that realization.
    """
    g, attrs, parts = instance.graph, instance.attrs, instance.parts
    arcs = live_arc_lists(g, rng.random(g.num_arcs) < g.probs)
    reached = np.zeros(g.n, dtype=bool)
    community = np.empty(g.n, dtype=np.intp)
    for c, members in enumerate(parts.members):
        community[members] = c
    benefit, community = attrs.benefit.tolist(), community.tolist()
    earned, community_earned = 0.0, [0.0] * parts.count
    selected: list[int] = []
    spent = 0.0
    r_prev = 0.0
    transitions: list[Transition] = []
    for action, remaining in _steps(net, table, attrs.cost, config.budget,
                                    epsilon, rng):
        assert remaining >= 0.0, "budget overdraw"
        before = tuple(selected)
        selected.append(action)
        spent += float(attrs.cost[action])
        for v in simulate_ic(arcs, reached, (action,)):
            earned += benefit[v]
            community_earned[community[v]] += benefit[v]
        r_total = shaped_return(earned, community_earned, parts, spent,
                                config.fairness_weight)
        transitions.append(Transition(
            instance_id=instance.id,
            seeds_before=before,
            action=action,
            reward=r_total - r_prev,
            budget_after=remaining,
        ))
        r_prev = r_total
    return transitions


def _bellman_targets(net: QNetwork, batch: list[Transition],
                     instances: dict[str, Instance],
                     embeddings: dict[str, NodeEmbeddings], table_of,
                     config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Encode batch states and compute one-step bootstrapped targets.

    `table_of(instance_id)` is `net`'s current `hidden_table` for it. The
    next-state max ranges over the nodes that fit the stored remaining
    budget, less `seeds_before` and the action; a row with none left
    scores 0.0, as a terminal state. Each instance's next states are
    scored in one `best_feasible_rows` call. At discount 0 the targets are
    the rewards, and no table is built or scored. Rows keep the batch
    order.
    """
    states = np.empty((len(batch), net.in_dim))
    targets = np.array([t.reward for t in batch])
    for inst_id in sorted({t.instance_id for t in batch}):
        inst, h = instances[inst_id], embeddings[inst_id]
        cost = inst.attrs.cost
        k_max = _max_seeds(cost, config.budget)
        rows = [i for i, t in enumerate(batch) if t.instance_id == inst_id]
        actions = np.array([batch[i].action for i in rows])
        counts = np.array([len(batch[i].seeds_before) for i in rows])
        remaining = np.array([batch[i].budget_after for i in rows])
        states[rows] = encode_states(actions, h, counts,
                                     remaining + cost[actions], inst.attrs,
                                     config.budget, k_max)
        if config.discount == 0.0:
            continue
        # a next state holds the seeds before and the action
        after = counts + 1
        held = [v for i in rows for v in (*batch[i].seeds_before,
                                           batch[i].action)]
        feasible = cost <= remaining[:, None]
        feasible[np.repeat(np.arange(len(rows)), after), held] = False
        _, best = best_feasible_rows(net, table_of(inst_id), feasible, after,
                                     remaining, config.budget, k_max)
        targets[rows] += config.discount * best
    return states, targets


def stage_seeds(seed: int) -> dict[str, int]:
    """Sub-seeds of training's random stages: the embedding parameters, the
    Q-network's initial weights and the episode loop's generator."""
    return {stage: derive_seed(seed, stage)
            for stage in ("embed", "qnet", "loop")}


def train(config: TrainConfig, pool: InstancePool,
          progress=None) -> TrainedPolicy:
    """Full training loop over the pool's train instances.

    `progress`, when given, is called once per episode with a dict holding
    episode index, epsilon, buffer size, episode shaped return, and the
    minibatch loss (None on episodes without a gradient step).
    """
    if not pool.train:
        raise ValueError("empty training pool")
    if all(config.budget < inst.attrs.cost.min() for inst in pool.train):
        # every episode would be empty, leaving the initial network
        raise ValueError(f"budget {config.budget} is below the cheapest node "
                         "of every training instance")
    instances = {inst.id: inst for inst in pool.train}
    seeds = stage_seeds(config.seed)
    embed = init_embedding_params(config.d_emb, seeds["embed"])
    # embedding params are fixed; cache per-instance embeddings
    embeddings = {inst.id: compute_embeddings(inst.graph, inst.attrs, embed,
                                              config.t_emb) for inst in pool.train}
    net = QNetwork.init(config.d_emb + 3, seeds["qnet"])
    # FIFO replay: TrainConfig keeps batch_size within the capacity
    buffer: deque[Transition] = deque(maxlen=config.replay_capacity)
    rng = np.random.default_rng(seeds["loop"])
    train_ids = sorted(instances)
    # each instance's table storage lives for the whole run; after an
    # update, a table is rebuilt in place when it is next used
    tables: dict[str, QTable] = {}
    current: set[str] = set()  # the ids whose table fits `net` as it stands

    def table_of(i: str) -> QTable:
        if i not in current:
            tables[i] = hidden_table(net, embeddings[i],
                                     instances[i].attrs.cost, config.budget,
                                     out=tables.get(i))
            current.add(i)
        return tables[i]

    for episode in range(1, config.episodes + 1):
        epsilon = max(config.epsilon_start * config.epsilon_decay ** episode,
                      config.epsilon_min)
        inst = instances[train_ids[rng.integers(len(train_ids))]]
        transitions = run_episode(net, inst, table_of(inst.id), config,
                                  epsilon, rng)
        buffer.extend(transitions)
        loss = None
        if episode % config.update_period == 0 and len(buffer) >= config.batch_size:
            batch = [buffer[i] for i in
                     rng.integers(len(buffer), size=config.batch_size)]
            states, targets = _bellman_targets(net, batch, instances, embeddings,
                                               table_of, config)
            loss, grads = q_loss_and_grad(net, states, targets)
            adam_step(net, grads, config.learning_rate)
            current.clear()
        if progress is not None:
            progress({
                "episode": episode,
                "epsilon": epsilon,
                "buffer_size": len(buffer),
                "loss": loss,
                "shaped_return": sum(t.reward for t in transitions),
            })
    return TrainedPolicy(net=net, embed=embed, t_emb=config.t_emb)


def select_seed_set(policy: TrainedPolicy, instance: Instance, budget: float,
                    h: NodeEmbeddings | None = None) -> SeedSet:
    """Greedy (epsilon=0) budget-constrained selection; deterministic. `h`,
    when given, is `policy.embeddings_for(instance)`, computed by the caller."""
    h = policy.embeddings_for(instance) if h is None else h
    cost = instance.attrs.cost
    steps = _steps(policy.net, hidden_table(policy.net, h, cost, budget), cost,
                   budget, 0.0, None)
    return SeedSet.build([action for action, _ in steps], instance.attrs)


def save_checkpoint(path: str, policy: TrainedPolicy, config: TrainConfig) -> None:
    """Versioned npz dump of the net, Adam state, and embedding parameters."""
    net = policy.net
    meta = {
        "version": CHECKPOINT_VERSION,
        "in_dim": net.in_dim,
        "hidden": net.hidden_dim,
        "d_emb": policy.embed.dim,
        "t_emb": policy.t_emb,
        "config": asdict(config),
    }
    arrays = {
        "w1": net.w1, "b1": net.b1, "w2": net.w2, "b2": net.b2,
        "step": np.array([net.step]),
        "embed_w_feat": policy.embed.w_feat,
        "embed_w_agg": policy.embed.w_agg,
        "embed_w_edge": policy.embed.w_edge,
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    }
    for name in net.PARAM_NAMES:
        m, v = net.moments[name]
        arrays[f"adam_m_{name}"] = m
        arrays[f"adam_v_{name}"] = v
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str, expect_d_emb: int | None = None
                    ) -> tuple[TrainedPolicy, dict]:
    """Load a checkpoint; raises CheckpointError on any mismatch."""
    params = QNetwork.PARAM_NAMES
    names = ["meta", "step", "embed_w_feat", "embed_w_agg", "embed_w_edge",
             *params, *(f"adam_{mv}_{p}" for p in params for mv in "mv")]
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in names}
        meta = json.loads(bytes(arrays["meta"]).decode())
    except (OSError, KeyError, ValueError) as exc:
        raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc
    if not (isinstance(meta, dict)
            and isinstance(meta.get("config", {}), dict)):
        raise CheckpointError("checkpoint metadata or its config is not a "
                              "JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {meta.get('version')}")
    dims = ("hidden", "in_dim", "d_emb", "t_emb")
    for key in dims:
        if key not in meta:
            raise CheckpointError(f"checkpoint metadata lacks {key!r}")
        # bool is an int subclass, and JSON true is no dimension
        if type(meta[key]) is not int or meta[key] < 1:
            raise CheckpointError(f"checkpoint {key} must be an integer >= 1, "
                                  f"not {meta[key]!r}")
    hidden, in_dim, d, t_emb = (meta[k] for k in dims)
    shapes = {"w1": (hidden, in_dim), "b1": (hidden,), "w2": (hidden,),
              "b2": (1,)}
    shapes.update({f"adam_{mv}_{p}": shapes[p] for p in params for mv in "mv"})
    shapes.update(embed_w_feat=(d, 2), embed_w_agg=(d, d), embed_w_edge=(d,))
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise CheckpointError(f"{name} has shape {arrays[name].shape}, "
                                  f"recorded dims give {shape}")
        if arrays[name].dtype.kind != "f" or \
                not np.all(np.isfinite(arrays[name])):
            raise CheckpointError(f"{name} must hold finite floats")
    if in_dim != d + 3:
        raise CheckpointError("state width inconsistent with embedding dim")
    if expect_d_emb is not None and d != expect_d_emb:
        raise CheckpointError(f"embedding dim {d} != expected {expect_d_emb}")
    net = QNetwork(w1=arrays["w1"], b1=arrays["b1"], w2=arrays["w2"],
                   b2=arrays["b2"], step=int(arrays["step"][0]))
    net.moments = {
        p: (arrays[f"adam_m_{p}"], arrays[f"adam_v_{p}"]) for p in params
    }
    embed = EmbeddingParams(w_feat=arrays["embed_w_feat"],
                            w_agg=arrays["embed_w_agg"],
                            w_edge=arrays["embed_w_edge"])
    return TrainedPolicy(net=net, embed=embed, t_emb=t_emb), meta
