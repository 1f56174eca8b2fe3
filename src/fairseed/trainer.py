"""Deep Q-learning seed selection: episode loop, epsilon-greedy choice over
budget-feasible candidates, FIFO replay, periodic minibatch Bellman updates,
and greedy inference on trained policies."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .diffusion import SeedSet, live_arc_lists, simulate_ic
from .embedding import (EmbeddingParams, compute_embeddings,
                        init_embedding_params)
from .graph import Instance, InstancePool
from .metrics import shaped_return
from .qnet import QNetwork, QTable, adam_step, best_feasible, \
    best_feasible_rows, hidden_table, q_loss_and_grad, state_rows
from .seeding import derive_seed

CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Checkpoint file missing or malformed, or flags that contradict it."""


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, slots=True)
class Transition:
    """Step `step` (from 0) of an episode on instance `instance_id`.

    `actions` is the whole episode's action tuple, one object that all of
    the episode's transitions share, so a transition's size does not grow
    with its episode. Its state holds `seeds_before`, the actions before
    this step; its next state holds those and `action`, with `budget_after`
    left. With positive costs, a next state with no budget left has no
    feasible node, and so is terminal."""

    instance_id: str
    actions: tuple[int, ...]
    step: int
    reward: float
    budget_after: float  # remaining budget once the action's cost is paid

    @property
    def action(self) -> int:
        return self.actions[self.step]

    @property
    def seeds_before(self) -> tuple[int, ...]:
        return self.actions[:self.step]


@dataclass
class TrainedPolicy:
    """Everything inference needs: the value net plus the fixed embedding
    parameters it was trained against."""

    net: QNetwork
    embed: EmbeddingParams
    t_emb: int

    def embeddings_for(self, instance: Instance) -> np.ndarray:
        return compute_embeddings(instance.graph, instance.attrs, self.embed,
                                  self.t_emb)

    def table(self, instance: Instance, budget: float,
              h: np.ndarray | None = None) -> QTable:
        """`hidden_table` of `instance` at `budget`, from embeddings `h`."""
        h = self.embeddings_for(instance) if h is None else h
        return hidden_table(self.net, h, instance.attrs.cost, budget)


def epsilon_greedy_select(table: QTable, feasible: np.ndarray,
                          seed_count: int, epsilon: float, remaining: float,
                          rng: np.random.Generator | None) -> int | None:
    """Pick a node of the (n,) bool mask `feasible` (unselected, affordable),
    or None when it is all False; `seed_count` seeds are selected so far
    and `remaining` of `table.budget` is left.

    With probability epsilon a uniform random feasible node, otherwise the
    Q-argmax over the feasible nodes (ties to the lowest node id, among
    bit-equal scores: see `best_feasible`). `rng` is read only when
    epsilon > 0, and may be None at epsilon 0.
    """
    if not feasible.any():
        return None
    if epsilon > 0.0 and rng.random() < epsilon:
        ids = np.flatnonzero(feasible)
        return int(ids[rng.integers(len(ids))])
    return best_feasible(table, feasible, seed_count, remaining)


def _steps(table: QTable, epsilon: float, rng: np.random.Generator | None):
    """Yield (action, remaining budget after it) while a candidate fits."""
    # the remaining budget only falls, so the mask of feasible candidates
    # (unselected and affordable) only loses nodes; once it is empty,
    # epsilon_greedy_select returns None without reading `rng`
    cost, remaining, seed_count = table.cost, table.budget, 0
    feasible = cost <= remaining
    while True:
        action = epsilon_greedy_select(table, feasible, seed_count, epsilon,
                                       remaining, rng)
        if action is None:
            return
        remaining -= float(cost[action])
        seed_count += 1
        feasible[action] = False
        feasible &= cost <= remaining
        yield action, remaining


def run_episode(table: QTable, instance: Instance, config: TrainConfig,
                epsilon: float, rng: np.random.Generator) -> list[Transition]:
    """One seed-construction episode; returns its transitions, one per
    step. They are built once the episode ends and share one `actions`
    tuple, the episode's seeds in order, each with its own `step` index.

    `table` is the instance's `TrainedPolicy.table` at `config.budget`. The
    episode runs on one live-arc realization, drawn from `rng` before the
    first step and turned into live-arc lists once. Each step extends the
    reached mask from the new seed only, by a search over those lists that
    stops at nodes already reached, and adds the benefit of the nodes it
    newly reached to running totals, overall and by community
    (`instance.parts`). Its reward is the increase of the shaped return of
    those totals, so an episode's rewards sum to its final seed set's
    shaped return under that realization.
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
    outcomes: list[tuple[float, float]] = []  # (reward, budget_after)
    for action, remaining in _steps(table, epsilon, rng):
        assert remaining >= 0.0, "budget overdraw"
        selected.append(action)
        spent += float(attrs.cost[action])
        for v in simulate_ic(arcs, reached, (action,)):
            earned += benefit[v]
            community_earned[community[v]] += benefit[v]
        r_total = shaped_return(earned, community_earned, parts, spent,
                                config.fairness_weight)
        outcomes.append((r_total - r_prev, remaining))
        r_prev = r_total
    actions = tuple(selected)
    return [Transition(instance.id, actions, step, reward, remaining)
            for step, (reward, remaining) in enumerate(outcomes)]


def _bellman_targets(batch: list[Transition], tables: dict[str, QTable],
                     config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Encode batch states and compute one-step bootstrapped targets.

    `tables[instance_id]` is the instance's `TrainedPolicy.table` at
    `config.budget`: its costs, state rows and scores for its network as it
    stands. The next-state max ranges over the nodes that fit the
    stored remaining budget, less the first `step + 1` entries of `actions`
    (the seeds before and the action); a row with none left scores 0.0, as
    a terminal state. A state's seed count is its transition's `step`.
    Each instance's next states are scored in one `best_feasible_rows`
    call. At discount 0 the targets are the rewards, and no table is
    refilled or scored. Rows keep the batch order.
    """
    states = np.empty((len(batch), tables[batch[0].instance_id].net.in_dim))
    targets = np.array([t.reward for t in batch])
    for inst_id in sorted({t.instance_id for t in batch}):
        table = tables[inst_id]
        rows = [i for i, t in enumerate(batch) if t.instance_id == inst_id]
        actions = np.array([batch[i].action for i in rows])
        counts = np.array([batch[i].step for i in rows])
        remaining = np.array([batch[i].budget_after for i in rows])
        states[rows] = state_rows(table, actions, counts,
                                  remaining + table.cost[actions])
        if config.discount == 0.0:
            continue
        # a next state holds the seeds before and the action
        after = counts + 1
        held = [v for i in rows
                for v in batch[i].actions[:batch[i].step + 1]]
        feasible = table.cost <= remaining[:, None]
        feasible[np.repeat(np.arange(len(rows)), after), held] = False
        _, best = best_feasible_rows(table, feasible, after, remaining)
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
    policy = TrainedPolicy(QNetwork.init(config.d_emb + 3, seeds["qnet"]),
                           init_embedding_params(config.d_emb, seeds["embed"]),
                           config.t_emb)
    # the embedding params are fixed, so each instance keeps one table for
    # the whole run, which refills itself once an update has moved the net
    tables = {inst.id: policy.table(inst, config.budget)
              for inst in pool.train}
    # FIFO replay: TrainConfig keeps batch_size within the capacity
    buffer: deque[Transition] = deque(maxlen=config.replay_capacity)
    rng = np.random.default_rng(seeds["loop"])
    train_ids = sorted(instances)
    for episode in range(1, config.episodes + 1):
        epsilon = max(config.epsilon_start * config.epsilon_decay ** episode,
                      config.epsilon_min)
        inst = instances[train_ids[rng.integers(len(train_ids))]]
        transitions = run_episode(tables[inst.id], inst, config, epsilon,
                                  rng)
        buffer.extend(transitions)
        loss = None
        if episode % config.update_period == 0 and len(buffer) >= config.batch_size:
            batch = [buffer[i] for i in
                     rng.integers(len(buffer), size=config.batch_size)]
            states, targets = _bellman_targets(batch, tables, config)
            loss, grads = q_loss_and_grad(policy.net, states, targets)
            adam_step(policy.net, grads, config.learning_rate)
        if progress is not None:
            progress({
                "episode": episode,
                "epsilon": epsilon,
                "buffer_size": len(buffer),
                "loss": loss,
                "shaped_return": sum(t.reward for t in transitions),
            })
    return policy


def select_seed_set(policy: TrainedPolicy, instance: Instance, budget: float,
                    h: np.ndarray | None = None) -> SeedSet:
    """Greedy (epsilon=0) budget-constrained selection; deterministic. `h`,
    when given, is `policy.embeddings_for(instance)`, computed by the caller."""
    steps = _steps(policy.table(instance, budget, h), 0.0, None)
    return SeedSet.build([action for action, _ in steps], instance.attrs)


def save_checkpoint(path: str, policy: TrainedPolicy, config: TrainConfig) -> None:
    """An npz of what inference reads: the net's weights, the embedding
    parameters (embed_w_*) and `meta`, {"version", "config"} with the
    TrainConfig the policy was trained with. Raises ValueError when the
    policy's d_emb or t_emb is not the config's."""
    net, embed = policy.net, policy.embed
    if (embed.dim, policy.t_emb) != (config.d_emb, config.t_emb):
        raise ValueError("the policy's d_emb or t_emb is not the config's")
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(config)}
    with open(path, "wb") as fh:
        np.savez(fh, w1=net.w1, b1=net.b1, w2=net.w2, b2=net.b2,
                 embed_w_feat=embed.w_feat, embed_w_agg=embed.w_agg,
                 embed_w_edge=embed.w_edge,
                 meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))


def load_checkpoint(path: str) -> tuple[TrainedPolicy, TrainConfig]:
    """The policy and the TrainConfig it was trained with, which sizes the
    embedding (w1's row count is the hidden width). Raises CheckpointError
    when the file, its metadata, the config or an array is missing or
    malformed."""
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in (
                "meta", *QNetwork.PARAM_NAMES, "embed_w_feat", "embed_w_agg",
                "embed_w_edge")}
        meta = json.loads(bytes(arrays.pop("meta")).decode())
    except (OSError, KeyError, ValueError) as exc:
        raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint metadata is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {meta.get('version')!r} is "
                              f"not {CHECKPOINT_VERSION}; re-train the policy")
    config, want = meta.get("config"), asdict(TrainConfig())
    # nothing beside the config, so no copy of a setting can disagree with
    # it; each field of its default's type or int (type() shuts out bools)
    if not (meta.keys() == {"version", "config"} and isinstance(config, dict)
            and config.keys() == want.keys()
            and all(type(config[k]) in (type(want[k]), int) for k in want)):
        raise CheckpointError("checkpoint metadata must be the version and "
                              "a config of TrainConfig's fields and types")
    try:
        config = TrainConfig(**config)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint config rejected: {exc}") from exc
    w1, d = arrays["w1"], config.d_emb
    if w1.ndim != 2 or len(w1) < 1:
        raise CheckpointError(f"w1 has shape {w1.shape}, not (hidden > 0, in_dim)")
    shapes = {"w1": (len(w1), d + 3), "b1": w1.shape[:1], "w2": w1.shape[:1],
              "b2": (1,), "embed_w_feat": (d, 2), "embed_w_agg": (d, d),
              "embed_w_edge": (d,)}
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise CheckpointError(f"{name} has shape {arrays[name].shape}, "
                                  f"w1 and the config give {shape}")
        if arrays[name].dtype.kind != "f" or \
                not np.all(np.isfinite(arrays[name])):
            raise CheckpointError(f"{name} must hold finite floats")
    net = QNetwork(**{name: arrays[name] for name in QNetwork.PARAM_NAMES})
    embed = EmbeddingParams(w_feat=arrays["embed_w_feat"],
                            w_agg=arrays["embed_w_agg"],
                            w_edge=arrays["embed_w_edge"])
    return TrainedPolicy(net=net, embed=embed, t_emb=config.t_emb), config
