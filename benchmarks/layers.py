"""Per-layer metrics: self times, inclusive times and counts per round,
taken from the spans of the traced rounds and from counts observed at the
layer boundaries.

A name ending in `_self_s` is the span durations minus the time of the
wrapped calls inside them; any other `_s` is the whole span duration. A
`_us` value is microseconds per call (per rollout for
`diffusion.rollout_us`). Graph metrics come from the set-up span, and
`setup.imports_s` is the part of `setup_s` spent before the set-up span
(interpreter imports of numpy, scipy and fairseed); all others are per
traced round.
"""

from __future__ import annotations

from spans import AGGREGATED


class LayerCounts:
    """Counts observed at layer boundaries during traced rounds."""

    def __init__(self):
        self.rollouts = 0
        self.arc_draws = 0
        self.reached = 0
        self.used_arcs = 0
        self.q_rows = 0
        self.transitions = 0
        self.embedded: set[int] = set()

    def observers(self) -> dict:
        return {
            "diffusion.rollout_masks": self._masks,
            "qnet.q_forward_batch": self._q_rows,
            "trainer.run_episode": self._episode,
            "embedding.compute_embeddings": self._embedding,
        }

    def _masks(self, args, kwargs, masks) -> None:
        g = args[0]
        per_node = masks.sum(axis=0)
        self.rollouts += masks.shape[0]
        self.arc_draws += masks.shape[0] * g.num_arcs
        self.reached += int(per_node.sum())
        # a uniform is read when its arc leaves a reached node
        self.used_arcs += int(per_node @ g.out_degree())

    def _q_rows(self, args, kwargs, q) -> None:
        self.q_rows += len(q)

    def _episode(self, args, kwargs, transitions) -> None:
        self.transitions += len(transitions)

    def _embedding(self, args, kwargs, result) -> None:
        self.embedded.add(id(args[0]))


class LayerView:
    """Per-round access to span totals and counts."""

    def __init__(self, totals: dict, setup_totals: dict, counts: LayerCounts,
                 rounds: int, overhead_s: float, imports_s: float):
        self.totals, self.setup_totals = totals, setup_totals
        self.counts, self.rounds, self.overhead_s = counts, rounds, overhead_s
        self.imports_s = imports_s

    def _get(self, name: str, k: int) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[k] / self.rounds

    def calls(self, name: str) -> float:
        return self._get(name, 0)

    def incl(self, name: str) -> float:
        return self._get(name, 1)

    def self_s(self, name: str) -> float:
        return self._get(name, 2)

    def setup(self, name: str) -> float:
        return self.setup_totals.get(name, (0, 0.0, 0.0))[1]

    def count(self, attr: str) -> float:
        return getattr(self.counts, attr) / self.rounds

    def us_per_call(self, name: str) -> float:
        return ratio(1e6 * self.incl(name), self.calls(name))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, value from a LayerView)
LAYERS = (
    ("graph.build_instance_pool_s", "s", "lower",
     lambda v: v.setup("graph.build_instance_pool")),
    ("graph.graph_from_edges_s", "s", "lower",
     lambda v: v.setup("graph.graph_from_edges")),
    ("setup.imports_s", "s", "lower", lambda v: v.imports_s),
    ("seeding.stream_at_calls", "count", "lower", lambda v: v.calls(AGGREGATED)),
    ("seeding.stream_at_us", "us", "lower", lambda v: v.us_per_call(AGGREGATED)),
    ("diffusion.rollout_masks_rollouts", "count", "lower",
     lambda v: v.count("rollouts")),
    ("diffusion.rollout_us", "us", "lower",
     lambda v: ratio(1e6 * v.incl("diffusion.rollout_masks"), v.count("rollouts"))),
    ("diffusion.arc_draws", "count", "lower", lambda v: v.count("arc_draws")),
    ("diffusion.reached_nodes", "count", "lower", lambda v: v.count("reached")),
    ("diffusion.arc_draws_used_fraction", "ratio", "higher",
     lambda v: ratio(v.count("used_arcs"), v.count("arc_draws"))),
    ("diffusion.simulate_ic_calls", "count", "lower",
     lambda v: v.calls("diffusion.simulate_ic")),
    ("diffusion.simulate_ic_us", "us", "lower",
     lambda v: v.us_per_call("diffusion.simulate_ic")),
    ("diffusion.exact_oracle_s", "s", "lower",
     lambda v: v.incl("diffusion.exact_expected_profit")),
    ("metrics.evaluate_seed_set_s", "s", "lower",
     lambda v: v.incl("metrics.evaluate_seed_set")),
    ("metrics.evaluate_seed_set_calls", "count", "lower",
     lambda v: v.calls("metrics.evaluate_seed_set")),
    ("metrics.shaped_reward_self_s", "s", "lower",
     lambda v: v.self_s("metrics.shaped_reward")),
    ("metrics.shaped_reward_calls", "count", "lower",
     lambda v: v.calls("metrics.shaped_reward")),
    ("embedding.compute_embeddings_s", "s", "lower",
     lambda v: v.incl("embedding.compute_embeddings")),
    ("embedding.compute_embeddings_calls", "count", "lower",
     lambda v: v.calls("embedding.compute_embeddings")),
    ("embedding.recompute_ratio", "ratio", "lower",
     lambda v: ratio(v.calls("embedding.compute_embeddings"),
                     len(v.counts.embedded))),
    ("qnet.q_forward_batch_s", "s", "lower",
     lambda v: v.incl("qnet.q_forward_batch")),
    ("qnet.q_forward_rows", "count", "lower", lambda v: v.count("q_rows")),
    ("qnet.encode_states_s", "s", "lower", lambda v: v.incl("qnet.encode_states")),
    ("qnet.q_loss_and_grad_s", "s", "lower",
     lambda v: v.incl("qnet.q_loss_and_grad")),
    ("qnet.adam_step_s", "s", "lower", lambda v: v.incl("qnet.adam_step")),
    ("qnet.gradient_steps", "count", "lower", lambda v: v.calls("qnet.adam_step")),
    ("trainer.run_episode_self_s", "s", "lower",
     lambda v: v.self_s("trainer.run_episode")),
    ("trainer.epsilon_greedy_select_self_s", "s", "lower",
     lambda v: v.self_s("trainer.epsilon_greedy_select")),
    ("trainer.bellman_targets_s", "s", "lower",
     lambda v: v.incl("trainer._bellman_targets")),
    ("trainer.episodes", "count", "lower", lambda v: v.calls("trainer.run_episode")),
    ("trainer.transitions", "count", "lower", lambda v: v.count("transitions")),
    ("trainer.select_seed_set_s", "s", "lower",
     lambda v: v.incl("trainer.select_seed_set")),
    ("baselines.random_select_s", "s", "lower",
     lambda v: v.incl("baselines.random_seeds")),
    ("baselines.highdegree_select_s", "s", "lower",
     lambda v: v.incl("baselines.high_degree_seeds")),
    ("baselines.pagerank_select_s", "s", "lower",
     lambda v: v.incl("baselines.pagerank_seeds")),
    ("baselines.parity_select_s", "s", "lower",
     lambda v: v.incl("baselines.parity_seeds")),
    ("baselines.fairpagerank_select_s", "s", "lower",
     lambda v: v.incl("baselines.fair_pagerank_seeds")),
    ("baselines.pagerank_calls", "count", "lower",
     lambda v: v.calls("baselines.pagerank")),
    ("experiment.run_experiment_self_s", "s", "lower",
     lambda v: v.self_s("experiment.run_experiment")),
    ("trace.overhead_s", "s", "lower", lambda v: v.overhead_s),
)


def layer_metrics(view: LayerView) -> dict:
    return {name: {"value": float(fn(view)), "unit": unit}
            for name, unit, _, fn in LAYERS}
