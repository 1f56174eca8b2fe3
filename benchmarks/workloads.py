"""The benchmark's workloads: inputs made from a seed, one timed round of
fairseed work, and output checks against independent computations.

A workload's `setup` builds its inputs; `round` runs the timed operation
once and returns (operations, output); `signature` reduces an output to a
value that must repeat exactly in every round of one run; `check` returns
a list of failures, and `check_counts` the layer counts of a traced run
that differ from the configuration. `observers` names the fairseed
functions whose calls `round` records for the checks, and `tick` one that
a round calls many times, after which the runner's clock may time its
calibration kernel. Calls go through module attributes (`trainer.train`,
not a bound name) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from fairseed import diffusion, embedding, experiment, graph, qnet, trainer
from fairseed.seeding import derive_seed

import reference

# Five combined standard errors: with about 70 comparisons in a run, a
# correct program fails one by chance in well under 1e-4 of runs.
REFERENCE_SE = 5.0

# the BA source graph and the instance pool's make-up, as in criterion 9
BA_M = 3
P = 0.1
N_TRAIN = 2
TRAIN_TEST = 1


@dataclass(frozen=True)
class Sizes:
    """Input shapes; the benchmark runs FULL, its tests a reduced copy."""

    source_nodes: int = 2000
    nodes_per_instance: int = 500
    eval_test: int = 4
    episodes: int = 720
    train_budget: float = 1000.0
    budgets: tuple[float, ...] = (500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    m: int = 1000
    reference_rollouts: int = 1000
    tiny_cases: int = 50
    tiny_rollouts: int = 50_000


FULL = Sizes()


def barabasi_albert_edges(n: int, m: int, rng: np.random.Generator):
    """Undirected preferential-attachment edges: each new node joins m
    distinct existing nodes drawn in proportion to their degree."""
    edges = []
    ends: list[int] = []  # every edge end so far, so a draw is degree-weighted
    targets = list(range(m))
    for v in range(m, n):
        edges += [(v, t) for t in targets]
        ends += targets + [v] * m
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(ends[int(rng.integers(len(ends)))])
        targets = sorted(chosen)
    return edges


def ba_config(seed: int, sizes: Sizes, n_test: int) -> "experiment.ExperimentConfig":
    return experiment.ExperimentConfig(
        dataset="synthetic-ba", directed=False,
        prob_model=graph.UniformProbabilities(P),
        budgets=sizes.budgets, m=sizes.m,
        train=trainer.TrainConfig(budget=sizes.train_budget,
                                  episodes=sizes.episodes, seed=seed),
        n_train=N_TRAIN, n_test=n_test,
        nodes_per_instance=sizes.nodes_per_instance, seed=seed)


def ba_pool(seed: int, sizes: Sizes, cfg) -> "graph.InstancePool":
    rng = np.random.default_rng([seed, 0xBA])
    edges = barabasi_albert_edges(sizes.source_nodes, BA_M, rng)
    source = graph.graph_from_edges(
        sizes.source_nodes, [(u, v, P) for u, v in edges], directed=False)
    return experiment.build_pool(cfg, source=source)


def mismatches(pairs: dict) -> list[str]:
    """Counts seen at layer boundaries that differ from the configured ones."""
    return [f"{name}: seen {seen:g}, configured {want:g}"
            for name, (seen, want) in pairs.items() if seen != want]


def policy_digest(policy) -> str:
    h = hashlib.sha256()
    for a in (policy.net.w1, policy.net.b1, policy.net.w2, policy.net.b2,
              policy.embed.w_feat, policy.embed.w_agg, policy.embed.w_edge):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TrainBA:
    """trainer.train on two instances sampled from a BA source graph."""

    name = "train-ba500"
    tick = "trainer.run_episode"

    def __init__(self, seed: int, sizes: Sizes = FULL):
        self.seed, self.sizes = seed, sizes
        self.episodes: list = []

    def setup(self) -> None:
        self.cfg = ba_config(self.seed, self.sizes, TRAIN_TEST)
        self.pool = ba_pool(self.seed, self.sizes, self.cfg)

    def observers(self) -> dict:
        def record(args, kwargs, transitions):
            self.episodes.append((args[1], transitions))
        return {"trainer.run_episode": record}

    def round(self):
        self.episodes = []
        policy = trainer.train(self.cfg.train, self.pool)
        steps = sum(len(ts) for _, ts in self.episodes)
        return steps, (policy, self.episodes)

    def signature(self, out) -> str:
        return policy_digest(out[0])

    def check_counts(self, v) -> list[str]:
        return mismatches({
            "trainer.episodes": (v.calls("trainer.run_episode"),
                                 self.cfg.train.episodes),
            "diffusion.simulate_ic_calls": (v.calls("diffusion.simulate_ic"),
                                            v.count("transitions")),
        })

    def check(self, out) -> list[str]:
        policy, episodes = out
        budget = self.cfg.train.budget
        weight = self.cfg.train.fairness_weight
        bad = []
        if len(episodes) != self.cfg.train.episodes:
            bad.append(f"{len(episodes)} episodes run, "
                       f"{self.cfg.train.episodes} configured")
        for inst, transitions in episodes:
            cost = inst.attrs.cost
            chosen: list[int] = []
            for t in transitions:
                remaining = budget - float(cost[chosen].sum())
                if list(t.seeds_before) != chosen:
                    bad.append(f"{inst.id}: seeds_before {t.seeds_before} "
                               f"are not the episode's earlier actions")
                if t.action in chosen:
                    bad.append(f"{inst.id}: action {t.action} already selected")
                if cost[t.action] > remaining + 1e-9:
                    bad.append(f"{inst.id}: action {t.action} over budget")
                if t.budget_after < 0 or \
                        abs(t.budget_after - (remaining - cost[t.action])) > 1e-6:
                    bad.append(f"{inst.id}: budget_after {t.budget_after}")
                chosen.append(t.action)
            total = sum(t.reward for t in transitions)
            if not -budget - 1e-9 <= total <= inst.attrs.benefit.sum() + weight + 1e-9:
                bad.append(f"{inst.id}: episode return {total} out of range")
        params = (policy.net.w1, policy.net.b1, policy.net.w2, policy.net.b2)
        if not all(np.isfinite(p).all() for p in params):
            bad.append("trained parameters not finite")
        for inst in self.pool.train + self.pool.test:
            s = trainer.select_seed_set(policy, inst, budget)
            if float(inst.attrs.cost[list(s.nodes)].sum()) > budget + 1e-9:
                bad.append(f"{inst.id}: greedy seed set over budget")
        return bad


class EvalBA:
    """experiment.run_experiment: six algorithms x six budgets on test
    instances, with an untrained policy from fixed-seed parameters."""

    name = "eval-ba500"
    tick = "metrics.evaluate_seed_set"

    def __init__(self, seed: int, sizes: Sizes = FULL):
        self.seed, self.sizes = seed, sizes
        self.evaluations: list = []

    def setup(self) -> None:
        self.cfg = ba_config(self.seed, self.sizes, self.sizes.eval_test)
        self.pool = ba_pool(self.seed, self.sizes, self.cfg)
        tc = self.cfg.train
        self.policy = trainer.TrainedPolicy(
            net=qnet.QNetwork.init(tc.d_emb + 3, derive_seed(self.seed, "qnet")),
            embed=embedding.init_embedding_params(
                tc.d_emb, derive_seed(self.seed, "embed")),
            t_emb=tc.t_emb)

    def observers(self) -> dict:
        def record(args, kwargs, result):
            self.evaluations.append((args[0], args[3], result[0]))
        return {"metrics.evaluate_seed_set": record}

    def round(self):
        self.evaluations = []
        rows = experiment.run_experiment(self.cfg, pool=self.pool,
                                         policy=self.policy)
        return len(rows), (rows, self.evaluations)

    def signature(self, out) -> tuple:
        return tuple((r.algorithm, r.budget, r.instance, r.profit_mean,
                      r.profit_std, r.fairness_mean, r.seed_size, r.seed_cost)
                     for r in out[0])

    def check_counts(self, v) -> list[str]:
        cfg = self.cfg
        sets = len(cfg.algorithms) * len(cfg.budgets) * len(self.pool.test)
        return mismatches({
            "metrics.evaluate_seed_set_calls": (
                v.calls("metrics.evaluate_seed_set"), sets),
            "diffusion.rollout_masks_rollouts": (v.count("rollouts"), sets * cfg.m),
        })

    def check(self, out) -> list[str]:
        rows, evaluations = out
        cfg = self.cfg
        bad = []
        expected = len(cfg.algorithms) * len(cfg.budgets) * len(self.pool.test)
        if len(rows) != expected:
            bad.append(f"{len(rows)} result rows, expected {expected}")
        for r in rows:
            if not r.seed_cost <= r.budget + 1e-9:
                bad.append(f"{r.algorithm}@{r.budget} {r.instance}: "
                           f"seed cost {r.seed_cost} over budget")
            if not 0.0 <= r.fairness_mean <= 1.0:
                bad.append(f"{r.algorithm}@{r.budget} {r.instance}: "
                           f"fairness {r.fairness_mean} outside [0, 1]")
        # every row is the report of one recorded evaluation
        ids = {id(inst.graph): inst.id for inst in self.pool.test}
        recorded = sorted((ids.get(id(g), "?"), rep.profit, rep.fairness,
                           len(s), s.total_cost) for g, s, rep in evaluations)
        reported = sorted((r.instance, r.profit_mean, r.fairness_mean,
                           r.seed_size, r.seed_cost) for r in rows)
        if recorded != reported:
            bad.append("result rows differ from the evaluations run")
        bad += self.check_against_reference(evaluations)
        return bad

    def check_against_reference(self, evaluations) -> list[str]:
        """The benchmark's own IC simulator against every seed set
        evaluated on the first test instance."""
        inst = self.pool.test[0]
        g, attrs = inst.graph, inst.attrs
        src, dst, probs = g.arc_arrays()
        m, k = self.cfg.m, self.sizes.reference_rollouts
        rng = np.random.default_rng([self.seed, 0xEF])
        bad = []
        for gg, s, rep in evaluations:
            if gg is not g:
                continue
            profit, fair = reference.simulate(
                g.n, src, dst, probs, attrs.benefit, attrs.community, attrs.cost,
                s.nodes, k, rng)
            # both estimates have the reference's spread if fairseed is right
            p_se = profit.std(ddof=1) * np.sqrt(1.0 / m + 1.0 / k)
            f_se = fair.std(ddof=1) * np.sqrt(1.0 / m + 1.0 / k)
            if abs(rep.profit - profit.mean()) > REFERENCE_SE * p_se + 1e-9:
                bad.append(f"{inst.id} |S|={len(s)}: profit {rep.profit} vs "
                           f"reference {profit.mean()} (se {p_se:.3g})")
            if abs(rep.fairness - fair.mean()) > REFERENCE_SE * f_se + 1e-9:
                bad.append(f"{inst.id} |S|={len(s)}: fairness {rep.fairness} vs "
                           f"reference {fair.mean()} (se {f_se:.3g})")
        return bad


def tiny_instance(rng: np.random.Generator, name: str, max_nodes: int = 6,
                  max_arcs: int = 10) -> "graph.Instance":
    """Random directed graph with at most max_arcs arcs, two communities."""
    n = int(rng.integers(2, max_nodes + 1))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    k = int(rng.integers(1, min(max_arcs, len(possible)) + 1))
    idx = rng.choice(len(possible), size=k, replace=False)
    edges = [possible[i] + (float(rng.uniform(0.05, 1.0)),) for i in idx]
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[-1] = 0, 1
    attrs = graph.NodeAttrs(cost=rng.uniform(1.0, 10.0, n),
                            benefit=rng.uniform(1.0, 10.0, n),
                            community=labels.astype(np.int64))
    return graph.Instance(
        id=name, graph=graph.graph_from_edges(n, edges, directed=True),
        attrs=attrs,
        parts=graph.CommunityPartition.from_labels(labels, attrs.benefit))


class MCTiny:
    """Exact oracle plus a Monte Carlo estimate on each of 50 tiny graphs."""

    name = "mc-tiny"
    tick = "diffusion.estimate_spread_and_benefit"

    def __init__(self, seed: int, sizes: Sizes = FULL):
        self.seed, self.sizes = seed, sizes

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0x71])
        self.cases = []
        for case in range(self.sizes.tiny_cases):
            inst = tiny_instance(rng, f"tiny-{case:02d}")
            k = int(rng.integers(1, inst.graph.n + 1))
            nodes = rng.choice(inst.graph.n, size=k, replace=False)
            s = diffusion.SeedSet.build(list(nodes), inst.attrs)
            self.cases.append((inst, s, derive_seed(self.seed, case)))

    def observers(self) -> dict:
        return {}

    def round(self):
        m = self.sizes.tiny_rollouts
        out = []
        for inst, s, stream in self.cases:
            exact = diffusion.exact_expected_profit(inst.graph, inst.attrs, s)
            _, mean_benefit, benefits = diffusion.estimate_spread_and_benefit(
                inst.graph, inst.attrs, s, m, stream)
            out.append((exact, mean_benefit - s.total_cost,
                        float(benefits.std(ddof=1)) / np.sqrt(m)))
        return len(self.cases), out

    def signature(self, out) -> tuple:
        return tuple(out)

    def check_counts(self, v) -> list[str]:
        rollouts = len(self.cases) * self.sizes.tiny_rollouts
        return mismatches({
            "diffusion.rollout_masks_rollouts": (v.count("rollouts"), rollouts),
            "diffusion.exact_expected_profit calls": (
                v.calls("diffusion.exact_expected_profit"), len(self.cases)),
        })

    def check(self, out) -> list[str]:
        bad = []
        hits = 0
        for (inst, s, _), (exact, mc, se) in zip(self.cases, out):
            g, attrs = inst.graph, inst.attrs
            src, dst, probs = g.arc_arrays()
            own = reference.exact_profit(g.n, src, dst, probs, attrs.benefit,
                                         attrs.cost, s.nodes)
            scale = max(1.0, abs(own))
            if abs(own - exact) > 1e-9 * scale:
                bad.append(f"{inst.id}: exact_expected_profit {exact} vs "
                           f"enumeration {own}")
            # roundoff floor for cascades that never vary (se ~ 0)
            hits += abs(mc - own) <= max(4.0 * se, 1e-9 * scale)
        # criterion 1: at least 48 of 50 estimates within 4 SE
        if hits < len(self.cases) - 2:
            bad.append(f"only {hits}/{len(self.cases)} estimates within 4 SE")
        return bad


WORKLOADS = {w.name: w for w in (TrainBA, EvalBA, MCTiny)}
