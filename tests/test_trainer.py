import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from fairseed.diffusion import (SeedSet, exact_expected_shaped_objective,
                                live_arcs)
from fairseed.embedding import compute_embeddings, init_embedding_params
from fairseed.graph import InstancePool
from fairseed.metrics import FairnessConfig, evaluate_seed_set
from fairseed import trainer
from fairseed import qnet
from fairseed.qnet import QNetwork, adam_step, encode_states, hidden_table
from fairseed.trainer import (CheckpointError, TrainConfig, TrainedPolicy,
                              Transition, _bellman_targets,
                              epsilon_greedy_select, load_checkpoint,
                              save_checkpoint, select_seed_set, train)

from conftest import (bfs_reach, feasible_candidates, fresh_rollout,
                      make_instance, mask_shaped_return, outside_replay,
                      q_forward_batch, q_forward_table, random_tiny_instance,
                      replay_record)

D_EMB = 8


def toy_instance(name="toy", cost=None, benefit=None):
    edges = [(0, 1, 0.6), (1, 2, 0.6), (2, 3, 0.6), (3, 4, 0.6), (0, 4, 0.6),
             (1, 5, 0.6)]
    return make_instance(name, 6, edges, directed=False,
                         cost=cost or [2, 3, 1, 4, 2, 3],
                         benefit=benefit or [5, 4, 3, 2, 1, 6],
                         labels=[0, 0, 1, 1, 1, 1])


def toy_config(**kw):
    defaults = dict(budget=6.0, episodes=10, d_emb=D_EMB, t_emb=2, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


def toy_policy(instance, config, seed=0):
    embed = init_embedding_params(config.d_emb, seed)
    net = QNetwork.init(config.d_emb + 3, seed, hidden=16)
    h = compute_embeddings(instance.graph, instance.attrs, embed, config.t_emb)
    return TrainedPolicy(net=net, embed=embed, t_emb=config.t_emb), h


def run_episode(net, instance, h, config, epsilon, rng):
    """trainer.run_episode on a table built from `net` as it stands."""
    table = hidden_table(net, h, instance.attrs.cost, config.budget)
    return trainer.run_episode(net, instance, table, config, epsilon, rng)


def feasible_mask(selected, cost, remaining):
    mask = np.zeros(len(cost), dtype=bool)
    mask[feasible_candidates(selected, cost, remaining)] = True
    return mask


def reference_targets(net, batch, insts, embeddings, table_of, cfg):
    """_bellman_targets, on the same arguments, from whole encode_states
    rows, one transition at a time: the next state holds `seeds_before` and the action, and one with
    no budget left, or no node that fits, adds nothing to the reward."""
    states, targets = [], []
    for t in batch:
        inst, h = insts[t.instance_id], embeddings[t.instance_id]
        cost = inst.attrs.cost
        km = max(1, int(cfg.budget // cost.min()))
        pre = t.budget_after + float(cost[t.action])
        states.append(encode_states(np.array([t.action]), h,
                                    len(t.seeds_before), pre,
                                    inst.attrs, cfg.budget, km)[0])
        y = t.reward
        after = (*t.seeds_before, t.action)
        cands = np.array([v for v in range(inst.graph.n)
                          if v not in after and cost[v] <= t.budget_after])
        if t.budget_after > 0.0 and len(cands):
            nxt = encode_states(cands, h, len(after), t.budget_after,
                                inst.attrs, cfg.budget, km)
            y += cfg.discount * q_forward_batch(net, nxt).max()
        targets.append(y)
    return np.array(states), np.array(targets)


class TestReplayBuffer:
    """train's FIFO replay, in a run that wraps a small buffer many times
    over."""

    @staticmethod
    def record(monkeypatch):
        cfg = toy_config(episodes=60, update_period=1, batch_size=4,
                         replay_capacity=6)
        run, batches = replay_record(monkeypatch)
        sizes = []
        pool = InstancePool(train=(toy_instance("a"), toy_instance("b")),
                            test=(toy_instance("c"),), seed=0)
        train(cfg, pool,
              progress=lambda ev: sizes.append((ev["buffer_size"], len(run))))
        assert len(run) > 5 * cfg.replay_capacity
        assert sum(n > 2 * cfg.replay_capacity for _, n in batches) > 10
        return cfg, run, batches, sizes

    def test_fifo_eviction(self, monkeypatch):
        # every sampled transition is, by identity, one of the last
        # replay_capacity transitions run, and the buffer holds no more
        cfg, run, batches, sizes = self.record(monkeypatch)
        assert outside_replay(run, batches, cfg.replay_capacity) == 0
        assert all(size == min(n, cfg.replay_capacity) for size, n in sizes)

    def test_sample_size(self, monkeypatch):
        cfg, _, batches, _ = self.record(monkeypatch)
        assert all(len(b) == cfg.batch_size for b, _ in batches)


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(budget=0.0), dict(discount=1.0), dict(epsilon_min=0.0),
        dict(epsilon_start=1.5), dict(epsilon_decay=0.0),
        dict(batch_size=20000), dict(update_period=0),
        dict(fairness_weight=-1.0), dict(episodes=0),
        dict(budget=float("nan")), dict(budget=float("inf")),
        dict(batch_size=0),
        dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
        dict(learning_rate=0.0), dict(learning_rate=-1.0),
        dict(fairness_weight=float("nan")),
        dict(fairness_weight=float("inf")),
        dict(replay_capacity=0),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            toy_config(**kw)

    def test_defaults_valid(self):
        toy_config()


class TestEpsilonGreedy:
    def test_none_when_nothing_feasible(self, rng):
        inst = toy_instance()
        cfg = toy_config()
        policy, h = toy_policy(inst, cfg)
        table = hidden_table(policy.net, h, inst.attrs.cost, 100.0)
        cost = inst.attrs.cost
        got = epsilon_greedy_select(
            policy.net, table, feasible_mask(set(range(6)), cost, 100.0),
            6, 0.5, 100.0, 100.0, 10, rng)
        assert got is None
        got = epsilon_greedy_select(
            policy.net, table, feasible_mask(set(), cost, 0.5), 0, 0.5,
            0.5, 100.0, 10, rng)
        assert got is None  # cheapest node costs 1

    def test_zero_net_tie_breaks_to_lowest_id(self, rng):
        inst = toy_instance()
        cfg = toy_config()
        policy, h = toy_policy(inst, cfg)
        for name in policy.net.PARAM_NAMES:
            getattr(policy.net, name)[:] = 0.0
        table = hidden_table(policy.net, h, inst.attrs.cost, 10.0)
        got = epsilon_greedy_select(
            policy.net, table, feasible_mask(set(), inst.attrs.cost, 10.0),
            0, 0.0, 10.0, 10.0, 10, rng)
        assert got == 0

    def test_selected_skipped(self, rng):
        inst = toy_instance()
        cfg = toy_config()
        policy, h = toy_policy(inst, cfg)
        for name in policy.net.PARAM_NAMES:
            getattr(policy.net, name)[:] = 0.0
        table = hidden_table(policy.net, h, inst.attrs.cost, 10.0)
        got = epsilon_greedy_select(
            policy.net, table, feasible_mask({0, 1}, inst.attrs.cost, 10.0),
            2, 0.0, 10.0, 10.0, 10, rng)
        assert got == 2

    def test_epsilon_one_uniform(self, rng):
        inst = toy_instance()
        cfg = toy_config()
        policy, h = toy_policy(inst, cfg)
        table = hidden_table(policy.net, h, inst.attrs.cost, 100.0)
        feasible = feasible_mask(set(), inst.attrs.cost, 100.0)
        draws = [
            epsilon_greedy_select(policy.net, table, feasible, 0, 1.0, 100.0,
                                  100.0, 10, rng)
            for _ in range(10_000)
        ]
        counts = np.bincount(draws, minlength=6)
        _, p = chisquare(counts)
        assert p > 0.001


class TestKeptFeasibleMask:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(0.5, 10.0), min_size=1, max_size=12),
           st.floats(0.0, 1.2), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_candidates_equal_feasible_candidates(self, costs, share,
                                                  epsilon, seed):
        # the mask kept across an episode's steps offers, at every step,
        # exactly the unselected nodes that fit the remaining budget
        n = len(costs)
        inst = make_instance("kept", n, [(v, v + 1, 0.5) for v in range(n - 1)],
                             cost=costs, benefit=[1.0] * n)
        cost = inst.attrs.cost
        budget = float(cost.min()) + share * float(cost.sum())
        policy, h = toy_policy(inst, toy_config(budget=budget))
        chosen, offered = [], []

        def spy(net, table, feasible, seed_count, eps, remaining, *rest):
            offered.append((np.flatnonzero(feasible), seed_count, remaining,
                            list(chosen)))
            return select(net, table, feasible, seed_count, eps, remaining,
                          *rest)

        select = trainer.epsilon_greedy_select
        table = hidden_table(policy.net, h, cost, budget)
        with mock.patch.object(trainer, "epsilon_greedy_select", spy):
            for action, _ in trainer._steps(policy.net, table, cost, budget,
                                            epsilon,
                                            np.random.default_rng(seed)):
                chosen.append(action)
        assert offered
        for cands, seed_count, remaining, before in offered:
            assert seed_count == len(before)
            assert np.array_equal(
                cands, feasible_candidates(set(before), cost, remaining))


class TestRunEpisode:
    def test_budget_below_min_cost(self, rng):
        inst = toy_instance()
        cfg = toy_config(budget=0.5)
        policy, h = toy_policy(inst, cfg)
        assert run_episode(policy.net, inst, h, cfg, 1.0, rng) == []

    def test_forced_single_step(self, rng):
        inst = toy_instance(cost=[1, 9, 9, 9, 9, 9])
        cfg = toy_config(budget=1.0)
        policy, h = toy_policy(inst, cfg)
        transitions = run_episode(policy.net, inst, h, cfg, 0.0, rng)
        assert len(transitions) == 1
        assert transitions[0].budget_after <= 0.0
        assert transitions[0].action == 0

    def test_step_rewards_are_increments(self, rng, monkeypatch):
        # each step's reward is the shaped return of the seeds so far minus
        # that of the step before; negatives are stored as-is and the first
        # step bootstraps from 0
        returns = iter([7.5, 10.0, 4.0, 4.0, 9.0, 1.0])
        monkeypatch.setattr(trainer, "shaped_return",
                            lambda *args: next(returns))
        inst = toy_instance(cost=[1] * 6)
        cfg = toy_config(budget=6.0)
        policy, h = toy_policy(inst, cfg)
        ts = run_episode(policy.net, inst, h, cfg, 0.0, rng)
        assert [t.reward for t in ts] == [7.5, 2.5, -6.0, 0.0, 5.0, -8.0]

    def test_step_rewards_sum_to_final_shaped_return(self):
        # the episode's realization is the first draw of its generator; on
        # it, each prefix of rewards sums to that prefix's shaped return
        inst = toy_instance()
        g, attrs = inst.graph, inst.attrs
        cfg = toy_config(budget=8.0, fairness_weight=2.5)
        policy, h = toy_policy(inst, cfg)
        for seed in range(20):
            ts = run_episode(policy.net, inst, h, cfg, 0.5,
                             np.random.default_rng(seed))
            live = np.random.default_rng(seed).random(g.num_arcs) < g.probs
            src, dst, _ = g.arc_arrays()
            assert ts
            total = 0.0
            for t in ts:
                total += t.reward
                s = SeedSet.build((*t.seeds_before, t.action), attrs)
                mask = bfs_reach(g.n, src, dst, live, s.nodes)
                assert total == pytest.approx(
                    mask_shaped_return(attrs, inst.parts, mask, s.total_cost,
                                       cfg.fairness_weight),
                    rel=1e-12, abs=1e-12)

    def test_mean_return_matches_exact_objective(self):
        # a greedy (epsilon 0) episode repeats one action sequence, so its
        # return averages over realizations to the exact shaped objective
        # of the final seed set
        rng = np.random.default_rng(2024)
        tiny = (random_tiny_instance(rng) for _ in range(20))
        for trial, inst in enumerate([i for i in tiny if i.graph.n >= 4][:3]):
            cfg = toy_config(budget=float(inst.attrs.cost.sum()) * 0.6,
                             fairness_weight=3.0)
            policy, h = toy_policy(inst, cfg, seed=trial)
            episodes = 3000
            returns, finals = np.empty(episodes), set()
            for k in range(episodes):
                ts = run_episode(policy.net, inst, h, cfg, 0.0, rng)
                returns[k] = sum(t.reward for t in ts)
                finals.add((*ts[-1].seeds_before, ts[-1].action))
            assert len(finals) == 1 and len(ts) > 1
            s = SeedSet.build(finals.pop(), inst.attrs)
            exact = exact_expected_shaped_objective(
                inst.graph, inst.attrs, inst.parts, s, cfg.fairness_weight)
            se = returns.std(ddof=1) / np.sqrt(episodes)
            assert abs(returns.mean() - exact) <= max(4 * se, 1e-9)

    def test_horizon_bound_and_chain(self, rng):
        inst = toy_instance()
        cfg = toy_config(budget=8.0)
        policy, h = toy_policy(inst, cfg)
        for _ in range(20):
            ts = run_episode(policy.net, inst, h, cfg, 0.7, rng)
            c_min = inst.attrs.cost.min()
            assert len(ts) <= int(cfg.budget // c_min)
            total = 0.0
            for prev, nxt in zip(ts, ts[1:]):
                assert nxt.seeds_before == (*prev.seeds_before, prev.action)
            for t in ts:
                total += inst.attrs.cost[t.action]
                assert t.budget_after >= 0.0
                assert np.isfinite(t.reward)
            assert total <= cfg.budget


class TestTrain:
    def pool(self):
        return InstancePool(train=(toy_instance("a"), toy_instance("b")),
                            test=(toy_instance("c"),), seed=0)

    def test_update_arithmetic_and_epsilon_schedule(self):
        events = []
        cfg = toy_config(episodes=9, update_period=2, batch_size=4)
        train(cfg, self.pool(), progress=events.append)
        assert len(events) == 9
        for ev in events:
            e = ev["episode"]
            expected_eps = max(cfg.epsilon_start * cfg.epsilon_decay ** e,
                               cfg.epsilon_min)
            assert ev["epsilon"] == pytest.approx(expected_eps)
            if e % 2 == 1:
                assert ev["loss"] is None
            elif ev["buffer_size"] >= 4:
                assert ev["loss"] is not None

    def test_single_episode_no_step(self):
        events = []
        cfg = toy_config(episodes=1, update_period=2)
        train(cfg, self.pool(), progress=events.append)
        assert events[0]["loss"] is None

    def test_deterministic(self):
        cfg = toy_config(episodes=6, batch_size=4)
        p1 = train(cfg, self.pool())
        p2 = train(cfg, self.pool())
        assert np.array_equal(p1.net.w1, p2.net.w1)
        assert np.array_equal(p1.embed.w_agg, p2.embed.w_agg)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            train(toy_config(), InstancePool(train=(), test=(), seed=0))

    def test_budget_below_every_cheapest_node_rejected(self):
        # toy costs start at 1: no episode could select a node
        with pytest.raises(ValueError, match="cheapest node"):
            train(toy_config(budget=0.5), self.pool())

    def test_one_affordable_instance_is_enough(self):
        dear = toy_instance("dear", cost=[5, 5, 5, 5, 5, 5])
        pool = InstancePool(train=(dear, toy_instance("a")), test=(), seed=0)
        events = []
        train(toy_config(budget=1.0, episodes=4, batch_size=1), pool,
              progress=events.append)
        assert any(e["loss"] is not None for e in events)

    def test_phi_zero_single_community_is_pure_profit(self):
        # with one community, fairness is the whole-graph benefit ratio and
        # contributes nothing when the weight is zero
        inst = make_instance("solo", 4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)],
                             cost=[1, 1, 1, 1], benefit=[2, 3, 4, 5],
                             labels=[0, 0, 0, 0])
        g = inst.graph
        s = SeedSet.build([0, 2], inst.attrs)
        live = np.random.default_rng(3).random(g.num_arcs) < g.probs
        mask = fresh_rollout(g, live, s.nodes)
        reward = mask_shaped_return(inst.attrs, inst.parts, mask,
                                    s.total_cost, 0.0)
        assert reward == mask @ inst.attrs.benefit - s.total_cost
        fair = mask_shaped_return(inst.attrs, inst.parts, mask, s.total_cost,
                                  1.0)
        assert fair - reward == pytest.approx(mask @ inst.attrs.benefit / 14.0)


class TestTableLifetime:
    """Q-values scored from hidden-layer tables, and the tables' bounds,
    equal the full-state reference on the network as it stands right after
    a parameter update."""

    @staticmethod
    def update(net, rng):
        grads = {n: rng.normal(size=getattr(net, n).shape)
                 for n in net.PARAM_NAMES}
        adam_step(net, grads, lr=0.05)

    def test_episode_after_update(self, rng, monkeypatch):
        inst = toy_instance()
        cfg = toy_config(budget=8.0)
        policy, h = toy_policy(inst, cfg)
        net = policy.net
        # per call: (table Q-values, reference Q-values, the scorer's pick,
        # the mask, the reference's node-dependent part P_v, table)
        scored = []
        original = trainer.best_feasible

        def checked(net_, table, feasible, seed_count, remaining, budget,
                    k_max):
            got = original(net_, table, feasible, seed_count, remaining,
                           budget, k_max)
            states = encode_states(np.arange(inst.graph.n), h, seed_count,
                                   remaining, inst.attrs, budget, k_max)
            want = q_forward_batch(net, states)
            shift = states[0, -2:] @ net.w1[:, -2:].T
            scored.append((q_forward_table(net_, table, seed_count, remaining,
                                           budget, k_max), want, got,
                           feasible.copy(), want - shift @ net.w2 - net.b2[0],
                           table))
            return got

        monkeypatch.setattr(trainer, "best_feasible", checked)
        run_episode(net, inst, h, cfg, 0.0, rng)
        first = len(scored)
        self.update(net, rng)
        run_episode(net, inst, h, cfg, 0.0, rng)
        assert 0 < first < len(scored)
        for got, want, pick, feasible, p, table in scored[first:]:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            ids = np.flatnonzero(feasible)
            assert pick == ids[np.argmax(want[ids])]
            # the pick's value, which a one-candidate step does not score
            assert got[pick] == pytest.approx(want[ids].max(), rel=0,
                                              abs=1e-12)
            # these steps lie in the box, so the bounds hold
            slack = table.margin + 1e-12
            assert np.all(table.lower - slack <= p)
            assert np.all(p <= table.upper + slack)
        # both episodes open on the same state, so a table kept across the
        # update would have repeated the first episode's opening values
        assert np.abs(scored[first][0] - scored[0][0]).max() > 1e-6

    def test_bellman_targets_after_update(self, rng):
        insts = {"a": toy_instance("a"),
                 "b": toy_instance("b", cost=[1, 2, 2, 3, 1, 4])}
        cfg = toy_config(budget=8.0)
        policy, _ = toy_policy(insts["a"], cfg)
        net = policy.net
        embeddings = {k: policy.embeddings_for(i) for k, i in insts.items()}
        batch = [t for _ in range(4) for k in ("a", "b")
                 for t in run_episode(net, insts[k], embeddings[k], cfg, 0.7,
                                      rng)]

        def table_of(k):
            return hidden_table(net, embeddings[k], insts[k].attrs.cost,
                                cfg.budget)

        args = (batch, insts, embeddings, table_of, cfg)
        _, before = _bellman_targets(net, *args)
        self.update(net, rng)
        states, targets = _bellman_targets(net, *args)
        want_states, want_targets = reference_targets(net, *args)
        assert np.array_equal(states, want_states)
        np.testing.assert_allclose(targets, want_targets, rtol=0, atol=1e-12)
        assert np.abs(targets - before).max() > 1e-6

    def targets_and_reference(self, batch, cfg):
        """_bellman_targets of `batch` on the toy instance "a", and the
        reference's."""
        insts = {"a": toy_instance("a")}
        policy, h = toy_policy(insts["a"], cfg)
        args = (batch, insts, {"a": h},
                lambda k: hidden_table(policy.net, h, insts[k].attrs.cost,
                                       cfg.budget), cfg)
        return (_bellman_targets(policy.net, *args),
                reference_targets(policy.net, *args))

    def test_first_step_batch(self, rng):
        # every seeds_before is empty: each next state holds the action alone
        cfg = toy_config(budget=8.0)
        inst = toy_instance("a")
        policy, h = toy_policy(inst, cfg)
        batch = [run_episode(policy.net, inst, h, cfg, 1.0, rng)[0]
                 for _ in range(8)]
        assert all(t.seeds_before == () for t in batch)
        (states, targets), (want_states, want_targets) = \
            self.targets_and_reference(batch, cfg)
        assert np.array_equal(states, want_states)
        np.testing.assert_allclose(targets, want_targets, rtol=0, atol=1e-12)
        assert np.all(targets != [t.reward for t in batch])

    @pytest.mark.parametrize("rows", [slice(None), slice(1, 2)])
    def test_no_budget_left_target_is_the_reward(self, rows):
        # costs 2 + 2 + 4 spend the whole budget of 8: nothing fits the
        # next state of action 3, so its target is its reward, exactly,
        # in a batch of mixed seed counts and in a batch of its own
        cfg = toy_config(budget=8.0)
        batch = [Transition("a", (), 2, 3.0, 7.0),
                 Transition("a", (0, 4), 3, -2.25, 0.0),
                 Transition("a", (2,), 0, 1.5, 5.0)][rows]
        (states, targets), (want_states, want_targets) = \
            self.targets_and_reference(batch, cfg)
        assert np.array_equal(states, want_states)
        np.testing.assert_allclose(targets, want_targets, rtol=0, atol=1e-12)
        done = [i for i, t in enumerate(batch) if t.budget_after == 0.0]
        assert done and targets[done[0]] == -2.25
        assert all(targets[i] != t.reward
                   for i, t in enumerate(batch) if i not in done)

    def test_discount_zero_targets_are_the_rewards(self, rng, monkeypatch):
        # no bootstrap at discount 0: no next-state table, mask or score
        insts = {"a": toy_instance("a")}
        cfg = toy_config(budget=8.0, discount=0.0)
        policy, h = toy_policy(insts["a"], cfg)
        net, embeddings = policy.net, {"a": h}
        batch = [t for _ in range(4)
                 for t in run_episode(net, insts["a"], h, cfg, 0.7, rng)]
        assert any(t.budget_after > 0.0 for t in batch)
        want_states, _ = _bellman_targets(
            net, batch, insts, embeddings,
            lambda k: hidden_table(net, h, insts[k].attrs.cost, cfg.budget),
            toy_config(budget=8.0))
        calls = []
        monkeypatch.setattr(trainer, "best_feasible",
                            lambda *args: calls.append("score"))
        states, targets = _bellman_targets(net, batch, insts, embeddings,
                                           lambda k: calls.append("table"),
                                           cfg)
        assert calls == []
        assert np.array_equal(targets, [t.reward for t in batch])
        assert np.array_equal(states, want_states)

    def test_train_scores_from_current_tables(self, monkeypatch):
        # every table that scores an episode step or a Bellman target is
        # hidden_table of the network as it stands, bit for bit; none
        # outlives an update, and each instance's table is built at most
        # once per update. Each instance keeps one table, rebuilt in place:
        # its storage is the same object at every update.
        pool = InstancePool(train=(toy_instance("a"),
                                   toy_instance("b", cost=[1, 2, 2, 3, 1, 4])),
                            test=(toy_instance("c"),), seed=0)
        cfg = toy_config(budget=8.0, episodes=14, batch_size=4,
                         epsilon_start=0.3, epsilon_min=0.1)
        update = [0]
        built = {}       # id(table) -> (table, h, cost, budget, update)
        builds = []      # (update, id(cost)) per hidden_table call
        storage = {}     # id(cost) -> the arrays of its first table
        scored = {"episode": 0, "target": 0}
        phase = ["episode"]
        nets = []

        def counting_table(net, h, cost, budget, out=None):
            nets.append(net)
            assert out is None or built[id(out)][2] is cost
            table = qnet.hidden_table(net, h, cost, budget, out=out)
            built[id(table)] = (table, h, cost, budget, update[0])
            builds.append((update[0], id(cost)))
            arrays = (table.design, table.hidden, table.upper, table.lower)
            first = storage.setdefault(id(cost), arrays)
            assert all(a is b for a, b in zip(arrays, first))
            return table

        def check_current(net, table, where):
            assert phase[0] == where
            kept, h, cost, budget, made = built[id(table)]
            assert kept is table and made == update[0]
            fresh = qnet.hidden_table(net, h, cost, budget)
            assert np.array_equal(table.hidden, fresh.hidden)
            assert np.array_equal(table.upper, fresh.upper)
            assert np.array_equal(table.lower, fresh.lower)
            assert (table.margin, table.prunes) == (fresh.margin, fresh.prunes)
            scored[where] += 1

        def checked_score(net, table, *rest):
            check_current(net, table, "episode")
            return qnet.best_feasible(net, table, *rest)

        def checked_rows(net, table, *rest):
            check_current(net, table, "target")
            return qnet.best_feasible_rows(net, table, *rest)

        def counted_step(*args):
            update[0] += 1
            return qnet.adam_step(*args)

        def in_targets(*args):
            phase[0] = "target"
            try:
                return _bellman_targets(*args)
            finally:
                phase[0] = "episode"

        monkeypatch.setattr(trainer, "hidden_table", counting_table)
        monkeypatch.setattr(trainer, "best_feasible", checked_score)
        monkeypatch.setattr(trainer, "best_feasible_rows", checked_rows)
        monkeypatch.setattr(trainer, "adam_step", counted_step)
        monkeypatch.setattr(trainer, "_bellman_targets", in_targets)
        policy = train(cfg, pool)
        assert update[0] >= 5
        assert scored["episode"] > 0 and scored["target"] > 0
        assert len(builds) == len(set(builds))
        assert all(net is nets[0] for net in nets)
        # tables rebuilt after updates, in place
        assert len(builds) > len(storage) == 2
        # selection builds a standalone table: no array of it is shared
        # with a table of training
        training = [a for arrays in storage.values() for a in arrays]
        selected = []

        def standalone(*args, **kw):
            selected.append(qnet.hidden_table(*args, **kw))
            return selected[-1]

        monkeypatch.setattr(trainer, "best_feasible", qnet.best_feasible)
        monkeypatch.setattr(trainer, "hidden_table", standalone)
        for inst in pool.train + pool.test:
            select_seed_set(policy, inst, cfg.budget)
        assert len(selected) == 3
        for table in selected:
            for a in (table.design, table.hidden, table.upper, table.lower):
                assert not any(np.shares_memory(a, b) for b in training)

    def test_rebuilt_in_place_equals_a_fresh_table(self, rng):
        # a table rebuilt in place after an update equals a standalone
        # hidden_table of the updated network bit for bit, in the same arrays
        inst = toy_instance()
        cfg = toy_config(budget=8.0)
        policy, h = toy_policy(inst, cfg)
        net = policy.net
        table = hidden_table(net, h, inst.attrs.cost, cfg.budget)
        arrays = (table.design, table.hidden, table.upper, table.lower)
        before = table.hidden.copy()
        for _ in range(3):
            self.update(net, rng)
            again = hidden_table(net, h, inst.attrs.cost, cfg.budget,
                                 out=table)
            fresh = hidden_table(net, h, inst.attrs.cost, cfg.budget)
            assert again is table
            assert all(a is b for a, b in zip(
                (table.design, table.hidden, table.upper, table.lower),
                arrays))
            for name in ("design", "hidden", "upper", "lower"):
                assert np.array_equal(getattr(table, name),
                                      getattr(fresh, name))
            assert (table.margin, table.prunes) == (fresh.margin, fresh.prunes)
        assert not np.array_equal(table.hidden, before)


class TestMaxSeeds:
    def test_k_over_k_max_stays_in_the_box(self, rng, monkeypatch):
        # 40 nodes of cost 0.6 at budget 16.2: 16.2 // 0.6 gives 26, but
        # taking 0.6 off the remaining budget in floating point leaves room
        # for a 27th seed, and a non-terminal next state (6e-15 left) with
        # 27 seeds; k/k_max must not exceed 1 at any step or next state
        inst = make_instance("flat", 40, [(v, v + 1, 0.5) for v in range(39)],
                             cost=np.full(40, 0.6))
        budget = 16.2
        assert int(budget // 0.6) == 26
        assert trainer._max_seeds(inst.attrs.cost, budget) == 27
        ratios = []  # k/k_max of every scored step and next state

        def score(net, table, feasible, seed_count, remaining, budget_,
                  k_max):
            ratios.append(seed_count / k_max)
            return qnet.best_feasible(net, table, feasible, seed_count,
                                      remaining, budget_, k_max)

        def score_rows(net, table, feasible, seed_count, remaining, budget_,
                       k_max):
            ratios.extend(seed_count / k_max)
            return qnet.best_feasible_rows(net, table, feasible, seed_count,
                                           remaining, budget_, k_max)

        monkeypatch.setattr(trainer, "best_feasible", score)
        monkeypatch.setattr(trainer, "best_feasible_rows", score_rows)
        cfg = toy_config(budget=budget)
        policy, h = toy_policy(inst, cfg)
        episode = run_episode(policy.net, inst, h, cfg, 0.0, rng)
        assert len(episode) == 27 and episode[-1].budget_after > 0.0
        _bellman_targets(policy.net, episode, {inst.id: inst}, {inst.id: h},
                         lambda _: hidden_table(policy.net, h, inst.attrs.cost,
                                                budget), cfg)
        assert ratios[-1] == 1.0  # the last next state holds all 27 seeds
        assert len(select_seed_set(policy, inst, budget, h)) == 27
        assert len(ratios) == 27 + 27 + 27 and max(ratios) == 1.0

    @pytest.mark.parametrize("cost,budget,want", [
        ([2, 3, 1, 4, 2, 3], 6.0, 6),    # the toy instance: the floor
        ([2, 3, 1, 4, 2, 3], 80.0, 80),  # more than n: the floor
        ([5.0], 1.0, 1),                 # nothing fits: at least 1
        ([1e-12] * 3, 1e3, 10**15),      # tiny costs: the floor, at once
    ])
    def test_floor_kept_where_it_does_not_undercount(self, cost, budget,
                                                     want):
        assert trainer._max_seeds(np.array(cost, dtype=float), budget) == want

    def test_budget_over_cost_overflow_rejected(self):
        # 1e300 / 1e-300 overflows to inf, which has no integer floor
        with pytest.raises(ValueError, match="not finite"):
            trainer._max_seeds(np.array([1e-300, 2e-300]), 1e300)


class TestInference:
    def test_budget_too_small_empty(self):
        inst = toy_instance()
        cfg = toy_config()
        policy, _ = toy_policy(inst, cfg)
        seeds = select_seed_set(policy, inst, budget=0.5)
        report, _, _ = evaluate_seed_set(inst.graph, inst.attrs, inst.parts,
                                         seeds, live_arcs(inst.graph, 10, 0),
                                         FairnessConfig())
        assert len(seeds) == 0
        assert report.profit == 0.0

    def test_budget_respected_and_deterministic(self):
        inst = toy_instance()
        cfg = toy_config()
        policy, _ = toy_policy(inst, cfg)
        s1 = select_seed_set(policy, inst, budget=7.0)
        s2 = select_seed_set(policy, inst, budget=7.0)
        assert s1.nodes == s2.nodes
        assert s1.total_cost <= 7.0

    @pytest.mark.parametrize("where", ["w1", "w1_cost", "w1_shift", "b1",
                                       "w2", "b2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_network_raises(self, where, bad, rng):
        # a greedy step left with one candidate picks it unscored, so no
        # score's finiteness check runs there: hidden_table must reject a
        # network that is not finite before any pick, in selection and in
        # training episodes alike
        inst = toy_instance()
        cfg = toy_config(budget=8.0)
        policy, h = toy_policy(inst, cfg)
        net = policy.net
        d = net.in_dim - 3
        name, index = {"w1": ("w1", (0, 0)), "w1_cost": ("w1", (1, d)),
                       "w1_shift": ("w1", (2, d + 2)), "b1": ("b1", 3),
                       "w2": ("w2", 4), "b2": ("b2", 0)}[where]
        getattr(net, name)[index] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                select_seed_set(policy, inst, cfg.budget, h)
            with pytest.raises(ValueError, match="not finite"):
                run_episode(net, inst, h, cfg, 0.0, rng)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = toy_config(episodes=4, batch_size=4)
        pool = InstancePool(train=(toy_instance("a"),),
                            test=(toy_instance("b"),), seed=0)
        policy = train(cfg, pool)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, policy, cfg)
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.net.w1, policy.net.w1)
        assert np.array_equal(loaded.embed.w_feat, policy.embed.w_feat)
        assert loaded.net.step == policy.net.step
        assert meta["d_emb"] == cfg.d_emb
        # inference agrees after reload
        inst = pool.test[0]
        assert select_seed_set(loaded, inst, 6.0).nodes \
            == select_seed_set(policy, inst, 6.0).nodes

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg = toy_config(episodes=2)
        pool = InstancePool(train=(toy_instance("a"),),
                            test=(), seed=0)
        policy = train(cfg, pool)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, policy, cfg)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect_d_emb=64)

    @pytest.mark.parametrize("name", ["b1", "w2", "b2", "adam_m_w1",
                                      "adam_v_b2", "embed_w_agg"])
    def test_wrong_parameter_shape_rejected(self, tmp_path, name):
        cfg = toy_config(episodes=2)
        policy = train(cfg, InstancePool(train=(toy_instance("a"),),
                                         test=(), seed=0))
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, policy, cfg)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = np.zeros(3)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["w1", "w2", "embed_w_feat",
                                      "adam_v_b1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, "x"])
    def test_non_finite_or_non_float_parameter_rejected(self, tmp_path,
                                                        name, bad):
        cfg = toy_config(episodes=2)
        policy = train(cfg, InstancePool(train=(toy_instance("a"),),
                                         test=(), seed=0))
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, policy, cfg)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = arrays[name].astype(type(bad))
        arrays[name].flat[0] = bad
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [
        [1, 2], "meta", {"t_emb": 0}, {"t_emb": "x"}, {"t_emb": 2.0},
        {"hidden": 0}, {"hidden": -16}, {"d_emb": True}, {"d_emb": None},
        {"in_dim": "11"}, {"config": 7},
    ], ids=["list", "string", "t_emb-0", "t_emb-x", "t_emb-float", "hidden-0",
            "hidden-negative", "d_emb-bool", "d_emb-null", "in_dim-string",
            "config-number"])
    def test_malformed_metadata_rejected(self, tmp_path, change):
        # metadata that is not a JSON object, or a dimension that is not an
        # integer >= 1, is a CheckpointError, never an AttributeError or a
        # policy that fails later
        cfg = toy_config(episodes=2)
        policy = train(cfg, InstancePool(train=(toy_instance("a"),),
                                         test=(), seed=0))
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, policy, cfg)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta = {**meta, **change} if isinstance(change, dict) else change
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                       dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
