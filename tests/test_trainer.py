import json
from dataclasses import asdict
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
from fairseed.qnet import (QNetwork, adam_step, best_feasible,
                           best_feasible_rows, hidden_table)
from fairseed.trainer import (CheckpointError, TrainConfig, TrainedPolicy,
                              Transition, _bellman_targets,
                              epsilon_greedy_select, load_checkpoint,
                              save_checkpoint, select_seed_set, train)

from conftest import (DROP, bfs_reach, encode_states, feasible_candidates,
                      fresh_rollout, make_instance, mask_shaped_return,
                      outside_replay, q_forward_batch, q_forward_table,
                      random_tiny_instance, replay_record, rewrite_checkpoint)

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
    return trainer.run_episode(table, instance, config, epsilon, rng)


def feasible_mask(selected, cost, remaining):
    mask = np.zeros(len(cost), dtype=bool)
    mask[feasible_candidates(selected, cost, remaining)] = True
    return mask


def reference_targets(net, batch, insts, embeddings, cfg):
    """_bellman_targets of `batch`, for `net` and the instances' embeddings,
    from whole encode_states rows, one transition at a time: the next state
    holds `seeds_before` and the action, and one with no budget left, or no
    node that fits, adds nothing to the reward."""
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

    def test_negative_seed_names_it(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            toy_config(seed=-1)

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
            table, feasible_mask(set(range(6)), cost, 100.0), 6, 0.5, 100.0,
            rng)
        assert got is None
        got = epsilon_greedy_select(
            table, feasible_mask(set(), cost, 0.5), 0, 0.5, 0.5, rng)
        assert got is None  # cheapest node costs 1

    def test_zero_net_tie_breaks_to_lowest_id(self, rng):
        inst = toy_instance()
        cfg = toy_config()
        policy, h = toy_policy(inst, cfg)
        for name in policy.net.PARAM_NAMES:
            getattr(policy.net, name)[:] = 0.0
        table = hidden_table(policy.net, h, inst.attrs.cost, 10.0)
        got = epsilon_greedy_select(
            table, feasible_mask(set(), inst.attrs.cost, 10.0), 0, 0.0, 10.0,
            rng)
        assert got == 0

    def test_selected_skipped(self, rng):
        inst = toy_instance()
        cfg = toy_config()
        policy, h = toy_policy(inst, cfg)
        for name in policy.net.PARAM_NAMES:
            getattr(policy.net, name)[:] = 0.0
        table = hidden_table(policy.net, h, inst.attrs.cost, 10.0)
        got = epsilon_greedy_select(
            table, feasible_mask({0, 1}, inst.attrs.cost, 10.0), 2, 0.0, 10.0,
            rng)
        assert got == 2

    def test_epsilon_one_uniform(self, rng):
        inst = toy_instance()
        cfg = toy_config()
        policy, h = toy_policy(inst, cfg)
        table = hidden_table(policy.net, h, inst.attrs.cost, 100.0)
        feasible = feasible_mask(set(), inst.attrs.cost, 100.0)
        draws = [
            epsilon_greedy_select(table, feasible, 0, 1.0, 100.0, rng)
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

        def spy(table, feasible, seed_count, eps, remaining, rng):
            offered.append((np.flatnonzero(feasible), seed_count, remaining,
                            list(chosen)))
            return select(table, feasible, seed_count, eps, remaining, rng)

        select = trainer.epsilon_greedy_select
        table = hidden_table(policy.net, h, cost, budget)
        with mock.patch.object(trainer, "epsilon_greedy_select", spy):
            for action, _ in trainer._steps(table, epsilon,
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

    def test_transitions_share_the_episode_actions(self, rng):
        # one episode's transitions hold one actions tuple, each with its
        # own step, so a transition's size does not grow with its episode
        inst = toy_instance()
        cfg = toy_config(budget=8.0)
        policy, h = toy_policy(inst, cfg)
        ts = run_episode(policy.net, inst, h, cfg, 0.7, rng)
        assert len(ts) > 1
        actions = ts[0].actions
        assert all(t.actions is actions for t in ts)
        assert [t.step for t in ts] == list(range(len(ts)))
        for t in ts:
            assert t.seeds_before == actions[:t.step]
            assert t.action == actions[t.step]
            assert not hasattr(t, "__dict__")


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
    a parameter update, with no table rebuilt by its caller."""

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

        def checked(table, feasible, seed_count, remaining):
            got = original(table, feasible, seed_count, remaining)
            states = encode_states(np.arange(inst.graph.n), h, seed_count,
                                   remaining, inst.attrs, table.budget,
                                   table.k_max)
            want = q_forward_batch(net, states)
            shift = states[0, -2:] @ net.w1[:, -2:].T
            scored.append((q_forward_table(table, seed_count, remaining), want,
                           got, feasible.copy(),
                           want - shift @ net.w2 - net.b2[0], table))
            return got

        monkeypatch.setattr(trainer, "best_feasible", checked)
        # one table for both episodes: it refills itself after the update
        table = hidden_table(net, h, inst.attrs.cost, cfg.budget)
        trainer.run_episode(table, inst, cfg, 0.0, rng)
        first = len(scored)
        self.update(net, rng)
        trainer.run_episode(table, inst, cfg, 0.0, rng)
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
        tables = {k: hidden_table(net, embeddings[k], insts[k].attrs.cost,
                                  cfg.budget) for k in insts}
        _, before = _bellman_targets(batch, tables, cfg)
        self.update(net, rng)
        states, targets = _bellman_targets(batch, tables, cfg)
        want_states, want_targets = reference_targets(net, batch, insts,
                                                      embeddings, cfg)
        assert np.array_equal(states, want_states)
        np.testing.assert_allclose(targets, want_targets, rtol=0, atol=1e-12)
        assert np.abs(targets - before).max() > 1e-6

    def targets_and_reference(self, batch, cfg):
        """_bellman_targets of `batch` on the toy instance "a", and the
        reference's."""
        insts = {"a": toy_instance("a")}
        policy, h = toy_policy(insts["a"], cfg)
        tables = {"a": hidden_table(policy.net, h, insts["a"].attrs.cost,
                                    cfg.budget)}
        return (_bellman_targets(batch, tables, cfg),
                reference_targets(policy.net, batch, insts, {"a": h}, cfg))

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
        batch = [Transition("a", (2,), 0, 3.0, 7.0),
                 Transition("a", (0, 4, 3), 2, -2.25, 0.0),
                 Transition("a", (2, 0), 1, 1.5, 5.0)][rows]
        (states, targets), (want_states, want_targets) = \
            self.targets_and_reference(batch, cfg)
        assert np.array_equal(states, want_states)
        np.testing.assert_allclose(targets, want_targets, rtol=0, atol=1e-12)
        done = [i for i, t in enumerate(batch) if t.budget_after == 0.0]
        assert done and targets[done[0]] == -2.25
        assert all(targets[i] != t.reward
                   for i, t in enumerate(batch) if i not in done)

    def test_discount_zero_targets_are_the_rewards(self, rng, monkeypatch):
        # no bootstrap at discount 0: the states come from the table's
        # design, which does not depend on the network, so a table left
        # stale by an update is neither refilled nor scored
        insts = {"a": toy_instance("a")}
        cfg = toy_config(budget=8.0, discount=0.0)
        policy, h = toy_policy(insts["a"], cfg)
        net = policy.net
        batch = [t for _ in range(4)
                 for t in run_episode(net, insts["a"], h, cfg, 0.7, rng)]
        assert any(t.budget_after > 0.0 for t in batch)
        tables = {"a": hidden_table(net, h, insts["a"].attrs.cost,
                                    cfg.budget)}
        want_states, _ = _bellman_targets(batch, tables,
                                          toy_config(budget=8.0))
        self.update(net, rng)
        hidden = tables["a"].hidden.copy()
        calls = []
        monkeypatch.setattr(qnet, "_current",
                            lambda table: calls.append("refill"))
        monkeypatch.setattr(trainer, "best_feasible_rows",
                            lambda *args: calls.append("score"))
        states, targets = _bellman_targets(batch, tables, cfg)
        assert calls == []
        assert tables["a"].step == 0 != net.step
        assert np.array_equal(tables["a"].hidden, hidden)
        assert np.array_equal(targets, [t.reward for t in batch])
        assert np.array_equal(states, want_states)

    def test_train_scores_from_current_tables(self, monkeypatch):
        # every table that scores an episode step or a Bellman target is,
        # as it scores, hidden_table of the network as it stands, bit for
        # bit. Each training instance keeps one table for the whole run,
        # built once and refilled in place, in the same arrays, at most once
        # per update.
        pool = InstancePool(train=(toy_instance("a"),
                                   toy_instance("b", cost=[1, 2, 2, 3, 1, 4])),
                            test=(toy_instance("c"),), seed=0)
        cfg = toy_config(budget=8.0, episodes=14, batch_size=4,
                         epsilon_start=0.3, epsilon_min=0.1)
        update = [0]
        built = {}       # id(table) -> (table, h, cost, budget)
        storage = {}     # id(table) -> the arrays it was built with
        refills = []     # (update, id(table)) per refill of a built table
        scored = {"episode": 0, "target": 0}
        phase = ["episode"]

        def counting_table(net, h, cost, budget):
            table = qnet.hidden_table(net, h, cost, budget)
            built[id(table)] = (table, h, cost, budget)
            storage[id(table)] = (table.design, table.hidden, table.upper,
                                  table.lower)
            return table

        current = qnet._current

        def counting_refill(table):
            if id(table) in built and table.step != table.net.step:
                refills.append((update[0], id(table)))
            return current(table)

        def check_current(table, where):
            assert phase[0] == where
            kept, h, cost, budget = built[id(table)]
            assert kept is table and table.step == update[0]
            fresh = qnet.hidden_table(table.net, h, cost, budget)
            for name in ("design", "hidden", "upper", "lower"):
                assert np.array_equal(getattr(table, name),
                                      getattr(fresh, name))
            assert (table.margin, table.prunes, table.k_max) \
                == (fresh.margin, fresh.prunes, fresh.k_max)
            scored[where] += 1

        def checked_score(table, *rest):
            got = qnet.best_feasible(table, *rest)
            check_current(table, "episode")
            return got

        def checked_rows(table, *rest):
            got = qnet.best_feasible_rows(table, *rest)
            check_current(table, "target")
            return got

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
        monkeypatch.setattr(qnet, "_current", counting_refill)
        monkeypatch.setattr(trainer, "best_feasible", checked_score)
        monkeypatch.setattr(trainer, "best_feasible_rows", checked_rows)
        monkeypatch.setattr(trainer, "adam_step", counted_step)
        monkeypatch.setattr(trainer, "_bellman_targets", in_targets)
        policy = train(cfg, pool)
        assert update[0] >= 5
        assert scored["episode"] > 0 and scored["target"] > 0
        # one table per training instance, for the one network
        assert len(built) == 2
        assert all(t.net is policy.net for t, *_ in built.values())
        # refilled after updates, in place, at most once per update
        assert len(refills) >= update[0] - 1
        assert len(refills) == len(set(refills))
        for key, (table, *_) in built.items():
            assert all(a is b for a, b in zip(
                (table.design, table.hidden, table.upper, table.lower),
                storage[key]))
        # selection builds a standalone table: no array of it is shared
        # with a table of training
        training = [a for arrays in storage.values() for a in arrays]
        selected = []

        def standalone(*args):
            selected.append(qnet.hidden_table(*args))
            return selected[-1]

        monkeypatch.setattr(trainer, "best_feasible", qnet.best_feasible)
        monkeypatch.setattr(trainer, "hidden_table", standalone)
        for inst in pool.train + pool.test:
            select_seed_set(policy, inst, cfg.budget)
        assert len(selected) == 3
        for table in selected:
            for a in (table.design, table.hidden, table.upper, table.lower):
                assert not any(np.shares_memory(a, b) for b in training)

    def test_train_keeps_the_tables_of_the_policy_it_returns(self,
                                                             monkeypatch):
        # every table that scores a training episode is the returned
        # policy's own table of its instance: the same network, and the
        # design, costs, budget and k_max of `policy.table` at the budget
        pool = InstancePool(train=(toy_instance("a"),
                                   toy_instance("b", cost=[1, 2, 2, 3, 1, 4])),
                            test=(toy_instance("c"),), seed=0)
        cfg = toy_config(budget=8.0, episodes=12, batch_size=4)
        kept = {}  # id(table) -> (table, instance)
        original = trainer.run_episode

        def recording(table, instance, *rest):
            kept[id(table)] = (table, instance)
            return original(table, instance, *rest)

        monkeypatch.setattr(trainer, "run_episode", recording)
        policy = train(cfg, pool)
        assert sorted(inst.id for _, inst in kept.values()) == ["a", "b"]
        for table, inst in kept.values():
            fresh = policy.table(inst, cfg.budget)
            assert table.net is policy.net and fresh.net is policy.net
            for name in ("design", "cost"):
                assert np.array_equal(getattr(table, name),
                                      getattr(fresh, name))
            assert (table.budget, table.k_max) == (fresh.budget, fresh.k_max)

    def test_rebuilt_in_place_equals_a_fresh_table(self, rng):
        # after an update, a table that its caller does not rebuild refills
        # itself in place as it next scores: its picks and values are those
        # of a fresh hidden_table of the updated network bit for bit, and so
        # are its arrays, which stay the arrays it was built with
        inst = toy_instance()
        cfg = toy_config(budget=8.0)
        policy, h = toy_policy(inst, cfg)
        net, cost = policy.net, inst.attrs.cost
        table = hidden_table(net, h, cost, cfg.budget)
        arrays = (table.design, table.hidden, table.upper, table.lower)
        before = table.hidden.copy()
        steps = [(set(), 8.0), ({2}, 7.0), ({0, 2}, 5.0), ({0, 2, 4}, 3.0)]
        masks = np.array([feasible_mask(chosen, cost, left)
                          for chosen, left in steps])
        counts = np.array([len(chosen) for chosen, _ in steps])
        left = np.array([r for _, r in steps])
        for _ in range(3):
            self.update(net, rng)
            assert table.step != net.step
            fresh = hidden_table(net, h, cost, cfg.budget)
            for mask, k, r in zip(masks, counts, left):
                assert best_feasible(table, mask, k, r) \
                    == best_feasible(fresh, mask, k, r)
            got = best_feasible_rows(table, masks, counts, left)
            want = best_feasible_rows(fresh, masks, counts, left)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            assert table.step == net.step
            assert all(a is b for a, b in zip(
                (table.design, table.hidden, table.upper, table.lower),
                arrays))
            for name in ("design", "hidden", "upper", "lower"):
                assert getattr(table, name).tobytes() \
                    == getattr(fresh, name).tobytes()
            assert (table.margin, table.prunes, table.k_max) \
                == (fresh.margin, fresh.prunes, fresh.k_max)
        assert not np.array_equal(table.hidden, before)


class TestMaxSeeds:
    """qnet._max_seeds, which gives every QTable its k_max."""

    def test_k_over_k_max_stays_in_the_box(self, rng, monkeypatch):
        # 40 nodes of cost 0.6 at budget 16.2: 16.2 // 0.6 gives 26, but
        # taking 0.6 off the remaining budget in floating point leaves room
        # for a 27th seed, and a non-terminal next state (6e-15 left) with
        # 27 seeds; k/k_max must not exceed 1 at any step or next state
        inst = make_instance("flat", 40, [(v, v + 1, 0.5) for v in range(39)],
                             cost=np.full(40, 0.6))
        budget = 16.2
        assert int(budget // 0.6) == 26
        assert qnet._max_seeds(inst.attrs.cost, budget) == 27
        ratios = []  # k/k_max of every scored step and next state

        def score(table, feasible, seed_count, remaining):
            ratios.append(seed_count / table.k_max)
            return qnet.best_feasible(table, feasible, seed_count, remaining)

        def score_rows(table, feasible, seed_count, remaining):
            ratios.extend(seed_count / table.k_max)
            return qnet.best_feasible_rows(table, feasible, seed_count,
                                           remaining)

        monkeypatch.setattr(trainer, "best_feasible", score)
        monkeypatch.setattr(trainer, "best_feasible_rows", score_rows)
        cfg = toy_config(budget=budget)
        policy, h = toy_policy(inst, cfg)
        table = hidden_table(policy.net, h, inst.attrs.cost, budget)
        assert table.k_max == 27
        episode = trainer.run_episode(table, inst, cfg, 0.0, rng)
        assert len(episode) == 27 and episode[-1].budget_after > 0.0
        _bellman_targets(episode, {inst.id: table}, cfg)
        assert ratios[-1] == 1.0  # the last next state holds all 27 seeds
        assert len(select_seed_set(policy, inst, budget, h)) == 27
        assert len(ratios) == 27 + 27 + 27 and max(ratios) == 1.0

    @staticmethod
    def table(cost, budget):
        """hidden_table of a small network for `cost` at `budget`."""
        return hidden_table(QNetwork.init(4, seed=0, hidden=2),
                            np.zeros((len(cost), 1)), cost, budget)

    @pytest.mark.parametrize("cost,budget,want", [
        ([2, 3, 1, 4, 2, 3], 6.0, 6),    # the toy instance: the floor
        ([2, 3, 1, 4, 2, 3], 80.0, 80),  # more than n: the floor
        ([5.0], 1.0, 1),                 # nothing fits: at least 1
        ([1e-12] * 3, 1e3, 10**15),      # tiny costs: the floor, at once
    ])
    def test_floor_kept_where_it_does_not_undercount(self, cost, budget,
                                                     want):
        cost = np.array(cost, dtype=float)
        assert qnet._max_seeds(cost, budget) == want
        assert self.table(cost, budget).k_max == want

    def test_budget_over_cost_overflow_rejected(self):
        # 1e300 / 1e-300 overflows to inf, which has no integer floor
        cost = np.array([1e-300, 2e-300])
        with pytest.raises(ValueError, match="not finite"):
            qnet._max_seeds(cost, 1e300)
        with pytest.raises(ValueError, match="budget .* is not finite"):
            self.table(cost, 1e300)


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


def saved_checkpoint(tmp_path, cfg=None):
    """The path of a checkpoint of a short training run, and its policy."""
    cfg = cfg or toy_config(episodes=2)
    policy = train(cfg, InstancePool(train=(toy_instance("a"),), test=(),
                                     seed=0))
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, policy, cfg)
    return path, policy


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = toy_config(episodes=4, batch_size=4)
        pool = InstancePool(train=(toy_instance("a"),),
                            test=(toy_instance("b"),), seed=0)
        policy = train(cfg, pool)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, policy, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        for name in QNetwork.PARAM_NAMES:
            assert np.array_equal(getattr(loaded.net, name),
                                  getattr(policy.net, name))
        for name in ("w_feat", "w_agg", "w_edge"):
            assert np.array_equal(getattr(loaded.embed, name),
                                  getattr(policy.embed, name))
        assert loaded_cfg == cfg
        assert loaded.t_emb == cfg.t_emb
        # inference agrees after reload
        inst = pool.test[0]
        assert select_seed_set(loaded, inst, 6.0).nodes \
            == select_seed_set(policy, inst, 6.0).nodes

    def test_holds_only_what_inference_reads(self, tmp_path):
        cfg = toy_config(episodes=2)
        path, _ = saved_checkpoint(tmp_path, cfg)
        with np.load(path) as data:
            assert sorted(data.files) == [
                "b1", "b2", "embed_w_agg", "embed_w_edge", "embed_w_feat",
                "meta", "w1", "w2"]
            meta = json.loads(bytes(data["meta"]).decode())
        assert meta == {"version": 2,
                        "config": json.loads(json.dumps(asdict(cfg)))}

    def test_dimension_mismatch_rejected(self, tmp_path):
        # a policy whose embedding is not the config's is not saved, and a
        # config whose d_emb the arrays do not have is not loaded
        cfg = toy_config(episodes=2)
        path, policy = saved_checkpoint(tmp_path, cfg)
        for other in (toy_config(d_emb=D_EMB + 1), toy_config(t_emb=3)):
            with pytest.raises(ValueError, match="d_emb or t_emb"):
                save_checkpoint(str(tmp_path / "other.npz"), policy, other)
        assert not (tmp_path / "other.npz").exists()
        rewrite_checkpoint(path, meta={"config": {"d_emb": D_EMB + 1}})
        with pytest.raises(CheckpointError, match="embed_w_feat|w1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["b1", "w2", "b2", "embed_w_agg"])
    def test_wrong_parameter_shape_rejected(self, tmp_path, name):
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, **{name: np.zeros(3)})
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(path)

    @pytest.mark.parametrize("w1", [
        np.zeros(D_EMB + 3), np.float64(0.0), np.zeros((16, D_EMB + 2)),
        np.zeros((16, D_EMB + 4)), np.zeros((0, D_EMB + 3))],
        ids=["1-d", "0-d", "narrow", "wide", "no-rows"])
    def test_wrong_w1_shape_rejected(self, tmp_path, w1):
        # w1 sets the hidden width, so it must be a 2-D array of at least
        # one row, as wide as the config's d_emb + 3; an empty w1 comes with
        # b1 and w2 to match, so only the row count is wrong
        path, _ = saved_checkpoint(tmp_path)
        width = w1.shape[0] if w1.ndim == 2 else 16
        rewrite_checkpoint(path, w1=w1, b1=np.zeros(width), w2=np.zeros(width))
        with pytest.raises(CheckpointError, match="w1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["w1", "b1", "w2", "embed_w_feat"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, "x"])
    def test_non_finite_or_non_float_parameter_rejected(self, tmp_path,
                                                        name, bad):
        path, _ = saved_checkpoint(tmp_path)
        with np.load(path) as data:
            array = data[name].astype(type(bad))
        array.flat[0] = bad
        rewrite_checkpoint(path, **{name: array})
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [
        [1, 2], "meta", {"config": {"t_emb": 0}}, {"config": {"t_emb": "x"}},
        {"config": {"t_emb": 2.0}}, {"config": {"d_emb": True}},
        {"config": {"d_emb": None}}, {"config": {"d_emb": DROP}},
        {"config": {"t_emb": DROP}}, {"config": {"budget": -1.0}},
        {"config": {"budget": "x"}}, {"config": {"seed": None}},
        {"config": {"episodes": 2.5}}, {"config": {"hidden": 16}},
        {"config": 7}, {"config": DROP}, {"version": DROP},
        {"hidden": 0}, {"hidden": -16}, {"in_dim": "11"}, {"d_emb": D_EMB},
    ], ids=["list", "string", "t_emb-0", "t_emb-x", "t_emb-float",
            "d_emb-bool", "d_emb-null", "d_emb-missing", "t_emb-missing",
            "budget-negative", "budget-string", "seed-null", "episodes-float",
            "config-extra-field", "config-number", "config-missing",
            "version-missing", "hidden-0", "hidden-negative", "in_dim-string",
            "d_emb-beside-config"])
    def test_malformed_metadata_rejected(self, tmp_path, change):
        # metadata that is not a JSON object of this version and a config
        # alone, or a config that is not exactly TrainConfig's fields, each a
        # JSON number of its type that TrainConfig takes, is a
        # CheckpointError, never an AttributeError or a policy or report that
        # fails later; a dimension beside the config is rejected even when
        # it agrees with the arrays
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, meta=change)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_integer_for_a_float_setting_loads(self, tmp_path):
        # JSON writes a float setting made from an int as an integer
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, meta={"config": {"budget": 6}})
        _, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == toy_config(episodes=2)

    def test_version_1_file_names_its_version(self, tmp_path):
        # the version-1 layout: top-level dimensions next to the config, and
        # Adam's moments and step count next to the weights
        path, policy = saved_checkpoint(tmp_path)
        net = policy.net
        adam = {f"adam_{mv}_{p}": np.zeros_like(getattr(net, p))
                for p in net.PARAM_NAMES for mv in "mv"}
        rewrite_checkpoint(path, meta={"version": 1, "in_dim": net.in_dim,
                                       "hidden": net.hidden_dim,
                                       "d_emb": D_EMB, "t_emb": 2},
                           step=np.array([net.step]), **adam)
        with pytest.raises(CheckpointError, match="version 1 .*re-train"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_missing_array_rejected(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, embed_w_edge=None)
        with pytest.raises(CheckpointError, match="embed_w_edge"):
            load_checkpoint(path)
