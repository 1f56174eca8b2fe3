import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairseed.embedding import NodeEmbeddings
from fairseed.qnet import (QNetwork, adam_step, encode_states, hidden_table,
                           q_forward_table, q_loss_and_grad)
from fairseed.trainer import epsilon_greedy_select

from conftest import make_attrs, q_forward_batch

IN_DIM = 67


def tiny_embeddings(n=5, d=64, seed=0):
    rng = np.random.default_rng(seed)
    return NodeEmbeddings(vectors=rng.uniform(0, 1, (n, d)), dim=d)


def random_states(rng, k, in_dim=IN_DIM):
    return rng.normal(size=(k, in_dim))


def numeric_grads(net, states, targets, eps=1e-5):
    """Central finite differences on every parameter coordinate."""
    grads = {}
    for name in net.PARAM_NAMES:
        param = getattr(net, name)
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            lo_plus, _ = q_loss_and_grad(net, states, targets)
            param[idx] = orig - eps
            lo_minus, _ = q_loss_and_grad(net, states, targets)
            param[idx] = orig
            g[idx] = (lo_plus - lo_minus) / (2 * eps)
            it.iternext()
        grads[name] = g
    return grads


class TestEncodeState:
    def test_fresh_episode_tail(self):
        h = tiny_embeddings()
        attrs = make_attrs(5, cost=[10, 20, 30, 40, 50])
        [s] = encode_states(np.array([1]), h, seed_count=0,
                            remaining_budget=100.0, attrs=attrs, budget=100.0,
                            k_max=10)
        assert len(s) == 67
        assert np.allclose(s[-3:], [0.2, 1.0, 0.0])
        assert np.array_equal(s[:64], h.vectors[1])

    def test_exhausted_budget_tail(self):
        h = tiny_embeddings()
        attrs = make_attrs(5, cost=np.full(5, 10.0))
        [s] = encode_states(np.array([0]), h, seed_count=5,
                            remaining_budget=0.0, attrs=attrs, budget=100.0,
                            k_max=10)
        assert s[-2] == 0.0
        assert s[-1] == 0.5

    def test_batch_matches_single(self):
        h = tiny_embeddings()
        attrs = make_attrs(5, cost=[1, 2, 3, 4, 5])
        cands = np.array([0, 2, 4])
        batch = encode_states(cands, h, 1, 50.0, attrs, 100.0, 20)
        for row, c in zip(batch, cands):
            [single] = encode_states(np.array([c]), h, 1, 50.0, attrs, 100.0, 20)
            assert np.array_equal(row, single)

    def test_per_row_counts_and_budgets(self):
        h = tiny_embeddings()
        attrs = make_attrs(5, cost=[1, 2, 3, 4, 5])
        cands = np.array([4, 0, 2])
        counts = np.array([0, 3, 7])
        remaining = np.array([90.0, 40.0, 5.0])
        batch = encode_states(cands, h, counts, remaining, attrs, 100.0, 20)
        for row, c, k, r in zip(batch, cands, counts, remaining):
            [single] = encode_states(np.array([c]), h, int(k), float(r), attrs,
                                     100.0, 20)
            assert np.array_equal(row, single)


class TestForward:
    def test_zero_net(self):
        net = QNetwork.init(IN_DIM, seed=0)
        for name in net.PARAM_NAMES:
            getattr(net, name)[:] = 0.0
        assert q_forward_batch(net, np.ones((1, IN_DIM)))[0] == 0.0

    def test_forced_arithmetic(self):
        net = QNetwork.init(IN_DIM, seed=0)
        net.w1[:] = 0.0
        net.b1[:] = 1.0
        net.w2[:] = 1.0
        net.b2[:] = 0.0
        assert q_forward_batch(net, np.zeros((1, IN_DIM)))[0] == 128.0

    def test_pure(self, rng):
        net = QNetwork.init(IN_DIM, seed=1)
        s = rng.normal(size=(3, IN_DIM))
        assert np.array_equal(q_forward_batch(net, s), q_forward_batch(net, s))

    def test_batch_matches_single(self, rng):
        net = QNetwork.init(IN_DIM, seed=2)
        states = random_states(rng, 6)
        batch = q_forward_batch(net, states)
        for i in range(6):
            single = net.w2 @ np.maximum(net.w1 @ states[i] + net.b1, 0.0) \
                + net.b2[0]
            assert batch[i] == pytest.approx(single)


class TestHiddenTable:
    """The table scorer against the full-state reference path."""

    @staticmethod
    def reference(net, h, attrs, cands, seed_count, remaining, budget, k_max):
        states = encode_states(cands, h, seed_count, remaining, attrs, budget,
                               k_max)
        return q_forward_batch(net, states)

    def test_matches_full_forward(self, rng):
        for trial in range(20):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 16))
            net = QNetwork.init(d + 3, seed=trial, hidden=int(rng.integers(1, 64)))
            h = NodeEmbeddings(vectors=rng.normal(size=(n, d)), dim=d)
            attrs = make_attrs(n, cost=rng.uniform(1, 100, n))
            budget = float(rng.uniform(10, 1000))
            k_max = int(rng.integers(1, 50))
            table = hidden_table(net, h, attrs.cost, budget)
            for _ in range(5):
                cands = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                           replace=False))
                seed_count = int(rng.integers(0, k_max + 1))
                remaining = float(rng.uniform(0, budget))
                got = q_forward_table(net, table, seed_count, remaining,
                                      budget, k_max)[cands]
                want = self.reference(net, h, attrs, cands, seed_count,
                                      remaining, budget, k_max)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                assert cands[np.argmax(got)] == cands[np.argmax(want)]

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 40), st.integers(1, 16), st.integers(1, 64),
           st.floats(1.0, 1000.0), st.integers(1, 50), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1),
           st.data())
    def test_whole_table_and_masked_argmax(self, n, d, hidden, budget, k_max,
                                           spent, picked, flat, seed, data):
        # every node's table score equals the reference on its state row,
        # and the greedy pick is the first maximum over the feasible nodes
        rng = np.random.default_rng(seed)
        net = QNetwork.init(d + 3, seed=seed, hidden=hidden)
        if flat:
            net.w2[:] = 0.0  # every score ties
        h = NodeEmbeddings(vectors=rng.normal(size=(n, d)), dim=d)
        attrs = make_attrs(n, cost=rng.uniform(1, 100, n))
        seed_count, remaining = int(picked * k_max), (1.0 - spent) * budget
        table = hidden_table(net, h, attrs.cost, budget)
        q = q_forward_table(net, table, seed_count, remaining, budget, k_max)
        want = self.reference(net, h, attrs, np.arange(n), seed_count,
                              remaining, budget, k_max)
        assert q.shape == (n,)
        np.testing.assert_allclose(q, want, rtol=0, atol=1e-12)
        for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                     np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                                 max_size=n)))):
            pick = epsilon_greedy_select(net, table, mask, seed_count, 0.0,
                                         remaining, budget, k_max, None)
            ids = np.flatnonzero(mask)
            if len(ids) == 0:
                assert pick is None
            else:
                assert pick == ids[np.argmax(q[ids])]
                assert q[pick] == q[ids].max()
                assert not (q[ids[ids < pick]] == q[pick]).any()

    def test_tie_goes_to_lowest_candidate(self):
        # nodes 1 and 3 share an embedding and a cost, so their Q-values tie
        h = tiny_embeddings()
        h.vectors[3] = h.vectors[1]
        attrs = make_attrs(5, cost=[5, 2, 9, 2, 7])
        net = QNetwork.init(IN_DIM, seed=9)
        # make the tied pair the maximum: their shared features drive Q up
        net.w2[:] = np.abs(net.w2)
        net.w1[:, :64] = np.abs(net.w1[:, :64]) * np.sign(
            h.vectors[1] - h.vectors.mean(axis=0))
        table = hidden_table(net, h, attrs.cost, 100.0)
        cands = np.array([0, 1, 2, 3, 4])
        got = q_forward_table(net, table, 2, 60.0, 100.0, 10)
        want = self.reference(net, h, attrs, cands, 2, 60.0, 100.0, 10)
        assert got[1] == got[3] == got.max()
        assert int(np.argmax(got)) == int(np.argmax(want)) == 1


class TestLossAndGrad:
    def test_zero_residual(self, rng):
        net = QNetwork.init(IN_DIM, seed=3)
        states = random_states(rng, 4)
        targets = q_forward_batch(net, states)
        loss, grads = q_loss_and_grad(net, states, targets)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_empty_batch_rejected(self):
        net = QNetwork.init(IN_DIM, seed=0)
        with pytest.raises(ValueError):
            q_loss_and_grad(net, np.empty((0, IN_DIM)), np.empty(0))

    def test_linear_regime_hand_gradient(self):
        # big positive b1 keeps every relu active: Q = w2 @ (W1 s + b1) + b2
        net = QNetwork.init(IN_DIM, seed=4)
        net.b1[:] = 10.0
        s = np.abs(np.random.default_rng(0).normal(size=IN_DIM)) * 0.01
        y = np.array([3.0])
        pred = net.w2 @ (net.w1 @ s + net.b1) + net.b2[0]
        loss, grads = q_loss_and_grad(net, s[None, :], y)
        resid = 2.0 * (pred - y[0])
        assert np.allclose(grads["w1"], resid * np.outer(net.w2, s))
        assert np.allclose(grads["b1"], resid * net.w2)
        assert np.allclose(grads["w2"], resid * (net.w1 @ s + net.b1))
        assert grads["b2"][0] == pytest.approx(resid)

    def test_finite_difference_small(self, rng):
        # 3 pairs here; the acceptance suite runs the full 100-pair check
        for trial in range(3):
            net = QNetwork.init(10, seed=trial, hidden=7)
            states = rng.normal(size=(3, 10))
            targets = rng.normal(size=3) * 2
            _, analytic = q_loss_and_grad(net, states, targets)
            numeric = numeric_grads(net, states, targets)
            for name in net.PARAM_NAMES:
                a, n_ = analytic[name], numeric[name]
                mask = np.abs(a) > 1e-8
                rel = np.abs(a[mask] - n_[mask]) / np.abs(a[mask])
                assert rel.max() <= 1e-4


class TestAdam:
    def test_zero_gradient_no_change(self):
        net = QNetwork.init(IN_DIM, seed=5)
        before = net.w1.copy()
        adam_step(net, {n: np.zeros_like(getattr(net, n))
                        for n in net.PARAM_NAMES}, lr=0.01)
        assert np.array_equal(net.w1, before)
        assert net.step == 1

    def test_first_step_bounded_by_lr(self):
        # with bias correction the first update is lr * g/|g| for any |g|
        net = QNetwork.init(IN_DIM, seed=6)
        before = net.w1.copy()
        grads = {n: np.zeros_like(getattr(net, n)) for n in net.PARAM_NAMES}
        grads["w1"] = np.full_like(net.w1, 50.0)
        adam_step(net, grads, lr=0.01)
        delta = net.w1 - before
        assert np.allclose(delta, -0.01, rtol=1e-5)

    def test_zero_lr_no_change(self, rng):
        net = QNetwork.init(IN_DIM, seed=7)
        before = net.b1.copy()
        grads = {n: rng.normal(size=getattr(net, n).shape)
                 for n in net.PARAM_NAMES}
        adam_step(net, grads, lr=0.0)
        assert np.array_equal(net.b1, before)

    def test_descent_on_fixed_targets(self, rng):
        net = QNetwork.init(20, seed=8, hidden=32)
        states = rng.normal(size=(16, 20))
        targets = rng.normal(size=16)
        first, _ = q_loss_and_grad(net, states, targets)
        losses = []
        for _ in range(200):
            loss, grads = q_loss_and_grad(net, states, targets)
            adam_step(net, grads, lr=0.01)
            losses.append(loss)
        final, _ = q_loss_and_grad(net, states, targets)
        assert final < 0.01 * first
