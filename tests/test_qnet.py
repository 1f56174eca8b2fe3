import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairseed import qnet
from fairseed.embedding import NodeEmbeddings
from fractions import Fraction
from unittest import mock

from fairseed.qnet import (QNetwork, adam_step, best_feasible,
                           best_feasible_rows, encode_states, hidden_table,
                           q_loss_and_grad)
from fairseed.trainer import epsilon_greedy_select

from conftest import make_attrs, q_forward_batch, q_forward_table

IN_DIM = 67


def tiny_embeddings(n=5, d=64, seed=0):
    rng = np.random.default_rng(seed)
    return NodeEmbeddings(vectors=rng.uniform(0, 1, (n, d)), dim=d)


def random_states(rng, k, in_dim=IN_DIM):
    return rng.normal(size=(k, in_dim))


def best_valued(net, table, mask, seed_count, remaining, budget, k_max):
    """The valued path at one step: the (node id, Q-value) that
    best_feasible_rows gives a one-row stack, or None for an empty mask."""
    ids, values = best_feasible_rows(net, table, mask[None],
                                     np.array([seed_count]),
                                     np.array([float(remaining)]), budget,
                                     k_max)
    return None if ids[0] < 0 else (int(ids[0]), float(values[0]))


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
                mask = np.zeros(n, dtype=bool)
                mask[cands] = True
                pick = best_feasible(net, table, mask, seed_count, remaining,
                                     budget, k_max)
                assert pick == cands[np.argmax(want)]
                valued, value = best_valued(net, table, mask, seed_count,
                                            remaining, budget, k_max)
                assert valued == pick
                assert value == pytest.approx(want.max(), rel=0, abs=1e-12)

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
                assert best_feasible(net, table, mask, seed_count, remaining,
                                     budget, k_max) is None
            else:
                assert pick == ids[np.argmax(q[ids])]
                assert q[pick] == q[ids].max()
                assert not (q[ids[ids < pick]] == q[pick]).any()
                assert best_feasible(net, table, mask, seed_count, remaining,
                                     budget, k_max) == pick
                _, value = best_valued(net, table, mask, seed_count,
                                       remaining, budget, k_max)
                # pruned steps sum the candidate rows apart from the table
                assert value == pytest.approx(q[pick], rel=0, abs=1e-12)

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


def table_net(rows, u, v, w2, b2):
    """A network whose hidden table is `rows` (n, H), built on the rows
    themselves as embeddings (W1 = [I, 0, u, v], b1 = 0), and that table.
    The unit budget and costs leave R/B = remaining and the cost column out."""
    n, width = rows.shape
    net = QNetwork(w1=np.column_stack((np.eye(width), np.zeros(width), u, v)),
                   b1=np.zeros(width), w2=np.asarray(w2, dtype=float),
                   b2=np.array([b2], dtype=float))
    h = NodeEmbeddings(vectors=np.asarray(rows, dtype=float), dim=width)
    return net, hidden_table(net, h, np.ones(n), 1.0)


def exact_p(w2, row, shift) -> Fraction:
    """sum_j w2_j max(row_j, -shift_j) in exact arithmetic."""
    return sum((Fraction(float(w)) * Fraction(float(max(t, -c)))
                for w, t, c in zip(w2, row, shift)), Fraction(0))


class TestBestFeasible:
    """The bound-pruned scorer against whole-table scoring."""

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 40), st.integers(1, 12), st.booleans(),
           st.sampled_from([0.0, 1 / 16, 1 / 2, 2.0]),
           st.sampled_from(["random", "zero", "positive", "negative"]),
           st.integers(0, 2**32 - 1), st.data())
    def test_first_maximum_of_the_reference(self, n, width, exact, spread,
                                            w2_kind, seed, data):
        # `exact` draws eighths, so every sum is exact and duplicated rows
        # tie exactly; otherwise the summation order, which differs between
        # rows of one product, may order near-ties either way. A batch of
        # steps, each with its own mask, R/B and k/k_max, goes to
        # best_feasible_rows; every row must match the one-step reference.
        rng = np.random.default_rng(seed)

        def draw(size, k):
            if exact:
                return rng.integers(-k, k + 1, size) / 8.0
            return rng.normal(size=size) * k / 8.0

        rows = draw((n, width), 64)
        rows[rng.integers(n, size=n // 3)] = rows[rng.integers(n, size=n // 3)]
        u, v = draw(width, 16) * spread, draw(width, 16) * spread
        w2 = {"random": draw(width, 16), "zero": np.zeros(width),
              "positive": np.abs(draw(width, 16)),
              "negative": -np.abs(draw(width, 16))}[w2_kind]
        w2[rng.random(width) < 0.2] = 0.0
        net, table = table_net(rows, u, v, w2, float(draw(1, 16)[0]))
        tol = 1e-9 * (1.0 + abs(net.b2[0]) + np.abs(w2) @ (
            np.abs(rows).max(axis=0) + 32.0 * (np.abs(u) + np.abs(v))))
        k_max = 4
        steps, masks = [], []
        for _ in range(data.draw(st.integers(1, 6))):
            # R/B and k/k_max on [0, 1] (corners included) and far outside it
            remaining = data.draw(st.one_of(st.integers(0, 4),
                                            st.integers(-64, 64))) / 4.0
            if not exact and data.draw(st.booleans()):
                remaining = float(rng.uniform(0.0, 1.0))
            seed_count = data.draw(st.one_of(st.integers(0, 4),
                                             st.integers(0, 64)))
            for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                         rng.random(n) < data.draw(st.floats(0.0, 1.0))):
                steps.append((seed_count, remaining))
                masks.append(mask)
        order = rng.permutation(len(masks))  # all-False rows anywhere
        steps, masks = [steps[i] for i in order], np.array(masks)[order]
        got_ids, got_values = best_feasible_rows(
            net, table, masks, np.array([k for k, _ in steps]),
            np.array([r for _, r in steps]), 1.0, k_max)
        for (seed_count, remaining), mask, got_id, got_value in zip(
                steps, masks, got_ids, got_values):
            q = q_forward_table(net, table, seed_count, remaining, 1.0, k_max)
            got = best_feasible(net, table, mask, seed_count, remaining, 1.0,
                                k_max)
            ids = np.flatnonzero(mask)
            if len(ids) == 0:
                assert got is None
                assert (got_id, got_value) == (-1, 0.0)
                continue
            best = q[ids].max()
            if exact:
                assert got == ids[np.argmax(q[ids])]
                assert (got_id, got_value) == (got, best)
            else:
                for pick in (got, got_id):
                    assert mask[pick] and q[pick] >= best - tol
                assert got_value == pytest.approx(best, rel=0, abs=tol)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 10), st.integers(1, 12),
           st.sampled_from([1 / 16, 1 / 2, 2.0, 64.0]),
           st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**32 - 1))
    def test_bounds_hold_and_margin_covers_rounding(self, n, width, spread,
                                                    scale, seed):
        # in exact arithmetic, P_v at every step in the box lies between the
        # bounds, and each computed bound and score is within a quarter (a
        # bound) or half (a score) of the margin of its exact value
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, width)) * scale
        u, v = (rng.normal(size=width) * spread * scale for _ in range(2))
        w2 = rng.normal(size=width)
        net, table = table_net(rows, u, v, w2, float(rng.normal()))
        lo = np.minimum(u, 0.0) + np.minimum(v, 0.0)
        hi = np.maximum(u, 0.0) + np.maximum(v, 0.0)
        c_up, c_lo = np.where(w2 > 0, lo, hi), np.where(w2 > 0, hi, lo)
        quarter = Fraction(table.margin) / 4
        assert table.margin > 0.0
        steps = [(0.0, 0), (1.0, 0), (0.0, 4), (1.0, 4),
                 (float(rng.uniform()), int(rng.integers(5)))]
        upper = [exact_p(w2, row, c_up) for row in rows]
        lower = [exact_p(w2, row, c_lo) for row in rows]
        for node in range(n):
            assert abs(Fraction(table.upper[node]) - upper[node]) <= quarter
            assert abs(Fraction(table.lower[node]) - lower[node]) <= quarter
        for remaining, seed_count in steps:
            shift = remaining * u + (seed_count / 4) * v
            for node in range(n):
                assert lower[node] <= exact_p(w2, rows[node], shift) \
                    <= upper[node]
            pick, value = best_valued(net, table, np.ones(n, dtype=bool),
                                      seed_count, remaining, 1.0, 4)
            constant = Fraction(float(net.b2[0])) + sum(
                (Fraction(float(s)) * Fraction(float(w))
                 for s, w in zip(shift, w2)), Fraction(0))
            want = exact_p(w2, rows[pick], shift) + constant
            assert abs(Fraction(value) - want) <= 2 * quarter

    @pytest.mark.parametrize("seed_count,remaining,want", [
        (1, 1.0, (11, 4.0)),    # in the box: the bounds' only candidate
        (0, 10.0, (0, 0.0)),    # R/B = 10: every node clamps to a tie
        (10, 0.0, (0, 0.0)),    # k/k_max = 10 (k_max rounded down)
    ])
    def test_steps_outside_the_box_score_every_feasible_node(
            self, seed_count, remaining, want):
        # P_v = max(T_v, -s) with s in [-2, 0] on the box: node 11 (T = 6)
        # is the only candidate, so it is picked unscored, but at s = -10
        # every node scores 10
        net, table = table_net(np.arange(-5.0, 7.0)[:, None], [-1.0], [-1.0],
                               [1.0], 0.0)
        assert table.prunes
        mask = np.ones(12, dtype=bool)
        with mock.patch.object(qnet, "_scores", wraps=qnet._scores) as scored:
            got = best_feasible(net, table, mask, seed_count, remaining, 1.0,
                                1)
        assert scored.called == ((seed_count, remaining) != (1, 1.0))
        q = q_forward_table(net, table, seed_count, remaining, 1.0, 1)
        assert (got, q.max()) == want and got == int(np.argmax(q))
        assert best_valued(net, table, mask, seed_count, remaining, 1.0,
                           1) == want
        # in a batch beside an in-box step, the box is checked row by row
        ids, values = best_feasible_rows(
            net, table, np.stack((mask, mask)), np.array([1, seed_count]),
            np.array([1.0, remaining]), 1.0, 1)
        assert list(zip(ids.tolist(), values.tolist())) == [(11, 4.0), want]

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 40), st.integers(1, 12), st.booleans(),
           st.sampled_from([0.0, 1 / 16, 1 / 2, 2.0]),
           st.sampled_from(["random", "dominant", "flat"]),
           st.integers(0, 2**32 - 1), st.data())
    def test_pick_is_the_whole_table_first_maximum(self, n, width, exact,
                                                   spread, kind, seed, data):
        # the id-only pick against the first maximum of whole-table scoring
        # over the feasible nodes. A step settles unscored exactly when it
        # lies in the box, the table prunes and one candidate is left; that
        # node is then the first maximum in any summation order, since every
        # other node scores below it. On eighths (`exact`) every sum is
        # exact, so every pick is; otherwise a scored pick of near-ties may
        # go either way within rounding. "flat" tables (w2 = 0) and n < 4
        # cannot prune; "dominant" ones have one row far above the rest.
        rng = np.random.default_rng(seed)

        def draw(size, k):
            if exact:
                return rng.integers(-k, k + 1, size) / 8.0
            return rng.normal(size=size) * k / 8.0

        rows = draw((n, width), 64)
        rows[rng.integers(n, size=n // 3)] = rows[rng.integers(n, size=n // 3)]
        w2 = np.zeros(width) if kind == "flat" else draw(width, 16)
        if kind == "dominant":
            rows[rng.integers(n)] = 64.0 * np.sign(w2)
        u, v = draw(width, 16) * spread, draw(width, 16) * spread
        net, table = table_net(rows, u, v, w2, float(draw(1, 16)[0]))
        tol = 1e-9 * (1.0 + abs(net.b2[0]) + np.abs(w2) @ (
            np.abs(rows).max(axis=0) + 32.0 * (np.abs(u) + np.abs(v))))
        k_max = 4
        for _ in range(data.draw(st.integers(1, 6))):
            # R/B and k/k_max on [0, 1] (corners included) and outside it
            remaining = data.draw(st.one_of(st.integers(0, 4),
                                            st.integers(-64, 64))) / 4.0
            if not exact and data.draw(st.booleans()):
                remaining = float(rng.uniform(0.0, 1.0))
            seed_count = data.draw(st.one_of(st.integers(0, 4),
                                             st.integers(0, 64)))
            in_box = 0.0 <= remaining <= 1.0 and seed_count <= k_max
            q = q_forward_table(net, table, seed_count, remaining, 1.0, k_max)
            for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                         rng.random(n) < data.draw(st.floats(0.0, 1.0))):
                with mock.patch.object(qnet, "_scores",
                                       wraps=qnet._scores) as scored:
                    pick = best_feasible(net, table, mask, seed_count,
                                         remaining, 1.0, k_max)
                ids = np.flatnonzero(mask)
                if len(ids) == 0:
                    assert pick is None and not scored.called
                    continue
                first = ids[np.argmax(q[ids])]
                cands = ids[table.upper[ids]
                            >= table.lower[ids].max() - table.margin]
                settled = in_box and table.prunes and len(cands) == 1
                assert scored.called != settled
                if settled:
                    assert n >= 4 and pick == cands[0]
                if exact or settled:
                    assert pick == first
                else:
                    assert mask[pick] and q[pick] >= q[ids].max() - tol

    def test_dominant_rows_prune_and_flat_tables_do_not(self):
        rows = np.zeros((8, 2))
        rows[5] = 100.0
        _, table = table_net(rows, [0.5, -0.5], [0.25, 0.0], [1.0, 2.0], 0.0)
        assert table.prunes
        _, table = table_net(rows, [0.5, -0.5], [0.25, 0.0], [0.0, 0.0], 0.0)
        assert not table.prunes  # every node ties at every step

    @pytest.mark.parametrize("where", ["rows", "u", "w2", "b2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_or_bounds_raise(self, where, bad):
        parts = {"rows": np.ones((4, 2)), "u": np.ones(2), "w2": np.ones(2),
                 "b2": np.zeros(1)}
        parts[where].flat[0] = bad
        with pytest.raises(ValueError, match="not finite"), \
                np.errstate(invalid="ignore"):
            table_net(parts["rows"], parts["u"], np.zeros(2), parts["w2"],
                      float(parts["b2"][0]))

    def test_non_finite_score_raises(self):
        # an infinite R/B makes the shift, and so every score, non-finite;
        # a masked argmax would have picked a NaN row
        net, table = table_net(np.eye(3), np.ones(3), np.zeros(3), np.ones(3),
                               0.0)
        mask = np.ones(3, dtype=bool)
        with pytest.raises(ValueError, match="not finite"):
            best_feasible(net, table, mask, 0, np.inf, 1.0, 1)
        with pytest.raises(ValueError, match="not finite"):
            epsilon_greedy_select(net, table, mask, 0, 0.0, np.inf, 1.0, 1,
                                  None)


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
