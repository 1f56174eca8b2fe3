import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairseed import diffusion
from fairseed.diffusion import (SeedSet, estimate_spread_and_benefit,
                                live_arc_lists, live_arcs, rollout_masks)
from fairseed.graph import CommunityPartition, graph_from_edges
from fairseed.metrics import (FairnessConfig, community_ratios,
                              evaluate_seed_set, shaped_return)

from conftest import (grow, make_attrs, make_instance, mask_shaped_return,
                      unpack_live)


def influenced(n, nodes):
    mask = np.zeros(n, dtype=bool)
    mask[list(nodes)] = True
    return mask


class TestBasicMetrics:
    def test_selection_cost(self):
        attrs = make_attrs(3, cost=[3.0, 7.0, 1.0])
        assert SeedSet.build([], attrs).total_cost == 0.0
        assert SeedSet.build([0, 1], attrs).total_cost == 10.0
        assert SeedSet.build([2], attrs).total_cost == 1.0

    def test_earned_benefit(self):
        # no arcs: every rollout reaches exactly the seeds
        attrs = make_attrs(3, cost=[1.0, 2.0, 4.0], benefit=[5.0, 6.0, 7.0])
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        g = graph_from_edges(3, [], directed=True)
        for nodes, benefit in (([], 0.0), ([0, 1, 2], 18.0), ([0, 2], 12.0)):
            s = SeedSet.build(nodes, attrs)
            rep, profits, _ = evaluate_seed_set(g, attrs, parts, s,
                                                live_arcs(g, 3, 0),
                                                FairnessConfig())
            assert rep.benefit == benefit
            assert np.all(profits == benefit - s.total_cost)

    def test_community_benefit_ratio(self):
        attrs = make_attrs(2, benefit=[2.0, 8.0], labels=[0, 0])
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        assert community_ratios(influenced(2, []), parts).tolist() == [0.0]
        assert community_ratios(influenced(2, [0, 1]), parts).tolist() == [1.0]
        assert community_ratios(influenced(2, [0]), parts)[0] \
            == pytest.approx(0.2)

    def test_maximin_fairness(self):
        attrs = make_attrs(4, benefit=[2.0, 8.0, 1.0, 9.0], labels=[0, 0, 1, 1])
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        assert community_ratios(influenced(4, []), parts).min() == 0.0
        assert community_ratios(influenced(4, range(4)), parts).min() == 1.0
        # ratios 0.2 and 0.9
        got = community_ratios(influenced(4, [0, 3]), parts)
        assert got == pytest.approx([0.2, 0.9])
        assert got.min() == pytest.approx(0.2)

    def test_fairness_monotone_in_influenced_set(self, rng):
        attrs = make_attrs(8, benefit=rng.uniform(1, 10, 8),
                           labels=[0, 0, 0, 1, 1, 1, 1, 1])
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        nodes = list(rng.permutation(8))
        prev = 0.0
        for k in range(9):
            f = community_ratios(influenced(8, nodes[:k]), parts).min()
            assert f >= prev
            prev = f


@st.composite
def partition_and_masks(draw):
    """Integer benefits, labels covering 0..k-1, and an (R, n) mask chunk."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k,
                          max_size=n - k))
    labels = draw(st.permutations(list(range(k)) + extra))
    benefit = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    rows = draw(st.integers(1, 6))
    masks = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                          min_size=rows, max_size=rows))
    added = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (np.array(labels), np.array(benefit, dtype=float),
            np.array(masks, dtype=bool), np.array(added, dtype=bool))


class TestCommunityRatiosProperties:
    # integer benefits keep every sum exact, so equality is exact

    @settings(deadline=None)
    @given(partition_and_masks())
    def test_rows_equal_single_mask_calls(self, case):
        labels, benefit, masks, _ = case
        parts = CommunityPartition.from_labels(labels, benefit)
        got = community_ratios(masks, parts)
        assert got.shape == (len(masks), parts.count)
        for row, mask in zip(got, masks):
            assert np.array_equal(row, community_ratios(mask, parts))

    @settings(deadline=None)
    @given(partition_and_masks())
    def test_rows_equal_pure_python_sums(self, case):
        labels, benefit, masks, _ = case
        parts = CommunityPartition.from_labels(labels, benefit)
        got = community_ratios(masks, parts)
        b, lab = benefit.tolist(), labels.tolist()
        for row, mask in zip(got.tolist(), masks.tolist()):
            for c in range(parts.count):
                total = sum(x for x, l in zip(b, lab) if l == c)
                realized = sum(x for x, l, hit in zip(b, lab, mask)
                               if l == c and hit)
                assert row[c] == realized / total

    @settings(deadline=None)
    @given(partition_and_masks())
    def test_min_never_falls_when_nodes_are_added(self, case):
        labels, benefit, masks, added = case
        parts = CommunityPartition.from_labels(labels, benefit)
        before = community_ratios(masks, parts).min(axis=1)
        after = community_ratios(masks | added, parts).min(axis=1)
        assert np.all(after >= before)


class TestReport:
    def test_profit_identity_and_min(self, rng):
        attrs = make_attrs(6, cost=rng.uniform(1, 5, 6),
                           benefit=rng.uniform(1, 10, 6), labels=[0, 0, 1, 1, 1, 1])
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        g = graph_from_edges(6, [(3, 4, 1.0)], directed=True)
        s = SeedSet.build([0, 3], attrs)  # reaches exactly {0, 3, 4}
        rep, _, _ = evaluate_seed_set(g, attrs, parts, s, live_arcs(g, 3, 0),
                                      FairnessConfig(threshold=0.4))
        # profit is the mean of per-rollout profits, benefit adds the cost back
        assert rep.profit == pytest.approx(rep.benefit - rep.cost, abs=1e-12)
        assert rep.fairness == min(rep.community_ratios)
        assert all(0.0 <= r <= 1.0 for r in rep.community_ratios)
        assert rep.tau_ok == (min(rep.community_ratios) >= 0.4)

    def test_tau_bounds_each_community_not_the_rollout_minimum(self):
        # two independent coin flips, one per community: each community
        # realizes 1 or 0.01 of its benefit, so E[ratio_c] = 0.505 for both
        # while E[min_c ratio_c] = 0.2575; tau 0.38 lies 16+ Monte Carlo
        # standard errors from each, and the paper's per-community bound
        # ("each community realizes at least a minimum fraction of its
        # total benefit") holds
        attrs = make_attrs(4, cost=[1, 1, 1, 1], benefit=[1, 99, 1, 99],
                           labels=[0, 0, 1, 1])
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        g = graph_from_edges(4, [(0, 1, 0.5), (2, 3, 0.5)], directed=True)
        rep, _, _ = evaluate_seed_set(g, attrs, parts,
                                      SeedSet.build([0, 2], attrs),
                                      live_arcs(g, 4096, 0),
                                      FairnessConfig(threshold=0.38))
        assert rep.fairness == pytest.approx(0.2575, abs=0.03)
        assert min(rep.community_ratios) == pytest.approx(0.505, abs=0.03)
        assert rep.tau_ok


class TestShapedReward:
    def test_empty_seed_set_zero(self):
        inst = make_instance("t", 3, [(0, 1, 0.5), (1, 2, 0.5)],
                             labels=[0, 0, 1])
        assert mask_shaped_return(inst.attrs, inst.parts, influenced(3, []),
                                  0.0, 1.0) == 0.0

    def test_weight_zero_equals_profit_same_stream(self):
        # on each evaluation row, the shaped return is that rollout's
        # profit plus weight times its maximin fairness
        inst = make_instance("t", 4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)],
                             cost=[2, 1, 1, 1], benefit=[4, 3, 2, 1],
                             labels=[0, 0, 1, 1])
        g, attrs, parts = inst.graph, inst.attrs, inst.parts
        s = SeedSet.build([0], attrs)
        live = live_arcs(g, 16, 5)
        _, profits, fairs = evaluate_seed_set(g, attrs, parts, s, live,
                                              FairnessConfig())
        assert len(set(profits)) > 1
        for i, row in enumerate(unpack_live(live)):
            mask = grow(live_arc_lists(g, row), influenced(4, []), s.nodes)
            assert mask_shaped_return(attrs, parts, mask, s.total_cost,
                                      0.0) == profits[i]
            assert mask_shaped_return(attrs, parts, mask, s.total_cost, 3.0) \
                == pytest.approx(profits[i] + 3.0 * fairs[i], rel=1e-12)

    def test_deterministic_cascade(self):
        inst = make_instance("t", 3, [(0, 1, 1.0), (1, 2, 1.0)],
                             cost=[2, 1, 1], benefit=[5, 5, 5], labels=[0, 0, 1])
        g = inst.graph
        s = SeedSet.build([0], inst.attrs)
        live = np.random.default_rng(0).random(g.num_arcs) < g.probs
        mask = grow(live_arc_lists(g, live), influenced(3, []), s.nodes)
        # sum(b) - cost + phi * 1, regardless of the stream
        assert mask_shaped_return(inst.attrs, inst.parts, mask, s.total_cost,
                                  3.0) == pytest.approx(15.0 - 2.0 + 3.0)

    def test_negative_weight_rejected(self):
        inst = make_instance("t", 2, [(0, 1, 0.5)], labels=[0, 1])
        with pytest.raises(ValueError):
            shaped_return(0.0, [0.0, 0.0], inst.parts, 0.0, -1.0)


class TestEvaluateSeedSet:
    def test_aggregates_and_pairing(self):
        inst = make_instance("t", 4, [(0, 1, 0.5), (1, 2, 0.5), (0, 3, 0.5)],
                             cost=[2, 1, 1, 1], benefit=[4, 3, 2, 1],
                             labels=[0, 0, 1, 1])
        s = SeedSet.build([0], inst.attrs)
        rep1, profits1, fairs1 = evaluate_seed_set(
            inst.graph, inst.attrs, inst.parts, s,
            live_arcs(inst.graph, 200, 7), FairnessConfig())
        rep2, profits2, _ = evaluate_seed_set(
            inst.graph, inst.attrs, inst.parts, s,
            live_arcs(inst.graph, 200, 7), FairnessConfig())
        assert np.array_equal(profits1, profits2)  # same streams, same numbers
        assert rep1.profit == pytest.approx(profits1.mean())
        assert rep1.fairness == pytest.approx(fairs1.mean())

    @staticmethod
    def random_instance():
        # random (not power-of-two) benefits, so the summation order of a
        # rollout's benefit shows in its last bits
        rng = np.random.default_rng(8)
        n = 30
        edges = [(u, v, float(rng.uniform(0.05, 0.4)))
                 for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.15]
        return make_instance("chunks", n, edges, directed=True,
                             cost=rng.uniform(1, 5, n),
                             benefit=rng.uniform(1, 10, n),
                             labels=rng.integers(0, 3, n))

    def test_rollout_values_equal_bool_chunk_products(self, monkeypatch):
        # per-rollout profits and fairness are the node-major products on
        # the C-ordered (n, R) float cast of each yielded bool mask chunk,
        # bit for bit, over several chunks of seven rollouts
        inst = self.random_instance()
        g, attrs, parts = inst.graph, inst.attrs, inst.parts
        monkeypatch.setattr(diffusion, "CHUNK_ENTRIES",
                            7 * max(g.num_arcs, g.n))
        s = SeedSet.build([0, 5, 11], attrs)
        live = live_arcs(g, 50, 13)
        chunks = list(rollout_masks(g, s, live))
        assert len(chunks) >= 3 and chunks[0].dtype == bool
        assert [c.shape for c in chunks[:2]] == [(7, g.n)] * 2
        _, profits, fairs = evaluate_seed_set(g, attrs, parts, s, live,
                                              FairnessConfig())
        casts = [masks.T.astype(float, order="C") for masks in chunks]
        want = np.concatenate([attrs.benefit @ reached - s.total_cost
                               for reached in casts])
        assert len(set(want)) > 1
        assert np.array_equal(profits, want)
        assert np.array_equal(fairs, np.concatenate([
            community_ratios(reached.T, parts).min(axis=1)
            for reached in casts]))

    @pytest.mark.parametrize("rows", [None, 3])
    def test_estimate_and_evaluation_share_one_product(self, monkeypatch,
                                                       rows):
        # on one draw, the estimate's per-rollout benefits less the seed
        # cost are the evaluation's per-rollout profits, bit for bit, at
        # the default chunk size and at chunks of a few rollouts
        inst = self.random_instance()
        g, attrs = inst.graph, inst.attrs
        if rows is not None:
            monkeypatch.setattr(diffusion, "CHUNK_ENTRIES",
                                rows * max(g.num_arcs, g.n))
        s = SeedSet.build([2, 9], attrs)
        m, seed = 40, 21
        _, _, benefits = estimate_spread_and_benefit(g, attrs, s, m, seed)
        _, profits, _ = evaluate_seed_set(g, attrs, inst.parts, s,
                                          live_arcs(g, m, seed),
                                          FairnessConfig())
        assert len(set(profits)) > 1
        assert np.array_equal(benefits - s.total_cost, profits)

    def test_fairness_config_validation(self):
        with pytest.raises(ValueError):
            FairnessConfig(threshold=-0.5)
        with pytest.raises(ValueError):
            FairnessConfig(threshold=1.5)
