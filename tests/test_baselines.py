from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairseed.baselines import (_fill, _ranking, fair_pagerank_seeds,
                                high_degree_seeds, pagerank, pagerank_seeds,
                                parity_seeds, random_seeds)
from fairseed.embedding import init_embedding_params
from fairseed.graph import CommunityPartition, graph_from_edges
from fairseed.qnet import QNetwork
from fairseed.trainer import TrainedPolicy, select_seed_set

from conftest import make_attrs, make_instance


def star(n_leaves=4):
    return graph_from_edges(n_leaves + 1, [(0, i, 0.5) for i in range(1, n_leaves + 1)],
                            directed=False)


class TestRandomSeeds:
    def test_budget_too_small(self, rng):
        g = star()
        attrs = make_attrs(5, cost=np.full(5, 3.0))
        assert len(random_seeds(g, attrs, 2.0, rng)) == 0

    def test_budget_covers_everything(self, rng):
        g = star()
        attrs = make_attrs(5, cost=np.ones(5))
        s = random_seeds(g, attrs, 100.0, rng)
        assert s.nodes == (0, 1, 2, 3, 4)

    def test_cost_within_budget(self, rng):
        g = star(8)
        attrs = make_attrs(9, cost=rng.uniform(1, 5, 9))
        for _ in range(50):
            s = random_seeds(g, attrs, 7.0, rng)
            assert s.total_cost <= 7.0


class TestHighDegree:
    def test_star_center_first(self):
        g = star()
        attrs = make_attrs(5, cost=np.ones(5))
        s = high_degree_seeds(g, attrs, 1.0)
        assert s.nodes == (0,)

    def test_unaffordable_empty(self):
        g = star()
        attrs = make_attrs(5, cost=np.full(5, 10.0))
        assert len(high_degree_seeds(g, attrs, 5.0)) == 0

    def test_skip_expensive_center(self):
        # degrees (2,1,1); the center is over budget, both leaves fit
        g = graph_from_edges(3, [(0, 1, 0.5), (0, 2, 0.5)], directed=False)
        attrs = make_attrs(3, cost=[11.0, 1.0, 1.0])
        s = high_degree_seeds(g, attrs, 10.0)
        assert s.nodes == (1, 2)


class TestPageRank:
    def test_three_cycle_uniform(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
                             directed=True)
        assert np.allclose(pagerank(g), 1.0 / 3.0, atol=1e-9)

    def test_scores_sum_to_one(self, rng):
        edges = [(int(rng.integers(20)), int(rng.integers(20)), 0.5)
                 for _ in range(40)]
        edges = [(u, v, p) for u, v, p in edges if u != v]
        g = graph_from_edges(20, edges, directed=True)
        assert pagerank(g).sum() == pytest.approx(1.0, abs=1e-9)

    def test_two_node_closed_form(self):
        # u -> v with dangling v; solve the 2x2 stationary system directly
        g = graph_from_edges(2, [(0, 1, 0.5)], directed=True)
        d = 0.85
        # r = (1-d)/2 + d * (M + D) r, with column 0 -> node 1, dangling col 1
        a = np.array([[0.0, 0.5], [1.0, 0.5]])
        system = np.eye(2) - d * a
        expected = np.linalg.solve(system, np.full(2, (1 - d) / 2))
        expected /= expected.sum()
        got = pagerank(g)
        assert np.allclose(got, expected, atol=1e-8)
        assert got[1] > got[0]

    def test_order_ties_by_id(self):
        assert list(_ranking(np.array([0.3, 0.4, 0.3]))) == [1, 0, 2]
        # pagerank_seeds fills down the same ranking: the top node, then the
        # lower id of the tied pair once only one of them still fits
        attrs = make_attrs(3, cost=[1.0, 2.0, 1.0])
        s = pagerank_seeds(star(2), attrs, 3.0,
                           scores=np.array([0.3, 0.4, 0.3]))
        assert s.nodes == (0, 1)


class TestPageRankSeeds:
    def test_hub_first(self):
        g = star()
        attrs = make_attrs(5, cost=np.ones(5))
        s = pagerank_seeds(g, attrs, 1.0)
        assert s.nodes == (0,)

    def test_skip_expensive_hub(self):
        g = graph_from_edges(3, [(0, 1, 0.5), (0, 2, 0.5)], directed=False)
        attrs = make_attrs(3, cost=[11.0, 1.0, 1.0])
        assert pagerank_seeds(g, attrs, 10.0).nodes == (1, 2)

    def test_within_budget(self, rng):
        g = star(10)
        attrs = make_attrs(11, cost=rng.uniform(1, 4, 11))
        assert pagerank_seeds(g, attrs, 6.0).total_cost <= 6.0


def ring_instance(n, labels, cost=None):
    edges = [(i, (i + 1) % n, 0.5) for i in range(n)]
    return make_instance("ring", n, edges, cost=cost, labels=labels)


class TestParity:
    def test_twenty_eighty_split(self):
        # 20:80 populations, equal costs, room for exactly 10 seeds
        labels = [0] * 4 + [1] * 16
        inst = ring_instance(20, labels)
        s = parity_seeds(inst.graph, inst.attrs, inst.parts, budget=10.0)
        assert len(s) == 10
        chosen_labels = inst.attrs.community[list(s.nodes)]
        assert (chosen_labels == 0).sum() == 2
        assert (chosen_labels == 1).sum() == 8

    def test_single_community_matches_high_degree(self):
        inst = make_instance("t", 5, [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5),
                                      (3, 4, 0.5)],
                             cost=[1, 1, 1, 1, 1], labels=[0] * 5)
        got = parity_seeds(inst.graph, inst.attrs, inst.parts, budget=3.0)
        ref = high_degree_seeds(inst.graph, inst.attrs, budget=3.0)
        assert got.nodes == ref.nodes

    def test_minority_exhausted_falls_back(self):
        # one minority node; after it is taken, picks come from the majority
        labels = [0, 1, 1, 1, 1]
        inst = ring_instance(5, labels)
        s = parity_seeds(inst.graph, inst.attrs, inst.parts, budget=5.0)
        assert len(s) == 5  # everything affordable gets picked eventually

        s3 = parity_seeds(inst.graph, inst.attrs, inst.parts, budget=3.0)
        chosen_labels = inst.attrs.community[list(s3.nodes)]
        assert (chosen_labels == 0).sum() == 1  # hand trace: M, M, m
        assert (chosen_labels == 1).sum() == 2

    def test_proportion_bound(self, rng):
        # equal costs, plentiful candidates: minority share within 1/|S|
        labels = ([0] * 10) + ([1] * 30)
        inst = ring_instance(40, labels)
        s = parity_seeds(inst.graph, inst.attrs, inst.parts, budget=12.0)
        minority_share = (inst.attrs.community[list(s.nodes)] == 0).mean()
        assert abs(minority_share - 0.25) <= 1.0 / len(s)

    def test_exact_tie_goes_to_the_lower_id(self):
        # communities {0} and {1..5} on a directed 6-cycle: equal costs and
        # scores; the third pick ties exactly (6/18 either way), and the tie
        # rule, not float rounding of the L1 distance, gives it to node 0
        inst = make_instance("t", 6, [(i, (i + 1) % 6, 0.5) for i in range(6)],
                             directed=True, labels=[0, 1, 1, 1, 1, 1])
        for select in (parity_seeds, fair_pagerank_seeds):
            s = select(inst.graph, inst.attrs, inst.parts, 3.0)
            assert s.nodes == (0, 1, 2), select.__name__

    def test_budget_safety(self, rng):
        labels = [0] * 3 + [1] * 9
        inst = make_instance("t", 12, [(i, (i + 5) % 12, 0.5) for i in range(12)],
                             cost=rng.uniform(1, 6, 12), labels=labels)
        for budget in (2.0, 5.0, 11.0, 23.0):
            s = parity_seeds(inst.graph, inst.attrs, inst.parts, budget)
            assert s.total_cost <= budget


class TestFairPageRank:
    def test_single_community_matches_pagerank(self):
        inst = make_instance("t", 5, [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5),
                                      (3, 4, 0.5)],
                             cost=[1, 1, 1, 1, 1], labels=[0] * 5)
        got = fair_pagerank_seeds(inst.graph, inst.attrs, inst.parts, 3.0)
        ref = pagerank_seeds(inst.graph, inst.attrs, 3.0)
        assert got.nodes == ref.nodes

    def test_symmetric_communities_split_evenly(self):
        # two identical 3-cycles, one per community
        edges = [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5),
                 (3, 4, 0.5), (4, 5, 0.5), (5, 3, 0.5)]
        inst = make_instance("t", 6, edges, cost=[1] * 6, labels=[0, 0, 0, 1, 1, 1])
        s = fair_pagerank_seeds(inst.graph, inst.attrs, inst.parts, budget=4.0)
        chosen = inst.attrs.community[list(s.nodes)]
        assert (chosen == 0).sum() == 2
        assert (chosen == 1).sum() == 2

    def test_hand_traced_asymmetric(self):
        # communities {0,1,2} and {3,4,5}; node 3 is the pagerank hub of its
        # community, node 0 of its own; equal costs, budget for 3 picks.
        # pop proportions are 1:1 so picks alternate, highest score first.
        edges = [(0, 1, 0.5), (0, 2, 0.5),
                 (3, 4, 0.5), (3, 5, 0.5), (4, 5, 0.5)]
        inst = make_instance("t", 6, edges, cost=[1] * 6, labels=[0, 0, 0, 1, 1, 1])
        scores = pagerank(inst.graph)
        s = fair_pagerank_seeds(inst.graph, inst.attrs, inst.parts, budget=3.0)
        first_pick = s.nodes
        # the top-scoring node of each community must be present
        top0 = max([0, 1, 2], key=lambda v: scores[v])
        top1 = max([3, 4, 5], key=lambda v: scores[v])
        assert top0 in first_pick and top1 in first_pick
        assert len(s) == 3

    def test_determinism(self):
        edges = [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)]
        inst = make_instance("t", 4, edges, cost=[1] * 4, labels=[0, 0, 1, 1])
        a = fair_pagerank_seeds(inst.graph, inst.attrs, inst.parts, 2.0)
        b = fair_pagerank_seeds(inst.graph, inst.attrs, inst.parts, 2.0)
        assert a.nodes == b.nodes


def exact_fill(scores, labels, cost, budget):
    """The fill's rule spelled out with exact fractions: each pick is the
    affordable unpicked node after which the picks' group shares are
    L1-closest to the groups' shares of all nodes, ties to the higher score,
    then the lower id."""
    n, groups = len(labels), sorted(set(labels))
    chosen, remaining = [], budget
    while True:
        left = [v for v in range(n) if v not in chosen and cost[v] <= remaining]
        if not left:
            return tuple(sorted(chosen))

        def distance(v):
            picked = [labels[u] for u in chosen + [v]]
            return sum(abs(Fraction(picked.count(c), len(picked))
                           - Fraction(labels.count(c), n)) for c in groups)

        v = min(left, key=lambda v: (distance(v), -scores[v], v))
        chosen.append(v)
        remaining -= cost[v]


# few distinct costs and scores, so exact ties are common
fill_case = st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 8), min_size=n, max_size=n),
    st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n),
    st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=n, max_size=n),
    st.floats(0.0, 3.0 * n)))


class TestFill:
    @settings(deadline=None, max_examples=300)
    @given(fill_case)
    def test_matches_exact_reference(self, case):
        labels, scores, cost, budget = case
        groups = [np.flatnonzero(np.array(labels) == c)
                  for c in sorted(set(labels))]
        s = _fill(np.array(scores), groups, make_attrs(len(cost), cost=cost),
                  budget)
        assert s.nodes == exact_fill(scores, labels, cost, budget)

    @settings(deadline=None, max_examples=100)
    @given(fill_case)
    def test_one_group_is_a_greedy_pass(self, case):
        _, scores, cost, budget = case
        greedy, remaining = [], budget
        for v in _ranking(np.array(scores)).tolist():
            if cost[v] <= remaining:
                greedy.append(v)
                remaining -= cost[v]
        s = _fill(np.array(scores), [np.arange(len(cost))],
                  make_attrs(len(cost), cost=cost), budget)
        assert s.nodes == tuple(sorted(greedy))


class TestBudgetSafety:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(0.5, 50.0), min_size=2, max_size=12),
           st.floats(0.01, 1.2), st.integers(0, 2**32 - 1))
    def test_every_selector_fills_the_budget_without_overspending(
            self, costs, share, seed):
        # every selector fills greedily: it spends at most the budget and
        # leaves no unpicked node that the rest of the budget would buy
        n = len(costs)
        rng = np.random.default_rng(seed)
        pairs = {(v, v + 1) for v in range(n - 1)}
        pairs |= {(min(u, v), max(u, v)) for u, v in
                  rng.integers(n, size=(n, 2)).tolist() if u != v}
        edges = [(u, v, 0.5) for u, v in sorted(pairs)]
        inst = make_instance("budget", n, edges, cost=costs,
                             benefit=rng.uniform(1.0, 10.0, n),
                             labels=[0] * (n // 2) + [1] * (n - n // 2))
        g, attrs, parts = inst.graph, inst.attrs, inst.parts
        budget = share * float(attrs.cost.sum())
        policy = TrainedPolicy(net=QNetwork.init(8 + 3, seed, hidden=16),
                               embed=init_embedding_params(8, seed), t_emb=2)
        selected = {
            "random": random_seeds(g, attrs, budget, rng),
            "highdegree": high_degree_seeds(g, attrs, budget),
            "pagerank": pagerank_seeds(g, attrs, budget),
            "parity": parity_seeds(g, attrs, parts, budget),
            "fairpagerank": fair_pagerank_seeds(g, attrs, parts, budget),
            "rl": select_seed_set(policy, inst, budget),
        }
        for name, s in selected.items():
            assert s.total_cost <= budget + 1e-9, name
            left = budget - s.total_cost
            unpicked = np.setdiff1d(np.arange(n), s.nodes)
            assert np.all(attrs.cost[unpicked] > left - 1e-9), name
