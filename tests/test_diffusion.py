import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairseed import diffusion
from fairseed.diffusion import (SeedSet, _chunk_rows,
                                estimate_spread_and_benefit,
                                exact_expected_profit,
                                exact_expected_shaped_objective,
                                live_arc_lists, live_arcs, rollout_masks,
                                simulate_ic)
from fairseed.graph import CommunityPartition, graph_from_edges
from fairseed.metrics import FairnessConfig, evaluate_seed_set

from conftest import (bfs_reach, fresh_rollout, grow, make_attrs,
                      make_instance, random_tiny_instance, unpack_live)


def two_node_path(p=0.5):
    g = graph_from_edges(2, [(0, 1, p)], directed=True)
    attrs = make_attrs(2, cost=[3.0, 1.0], benefit=[10.0, 10.0])
    return g, attrs


def lane1_word(seed, q):
    """Raw word q of counter lane 1 of the Philox streams keyed by `seed`."""
    bg = np.random.Philox(key=seed, counter=(1 << 64) + q // 4)
    return int(bg.random_raw(q % 4 + 1)[-1])


def digit_limit(p):
    """min(floor(256 p), 255), in integers."""
    num, den = float(p).as_integer_ratio()
    return min(256 * num // den, 255)


def stream_row(g, seed, i):
    """Live arcs of rollout i of the streams keyed by `seed`, trial by trial.

    Arc a's digit d is byte 64*E*b + 64*a + j of lane 0, for block b and
    place j of rollout i = 64*b + j; its limit is F = min(floor(256 p), 255).
    d < F is live and d > F dead; a tie takes lane-1 word q, q the number of
    ties earlier in lane-0 byte order, and is live when the 61-bit uniform
    (d * 2**53 + (x >> 11)) * 2**-61 lies below p, compared in integers."""
    arcs = g.num_arcs
    block, j = divmod(i, 64)
    limits = [digit_limit(p) for p in g.probs]
    digits = np.random.Philox(key=seed).random_raw(
        8 * arcs * (block + 1)).astype("<u8").view(np.uint8)
    ties = np.flatnonzero(
        digits == np.tile(np.repeat(np.array(limits, dtype=np.uint8), 64),
                          block + 1))
    row = []
    for a, p in enumerate(g.probs):
        k = 64 * (arcs * block + a) + j
        d = int(digits[k])
        if d != limits[a]:
            row.append(d < limits[a])
        else:
            x = lane1_word(seed, int(np.searchsorted(ties, k)))
            num, den = float(p).as_integer_ratio()
            row.append(((d << 53) + (x >> 11)) * den < num << 61)
    return np.array(row, dtype=bool)


class TestSeedSet:
    def test_build_sorted_and_cost(self):
        attrs = make_attrs(4, cost=[1, 2, 3, 4])
        s = SeedSet.build([3, 0], attrs)
        assert s.nodes == (0, 3)
        assert s.total_cost == 5.0

    def test_duplicates_rejected(self):
        attrs = make_attrs(3)
        with pytest.raises(ValueError):
            SeedSet.build([1, 1], attrs)

    def test_out_of_range(self):
        attrs = make_attrs(3)
        with pytest.raises(ValueError):
            SeedSet.build([3], attrs)


class TestSimulateIc:
    def test_empty_seed_set(self, rng):
        g, attrs = two_node_path()
        mask = fresh_rollout(g, rng.random(g.num_arcs) < g.probs, ())
        assert mask.shape == (g.n,) and mask.sum() == 0

    def test_p_one_reaches_all_reachable(self, rng):
        g = graph_from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)],
                             directed=True)
        mask = fresh_rollout(g, rng.random(g.num_arcs) < g.probs, (0,))
        assert list(np.flatnonzero(mask)) == [0, 1, 2]

    def test_bernoulli_edge(self):
        # 2-node path, p=0.5: activation frequency matches the Bernoulli rate
        g, attrs = two_node_path(0.5)
        rng = np.random.default_rng(99)
        hits = sum(fresh_rollout(g, rng.random(g.num_arcs) < g.probs, (0,))[1]
                   for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_contains_seeds_and_only_reachable(self, rng):
        for _ in range(30):
            inst = random_tiny_instance(rng)
            n = inst.graph.n
            seeds = SeedSet.build(
                rng.choice(n, size=rng.integers(1, n + 1), replace=False),
                inst.attrs)
            live = rng.random(inst.graph.num_arcs) < inst.graph.probs
            mask = fresh_rollout(inst.graph, live, seeds.nodes)
            assert all(mask[v] for v in seeds.nodes)
            # reachability bound: cascade never leaves the reachable set
            reach = set(seeds.nodes)
            frontier = list(seeds.nodes)
            while frontier:
                v = frontier.pop()
                for u in inst.graph.neighbors(v):
                    if u not in reach:
                        reach.add(int(u))
                        frontier.append(int(u))
            assert set(np.flatnonzero(mask)) <= reach

    def test_deterministic_given_stream(self):
        g, attrs = two_node_path(0.5)
        reached = np.zeros(g.n, dtype=bool)
        a = grow(live_arc_lists(g, stream_row(g, 7, 3)), reached, (0,))
        b = grow(live_arc_lists(g, stream_row(g, 7, 3)), reached, (0,))
        assert np.array_equal(a, b)


class TestEstimate:
    def test_empty_seed_set(self):
        g, attrs = two_node_path()
        spread, benefit, per = estimate_spread_and_benefit(
            g, attrs, SeedSet.build([], attrs), 10, 0)
        assert spread == 0.0 and benefit == 0.0
        assert np.all(per == 0.0)

    def test_deterministic_spread_on_connected_graph(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                             directed=False)
        attrs = make_attrs(4)
        spread, _, _ = estimate_spread_and_benefit(
            g, attrs, SeedSet.build([1], attrs), 50, 0)
        assert spread == 4.0

    def test_analytic_expectation(self):
        # E[benefit] = 10 + 0.5 * 10 = 15
        g, attrs = two_node_path(0.5)
        _, benefit, _ = estimate_spread_and_benefit(
            g, attrs, SeedSet.build([0], attrs), 10_000, 21)
        assert abs(benefit - 15.0) <= 0.5

    def test_rollouts_independent_of_order(self):
        # rollout i of the estimator equals the stream's trials at its place
        g, attrs = two_node_path(0.5)
        s = SeedSet.build([0], attrs)
        _, _, per = estimate_spread_and_benefit(g, attrs, s, 8, seed=42)
        for i in range(8):
            mask = fresh_rollout(g, stream_row(g, 42, i), s.nodes)
            assert per[i] == attrs.benefit[mask].sum()

    def test_monotone_in_expectation(self, rng):
        # S subset T implies E[benefit(T)] >= E[benefit(S)], within noise
        for trial in range(5):
            inst = random_tiny_instance(rng)
            n = inst.graph.n
            small = SeedSet.build([0], inst.attrs)
            big = SeedSet.build(list(range(min(2, n))), inst.attrs)
            m = 10_000
            _, b_small, per_s = estimate_spread_and_benefit(
                inst.graph, inst.attrs, small, m, trial)
            _, b_big, per_b = estimate_spread_and_benefit(
                inst.graph, inst.attrs, big, m, trial + 1000)
            pooled_se = np.sqrt(per_s.var() / m + per_b.var() / m)
            assert b_big >= b_small - 3 * pooled_se


class TestChunkedRollouts:
    def test_rollouts_match_simulate_ic_across_chunk_boundary(self):
        rng = np.random.default_rng(3)
        n = 40
        edges = [(u, v, float(rng.uniform(0.005, 0.05)))
                 for u in range(n) for v in range(n) if u != v]
        # distinct powers of two: a rollout's benefit is exact in any
        # summation order and identifies its reached set
        inst = make_instance("dense", n, edges, directed=True,
                             benefit=2.0 ** np.arange(n),
                             labels=[0] * 20 + [1] * 20)
        g, attrs = inst.graph, inst.attrs
        s = SeedSet.build([0, 17], attrs)
        rows = _chunk_rows(g)
        m = rows + 5
        assert 1 < rows < m  # rollouts land in two chunks
        live = live_arcs(g, m, seed=11)
        assert live.words.shape == (g.num_arcs, -(-m // 64))
        chunks = list(rollout_masks(g, s, live))
        assert [c.shape for c in chunks] == [(rows, g.n), (5, g.n)]
        masks = np.concatenate(chunks)
        _, _, benefits = estimate_spread_and_benefit(g, attrs, s, m, seed=11)
        _, profits, _ = evaluate_seed_set(g, attrs, inst.parts, s, live,
                                          FairnessConfig())
        assert len(set(benefits)) > 1  # the cascades are not all trivial
        for i in (0, 1, rows - 2, rows - 1, rows, rows + 1, m - 1):
            mask = fresh_rollout(g, stream_row(g, 11, i), s.nodes)
            assert np.array_equal(masks[i], mask)
            expected = attrs.benefit[mask].sum()
            assert benefits[i] == expected
            assert profits[i] == expected - s.total_cost

    @staticmethod
    def odd_arc_instance():
        # 27 arcs (E % 4 == 3); distinct powers of two as benefits, so a
        # rollout's benefit is exact and identifies its reached set
        rng = np.random.default_rng(8)
        n = 12
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = [(*pairs[k], float(rng.uniform(0.2, 0.6)))
                 for k in rng.choice(len(pairs), size=27, replace=False)]
        inst = make_instance("odd", n, edges, directed=True,
                             benefit=2.0 ** np.arange(n),
                             labels=[0] * 6 + [1] * 6)
        return inst.graph, inst.attrs, SeedSet.build([0, 5], inst.attrs)

    def test_chunk_boundary_inside_a_philox_block(self, monkeypatch):
        g, attrs, s = self.odd_arc_instance()
        arcs = g.num_arcs
        monkeypatch.setattr(diffusion, "CHUNK_ENTRIES", 5 * arcs)
        rows, m = _chunk_rows(g), 13
        # mask chunks 2 and 3 start inside a byte of the packed words, and
        # after trial counts that are no multiple of a four-word Philox block
        assert rows == 5 and (rows * arcs) % 4 and (2 * rows * arcs) % 4
        _, _, benefits = estimate_spread_and_benefit(g, attrs, s, m, seed=23)
        assert len(set(benefits)) > 1
        for i in range(m):
            mask = fresh_rollout(g, stream_row(g, 23, i), s.nodes)
            assert benefits[i] == attrs.benefit[mask].sum()

    def test_rollouts_independent_of_chunk_size(self, monkeypatch):
        g, attrs, s = self.odd_arc_instance()
        runs = []
        for entries in (1, 7 * g.num_arcs, diffusion.CHUNK_ENTRIES):
            monkeypatch.setattr(diffusion, "CHUNK_ENTRIES", entries)
            _, _, per = estimate_spread_and_benefit(g, attrs, s, 40, seed=4)
            runs.append(per)
        assert len(set(runs[0])) > 1
        assert all(np.array_equal(runs[0], other) for other in runs[1:])

    def test_graph_without_arcs_reaches_only_seeds(self):
        inst = make_instance("empty", 5, [], directed=True,
                             cost=[1, 2, 3, 4, 5], benefit=[1, 2, 4, 8, 16],
                             labels=[0, 0, 1, 1, 1])
        g, attrs = inst.graph, inst.attrs
        s = SeedSet.build([1, 3], attrs)
        assert g.num_arcs == 0
        mask = fresh_rollout(g, stream_row(g, 5, 0), s.nodes)
        assert list(np.flatnonzero(mask)) == [1, 3]
        spread, benefit, per = estimate_spread_and_benefit(g, attrs, s, 10, 5)
        assert spread == 2.0 and benefit == 10.0
        assert np.all(per == 10.0)
        report, profits, _ = evaluate_seed_set(g, attrs, inst.parts, s,
                                               live_arcs(g, 10, 5),
                                               FairnessConfig())
        assert np.all(profits == 10.0 - 6.0)
        assert report.community_ratios == pytest.approx((2 / 3, 8 / 28))


class TestLiveArcs:
    def test_rows_are_stream_draws_below_probs(self, monkeypatch):
        g, _, _ = TestChunkedRollouts.odd_arc_instance()
        arcs = g.num_arcs
        monkeypatch.setattr(diffusion, "CHUNK_ENTRIES", 5 * arcs)
        # 200 rollouts are filled one 64-rollout block at a time
        for m in (13, 63, 64, 65, 200):
            packed = live_arcs(g, m, seed=9)
            assert packed.m == m and packed.words.dtype == np.uint64
            live = unpack_live(packed)
            assert live.shape == (m, arcs) and live.dtype == bool
            for i in range(m):
                assert np.array_equal(live[i], stream_row(g, 9, i))

    def test_chunks_are_read_only(self):
        g, _, _ = TestChunkedRollouts.odd_arc_instance()
        words = live_arcs(g, 20, seed=1).words
        with pytest.raises(ValueError, match="read-only"):
            words[0, 0] = ~words[0, 0]
        with pytest.raises(ValueError, match="read-only"):
            words |= np.uint64(1)

    def test_one_draw_serves_every_seed_set(self):
        # a shared draw gives each seed set the rollouts of its own draw
        g, attrs, _ = TestChunkedRollouts.odd_arc_instance()
        live = live_arcs(g, 30, seed=2)
        for nodes in ([0], [3, 7], [1, 2, 11]):
            s = SeedSet.build(nodes, attrs)
            _, _, per = estimate_spread_and_benefit(g, attrs, s, 30, seed=2)
            shared = np.concatenate(list(rollout_masks(g, s, live)))
            assert np.array_equal(shared @ attrs.benefit, per)

    def test_m_below_one_rejected(self):
        g, _ = two_node_path()
        with pytest.raises(ValueError, match="m must be"):
            live_arcs(g, 0, seed=0)

    def test_live_share_is_binomial(self):
        # 2**22 trials per probability; taking every tie as live, or every
        # one as dead, would put the share at 25.5 / 256 about 13 standard
        # errors off
        pairs = [(u, v) for u in range(15) for v in range(15) if u != v]
        targets = (0.1, 1 / 3, 25.5 / 256)
        g = graph_from_edges(15, [(u, v, 0.5) for u, v in pairs[:192]],
                             directed=True)
        g = dataclasses.replace(g, probs=np.repeat(targets, 64))
        m = 1 << 16
        bits = np.unpackbits(live_arcs(g, m, seed=2026).words.view(np.uint8),
                             axis=1)
        for p, group in zip(targets, np.split(bits, 3)):
            trials = group.size
            share = np.count_nonzero(group) / trials
            assert abs(share - p) <= 5 * np.sqrt(p * (1 - p) / trials)

    @pytest.mark.parametrize("entries", [1, diffusion.CHUNK_ENTRIES])
    def test_rollouts_are_a_prefix_of_more_rollouts(self, monkeypatch,
                                                    entries):
        # a rollout's bits do not depend on how many rollouts are drawn
        g, _, _ = TestChunkedRollouts.odd_arc_instance()
        monkeypatch.setattr(diffusion, "CHUNK_ENTRIES", entries)
        most = unpack_live(live_arcs(g, 1000, seed=31))
        for m in (1, 63, 64, 65, 130, 999):
            assert np.array_equal(unpack_live(live_arcs(g, m, seed=31)),
                                  most[:m])

    @pytest.mark.parametrize("entries", [1, diffusion.CHUNK_ENTRIES])
    def test_graph_without_arcs(self, monkeypatch, entries):
        g = graph_from_edges(3, [], directed=True)
        monkeypatch.setattr(diffusion, "CHUNK_ENTRIES", entries)
        for m in (1, 64, 65, 200):
            live = live_arcs(g, m, seed=3)
            assert live.m == m and live.words.shape == (0, -(-m // 64))
            assert unpack_live(live).shape == (m, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5, np.inf, -np.inf,
                                     -5e-324, np.nextafter(1.0, 2.0)])
    def test_bad_probability_names_its_arc(self, bad):
        # a Graph built with dataclasses.replace skips Graph.validate
        g, _, _ = TestChunkedRollouts.odd_arc_instance()
        src, dst, probs = g.arc_arrays()
        probs = probs.copy()
        probs[[4, 9]] = bad
        g = dataclasses.replace(g, probs=probs)
        with pytest.raises(ValueError, match=rf"arc 4 \({src[4]} -> {dst[4]}\)"
                           r" has probability .*outside \[0, 1\]"):
            live_arcs(g, 10, seed=0)


@st.composite
def threshold_cases(draw):
    """A directed graph of 1 to 72 arcs whose probabilities lie on or next
    to the limits of live_arcs' digit compare, a rollout count on or off the
    64-rollout blocks, a stream seed and a chunk size. Some probabilities
    are multiples k / 256, whose ties are never live. Some have the digit
    that the stream drew for the arc in one of the rollouts, so that trial
    ties, plus 0, a random fraction or the 53-bit fraction of one of the
    first lane-1 words. Some lie below 1 / 256 and are k * 2**-61, k = x >> 11
    for the lane-1 word x that a tie of the arc at digit 0 takes, so that
    tie is dead by one step of 2**-61. Each probability may then move to its
    float neighbour toward 0 or 1."""
    pairs = [(u, v) for u in range(9) for v in range(9) if u != v]
    arcs = draw(st.integers(1, len(pairs)))
    g = graph_from_edges(9, [(u, v, 0.5) for u, v in pairs[:arcs]],
                         directed=True)
    m = draw(st.sampled_from([1, 5, 13, 63, 64, 65, 67, 130, 203]))
    seed = draw(st.integers(0, 2**32 - 1))
    blocks = -(-m // 64)
    digits = np.random.Philox(key=seed).random_raw(8 * arcs * blocks).astype(
        "<u8").view(np.uint8).reshape(blocks, arcs, 64)
    fractions = [0.0] + [(x >> 11) * 2.0 ** -53 for x in
                         np.random.Philox(key=seed, counter=1 << 64)
                         .random_raw(4).tolist()]
    fixed = [0.0, 5e-324, 2.0 ** -61, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0]
    toward = st.sampled_from([None, 0.0, 1.0])  # None keeps p
    probs, boundary = [], []
    for a in range(arcs):
        zeros = np.flatnonzero(digits[:, a].reshape(-1)[:m] == 0)
        kind = draw(st.integers(0, 4 if zeros.size else 3))
        if kind == 0:
            p = draw(st.sampled_from(fixed))
        elif kind == 1:
            p = draw(st.integers(0, 256)) / 256
        elif kind == 2:
            i = draw(st.integers(0, m - 1))
            p = (int(digits[i // 64, a, i % 64]) + draw(st.one_of(
                st.sampled_from(fractions),
                st.floats(0.0, 1.0, exclude_max=True)))) / 256
        elif kind == 3:
            p = draw(st.floats(0.0, 1.0))
        else:
            i = int(draw(st.sampled_from(zeros)))
            boundary.append((a, 64 * (arcs * (i // 64) + a) + i % 64))
            p = 0.0  # any p below 1 / 256 ties at digit 0; set below
        probs.append(p)
    nudge = [draw(toward) for _ in range(arcs)]
    if boundary:
        limits = np.array([digit_limit(p) for p in probs], dtype=np.uint8)
        ties = np.flatnonzero(digits == limits[:, None])
        words = np.random.Philox(key=seed, counter=1 << 64).random_raw(
            ties.size)
        for a, k in boundary:
            probs[a] = int(words[np.searchsorted(ties, k)] >> 11) * 2.0 ** -61
    probs = [p if to is None else np.nextafter(p, to)
             for p, to in zip(probs, nudge)]
    g = dataclasses.replace(g, probs=np.array(probs))
    # chunks of one block (the least size, and the most that holds one at
    # three bytes a trial), of two blocks, or the default size
    entries = draw(st.sampled_from([1, 192 * arcs, 384 * arcs,
                                    diffusion.CHUNK_ENTRIES]))
    return g, m, seed, entries


class TestThresholdRule:
    @settings(deadline=None, max_examples=150)
    @given(threshold_cases())
    def test_words_equal_float_draws_below_probs(self, case):
        # the digit compare, its refinement from lane 1 and the packing
        # against the trial-by-trial reference
        g, m, seed, entries = case
        with mock.patch.object(diffusion, "CHUNK_ENTRIES", entries):
            live = live_arcs(g, m, seed)
        want = np.array([stream_row(g, seed, i) for i in range(m)])
        assert np.array_equal(unpack_live(live), want)
        bits = np.unpackbits(live.words.view(np.uint8), axis=1,
                             bitorder="little")
        assert not bits[:, m:].any()


@st.composite
def deterministic_cases(draw):
    """A tiny directed graph whose arcs have probability 0 or 1, with a
    non-empty seed set, a rollout count and a stream seed."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True))
    g = graph_from_edges(n, [(u, v, 1.0) for u, v in arcs], directed=True)
    # probability 0 lies outside what graph_from_edges accepts, so the
    # arcs get their 0/1 probabilities on the built (CSR-ordered) graph
    probs = draw(st.lists(st.sampled_from([0.0, 1.0]),
                          min_size=g.num_arcs, max_size=g.num_arcs))
    g = dataclasses.replace(g, probs=np.array(probs))
    values = st.floats(1.0, 10.0)
    attrs = make_attrs(
        n, cost=draw(st.lists(values, min_size=n, max_size=n)),
        benefit=draw(st.lists(values, min_size=n, max_size=n)))
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return (g, attrs, SeedSet.build(nodes, attrs), draw(st.integers(1, 64)),
            draw(st.integers(0, 2**32 - 1)))


class TestDeterministicCascades:
    @settings(deadline=None, max_examples=60)
    @given(deterministic_cases())
    def test_estimate_equals_exact_oracle(self, case):
        # every rollout of a 0/1 graph reaches the same set, so the Monte
        # Carlo mean is the exact expectation up to roundoff
        g, attrs, s, m, seed = case
        _, benefit, per = estimate_spread_and_benefit(g, attrs, s, m, seed)
        exact = exact_expected_profit(g, attrs, s) + s.total_cost
        assert len(per) == m
        assert benefit == pytest.approx(exact, rel=1e-9, abs=0)


class TestIncrementalReach:
    """simulate_ic grows one rollout's mask seed by seed; the result must be
    the reach of the whole set on the same live arcs."""

    def test_growing_one_seed_at_a_time_equals_whole_set(self, rng):
        graphs = [random_tiny_instance(rng).graph for _ in range(20)]
        graphs.append(TestChunkedRollouts.odd_arc_instance()[0])
        graphs.append(graph_from_edges(
            40, [(u, v, 0.05) for u in range(40) for v in range(40) if u != v],
            directed=True))
        for g in graphs:
            src, dst, _ = g.arc_arrays()
            for _ in range(5):
                live = rng.random(g.num_arcs) < g.probs
                arcs = live_arc_lists(g, live)
                order = [int(v) for v in rng.permutation(g.n)]
                reached = np.zeros(g.n, dtype=bool)
                for k, v in enumerate(order, start=1):
                    grown = grow(arcs, reached, (v,))
                    assert np.all(grown >= reached) and grown[v]
                    whole = bfs_reach(g.n, src, dst, live, order[:k])
                    assert np.array_equal(grown, whole)
                    reached = grown

    def test_start_mask_on_many_rows(self):
        # growing from a reached mask works rollout by rollout on the rows
        # of a packed draw
        g, _, _ = TestChunkedRollouts.odd_arc_instance()
        src, dst, _ = g.arc_arrays()
        for live in unpack_live(live_arcs(g, 30, seed=6)):
            arcs = live_arc_lists(g, live)
            first = grow(arcs, np.zeros(g.n, dtype=bool), [0, 5])
            both = bfs_reach(g.n, src, dst, live, [0, 3, 5, 9])
            assert np.array_equal(grow(arcs, first, [3, 5, 9]), both)

    def test_seed_already_reached_adds_nothing(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        arcs = live_arc_lists(g, np.ones(g.num_arcs, dtype=bool))
        reached = grow(arcs, np.zeros(g.n, dtype=bool), (0,))
        assert np.array_equal(grow(arcs, reached, (2,)), reached)


@st.composite
def growth_cases(draw):
    """A tiny directed graph of at most 20 arcs, some of them always live,
    a rollout count, a stream seed and groups of seeds added one after
    another; a node may repeat within a group and across groups."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=20, unique=True))
    probs = st.one_of(st.just(1.0), st.floats(0.05, 1.0))
    g = graph_from_edges(n, [(u, v, draw(probs)) for u, v in arcs],
                         directed=True)
    groups = st.lists(st.integers(0, n - 1), max_size=3)
    return (g, draw(st.lists(groups, min_size=1, max_size=6)),
            draw(st.sampled_from([1, 5, 64, 65])),
            draw(st.integers(0, 2**32 - 1)))


class TestListSearch:
    @settings(deadline=None, max_examples=60)
    @given(growth_cases())
    def test_growth_equals_rollout_masks(self, case):
        # growing a mask group by group on one rollout's live-arc lists gives
        # that rollout's row of rollout_masks for the union of the groups
        g, groups, m, seed = case
        live = live_arcs(g, m, seed)
        attrs = make_attrs(g.n)
        union, expected = set(), []
        for group in groups:
            union.update(group)
            expected.append(np.concatenate(list(rollout_masks(
                g, SeedSet.build(union, attrs), live))))
        for i, row in enumerate(unpack_live(live)):
            arcs = live_arc_lists(g, row)
            reached = np.zeros(g.n, dtype=bool)
            for group, masks in zip(groups, expected):
                grown = grow(arcs, reached, group)
                assert np.array_equal(grown, masks[i])
                reached = grown

    @settings(deadline=None, max_examples=60)
    @given(growth_cases())
    def test_reports_each_newly_reached_node_once(self, case):
        # an episode grows one mask in place, group by group: each call
        # reports exactly the nodes that its growth added to the mask, so
        # across the episode every node is reported at most once, and the
        # reported nodes make up the final mask
        g, groups, m, seed = case
        for row in unpack_live(live_arcs(g, m, seed)):
            arcs = live_arc_lists(g, row)
            reached = np.zeros(g.n, dtype=bool)
            reported = []
            for group in groups:
                before = reached.copy()
                new = simulate_ic(arcs, reached, group)
                assert sorted(new) == np.flatnonzero(reached & ~before).tolist()
                assert all(reached[v] for v in group)
                reported += new
            assert len(reported) == len(set(reported))
            assert sorted(reported) == np.flatnonzero(reached).tolist()


@st.composite
def packed_cases(draw):
    """A tiny directed graph of at most 20 arcs, a rollout count around the
    64-rollout word boundaries, a stream seed and two seed sets: the first
    empty, single or multi-node, the second added on top of it."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=20, unique=True))
    g = graph_from_edges(n, [(u, v, draw(st.floats(0.05, 1.0)))
                             for u, v in arcs], directed=True)
    nodes = st.integers(0, n - 1)
    first = draw(st.one_of(st.just([]), st.lists(nodes, min_size=1,
                                                 max_size=1),
                           st.lists(nodes, min_size=2, unique=True)))
    added = draw(st.lists(nodes, max_size=3, unique=True))
    return (g, first, added, draw(st.sampled_from([1, 63, 64, 65, 129])),
            draw(st.integers(0, 2**32 - 1)))


class TestPackedKernel:
    """Each bit of the packed kernel's words is one rollout's cascade."""

    @settings(deadline=None, max_examples=60)
    @given(packed_cases())
    def test_rows_equal_breadth_first_search(self, case):
        g, first, added, m, seed = case
        src, dst, _ = g.arc_arrays()
        live = live_arcs(g, m, seed)
        rows = unpack_live(live)
        attrs = make_attrs(g.n)
        masks = np.concatenate(list(rollout_masks(
            g, SeedSet.build(first, attrs), live)))
        assert masks.shape == (m, g.n) and masks.dtype == bool
        for i in range(m):
            expected = bfs_reach(g.n, src, dst, rows[i], first)
            assert np.array_equal(masks[i], expected)
            arcs = live_arc_lists(g, rows[i])
            start = grow(arcs, np.zeros(g.n, dtype=bool), first)
            assert np.array_equal(start, expected)
            both = bfs_reach(g.n, src, dst, rows[i], first + added)
            assert np.array_equal(grow(arcs, start, added), both)


@st.composite
def monotone_cases(draw):
    """A tiny directed graph of at most 20 arcs, a seed set, a node outside
    it and one live-arc row."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=20, unique=True))
    probs = st.floats(0.05, 1.0)
    g = graph_from_edges(n, [(u, v, draw(probs)) for u, v in arcs],
                         directed=True)
    values = st.floats(1.0, 10.0)
    attrs = make_attrs(
        n, cost=draw(st.lists(values, min_size=n, max_size=n)),
        benefit=draw(st.lists(values, min_size=n, max_size=n)))
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    extra = draw(st.sampled_from(sorted(set(range(n)) - set(nodes))))
    live = draw(st.lists(st.booleans(), min_size=g.num_arcs,
                         max_size=g.num_arcs))
    return g, attrs, nodes, extra, np.array(live, dtype=bool)


@st.composite
def spread_cases(draw):
    """A tiny directed graph with random arc probabilities, a seed set, a
    rollout count around the 64-rollout word boundaries, a stream seed and
    a chunk size: one row per chunk, a few rows, or the default."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=20, unique=True))
    g = graph_from_edges(n, [(u, v, draw(st.floats(0.05, 1.0)))
                             for u, v in arcs], directed=True)
    attrs = make_attrs(n)
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return (g, attrs, SeedSet.build(nodes, attrs),
            draw(st.sampled_from([1, 63, 64, 65, 200])),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from([1, 100, diffusion.CHUNK_ENTRIES])))


class TestSpreadCount:
    """The mean spread, a count of reached bits over m, is the same double
    as the mean of the per-rollout spreads."""

    @settings(deadline=None, max_examples=80)
    @given(spread_cases())
    def test_mean_spread_equals_mean_of_row_sums(self, case):
        g, attrs, s, m, seed, entries = case
        with mock.patch.object(diffusion, "CHUNK_ENTRIES", entries):
            spread, _, _ = estimate_spread_and_benefit(g, attrs, s, m, seed)
            rows = np.concatenate([
                masks.sum(axis=1)
                for masks in rollout_masks(g, s, live_arcs(g, m, seed))])
        assert len(rows) == m
        assert type(spread) is float
        assert spread == float(rows.mean())


class TestMonotonicity:
    @settings(deadline=None, max_examples=40)
    @given(monotone_cases())
    def test_adding_a_seed_never_lowers_benefit(self, case):
        g, attrs, nodes, extra, live = case
        small = SeedSet.build(nodes, attrs)
        big = SeedSet.build(nodes + [extra], attrs)
        benefit_small = exact_expected_profit(g, attrs, small) + small.total_cost
        benefit_big = exact_expected_profit(g, attrs, big) + big.total_cost
        assert benefit_big >= benefit_small - 1e-9 * max(1.0, benefit_small)
        # on one realization the incremental mask only grows
        reached = fresh_rollout(g, live, small.nodes)
        grown = grow(live_arc_lists(g, live), reached, (extra,))
        assert np.all(grown >= reached) and grown[extra]
        assert np.array_equal(grown, fresh_rollout(g, live, big.nodes))


class TestExactOracle:
    def test_empty(self):
        g, attrs = two_node_path()
        assert exact_expected_profit(g, attrs, SeedSet.build([], attrs)) == 0.0

    def test_two_node_hand_value(self):
        # 0.5 * 20 + 0.5 * 10 - 3 = 12
        g, attrs = two_node_path(0.5)
        assert exact_expected_profit(g, attrs, SeedSet.build([0], attrs)) \
            == pytest.approx(12.0)

    def test_deterministic_triangle(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
                             directed=False)
        attrs = make_attrs(3)
        assert exact_expected_profit(g, attrs, SeedSet.build([1], attrs)) \
            == pytest.approx(2.0)

    def test_too_many_arcs_rejected(self):
        g = graph_from_edges(
            30, [(i, i + 1, 0.5) for i in range(25)], directed=True)
        attrs = make_attrs(30)
        with pytest.raises(ValueError, match="oracle"):
            exact_expected_profit(g, attrs, SeedSet.build([], attrs))

    def test_matches_monte_carlo(self, rng):
        # light version of the acceptance criterion
        for _ in range(8):
            inst = random_tiny_instance(rng)
            seeds = SeedSet.build([int(rng.integers(inst.graph.n))], inst.attrs)
            exact = exact_expected_profit(inst.graph, inst.attrs, seeds)
            m = 20_000
            _, benefit, per = estimate_spread_and_benefit(
                inst.graph, inst.attrs, seeds, m, int(rng.integers(1 << 30)))
            se = per.std() / np.sqrt(m)
            assert abs((benefit - seeds.total_cost) - exact) <= 4 * max(se, 1e-12)

    def test_shaped_objective_reduces_to_profit(self, rng):
        inst = random_tiny_instance(rng)
        seeds = SeedSet.build([0], inst.attrs)
        profit = exact_expected_profit(inst.graph, inst.attrs, seeds)
        shaped = exact_expected_shaped_objective(
            inst.graph, inst.attrs, inst.parts, seeds, weight=0.0)
        assert shaped == pytest.approx(profit)

    def test_shaped_objective_deterministic_case(self):
        # p=1 path covering everything: fairness is exactly 1
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        attrs = make_attrs(3, cost=[2, 1, 1], benefit=[5, 5, 5], labels=[0, 0, 1])
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        s = SeedSet.build([0], attrs)
        got = exact_expected_shaped_objective(g, attrs, parts, s, weight=2.0)
        assert got == pytest.approx(15.0 - 2.0 + 2.0 * 1.0)

    def test_shaped_objective_rejects_negative_weight(self):
        # as metrics.shaped_return, whose expectation it is, does
        g = graph_from_edges(2, [(0, 1, 0.5)], directed=True)
        attrs = make_attrs(2, labels=[0, 1])
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        s = SeedSet.build([0], attrs)
        with pytest.raises(ValueError, match="nonnegative"):
            exact_expected_shaped_objective(g, attrs, parts, s, weight=-1.0)
