import time

import numpy as np
import pytest

from fairseed.embedding import compute_embeddings, init_embedding_params
from fairseed.graph import graph_from_edges

from conftest import make_attrs


class TestInitParams:
    def test_shapes(self):
        p = init_embedding_params(64, seed=0)
        assert p.w_feat.shape == (64, 2)
        assert p.w_agg.shape == (64, 64)
        assert p.w_edge.shape == (64,)

    def test_deterministic(self):
        a = init_embedding_params(16, seed=3)
        b = init_embedding_params(16, seed=3)
        assert np.array_equal(a.w_agg, b.w_agg)

    def test_bound(self):
        p = init_embedding_params(4, seed=1)
        assert np.all(np.abs(p.w_agg) <= 0.5)

    def test_scalar_dim_runs(self):
        g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)], directed=False)
        p = init_embedding_params(1, seed=0)
        h = compute_embeddings(g, make_attrs(3, cost=[1, 2, 3]), p, t_emb=2)
        assert h.vectors.shape == (3, 1)


class TestComputeEmbeddings:
    def test_isolated_node_feature_only(self):
        g = graph_from_edges(3, [(0, 1, 0.5)], directed=False)
        attrs = make_attrs(3, cost=[1.0, 2.0, 3.0], benefit=[3.0, 2.0, 1.0])
        p = init_embedding_params(8, seed=2)
        h = compute_embeddings(g, attrs, p, t_emb=3)
        feats = np.array([(attrs.cost[2] - 1.0) / 2.0,
                          (attrs.benefit[2] - 1.0) / 2.0])
        expected = np.maximum(p.w_feat @ feats, 0.0)
        assert np.allclose(h.vectors[2], expected)

    def test_identical_isolated_nodes_match(self):
        g = graph_from_edges(4, [(0, 1, 0.5)], directed=False)
        attrs = make_attrs(4, cost=[1, 4, 2, 2], benefit=[1, 4, 3, 3])
        p = init_embedding_params(8, seed=5)
        h = compute_embeddings(g, attrs, p, t_emb=3)
        assert np.array_equal(h.vectors[2], h.vectors[3])

    def test_star_automorphism(self):
        # all leaves of a symmetric star share features and neighborhoods
        edges = [(0, i, 0.3) for i in range(1, 6)]
        g = graph_from_edges(6, edges, directed=False)
        attrs = make_attrs(6, cost=[5, 1, 1, 1, 1, 1], benefit=[5, 2, 2, 2, 2, 2])
        h = compute_embeddings(g, attrs, init_embedding_params(16, seed=0), 3)
        for leaf in range(2, 6):
            assert np.allclose(h.vectors[1], h.vectors[leaf])

    def test_permutation_equivariance(self, rng):
        edges = [(0, 1, 0.4), (1, 2, 0.6), (2, 3, 0.2), (0, 3, 0.9)]
        g = graph_from_edges(4, edges, directed=True)
        cost, benefit = rng.uniform(1, 5, 4), rng.uniform(1, 5, 4)
        perm = np.array([2, 0, 3, 1])  # new id of each old node
        g_p = graph_from_edges(4, [(perm[u], perm[v], p) for u, v, p in edges],
                               directed=True)
        params = init_embedding_params(8, seed=1)
        h = compute_embeddings(g, make_attrs(4, cost, benefit), params, 3)
        cost_p, benefit_p = np.empty(4), np.empty(4)
        cost_p[perm], benefit_p[perm] = cost, benefit
        h_p = compute_embeddings(g_p, make_attrs(4, cost_p, benefit_p), params, 3)
        assert np.allclose(h.vectors, h_p.vectors[perm])

    def test_directed_uses_in_neighbors(self):
        # 0 -> 1: only node 1 sees a neighbor term
        g = graph_from_edges(2, [(0, 1, 0.7)], directed=True)
        attrs = make_attrs(2, cost=[1.0, 1.0], benefit=[1.0, 1.0])
        p = init_embedding_params(8, seed=4)
        h = compute_embeddings(g, attrs, p, t_emb=2)
        # features normalize to zero here, so the source embedding is relu(0)=0
        assert np.all(h.vectors[0] == 0.0)
        assert np.any(h.vectors[1] != 0.0)

    def test_finite(self, rng):
        g = graph_from_edges(20, [(i, (i + 3) % 20, 0.5) for i in range(20)],
                             directed=False)
        attrs = make_attrs(20, cost=rng.uniform(1, 100, 20),
                           benefit=rng.uniform(1, 100, 20))
        h = compute_embeddings(g, attrs, init_embedding_params(32, seed=6), 5)
        assert np.all(np.isfinite(h.vectors))

    def test_cost_scales_linearly_in_edges(self, rng):
        # doubling |E| should roughly double the per-iteration cost; just
        # check it does not blow up super-linearly; the best of a few repeats
        # keeps a stall on a shared machine out of either sample
        def timed(n_edges):
            edges = [(int(rng.integers(400)), int(rng.integers(400)), 0.5)
                     for _ in range(n_edges)]
            g = graph_from_edges(400, edges, directed=True)
            attrs = make_attrs(400, cost=rng.uniform(1, 9, 400),
                               benefit=rng.uniform(1, 9, 400))
            params = init_embedding_params(64, seed=0)
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(5):
                    compute_embeddings(g, attrs, params, 3)
                best = min(best, time.perf_counter() - t0)
            return best

        t1, t2 = timed(2000), timed(4000)
        assert t2 < 8 * max(t1, 1e-4)

    def test_t_emb_validated(self):
        g = graph_from_edges(2, [(0, 1, 0.5)], directed=False)
        with pytest.raises(ValueError):
            compute_embeddings(g, make_attrs(2), init_embedding_params(4, 0), 0)
