"""Iterative node embeddings: mean-field style message passing that sums
in-neighbor embeddings and mixes in normalized node features and incoming
edge probabilities. Parameters are fixed random per run; only the value
network downstream is trained."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph, NodeAttrs


@dataclass(frozen=True)
class EmbeddingParams:
    w_feat: np.ndarray  # (d, 2), maps [cost, benefit]
    w_agg: np.ndarray   # (d, d), neighbor aggregation
    w_edge: np.ndarray  # (d,), scales summed in-edge probability

    @property
    def dim(self) -> int:
        return len(self.w_edge)


def init_embedding_params(d_emb: int, seed: int) -> EmbeddingParams:
    """I.i.d. uniform entries in [-1/sqrt(d), 1/sqrt(d)]."""
    if d_emb < 1:
        raise ValueError("d_emb must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d_emb)
    return EmbeddingParams(
        w_feat=rng.uniform(-bound, bound, (d_emb, 2)),
        w_agg=rng.uniform(-bound, bound, (d_emb, d_emb)),
        w_edge=rng.uniform(-bound, bound, d_emb),
    )


def _minmax(x: np.ndarray) -> np.ndarray:
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def compute_embeddings(g: Graph, attrs: NodeAttrs, params: EmbeddingParams,
                       t_emb: int) -> np.ndarray:
    """The (n, d) embeddings after t_emb message-passing iterations from
    all-zero embeddings.

    Aggregation is over in-neighbors (who can influence the node); on an
    undirected graph these are simply the neighbors.
    """
    if t_emb < 1:
        raise ValueError("t_emb must be >= 1")
    n, d = g.n, params.dim
    # in-neighbor aggregation matrix: row v sums over sources u with (u, v) in E
    src, dst, probs = g.arc_arrays()
    agg = sp.csr_matrix((np.ones(g.num_arcs), (dst, src)), shape=(n, n))
    in_prob = np.bincount(dst, weights=probs, minlength=n)

    feats = np.column_stack([_minmax(attrs.cost), _minmax(attrs.benefit)])
    feat_term = feats @ params.w_feat.T          # (n, d)
    edge_term = np.outer(in_prob, params.w_edge)  # (n, d)
    h = np.zeros((n, d))
    for _ in range(t_emb):
        h = np.maximum(feat_term + (agg @ h) @ params.w_agg.T + edge_term, 0.0)
    return h
