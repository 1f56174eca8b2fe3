"""Value network: a 2-layer ReLU regressor over candidate-state encodings,
with analytic gradients and a self-contained Adam optimizer.

The state is the candidate's embedding plus three scale-free scalars
(candidate cost / budget, remaining budget / budget, seeds picked / max
feasible seeds), 67 entries at the default embedding width of 64.

The first layer is linear in s_v = [h_v, c_v/B, R/B, k/k_max]: its
pre-activation is T[v] + (R/B) W1[:, d+1] + (k/k_max) W1[:, d+2], where the
(n, hidden) table T = [h, c/B] W1[:, :d+1]^T + b1 (`hidden_table`) is fixed
per instance and budget. A table is valid only until the next `adam_step`:
build one per network update, never use one across an update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import NodeEmbeddings
from .graph import NodeAttrs

HIDDEN_DIM = 128
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class QNetwork:
    w1: np.ndarray  # (hidden, in_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # (1,)
    moments: dict = field(default_factory=dict)  # Adam m/v per parameter name
    step: int = 0

    PARAM_NAMES = ("w1", "b1", "w2", "b2")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def init(cls, in_dim: int, seed: int, hidden: int = HIDDEN_DIM) -> "QNetwork":
        rng = np.random.default_rng(seed)
        b1 = 1.0 / np.sqrt(in_dim)
        b2 = 1.0 / np.sqrt(hidden)
        net = cls(
            w1=rng.uniform(-b1, b1, (hidden, in_dim)),
            b1=rng.uniform(-b1, b1, hidden),
            w2=rng.uniform(-b2, b2, hidden),
            b2=rng.uniform(-b2, b2, 1),
        )
        net.moments = {
            name: (np.zeros_like(getattr(net, name)), np.zeros_like(getattr(net, name)))
            for name in cls.PARAM_NAMES
        }
        return net


def encode_states(candidates: np.ndarray, h: NodeEmbeddings, seed_count,
                  remaining_budget, attrs: NodeAttrs, budget: float,
                  k_max: int) -> np.ndarray:
    """One state row per candidate; `seed_count` and `remaining_budget` are
    scalars or per-row arrays."""
    k = len(candidates)
    out = np.empty((k, h.dim + 3))
    out[:, : h.dim] = h.vectors[candidates]
    out[:, h.dim] = attrs.cost[candidates] / budget
    out[:, h.dim + 1] = remaining_budget / budget
    out[:, h.dim + 2] = seed_count / k_max
    return out


def hidden_table(net: QNetwork, h: NodeEmbeddings, cost: np.ndarray,
                 budget: float) -> np.ndarray:
    """The table T above; valid until the next update of `net`."""
    d = h.dim
    table = np.column_stack((h.vectors, cost / budget)) @ net.w1[:, : d + 1].T
    table += net.b1  # in place: a second (n, hidden) array costs page faults
    return table


def q_forward_table(net: QNetwork, table: np.ndarray, seed_count: int,
                    remaining_budget: float, budget: float, k_max: int) -> np.ndarray:
    """(n,) Q-values of every node's encode_states row at this step, from T
    as relu(T[v] + s) . w2 = max(T[v], -s) . w2 + s . w2 for the step's
    shift s; the caller masks the nodes it may not pick."""
    d = net.in_dim - 3
    shift = (remaining_budget / budget) * net.w1[:, d + 1] \
        + (seed_count / k_max) * net.w1[:, d + 2]
    return np.maximum(table, -shift) @ net.w2 + (shift @ net.w2 + net.b2[0])


def q_loss_and_grad(net: QNetwork, states: np.ndarray, targets: np.ndarray
                    ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error over the batch plus analytic parameter gradients.

    ReLU subgradient at exactly 0 is taken as 0.
    """
    states = np.atleast_2d(states)
    targets = np.asarray(targets, dtype=float)
    k = len(states)
    if k == 0:
        raise ValueError("empty batch")
    z = states @ net.w1.T + net.b1          # (k, hidden)
    a = np.maximum(z, 0.0)
    preds = a @ net.w2 + net.b2[0]
    diff = preds - targets
    loss = float(diff @ diff) / k
    dpred = 2.0 * diff / k                  # (k,)
    dz = (dpred[:, None] * net.w2) * (z > 0.0)
    grads = {
        "w1": dz.T @ states,
        "b1": dz.sum(axis=0),
        "w2": a.T @ dpred,
        "b2": np.array([dpred.sum()]),
    }
    return loss, grads


def adam_step(net: QNetwork, grads: dict[str, np.ndarray], lr: float) -> QNetwork:
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8, bias-corrected)."""
    net.step += 1
    t = net.step
    for name in net.PARAM_NAMES:
        g = grads[name]
        m, v = net.moments[name]
        m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        param = getattr(net, name)
        param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return net
