"""Value network: a 2-layer ReLU regressor over candidate-state encodings,
with analytic gradients and a self-contained Adam optimizer.

The state is the candidate's embedding plus three scale-free scalars
(candidate cost / budget, remaining budget / budget, seeds picked / max
feasible seeds), 67 entries at the default embedding width of 64.

The first layer is linear in s_v = [h_v, c_v/B, R/B, k/k_max]: its
pre-activation is T[v] + (R/B) u + (k/k_max) v with u = W1[:, d+1] and
v = W1[:, d+2], where the (n, hidden) table T = [h, c/B] W1[:, :d+1]^T + b1
is fixed per instance and budget. So with the step's shift s,

    Q_v = relu(T[v] + s) . w2 + b2 = P_v(s) + s . w2 + b2,
    P_v(s) = sum_j w2_j max(T[v, j], -s_j),

and only P_v depends on the node. While R/B and k/k_max lie in [0, 1],
s_j lies between lo_j = min(u_j, 0) + min(v_j, 0) and hi_j = max(u_j, 0) +
max(v_j, 0), and each term of P_v is monotone in s_j (falling where
w2_j > 0, rising elsewhere). So P_v at the corner c_up (lo_j where
w2_j > 0, hi_j elsewhere) bounds it from above at every such step, and at
the opposite corner c_lo from below. `hidden_table` builds T with both
bounds (a `QTable`); `best_feasible` then scores exactly only the feasible
nodes whose upper bound reaches the largest feasible lower bound, less a
margin that covers the rounding of every sum involved. A node left out
scores below some scored node in any summation order, so pruning never
drops a node that whole-table scoring could pick. The scorer gives up and
scores the whole table, masked, when the table's bounds leave more than
n/4 nodes able to win (decided once per table; an untrained network's
bounds are loose), when a step leaves more than n/4 candidates (gathering
rows costs more per row than the whole-table product), and when R/B or
k/k_max lies outside [0, 1] (`budget // c_min` can round k_max down), where
the bounds do not hold.

A table is valid only until the next `adam_step`: build one per network
update, never use one across an update.
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


@dataclass(frozen=True, eq=False)
class QTable:
    """`hidden_table`'s result: the table T and, per node, the bounds on P_v
    that hold at every step whose R/B and k/k_max lie in [0, 1]."""

    hidden: np.ndarray  # (n, hidden) T
    upper: np.ndarray   # (n,) P_v at the corner c_up
    lower: np.ndarray   # (n,) P_v at the corner c_lo
    margin: float       # covers the rounding of every P_v and Q sum
    prunes: bool        # at most n/4 nodes can still win the max


def _few(count: int, n: int) -> bool:
    """Whether scoring `count` gathered rows beats scoring all n."""
    return 4 * count <= n


def hidden_table(net: QNetwork, h: NodeEmbeddings, cost: np.ndarray,
                 budget: float) -> QTable:
    """The table T above with its bounds; valid until the next update of
    `net`. Raises ValueError when a table entry or bound is not finite."""
    d = h.dim
    hidden = np.column_stack((h.vectors, cost / budget)) @ net.w1[:, : d + 1].T
    hidden += net.b1  # in place: a second (n, hidden) array costs page faults
    u, v = net.w1[:, d + 1], net.w1[:, d + 2]
    lo = np.minimum(u, 0.0) + np.minimum(v, 0.0)
    hi = np.maximum(u, 0.0) + np.maximum(v, 0.0)
    falling = net.w2 > 0.0  # terms that fall as s_j rises
    up_at, low_at = -np.where(falling, lo, hi), -np.where(falling, hi, lo)
    # by blocks of 128 KB: a full-size temporary costs page faults, as above
    upper, lower = np.empty(len(hidden)), np.empty(len(hidden))
    step = max(1, 2**14 // net.hidden_dim)
    for i in range(0, len(hidden), step):
        rows = hidden[i:i + step]
        upper[i:i + step] = np.maximum(rows, up_at) @ net.w2
        lower[i:i + step] = np.maximum(rows, low_at) @ net.w2
    # Each term w2_j max(T[v, j], -s_j) of a bound, of a score or of s . w2
    # is at most |w2_j| max(max |T|, -lo_j, hi_j) in size on the box, so
    # `scale` bounds the size of every sum here, and a sum of h terms is off
    # its exact value by at most h eps/2 scale (to first order) in any
    # order, fused or not. A pruned node v then scores below the node w of
    # the largest lower bound, even after rounding, once the margin exceeds
    # the error of ub_v, lb_w, P_v and P_w and of adding the shared
    # s . w2 + b2 to each: (4 h + 4) eps/2 scale. This margin is twice that.
    largest = np.maximum(-hidden.min(), hidden.max())  # of |T|
    scale = np.abs(net.w2) @ np.maximum(largest, np.maximum(-lo, hi)) \
        + abs(net.b2[0])
    margin = float(4 * (net.hidden_dim + 1) * np.finfo(float).eps * scale)
    if not (np.isfinite(margin) and np.isfinite(upper).all()
            and np.isfinite(lower).all()):
        raise ValueError("hidden table or its bounds are not finite")
    return QTable(hidden=hidden, upper=upper, lower=lower, margin=margin,
                  prunes=_few(np.count_nonzero(upper >= lower.max() - margin),
                              len(hidden)))


def best_feasible(net: QNetwork, table: QTable, feasible: np.ndarray,
                  seed_count: int, remaining_budget: float, budget: float,
                  k_max: int) -> tuple[int, float] | None:
    """(node id, Q-value) of the first maximum of Q over the nodes of the
    (n,) bool mask `feasible` at this step (`seed_count` seeds picked,
    `remaining_budget` left), or None when the mask is all False. `table`
    is `net`'s current `hidden_table`. Scores only the nodes that can still
    win when the bounds allow (see above), the whole table otherwise; raises
    ValueError when a score is not finite."""
    ids = np.flatnonzero(feasible)
    if len(ids) == 0:
        return None
    d = net.in_dim - 3
    a, b = remaining_budget / budget, seed_count / k_max
    shift = a * net.w1[:, d + 1] + b * net.w1[:, d + 2]
    rows = table.hidden
    if table.prunes and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0:
        cands = ids[table.upper[ids] >= table.lower[ids].max() - table.margin]
        if _few(len(cands), len(rows)):
            ids, rows = cands, rows[cands]
    q = np.maximum(rows, -shift) @ net.w2 + (shift @ net.w2 + net.b2[0])
    if rows is table.hidden:
        q = q[ids]
    if not np.isfinite(q).all():
        raise ValueError("a Q-value is not finite")
    i = int(np.argmax(q))  # first max: the lowest node id
    return int(ids[i]), float(q[i])


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
