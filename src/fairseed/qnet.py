"""Value network: a 2-layer ReLU regressor over candidate-state encodings,
with analytic gradients and a self-contained Adam optimizer.

The state is the candidate's embedding plus three scale-free scalars
(candidate cost / budget, remaining budget / budget, seeds picked / max
feasible seeds), 67 entries at the default embedding width of 64.

The first layer is linear in the state, so with the (n, hidden) table
T = [h, c/B] W1[:, :d+1]^T + b1, fixed per instance and budget, and the
step's shift s = (R/B) W1[:, d+1] + (k/k_max) W1[:, d+2],

    Q_v = relu(T[v] + s) . w2 + b2 = P_v(s) + s . w2 + b2,
    P_v(s) = sum_j w2_j max(T[v, j], -s_j).

Validity: while R/B and k/k_max lie in [0, 1] (the box), each term of P_v
is monotone in s_j over a known interval, so `hidden_table` bounds P_v
from above and below at every such step (a `QTable`). `best_feasible`
scores only the feasible nodes whose upper bound reaches the largest
feasible lower bound, less a margin that covers the rounding of every sum,
so a node left out scores below a scored one in any summation order. It
scores the whole table instead when the bounds leave more than n/4 nodes
able to win, or the step lies outside the box.

One candidate: the feasible node of the largest lower bound always passes
that test, so when it is the only one left it is the first maximum of any
whole-table scoring, and `best_feasible` returns it unscored.
`best_feasible_rows`, which must return values, always scores. The skipped
score is finite, as `_scores` would check: `hidden_table` rejects a table
whose entries or bounds are not finite, or whose bound on the size of
every score in the box is not (see there).

A table scores for the network as it stood when the table was built, so
after an `adam_step` it is rebuilt in place (`hidden_table(..., out=table)`)
before it scores again.
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


@dataclass(eq=False)
class QTable:
    """`hidden_table`'s result: the table T and, per node, the bounds on P_v
    that hold at every step whose R/B and k/k_max lie in [0, 1]. The arrays
    are the table's storage, which `hidden_table(..., out=table)` refills
    in place."""

    design: np.ndarray  # (n, d + 1) [h, c/B], fixed per instance and budget
    hidden: np.ndarray  # (n, hidden) T
    upper: np.ndarray   # (n,) P_v at the corner c_up
    lower: np.ndarray   # (n,) P_v at the corner c_lo
    margin: float = 0.0  # covers the rounding of every P_v and Q sum
    prunes: bool = False  # at most n/4 nodes can still win the max


def _few(count: int, n: int) -> bool:
    """Whether scoring `count` gathered rows beats scoring all n."""
    return 4 * count <= n


def hidden_table(net: QNetwork, h: NodeEmbeddings, cost: np.ndarray,
                 budget: float, out: QTable | None = None) -> QTable:
    """The table T above with its bounds, for `net` as it stands. `out`, a
    table that an earlier call built from the same h, cost and budget, is
    rebuilt in place and returned; otherwise the table is new. Raises
    ValueError when a table entry or bound, or the bound on the size of the
    scores in the box, is not finite."""
    d = h.dim
    if out is None:
        n = len(cost)
        out = QTable(design=np.column_stack((h.vectors, cost / budget)),
                     hidden=np.empty((n, net.hidden_dim)), upper=np.empty(n),
                     lower=np.empty(n))
    hidden, upper, lower = out.hidden, out.upper, out.lower
    np.matmul(out.design, net.w1[:, : d + 1].T, out=hidden)
    hidden += net.b1  # in place: a second (n, hidden) array costs page faults
    u, v = net.w1[:, d + 1], net.w1[:, d + 2]
    lo = np.minimum(u, 0.0) + np.minimum(v, 0.0)
    hi = np.maximum(u, 0.0) + np.maximum(v, 0.0)
    falling = net.w2 > 0.0  # terms that fall as s_j rises
    up_at, low_at = -np.where(falling, lo, hi), -np.where(falling, hi, lo)
    # by blocks of 128 KB: a full-size temporary costs page faults, as above
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
    # Both P_v and s . w2 + b2 are at most `scale` in size on the box, so a
    # finite 2 scale keeps every score there finite, scored or not.
    largest = np.maximum(-hidden.min(), hidden.max())  # of |T|
    scale = np.abs(net.w2) @ np.maximum(largest, np.maximum(-lo, hi)) \
        + abs(net.b2[0])
    margin = float(4 * (net.hidden_dim + 1) * np.finfo(float).eps * scale)
    if not (np.isfinite(2.0 * scale) and np.isfinite(upper).all()
            and np.isfinite(lower).all()):
        raise ValueError("hidden table or its bounds are not finite")
    out.margin = margin
    out.prunes = _few(np.count_nonzero(upper >= lower.max() - margin),
                      len(hidden))
    return out


def _in_box(a, b):
    """Whether the bounds hold at steps with R/B = a and k/k_max = b
    (scalars or arrays): both lie in [0, 1]."""
    return (0.0 <= a) & (a <= 1.0) & (0.0 <= b) & (b <= 1.0)


def _threshold(table: QTable, lower: np.ndarray) -> np.ndarray:
    """The bound a node's upper bound must reach to be able to win: the
    largest of the feasible nodes' lower bounds `lower` (along the last
    axis, -inf for the others), less the margin. At a step in the box, no
    feasible node whose upper bound is below it can score the maximum."""
    return lower.max(axis=-1) - table.margin


def _shift(net: QNetwork, a, b) -> np.ndarray:
    """The step shift s = a W1[:, d+1] + b W1[:, d+2], one row per step
    when a and b are (k, 1) columns."""
    d = net.in_dim - 3
    return a * net.w1[:, d + 1] + b * net.w1[:, d + 2]


def _scores(net: QNetwork, rows: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Q of each table row at the shift (the last axis of `shift`; a
    (k, 1, hidden) stack scores every row at each of k steps). Raises
    ValueError when a score is not finite."""
    q = np.maximum(rows, -shift) @ net.w2 + (shift @ net.w2 + net.b2[0])
    if not np.isfinite(q).all():
        raise ValueError("a Q-value is not finite")
    return q


def _candidates(table: QTable, ids: np.ndarray, a, b
                ) -> tuple[np.ndarray, bool]:
    """The feasible nodes `ids` (ascending) that scoring must cover at the
    step with R/B = a and k/k_max = b, and whether their rows are gathered:
    the nodes that can still win, gathered, when the bounds hold and leave
    few of them; otherwise all of `ids`, scored on the whole table."""
    if table.prunes and _in_box(a, b):
        cands = ids[table.upper[ids] >= _threshold(table, table.lower[ids])]
        if _few(len(cands), len(table.hidden)):
            return cands, True
    return ids, False


def _first_max(net: QNetwork, table: QTable, ids: np.ndarray, gathered: bool,
               a, b) -> tuple[int, float]:
    """(node id, Q-value) of the first maximum of Q over the nodes `ids` of
    `_candidates`; raises ValueError when a score is not finite."""
    rows = table.hidden[ids] if gathered else table.hidden
    q = _scores(net, rows, _shift(net, a, b))
    if not gathered:
        q = q[ids]
    i = int(np.argmax(q))  # first max: the lowest node id
    return int(ids[i]), float(q[i])


def best_feasible(net: QNetwork, table: QTable, feasible: np.ndarray,
                  seed_count: int, remaining_budget: float, budget: float,
                  k_max: int) -> int | None:
    """The node id of the first maximum of Q over the nodes of the (n,) bool
    mask `feasible` at this step (`seed_count` seeds picked,
    `remaining_budget` left), or None when the mask is all False. `table`
    is `net`'s current `hidden_table`. Scores only the nodes that can still
    win when the bounds allow, none when that leaves one (see above), the
    whole table otherwise; raises ValueError when a score is not finite.
    Ties go to the lowest node id among bit-equal scores; BLAS rounds a row
    by its place in the matrix, so nodes with equal rows need not score
    equal."""
    ids = np.flatnonzero(feasible)
    if len(ids) == 0:
        return None
    a, b = remaining_budget / budget, seed_count / k_max
    ids, gathered = _candidates(table, ids, a, b)
    if gathered and len(ids) == 1:
        return int(ids[0])
    return _first_max(net, table, ids, gathered, a, b)[0]


def best_feasible_rows(net: QNetwork, table: QTable, feasible: np.ndarray,
                       seed_count: np.ndarray, remaining_budget: np.ndarray,
                       budget: float, k_max: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The first maximum of Q, as `best_feasible` picks it, and its value
    for each row of the (k, n) bool mask `feasible`, at the step of
    `seed_count[r]` seeds picked and `remaining_budget[r]` left: the (k,)
    node ids and Q-values, -1 and 0.0 on a row with no feasible node.

    The rows that the pruning rule lets score only their candidates are
    scored in one product over the sorted union of their candidates, each
    row's maximum taken over its own candidates alone, so the first
    maximum is the lowest node id (among bit-equal scores, as above). The
    other rows are scored one by one, and so are all rows when the product
    would hold more entries than the table itself.
    """
    k, n = feasible.shape
    ids, values = np.full(k, -1), np.zeros(k)
    a, b = remaining_budget / budget, seed_count / k_max
    batched = np.zeros(k, dtype=bool)
    if table.prunes:
        lower = np.where(feasible, table.lower, -np.inf)
        cands = feasible & (table.upper >= _threshold(table, lower)[:, None])
        count = np.count_nonzero(cands, axis=1)
        batched = _in_box(a, b) & (count > 0) & _few(count, n)
        cands = cands[batched]
        union = np.flatnonzero(cands.any(axis=0))
        if len(cands) * len(union) > n:
            batched[:] = False
        elif len(cands):
            shift = _shift(net, a[batched, None], b[batched, None])
            q = _scores(net, table.hidden[union], shift[:, None, :])
            q[~cands[:, union]] = -np.inf
            best = np.argmax(q, axis=1)
            ids[batched] = union[best]
            values[batched] = q[np.arange(len(best)), best]
    for r in np.flatnonzero(~batched & feasible.any(axis=1)):
        cands, gathered = _candidates(table, np.flatnonzero(feasible[r]),
                                      a[r], b[r])
        ids[r], values[r] = _first_max(net, table, cands, gathered, a[r], b[r])
    return ids, values


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
