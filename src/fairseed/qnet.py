"""Value network: a 2-layer ReLU regressor over candidate-state encodings,
with analytic gradients and a self-contained Adam optimizer.

The state of candidate v at a step with k seeds picked and R of the budget
B left is one row of in_dim = d + 3 entries (67 at the default embedding
width of 64): the design row [h_v, c_v/B], fixed per instance and budget,
then R/B and k/k_max (`state_rows`). k_max is budget // c_min, raised where
that floor undercounts the seeds an episode can pick (`_max_seeds`), so
both step scalars lie in [0, 1] at every step and stored next state.

A `QTable` owns everything a step depends on: the network, the design,
costs, B, k_max and, since the first layer is linear in the state, the
(n, hidden) table T = [h, c/B] W1[:, :d+1]^T + b1. With the step's shift
s = (R/B) W1[:, d+1] + (k/k_max) W1[:, d+2],

    Q_v = relu(T[v] + s) . w2 + b2 = P_v(s) + s . w2 + b2,
    P_v(s) = sum_j w2_j max(T[v, j], -s_j).

Validity: while R/B and k/k_max lie in [0, 1] (the box), each term of P_v
is monotone in s_j over a known interval, so the table also bounds P_v
from above and below at every such step. `best_feasible` scores only the
feasible nodes whose upper bound reaches the largest feasible lower bound,
less a margin that covers the rounding of every sum, so a node left out
scores below a scored one in any summation order. It scores the whole
table instead when the bounds leave more than n/4 nodes able to win, or
the step lies outside the box.

One candidate: the feasible node of the largest lower bound always passes
that test, so when it is the only one left it is the first maximum of any
whole-table scoring, and `best_feasible` returns it unscored.
`best_feasible_rows`, which must return values, always scores. The skipped
score is finite, as `_scores` would check: a fill rejects a table whose
entries or bounds are not finite, or whose bound on the size of every
score in the box is not (see `_current`).

T and its bounds hold for the network as it stood at their fill
(`QTable.step`). Each scorer first refills them in place once `adam_step`
has moved the network on, so a table lives as long as its instance and
budget; the design, and so `state_rows`, does not depend on the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    moments: dict = field(default_factory=dict)  # Adam m/v, set by adam_step
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
        return cls(
            w1=rng.uniform(-b1, b1, (hidden, in_dim)),
            b1=rng.uniform(-b1, b1, hidden),
            w2=rng.uniform(-b2, b2, hidden),
            b2=rng.uniform(-b2, b2, 1),
        )


@dataclass(eq=False)
class QTable:
    """`hidden_table`'s result: the network it scores for, the state's
    fixed parts, and T with each node's bounds on P_v at every step in the
    box; `_current` refills the arrays in place."""

    net: QNetwork
    design: np.ndarray  # (n, d + 1) [h, c/B], fixed per instance and budget
    cost: np.ndarray    # (n,) c, which decides which nodes fit a budget
    budget: float       # B
    k_max: int          # `_max_seeds` of the costs at B
    hidden: np.ndarray  # (n, hidden) T
    upper: np.ndarray   # (n,) P_v at the corner c_up
    lower: np.ndarray   # (n,) P_v at the corner c_lo
    margin: float = 0.0  # covers the rounding of every P_v and Q sum
    prunes: bool = False  # at most n/4 nodes can still win the max
    step: int = -1      # `net.step` at the last fill; -1 before the first


def _max_seeds(cost: np.ndarray, budget: float) -> int:
    """k_max of the state encoding: at least 1 and budget // c_min, and no
    fewer than the seeds an episode can pick at `budget`, so k/k_max <= 1
    at every step and every stored next state.

    The floor alone can undercount, as an episode takes each cost off the
    remaining budget in floating point: at cost 0.6 and budget 16.2 it
    gives 26 while 27 seeds fit. Rounding is monotone, so after j picks,
    each costing at least c_min, the remaining budget is at most R_j, the
    budget less c_min j times in floating point, and pick j + 1 needs
    R_j >= c_min. np.cumsum replays those subtractions in order, for the
    n + 1 states an episode of n distinct picks can pass, so tiny costs
    cannot make it run long; a floor of n or more needs no replay. A budget
    so large against c_min that their ratio overflows is a ValueError.
    """
    c_min = float(cost.min())
    if not np.isfinite(budget / c_min):
        raise ValueError(f"budget {budget} over the cheapest node cost "
                         f"{c_min} is not finite")
    floor = max(1, int(budget // c_min))
    if floor >= len(cost):
        return floor
    replay = np.cumsum(np.concatenate(([float(budget)],
                                       np.full(len(cost), -c_min))))
    short = replay < c_min
    return max(floor, int(np.argmax(short)) if short.any() else len(cost))


def _few(count: int, n: int) -> bool:
    """Whether scoring `count` gathered rows beats scoring all n."""
    return 4 * count <= n


def hidden_table(net: QNetwork, h: np.ndarray, cost: np.ndarray,
                 budget: float) -> QTable:
    """The table of `net` for the (n, d) embeddings `h` and the (n,) node
    costs at `budget`, filled for `net` as it stands. Raises ValueError as
    `_max_seeds` or a fill (`_current`) does."""
    n, design = len(cost), np.column_stack((h, cost / budget))
    return _current(QTable(
        net=net, design=design, cost=cost, budget=budget,
        k_max=_max_seeds(cost, budget), hidden=np.empty((n, net.hidden_dim)),
        upper=np.empty(n), lower=np.empty(n)))


def _current(table: QTable) -> QTable:
    """`table`, first refilled in place when its network has moved since
    the last fill: T and its bounds, margin and pruning flag. Raises
    ValueError when a table entry or bound, or the bound on the size of
    the scores in the box, is not finite."""
    net = table.net
    if table.step == net.step:
        return table
    hidden, upper, lower = table.hidden, table.upper, table.lower
    d = table.design.shape[1] - 1
    np.matmul(table.design, net.w1[:, : d + 1].T, out=hidden)
    hidden += net.b1  # in place: a second (n, hidden) array costs page faults
    u, v = net.w1[:, d + 1], net.w1[:, d + 2]
    lo = np.minimum(u, 0.0) + np.minimum(v, 0.0)
    hi = np.maximum(u, 0.0) + np.maximum(v, 0.0)
    falling = net.w2 > 0.0  # terms that fall as s_j rises
    up_at, low_at = -np.where(falling, lo, hi), -np.where(falling, hi, lo)
    # by blocks of 128 KB: a full-size temporary costs page faults, as above
    block = max(1, 2**14 // net.hidden_dim)
    for i in range(0, len(hidden), block):
        rows = hidden[i:i + block]
        upper[i:i + block] = np.maximum(rows, up_at) @ net.w2
        lower[i:i + block] = np.maximum(rows, low_at) @ net.w2
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
    table.margin = margin
    table.prunes = _few(np.count_nonzero(upper >= lower.max() - margin),
                        len(hidden))
    table.step = net.step
    return table


def _scalars(table: QTable, seed_count, remaining):
    """R/B and k/k_max at `remaining` left, `seed_count` picked."""
    return remaining / table.budget, seed_count / table.k_max


def state_rows(table: QTable, nodes: np.ndarray, seed_count,
               remaining) -> np.ndarray:
    """The network's input rows of `nodes`: [design, R/B, k/k_max], with
    `seed_count` and `remaining` scalars or one per row. Needs no fill."""
    rows = np.empty((len(nodes), table.design.shape[1] + 2))
    rows[:, :-2] = table.design[nodes]
    rows[:, -2], rows[:, -1] = _scalars(table, seed_count, remaining)
    return rows


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


def _first_max(table: QTable, ids: np.ndarray, gathered: bool,
               a, b) -> tuple[int, float]:
    """(node id, Q-value) of the first maximum of Q over the nodes `ids` of
    `_candidates`; raises ValueError when a score is not finite."""
    rows = table.hidden[ids] if gathered else table.hidden
    q = _scores(table.net, rows, _shift(table.net, a, b))
    if not gathered:
        q = q[ids]
    i = int(np.argmax(q))  # first max: the lowest node id
    return int(ids[i]), float(q[i])


def best_feasible(table: QTable, feasible: np.ndarray, seed_count: int,
                  remaining: float) -> int | None:
    """The node id of the first maximum of Q over the nodes of the (n,) bool
    mask `feasible` at this step (`seed_count` seeds picked, `remaining`
    budget left), or None when the mask is all False. Refills `table`
    first when its network has moved. Scores only the nodes that can still
    win when the bounds allow, none when that leaves one (see above), the
    whole table otherwise; raises ValueError when a score is not finite.
    Ties go to the lowest node id among bit-equal scores; BLAS rounds a row
    by its place in the matrix, so nodes with equal rows need not score
    equal."""
    ids = np.flatnonzero(feasible)
    if len(ids) == 0:
        return None
    _current(table)
    a, b = _scalars(table, seed_count, remaining)
    ids, gathered = _candidates(table, ids, a, b)
    if gathered and len(ids) == 1:
        return int(ids[0])
    return _first_max(table, ids, gathered, a, b)[0]


def best_feasible_rows(table: QTable, feasible: np.ndarray,
                       seed_count: np.ndarray, remaining: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The first maximum of Q, as `best_feasible` picks it, and its value
    for each row of the (k, n) bool mask `feasible`, at the step of
    `seed_count[r]` seeds picked and `remaining[r]` left: the (k,) node ids
    and Q-values, -1 and 0.0 on a row with no feasible node. Refills
    `table` first when its network has moved.

    The rows that the pruning rule lets score only their candidates are
    scored in one product over the sorted union of their candidates, each
    row's maximum taken over its own candidates alone, so the first
    maximum is the lowest node id (among bit-equal scores, as above). The
    other rows are scored one by one, and so are all rows when the product
    would hold more entries than the table itself.
    """
    k, n = feasible.shape
    ids, values = np.full(k, -1), np.zeros(k)
    net = _current(table).net
    a, b = _scalars(table, seed_count, remaining)
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
        ids[r], values[r] = _first_max(table, cands, gathered, a[r], b[r])
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
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8, bias-corrected);
    a net's moments start at zero on its first update."""
    net.step += 1
    t = net.step
    for name in net.PARAM_NAMES:
        g = grads[name]
        if name not in net.moments:
            net.moments[name] = (np.zeros_like(g), np.zeros_like(g))
        m, v = net.moments[name]
        m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        param = getattr(net, name)
        param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return net
