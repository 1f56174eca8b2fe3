"""Graph representation, ingestion, attribute assignment, and instance sampling.

Graphs use dense 0..n-1 node ids and one CSR adjacency over directed arcs.
Undirected edges are stored in both directions (each stored arc is an
independent activation attempt under the cascade model). Every graph is
built from flat (src, dst, prob) arc arrays.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import derive_seed


class EdgeListError(ValueError):
    """Malformed edge-list input."""


class AttributeFileError(ValueError):
    """Malformed node-attribute CSV input."""


@dataclass(frozen=True)
class Graph:
    directed: bool
    indptr: np.ndarray      # int64, len n+1
    indices: np.ndarray     # int64 arc targets, sorted within each source
    probs: np.ndarray       # float64 in (0,1], parallel to indices
    original_ids: np.ndarray  # original id of each dense node

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_arcs(self) -> int:
        return len(self.indices)

    def out_degree(self) -> np.ndarray:
        """Out-arc count per node; computed once per graph, read-only."""
        return self._out_degree

    @cached_property
    def _out_degree(self) -> np.ndarray:
        degree = np.diff(self.indptr)
        degree.flags.writeable = False
        return degree

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (src, dst, prob) arrays in CSR order."""
        src = np.repeat(np.arange(self.n), self.out_degree())
        return src, self.indices, self.probs

    def validate(self) -> None:
        src, dst, p = self.arc_arrays()
        if np.any(src == dst):
            raise ValueError("self-loop present")
        # "not all valid" rather than "any invalid": NaN fails every comparison
        if not np.all((p > 0.0) & (p <= 1.0)):
            raise ValueError("edge probability outside (0, 1]")
        # within a source's row targets strictly increase; a repeat is a
        # parallel arc
        if np.any(np.diff(dst)[src[1:] == src[:-1]] <= 0):
            raise ValueError("adjacency has parallel or unsorted arcs")


@dataclass(frozen=True)
class NodeAttrs:
    cost: np.ndarray      # > 0
    benefit: np.ndarray   # > 0
    community: np.ndarray  # int label per node

    def validate(self) -> None:
        # "not all valid" rather than "any invalid": NaN fails every comparison
        for x in (self.cost, self.benefit):
            if not np.all((x > 0) & (x < np.inf)):
                raise ValueError(
                    "costs and benefits must be positive and finite")


@dataclass(frozen=True)
class CommunityPartition:
    count: int
    members: tuple[np.ndarray, ...]
    total_benefit: np.ndarray
    weights: np.ndarray  # (n, count): weights[v, labels[v]] = benefit[v], else 0

    @classmethod
    def from_labels(cls, labels: np.ndarray, benefit: np.ndarray) -> "CommunityPartition":
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) and labels.min() < 0:
            raise ValueError("community labels must be nonnegative")
        count = int(labels.max()) + 1 if len(labels) else 0
        # the first label missing from the sorted distinct labels is where
        # they part from 0, 1, ...; no array is sized by the largest label
        present = np.unique(labels)
        gap = np.flatnonzero(present != np.arange(len(present)))
        if len(gap):
            raise ValueError(f"community {gap[0]} has no members: labels "
                             f"must cover 0..{count - 1} without a gap")
        members = tuple(np.flatnonzero(labels == i) for i in range(count))
        totals = np.array([benefit[m].sum() for m in members])
        for c, total in enumerate(totals):
            if total <= 0.0:
                raise ValueError(f"community {c} needs positive total "
                                 f"benefit, has {total}")
        weights = np.zeros((len(labels), count))
        weights[np.arange(len(labels)), labels] = benefit
        return cls(count=count, members=members, total_benefit=totals, weights=weights)


@dataclass(frozen=True)
class Instance:
    """One experiment unit: a graph with attributes and a community partition."""

    id: str
    graph: Graph
    attrs: NodeAttrs
    parts: CommunityPartition


@dataclass(frozen=True)
class InstancePool:
    train: tuple[Instance, ...]
    test: tuple[Instance, ...]
    seed: int


@dataclass(frozen=True)
class UniformProbabilities:
    p: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"uniform probability must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class TrivalencyProbabilities:
    choices: tuple[float, ...] = (0.1, 0.01, 0.001)

    def __post_init__(self):
        # "not all valid" rather than "any invalid": NaN fails every comparison
        if not self.choices or not all(0.0 < p <= 1.0 for p in self.choices):
            raise ValueError("trivalency choices must be non-empty and lie in "
                             f"(0, 1], got {self.choices}")


ProbabilityModel = UniformProbabilities | TrivalencyProbabilities

RESTART_PROB = 0.15  # sample_subgraph's per-step chance of a walk restart


def _graph_from_arcs(n: int, src: np.ndarray, dst: np.ndarray,
                     probs: np.ndarray, directed: bool,
                     original_ids: np.ndarray) -> Graph:
    """The one place an adjacency is built, from unsorted int64 arc ends and
    float64 probabilities: undirected edges are mirrored, self-loops dropped,
    each repeated (u, v, p) arc kept once and the arcs put in CSR order."""
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        probs = np.concatenate([probs, probs])
    order = np.lexsort((dst, src))
    src, dst, probs = src[order], dst[order], probs[order]
    # an arc given two probabilities stays twice, and validate rejects it
    keep = src != dst
    keep[1:] &= (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]) | \
        (probs[1:] != probs[:-1])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n), out=indptr[1:])
    g = Graph(directed=directed, indptr=indptr, indices=dst[keep],
              probs=probs[keep], original_ids=original_ids)
    g.validate()
    return g


def graph_from_edges(n: int, edges, directed: bool) -> Graph:
    """Build a Graph from (u, v) or (u, v, p) tuples over dense node ids.

    p defaults to 1.0. Self-loops are dropped and repeated (u, v, p) arcs
    kept once. Raises ValueError when a node id lies outside [0, n), a
    probability outside (0, 1], or one arc is given two probabilities.
    """
    edges = list(edges)
    ends = np.array([(e[0], e[1]) for e in edges], dtype=np.int64).reshape(-1, 2)
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise ValueError(f"node id outside [0, {n})")
    probs = np.array([e[2] if len(e) > 2 else 1.0 for e in edges], dtype=np.float64)
    return _graph_from_arcs(n, ends[:, 0], ends[:, 1], probs, directed, np.arange(n))


def load_edge_list(path: str, directed: bool) -> Graph:
    """Parse a SNAP-style edge list: "u v" or "u v p" per line, '#'
    comments skipped.

    Node ids are 64-bit integers, remapped to dense 0..n-1 (ascending
    original id); self-loops and duplicate edges are dropped, but a node
    seen only in a self-loop ("v v") stays a node. p defaults to
    1.0 and must lie in (0, 1]; an arc given two probabilities, in either
    direction when undirected, is an error. Commands overwrite p with
    assign_edge_probabilities.
    """
    first = {}  # arc (u < v when undirected) -> (p, line first giving it)
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields, at = line.split(), f"{path}:{lineno}"
                if len(fields) not in (2, 3):
                    raise EdgeListError(f"{at}: expected 'u v' or 'u v p', "
                                        f"got {line!r}")
                try:
                    u, v = int(fields[0]), int(fields[1])
                except ValueError:
                    raise EdgeListError(
                        f"{at}: non-integer node id in {line!r}") from None
                if not -2**63 <= min(u, v) <= max(u, v) < 2**63:
                    raise EdgeListError(f"{at}: node id outside the 64-bit "
                                        f"range in {line!r}")
                try:
                    p = float(fields[2]) if len(fields) == 3 else 1.0
                except ValueError:
                    p = np.nan
                if not 0.0 < p <= 1.0:  # NaN fails too
                    raise EdgeListError(
                        f"{at}: probability not in (0, 1] in {line!r}")
                arc = (u, v) if directed else (min(u, v), max(u, v))
                p_first, line_first = first.setdefault(arc, (p, lineno))
                if p != p_first:
                    raise EdgeListError(f"{at}: arc given probability {p!r} "
                                        f"and {p_first!r} (line "
                                        f"{line_first})")
    except OSError as exc:
        raise EdgeListError(f"cannot read {path}: {exc}") from exc
    if not first:
        raise EdgeListError(f"{path}: empty graph")
    # a node seen only in a self-loop still counts as a node
    original, dense = np.unique(np.array(list(first), dtype=np.int64).ravel(),
                                return_inverse=True)
    return _graph_from_arcs(len(original), dense[0::2], dense[1::2],
                            np.array([p for p, _ in first.values()]),
                            directed, original)


def assign_edge_probabilities(g: Graph, model: ProbabilityModel, seed: int) -> Graph:
    """Return a copy of g with influence probabilities drawn from `model`.

    Undirected graphs get symmetric probabilities (one draw per edge).
    Deterministic given the seed.
    """
    if isinstance(model, UniformProbabilities):
        probs = np.full(g.num_arcs, model.p)
    else:
        rng = np.random.default_rng(seed)
        if g.directed:
            probs = rng.choice(model.choices, size=g.num_arcs)
        else:
            # one draw per edge, made on its u < v arc in CSR order; in
            # (dst, src) order the k-th arc is the mirror of CSR arc k
            src, dst, _ = g.arc_arrays()
            canon = src < dst
            draws = rng.choice(model.choices, size=int(canon.sum()))
            probs = np.empty(g.num_arcs)
            probs[canon] = draws
            probs[np.lexsort((src, dst))[canon]] = draws
    return dataclasses.replace(g, probs=probs)


def assign_node_attributes(g: Graph, cost_range: tuple[float, float],
                           benefit_range: tuple[float, float], seed: int) -> NodeAttrs:
    """Draw per-node cost and benefit uniformly from the given ranges."""
    for lo, hi in (cost_range, benefit_range):
        # "not all valid" rather than "any invalid": NaN fails every comparison
        if not 0 < lo <= hi < np.inf:
            raise ValueError(f"invalid range [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    cost = rng.uniform(cost_range[0], cost_range[1], g.n)
    benefit = rng.uniform(benefit_range[0], benefit_range[1], g.n)
    return NodeAttrs(cost=cost, benefit=benefit,
                     community=np.zeros(g.n, dtype=np.int64))


def assign_communities(g: Graph, attrs: NodeAttrs, minority_fraction: float,
                       seed: int) -> tuple[NodeAttrs, CommunityPartition]:
    """Random two-community split: community 0 is the minority.

    The minority gets ceil(minority_fraction * n) uniformly chosen nodes.
    Returns attrs with the community labels filled in, plus the partition.
    """
    if not 0.0 < minority_fraction < 1.0:
        raise ValueError(f"minority_fraction must lie in (0, 1), got {minority_fraction}")
    n = g.n
    k = int(np.ceil(minority_fraction * n))
    if k == n:
        raise ValueError(f"minority_fraction {minority_fraction} puts all {n} "
                         "nodes in the minority; a split needs two communities")
    rng = np.random.default_rng(seed)
    minority = rng.choice(n, size=k, replace=False)
    labels = np.ones(n, dtype=np.int64)
    labels[minority] = 0
    attrs = dataclasses.replace(attrs, community=labels)
    return attrs, CommunityPartition.from_labels(labels, attrs.benefit)


def sample_subgraph(g: Graph, target_nodes: int, seed: int) -> Graph:
    """Induced subgraph on the first `target_nodes` nodes visited by a
    random walk with restart. Stalled walks jump to a fresh unvisited node."""
    if not 1 <= target_nodes <= g.n:
        raise ValueError(f"target_nodes {target_nodes} outside [1, {g.n}]")
    rng = np.random.default_rng(seed)
    visited: set[int] = set()
    unvisited_hint = rng.permutation(g.n)
    hint_pos = 0

    def visit_unvisited() -> int:
        nonlocal hint_pos
        while unvisited_hint[hint_pos] in visited:
            hint_pos += 1
        visited.add(int(unvisited_hint[hint_pos]))
        return int(unvisited_hint[hint_pos])

    start = current = visit_unvisited()
    stall_limit = max(100, 10 * target_nodes)
    since_new = 0
    while len(visited) < target_nodes:
        nb = g.neighbors(current)
        if len(nb) == 0 or since_new > stall_limit:
            start = current = visit_unvisited()
            since_new = 0
            continue
        if rng.random() < RESTART_PROB:
            current = start
        else:
            current = int(nb[rng.integers(len(nb))])
            if current not in visited:
                visited.add(current)
                since_new = 0
                continue
        since_new += 1
    return induced_subgraph(g, np.array(sorted(visited), dtype=np.int64))


def induced_subgraph(g: Graph, nodes: np.ndarray) -> Graph:
    """Induced subgraph on `nodes` (dense ids), re-densified in sorted order."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[nodes] = np.arange(len(nodes))
    src, dst, probs = g.arc_arrays()
    keep = (remap[src] >= 0) & (remap[dst] >= 0)
    return _graph_from_arcs(len(nodes), remap[src[keep]], remap[dst[keep]],
                            probs[keep], g.directed, g.original_ids[nodes])


def build_instance_pool(g: Graph, n_train: int, n_test: int,
                        nodes_per_instance: int, base_seed: int,
                        prob_model: ProbabilityModel,
                        cost_range: tuple[float, float],
                        benefit_range: tuple[float, float],
                        minority_fraction: float) -> InstancePool:
    """Sample train/test instances with fully derived, disjoint seeds."""
    if n_train < 1 or n_test < 1:
        raise ValueError("need at least one train and one test instance")

    def make(idx: int, name: str) -> Instance:
        sub = sample_subgraph(g, nodes_per_instance, derive_seed(base_seed, idx, "sample"))
        sub = assign_edge_probabilities(sub, prob_model, derive_seed(base_seed, idx, "probs"))
        attrs = assign_node_attributes(sub, cost_range, benefit_range,
                                       derive_seed(base_seed, idx, "attrs"))
        attrs, parts = assign_communities(sub, attrs, minority_fraction,
                                          derive_seed(base_seed, idx, "communities"))
        return Instance(id=name, graph=sub, attrs=attrs, parts=parts)

    train = tuple(make(i, f"train-{i:02d}") for i in range(n_train))
    test = tuple(make(n_train + j, f"test-{j:02d}") for j in range(n_test))
    return InstancePool(train=train, test=test, seed=base_seed)


def load_node_attributes(path: str, g: Graph) -> tuple[NodeAttrs, CommunityPartition]:
    """Load a node-attribute CSV (header: node_id,cost,benefit,community).

    node_id refers to original ids; every node of g must appear exactly once.
    """
    expected = ["node_id", "cost", "benefit", "community"]
    cost = np.zeros(g.n)
    benefit = np.zeros(g.n)
    labels = np.zeros(g.n, dtype=np.int64)
    seen = np.zeros(g.n, dtype=bool)
    remap = {int(orig): i for i, orig in enumerate(g.original_ids)}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != expected:
                raise AttributeFileError(
                    f"{path}: expected header {','.join(expected)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise AttributeFileError(f"{path}:{lineno}: expected 4 fields")
                try:
                    node = remap[int(row[0])]
                    cost[node] = float(row[1])
                    benefit[node] = float(row[2])
                    labels[node] = int(row[3])  # OverflowError past int64
                except (KeyError, ValueError, OverflowError):
                    raise AttributeFileError(
                        f"{path}:{lineno}: bad row {row!r}") from None
                if seen[node]:
                    raise AttributeFileError(
                        f"{path}:{lineno}: node {row[0]} listed twice")
                seen[node] = True
    except OSError as exc:
        raise AttributeFileError(f"cannot read {path}: {exc}") from exc
    if not seen.all():
        missing = g.original_ids[~seen][:5].tolist()
        raise AttributeFileError(f"{path}: missing attributes for nodes {missing}")
    attrs = NodeAttrs(cost=cost, benefit=benefit, community=labels)
    try:
        attrs.validate()
        parts = CommunityPartition.from_labels(labels, benefit)
    except ValueError as exc:
        raise AttributeFileError(f"{path}: {exc}") from None
    return attrs, parts
