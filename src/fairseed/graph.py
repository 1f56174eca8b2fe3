"""Graph representation, ingestion, attribute assignment, and instance sampling.

Graphs use dense 0..n-1 node ids with CSR adjacency. Undirected edges are
stored in both directions (each stored arc is an independent activation
attempt under the cascade model). A reverse CSR is kept for directed graphs
so PageRank and in-neighborhood aggregation stay cheap.
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
    rev_indptr: np.ndarray  # in-edge CSR (equals forward CSR if undirected)
    rev_indices: np.ndarray
    rev_probs: np.ndarray
    original_ids: np.ndarray  # original id of each dense node

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_arcs(self) -> int:
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """Edge count in the input's convention (undirected pairs counted once)."""
        return self.num_arcs if self.directed else self.num_arcs // 2

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
    labels: np.ndarray
    members: tuple[np.ndarray, ...]
    total_benefit: np.ndarray
    weights: np.ndarray  # (n, count): weights[v, labels[v]] = benefit[v], else 0

    @classmethod
    def from_labels(cls, labels: np.ndarray, benefit: np.ndarray) -> "CommunityPartition":
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) and labels.min() < 0:
            raise ValueError("community labels must be nonnegative")
        count = int(labels.max()) + 1 if len(labels) else 0
        members = tuple(np.flatnonzero(labels == i) for i in range(count))
        totals = np.array([benefit[m].sum() for m in members])
        if np.any(totals <= 0.0):
            raise ValueError("every community needs positive total benefit")
        weights = np.zeros((len(labels), count))
        weights[np.arange(len(labels)), labels] = benefit
        return cls(count=count, labels=labels, members=members,
                   total_benefit=totals, weights=weights)


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
    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"uniform probability must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class TrivalencyProbabilities:
    choices: tuple[float, ...] = (0.1, 0.01, 0.001)


ProbabilityModel = UniformProbabilities | TrivalencyProbabilities


def _build_graph(n: int, src: np.ndarray, dst: np.ndarray, probs: np.ndarray,
                 directed: bool, original_ids: np.ndarray) -> Graph:
    order = np.lexsort((dst, src))
    src, dst, probs = src[order], dst[order], probs[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    rorder = np.lexsort((src, dst))
    rev_indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(rev_indptr, dst + 1, 1)
    rev_indptr = np.cumsum(rev_indptr)
    return Graph(
        directed=directed,
        indptr=indptr,
        indices=dst.astype(np.int64),
        probs=probs.astype(np.float64),
        rev_indptr=rev_indptr,
        rev_indices=src[rorder].astype(np.int64),
        rev_probs=probs[rorder].astype(np.float64),
        original_ids=np.asarray(original_ids, dtype=np.int64),
    )


def graph_from_edges(n: int, edges, directed: bool,
                     original_ids: np.ndarray | None = None,
                     default_prob: float = 1.0) -> Graph:
    """Build a Graph from (u, v) or (u, v, p) tuples over dense node ids.

    Self-loops are dropped and repeated (u, v, p) arcs kept once. Raises
    ValueError when a probability lies outside (0, 1] or one arc is given
    two probabilities.
    """
    arcs = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        p = float(e[2]) if len(e) > 2 else default_prob
        if u == v:
            continue
        arcs.add((u, v, p))
        if not directed:
            arcs.add((v, u, p))
    if arcs:
        src, dst, probs = (np.array(a) for a in zip(*sorted(arcs)))
    else:
        src = dst = np.zeros(0, dtype=np.int64)
        probs = np.zeros(0)
    if original_ids is None:
        original_ids = np.arange(n)
    g = _build_graph(n, src.astype(np.int64), dst.astype(np.int64),
                     probs, directed, original_ids)
    g.validate()
    return g


def load_edge_list(path: str, directed: bool) -> Graph:
    """Parse a SNAP-style edge list: "u v" per line, '#' comments skipped.

    Node ids are remapped to dense 0..n-1 (ascending original id);
    self-loops and duplicate edges are dropped. Edge probabilities are
    initialized to 1.0 pending assign_edge_probabilities.
    """
    pairs = set()
    nodes = set()
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise EdgeListError(
                        f"{path}:{lineno}: expected two node ids, got {line!r}")
                try:
                    u, v = int(fields[0]), int(fields[1])
                except ValueError:
                    raise EdgeListError(
                        f"{path}:{lineno}: non-integer node id in {line!r}") from None
                nodes.add(u)
                nodes.add(v)
                if u == v:
                    continue
                pairs.add((u, v) if directed else (min(u, v), max(u, v)))
    except OSError as exc:
        raise EdgeListError(f"cannot read {path}: {exc}") from exc
    if not nodes:
        raise EdgeListError(f"{path}: empty graph")
    original = np.array(sorted(nodes), dtype=np.int64)
    remap = {orig: i for i, orig in enumerate(original)}
    edges = [(remap[u], remap[v]) for u, v in pairs]
    return graph_from_edges(len(original), edges, directed, original_ids=original)


def assign_edge_probabilities(g: Graph, model: ProbabilityModel, seed: int) -> Graph:
    """Return a copy of g with influence probabilities drawn from `model`.

    Undirected graphs get symmetric probabilities (one draw per edge).
    Deterministic given the seed.
    """
    src, dst, _ = g.arc_arrays()
    if isinstance(model, UniformProbabilities):
        probs = np.full(g.num_arcs, model.p)
    else:
        rng = np.random.default_rng(seed)
        if g.directed:
            probs = rng.choice(model.choices, size=g.num_arcs)
        else:
            # one draw per undirected edge, mirrored onto both stored arcs
            canon = src < dst
            edge_probs = rng.choice(model.choices, size=int(canon.sum()))
            key = np.minimum(src, dst) * g.n + np.maximum(src, dst)
            canon_keys = key[canon]
            order = np.argsort(canon_keys)
            probs = edge_probs[order[np.searchsorted(canon_keys[order], key)]]
    return _build_graph(g.n, src.copy(), dst.copy(), probs, g.directed,
                        g.original_ids)


def assign_node_attributes(g: Graph, cost_range: tuple[float, float],
                           benefit_range: tuple[float, float], seed: int) -> NodeAttrs:
    """Draw per-node cost and benefit uniformly from the given ranges."""
    for lo, hi in (cost_range, benefit_range):
        if not 0 < lo <= hi:
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
    rng = np.random.default_rng(seed)
    minority = rng.choice(n, size=k, replace=False)
    labels = np.ones(n, dtype=np.int64)
    labels[minority] = 0
    attrs = dataclasses.replace(attrs, community=labels)
    return attrs, CommunityPartition.from_labels(labels, attrs.benefit)


def sample_subgraph(g: Graph, target_nodes: int, seed: int,
                    restart_prob: float = 0.15) -> Graph:
    """Induced subgraph on the first `target_nodes` nodes visited by a
    random walk with restart. Stalled walks jump to a fresh unvisited node."""
    if not 1 <= target_nodes <= g.n:
        raise ValueError(f"target_nodes {target_nodes} outside [1, {g.n}]")
    rng = np.random.default_rng(seed)
    visited: set[int] = set()
    unvisited_hint = rng.permutation(g.n)
    hint_pos = 0

    def next_unvisited() -> int:
        nonlocal hint_pos
        while unvisited_hint[hint_pos] in visited:
            hint_pos += 1
        return int(unvisited_hint[hint_pos])

    start = next_unvisited()
    visited.add(start)
    current = start
    stall_limit = max(100, 10 * target_nodes)
    since_new = 0
    while len(visited) < target_nodes:
        nb = g.neighbors(current)
        if len(nb) == 0 or since_new > stall_limit:
            start = next_unvisited()
            visited.add(start)
            current = start
            since_new = 0
            continue
        if rng.random() < restart_prob:
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
    return _build_graph(len(nodes), remap[src[keep]], remap[dst[keep]],
                        probs[keep], g.directed, g.original_ids[nodes])


def build_instance_pool(g: Graph, n_train: int, n_test: int,
                        nodes_per_instance: int, base_seed: int,
                        prob_model: ProbabilityModel = UniformProbabilities(0.1),
                        cost_range: tuple[float, float] = (1.0, 100.0),
                        benefit_range: tuple[float, float] = (1.0, 100.0),
                        minority_fraction: float = 0.2) -> InstancePool:
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
                    labels[node] = int(row[3])
                except (KeyError, ValueError):
                    raise AttributeFileError(
                        f"{path}:{lineno}: bad row {row!r}") from None
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
