import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairseed.graph import (CommunityPartition, EdgeListError,
                            AttributeFileError, TrivalencyProbabilities,
                            UniformProbabilities, assign_communities,
                            assign_edge_probabilities, assign_node_attributes,
                            build_instance_pool, graph_from_edges,
                            induced_subgraph, load_edge_list,
                            NodeAttrs, load_node_attributes, sample_subgraph)

from conftest import make_attrs


def write(tmp_path, text, name="edges.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadEdgeList:
    def test_basic_undirected(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n"), directed=False)
        assert g.n == 3
        assert g.num_arcs == 4

    def test_comments_skipped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# comment\n0 1\n"), directed=False)
        assert g.n == 2 and g.num_arcs == 2

    def test_self_loops_and_duplicates_dropped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 0\n0 1\n0 1\n1 0\n"), directed=False)
        assert g.n == 2 and g.num_arcs == 2

    def test_ids_remapped_dense(self, tmp_path):
        g = load_edge_list(write(tmp_path, "10 30\n30 20\n"), directed=True)
        assert g.n == 3
        assert list(g.original_ids) == [10, 20, 30]
        # 10 -> 30 becomes 0 -> 2
        assert list(g.neighbors(0)) == [2]

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(EdgeListError, match=":2:"):
            load_edge_list(write(tmp_path, "0 1\n0 1 2\n"), directed=False)
        with pytest.raises(EdgeListError, match="non-integer"):
            load_edge_list(write(tmp_path, "a b\n"), directed=False)

    def test_empty_graph_rejected(self, tmp_path):
        with pytest.raises(EdgeListError, match="empty"):
            load_edge_list(write(tmp_path, "# nothing\n"), directed=False)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EdgeListError, match="cannot read"):
            load_edge_list(str(tmp_path / "nope.txt"), directed=False)

    def test_undirected_symmetry_invariant(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n2 3\n0 3\n"), directed=False)
        g = assign_edge_probabilities(g, TrivalencyProbabilities(), seed=3)
        src, dst, p = g.arc_arrays()
        table = {(u, v): w for u, v, w in zip(src, dst, p)}
        for (u, v), w in table.items():
            assert table[(v, u)] == w


def test_out_degree_computed_once_and_read_only():
    g = graph_from_edges(4, [(0, 1, 0.5), (0, 2, 0.5), (2, 3, 0.5)],
                         directed=True)
    degree = g.out_degree()
    assert degree.tolist() == [2, 0, 1, 0]
    assert g.out_degree() is degree
    with pytest.raises(ValueError):
        degree[0] = 5


@pytest.mark.parametrize("edges", [
    [(0, 1, float("nan"))],
    [(0, 1, 1.5)],
    [(0, 1, 0.5), (0, 1, 0.7)],  # one arc, two probabilities
    [(-1, 0, 0.5)],              # node ids outside [0, n)
    [(0, 5, 0.5)],
])
@pytest.mark.parametrize("directed", [True, False])
def test_graph_from_edges_rejects_bad_arcs(edges, directed):
    with pytest.raises(ValueError):
        graph_from_edges(2, edges, directed=directed)


@st.composite
def edge_lists(draw):
    """Edge lists over n <= 6 nodes with repeats, self-loops, both
    directions, and mixed (u, v) and (u, v, p) tuples."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    prob = st.sampled_from([0.25, 0.5, 1.0])
    edge = st.tuples(node, node) | st.tuples(node, node, prob)
    return n, draw(st.lists(edge, max_size=20)), draw(st.booleans())


def reference_arcs(edges, directed):
    """The sorted set of (u, v, p) arcs, built tuple by tuple."""
    arcs = set()
    for e in edges:
        u, v, p = e[0], e[1], e[2] if len(e) > 2 else 1.0
        if u != v:
            arcs.add((u, v, p))
            if not directed:
                arcs.add((v, u, p))
    return sorted(arcs)


class TestGraphFromEdgesProperties:
    @settings(deadline=None)
    @given(edge_lists())
    def test_matches_set_of_tuples_reference(self, case):
        n, edges, directed = case
        arcs = reference_arcs(edges, directed)
        if len({(u, v) for u, v, _ in arcs}) < len(arcs):
            with pytest.raises(ValueError, match="parallel"):
                graph_from_edges(n, edges, directed=directed)
            return
        g = graph_from_edges(n, edges, directed=directed)
        indptr = [0] * (n + 1)
        for u, _, _ in arcs:
            indptr[u + 1] += 1
        for i in range(n):
            indptr[i + 1] += indptr[i]
        assert g.indptr.tolist() == indptr
        assert list(zip(*(a.tolist() for a in g.arc_arrays()))) == arcs
        assert g.original_ids.tolist() == list(range(n))

    @settings(deadline=None)
    @given(edge_lists(), st.integers(0, 2**32 - 1))
    def test_undirected_trivalency_is_symmetric(self, case, seed):
        n, edges, _ = case
        g = graph_from_edges(n, [e[:2] for e in edges], directed=False)
        t = assign_edge_probabilities(g, TrivalencyProbabilities(), seed)
        assert np.array_equal(t.indptr, g.indptr)
        assert np.array_equal(t.indices, g.indices)
        table = dict(zip(zip(*t.arc_arrays()[:2]), t.probs))
        for (u, v), p in table.items():
            assert table[(v, u)] == p
        assert set(table.values()) <= {0.1, 0.01, 0.001}


class TestProbabilities:
    def test_uniform_sets_every_edge(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], directed=True)
        g = assign_edge_probabilities(g, UniformProbabilities(0.1), seed=0)
        assert np.all(g.probs == 0.1)

    def test_trivalency_membership(self):
        g = graph_from_edges(5, [(i, j) for i in range(5) for j in range(5) if i != j],
                             directed=True)
        g = assign_edge_probabilities(g, TrivalencyProbabilities(), seed=7)
        assert set(np.unique(g.probs)) <= {0.1, 0.01, 0.001}

    def test_trivalency_deterministic(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)],
                             directed=False)
        a = assign_edge_probabilities(g, TrivalencyProbabilities(), seed=11)
        b = assign_edge_probabilities(g, TrivalencyProbabilities(), seed=11)
        assert np.array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("choices", [(), (1.5,), (0.1, float("nan")),
                                         (0.0, 0.1), (-0.1,)])
    def test_invalid_trivalency_choices(self, choices):
        with pytest.raises(ValueError, match="trivalency"):
            TrivalencyProbabilities(choices)

    def test_invalid_uniform_p(self):
        with pytest.raises(ValueError):
            UniformProbabilities(0.0)
        with pytest.raises(ValueError):
            UniformProbabilities(1.5)


class TestNodeAttributes:
    def test_degenerate_range(self):
        g = graph_from_edges(4, [(0, 1)], directed=False)
        attrs = assign_node_attributes(g, (5.0, 5.0), (1.0, 100.0), seed=0)
        assert np.all(attrs.cost == 5.0)

    def test_seeds_differ(self):
        g = graph_from_edges(50, [(i, i + 1) for i in range(49)], directed=False)
        a = assign_node_attributes(g, (1, 100), (1, 100), seed=1)
        b = assign_node_attributes(g, (1, 100), (1, 100), seed=2)
        assert not np.array_equal(a.benefit, b.benefit)

    def test_repeat_byte_identical(self):
        g = graph_from_edges(10, [(0, 1)], directed=False)
        a = assign_node_attributes(g, (1, 100), (1, 100), seed=5)
        b = assign_node_attributes(g, (1, 100), (1, 100), seed=5)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.benefit, b.benefit)

    def test_invalid_range(self):
        g = graph_from_edges(2, [(0, 1)], directed=False)
        with pytest.raises(ValueError):
            assign_node_attributes(g, (0.0, 1.0), (1.0, 2.0), seed=0)
        with pytest.raises(ValueError):
            assign_node_attributes(g, (2.0, 1.0), (1.0, 2.0), seed=0)
        for bad in [(1.0, np.inf), (np.nan, 2.0), (1.0, np.nan),
                    (np.inf, np.inf)]:
            with pytest.raises(ValueError):
                assign_node_attributes(g, bad, (1.0, 2.0), seed=0)
            with pytest.raises(ValueError):
                assign_node_attributes(g, (1.0, 2.0), bad, seed=0)


class TestCommunities:
    def test_twenty_eighty(self):
        g = graph_from_edges(100, [(i, (i + 1) % 100) for i in range(100)],
                             directed=False)
        attrs = assign_node_attributes(g, (1, 100), (1, 100), seed=0)
        attrs, parts = assign_communities(g, attrs, 0.2, seed=0)
        assert len(parts.members[0]) == 20
        assert len(parts.members[1]) == 80

    def test_two_nodes_half(self):
        g = graph_from_edges(2, [(0, 1)], directed=False)
        attrs = make_attrs(2)
        _, parts = assign_communities(g, attrs, 0.5, seed=0)
        assert [len(m) for m in parts.members] == [1, 1]

    def test_deterministic(self):
        g = graph_from_edges(30, [(i, i + 1) for i in range(29)], directed=False)
        attrs = make_attrs(30)
        a1, p1 = assign_communities(g, attrs, 0.2, seed=9)
        a2, p2 = assign_communities(g, attrs, 0.2, seed=9)
        assert np.array_equal(a1.community, a2.community)

    def test_partition_covers_and_disjoint(self):
        g = graph_from_edges(25, [(i, i + 1) for i in range(24)], directed=False)
        attrs = make_attrs(25)
        _, parts = assign_communities(g, attrs, 0.3, seed=2)
        all_nodes = np.sort(np.concatenate(parts.members))
        assert np.array_equal(all_nodes, np.arange(25))

    def test_fraction_out_of_range(self):
        g = graph_from_edges(4, [(0, 1)], directed=False)
        with pytest.raises(ValueError):
            assign_communities(g, make_attrs(4), 1.0, seed=0)

    @pytest.mark.parametrize("n, fraction", [(3, 0.9), (1, 0.2)])
    def test_minority_taking_every_node_rejected(self, n, fraction):
        # ceil(fraction * n) == n would leave a single community
        g = graph_from_edges(n, [], directed=False)
        with pytest.raises(ValueError, match="two communities"):
            assign_communities(g, make_attrs(n), fraction, seed=0)


class TestSampling:
    def chain(self, n):
        return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)],
                                directed=False)

    def test_full_graph(self):
        g = self.chain(20)
        sub = sample_subgraph(g, 20, seed=0)
        assert sub.n == 20 and sub.num_arcs == g.num_arcs

    def test_target_size_reached_across_components(self):
        # two components force unvisited restarts
        edges = [(i, i + 1) for i in range(9)] + [(i, i + 1) for i in range(10, 19)]
        g = graph_from_edges(20, edges, directed=False)
        sub = sample_subgraph(g, 15, seed=4)
        assert sub.n == 15

    def test_deterministic(self):
        g = self.chain(50)
        a = sample_subgraph(g, 20, seed=3)
        b = sample_subgraph(g, 20, seed=3)
        assert np.array_equal(a.original_ids, b.original_ids)
        assert np.array_equal(a.indices, b.indices)

    def test_induced_property(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
                             directed=False)
        sub = induced_subgraph(g, np.array([0, 1, 2, 5]))
        src, dst, _ = sub.arc_arrays()
        got = {(int(sub.original_ids[u]), int(sub.original_ids[v]))
               for u, v in zip(src, dst)}
        assert got == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 5), (5, 0)}

    def test_bad_target(self):
        g = self.chain(5)
        with pytest.raises(ValueError):
            sample_subgraph(g, 0, seed=0)
        with pytest.raises(ValueError):
            sample_subgraph(g, 6, seed=0)


POOL_ATTRS = dict(prob_model=UniformProbabilities(0.1),
                  cost_range=(1.0, 100.0), benefit_range=(1.0, 100.0),
                  minority_fraction=0.2)


class TestInstancePool:
    def test_counts_and_sizes(self):
        g = graph_from_edges(200, [(i, (i * 7 + 1) % 200) for i in range(200)],
                             directed=False)
        pool = build_instance_pool(g, n_train=3, n_test=2,
                                   nodes_per_instance=40, base_seed=1,
                                   **POOL_ATTRS)
        assert len(pool.train) == 3 and len(pool.test) == 2
        assert all(inst.graph.n == 40 for inst in pool.train + pool.test)

    def test_instances_distinct(self):
        g = graph_from_edges(300, [(i, (i + 1) % 300) for i in range(300)],
                             directed=False)
        pool = build_instance_pool(g, 1, 1, 30, base_seed=5, **POOL_ATTRS)
        a, b = pool.train[0], pool.test[0]
        assert not np.array_equal(a.graph.original_ids, b.graph.original_ids)

    def test_attributes_assigned(self):
        g = graph_from_edges(100, [(i, (i + 1) % 100) for i in range(100)],
                             directed=False)
        pool = build_instance_pool(g, 1, 1, 50, base_seed=2, **POOL_ATTRS)
        inst = pool.train[0]
        assert np.all(inst.attrs.cost > 0)
        assert inst.parts.count == 2
        assert len(inst.parts.members[0]) == 10  # ceil(0.2 * 50)


class TestAttributeCsv:
    def test_roundtrip(self, tmp_path):
        g = graph_from_edges(3, [(0, 1), (1, 2)], directed=False)
        path = write(tmp_path, "node_id,cost,benefit,community\n"
                               "0,1.5,2.0,0\n1,2.5,3.0,1\n2,3.5,4.0,1\n",
                     name="attrs.csv")
        attrs, parts = load_node_attributes(path, g)
        assert attrs.cost[1] == 2.5
        assert parts.count == 2

    def test_bad_header(self, tmp_path):
        g = graph_from_edges(2, [(0, 1)], directed=False)
        path = write(tmp_path, "id,cost,benefit,community\n0,1,1,0\n1,1,1,0\n",
                     name="attrs.csv")
        with pytest.raises(AttributeFileError, match="header"):
            load_node_attributes(path, g)

    def test_missing_node(self, tmp_path):
        g = graph_from_edges(2, [(0, 1)], directed=False)
        path = write(tmp_path, "node_id,cost,benefit,community\n0,1,1,0\n",
                     name="attrs.csv")
        with pytest.raises(AttributeFileError, match="missing"):
            load_node_attributes(path, g)

    def test_repeated_node_is_a_file_error(self, tmp_path):
        # a second row for node 1 would otherwise overwrite the first
        g = graph_from_edges(3, [(0, 1), (1, 2)], directed=False)
        path = write(tmp_path, "node_id,cost,benefit,community\n"
                               "0,1,1,0\n1,1,1,0\n2,1,1,0\n1,99,1,0\n",
                     name="attrs.csv")
        with pytest.raises(AttributeFileError,
                           match=r"attrs\.csv:5: node 1 listed twice"):
            load_node_attributes(path, g)

    def test_nan_benefit_is_a_file_error(self, tmp_path):
        g = graph_from_edges(2, [(0, 1)], directed=False)
        path = write(tmp_path, "node_id,cost,benefit,community\n"
                               "0,1,nan,0\n1,1,1,0\n", name="attrs.csv")
        with pytest.raises(AttributeFileError, match="finite"):
            load_node_attributes(path, g)


@pytest.mark.parametrize("field", ["cost", "benefit"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_attrs_reject_non_positive_or_non_finite(field, bad):
    values = {"cost": np.ones(3), "benefit": np.ones(3)}
    values[field][1] = bad
    attrs = NodeAttrs(community=np.zeros(3, dtype=np.int64), **values)
    with pytest.raises(ValueError, match="positive and finite"):
        attrs.validate()


def test_partition_requires_positive_benefit():
    with pytest.raises(ValueError):
        CommunityPartition.from_labels(np.array([0, 1]), np.array([1.0, 0.0]))


def test_partition_rejects_negative_labels():
    with pytest.raises(ValueError, match="nonnegative"):
        CommunityPartition.from_labels(np.array([-1, 0, 0]), np.ones(3))
