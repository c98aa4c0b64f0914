from __future__ import annotations

import pytest

from oneplanar.graph import (
    Graph,
    GraphError,
    LinearOrdering,
    TreedepthDecomposition,
    block_cut_tree,
    connected_components,
    decompose_degree2_paths,
    degree2_walks,
    feedback_edge_set,
    format_edge_list,
    parse_edge_list,
    parse_int_pairs,
    prune_degree_one,
    subdivide_all_edges,
    treedepth_decomposition,
)

import rules_oracle as oracle
from conftest import (
    complete_graph,
    cycle_graph,
    longest_path_vertices,
    path_graph,
    random_connected_graph,
    star_graph,
    theta_graph,
)


def test_graph_rejects_loops_and_parallels():
    with pytest.raises(GraphError):
        Graph(frozenset({0}), {0: (0, 0)})
    with pytest.raises(GraphError):
        Graph(frozenset({0, 1}), {0: (0, 1), 1: (1, 0)})
    with pytest.raises(GraphError):
        Graph(frozenset({0}), {0: (0, 1)})


def test_ids_stable_under_subgraph():
    g = Graph.build([(0, 1), (1, 2), (2, 3), (0, 3)])
    h = g.induced_subgraph({0, 1, 2})
    assert set(h.edges) == {e for e, p in g.edges.items()
                            if set(p) <= {0, 1, 2}}
    for e in h.edges:
        assert h.edges[e] == g.edges[e]


def test_prune_degree_one():
    assert prune_degree_one(path_graph(5)).n == 0
    c4 = cycle_graph(4)
    assert prune_degree_one(c4).edges == c4.edges
    pendant = Graph.build([(0, 1), (1, 2), (2, 3), (0, 3), (2, 9)])
    pruned = prune_degree_one(pendant)
    assert pruned.vertices == frozenset({0, 1, 2, 3})
    assert pruned.m == 4


def test_feedback_edge_set():
    assert feedback_edge_set(path_graph(7)).ell == 0
    assert feedback_edge_set(cycle_graph(5)).ell == 1
    assert feedback_edge_set(complete_graph(4)).ell == 3  # m - n + 1
    g = cycle_graph(5)
    fes = feedback_edge_set(g)
    rest = g.subgraph_of_edges(set(g.edges) - fes.edges)
    assert feedback_edge_set(rest).ell == 0


def test_degree2_decomposition_theta():
    g = theta_graph((1, 2, 4))
    d = decompose_degree2_paths(g)
    assert d.p == 3
    assert d.lengths == (1, 2, 4)
    covered = [e for path in d.paths for e in path]
    assert sorted(covered) == sorted(g.edges)


def test_degree2_decomposition_k4_and_cycle():
    d = decompose_degree2_paths(complete_graph(4))
    assert d.p == 6
    assert d.lengths == (1,) * 6

    d = decompose_degree2_paths(cycle_graph(6))
    assert d.p == 1
    assert d.lengths == (6,)
    assert d.is_closed(0)


def test_degree2_decomposition_rejects_degree_one():
    with pytest.raises(GraphError):
        decompose_degree2_paths(path_graph(3))


def test_degree2_path_count_bound(rng):
    # p <= 3*ell - 3 for pruned graphs with ell >= 2 and no cycle components
    for _ in range(60):
        g = prune_degree_one(random_connected_graph(rng, rng.randint(5, 12),
                                                    rng.randint(2, 5)))
        if g.n == 0:
            continue
        ell = feedback_edge_set(g).ell
        d = decompose_degree2_paths(g)
        if ell >= 2 and not any(d.is_closed(i) for i in range(d.p)):
            assert d.p <= 3 * ell - 3
        assert sorted(e for path in d.paths for e in path) == sorted(g.edges)


def test_block_cut_tree_examples():
    two_triangles = Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    b = block_cut_tree(two_triangles)
    assert len(b.blocks) == 2
    assert b.cut_vertices == frozenset({2})

    b = block_cut_tree(complete_graph(4))
    assert len(b.blocks) == 1
    assert b.cut_vertices == frozenset()

    b = block_cut_tree(path_graph(3))
    assert sorted(map(sorted, b.blocks)) == [[0, 1], [1, 2]]
    assert b.cut_vertices == frozenset({1})


def test_block_cut_tree_rejects_disconnected():
    g = Graph.build([(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        block_cut_tree(g)


@pytest.mark.parametrize("g", [
    Graph.build([], vertices=[0, 1]),
    Graph.build([(0, 1), (1, 2), (0, 2)], vertices=[3]),
    Graph.build([(5, 6), (0, 1), (1, 2), (2, 0), (2, 3)]),
], ids=["two-isolated", "triangle-plus-isolated", "two-components"])
def test_block_cut_tree_disconnected_message(g):
    with pytest.raises(GraphError,
                       match="^block_cut_tree requires a connected graph$"):
        block_cut_tree(g)


def test_block_sum_identity(rng):
    # sum over blocks of (|block|-1) == |V|-1 for connected graphs
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 4))
        b = block_cut_tree(g)
        assert sum(len(blk) - 1 for blk in b.blocks) == g.n - 1


def test_treedepth_examples():
    assert treedepth_decomposition(path_graph(4)).depth == 3  # ceil(log2(5))
    assert treedepth_decomposition(complete_graph(3)).depth == 3
    assert treedepth_decomposition(star_graph(5)).depth == 2


def test_depth_of_deep_chain_listed_child_first():
    n = 3000
    t = TreedepthDecomposition({v: v - 1 for v in reversed(range(n))})
    assert t.depth == n
    assert list(t.levels) == list(range(n))  # preorder: root first
    assert t.levels[n - 1] == n


def test_levels_reject_a_cyclic_parent_map():
    with pytest.raises(GraphError):
        TreedepthDecomposition({0: 1, 1: 0, 2: -1}).depth


def test_validate_rejects_a_cyclic_parent_map_without_edges():
    t = TreedepthDecomposition({0: 1, 1: 0, 2: -1})
    with pytest.raises(GraphError, match="cycle"):
        t.validate(Graph(frozenset({0, 1, 2}), {}))


def random_forest_child_first(rng, n: int) -> TreedepthDecomposition:
    """A random rooted forest on 0..n-1 whose parent map lists every vertex
    before its parent."""
    order = rng.sample(range(n), n)
    parent = {v: (rng.choice(order[:i]) if i and rng.random() < 0.85
                  else -1) for i, v in enumerate(order)}
    return TreedepthDecomposition({v: parent[v] for v in reversed(order)})


def test_spans_match_the_ancestor_walk(rng):
    accepted = set()
    for _ in range(60):
        n = rng.randint(1, 14)
        t = random_forest_child_first(rng, n)
        for v in t.parent:
            assert t.descendants(v) == oracle.descendants(t, v)
            start, end = t.spans[v]
            for u in t.parent:
                assert ((v in oracle.ancestors(t, u))
                        == (start <= t.spans[u][0] < end))
        # validate accepts and rejects with the walk, message included
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.build(rng.sample(pairs, min(len(pairs), rng.randint(0, 6))),
                        vertices=range(n))
        want = got = None
        try:
            oracle.validate(t, g)
        except GraphError as err:
            want = str(err)
        try:
            t.validate(g)
        except GraphError as err:
            got = str(err)
        assert got == want
        accepted.add(got is None)
    assert accepted == {True, False}


def test_treedepth_budget_and_cap():
    with pytest.raises(GraphError):
        treedepth_decomposition(path_graph(25))


def test_treedepth_validates(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 4))
        t = treedepth_decomposition(g)
        t.validate(g)
        # every simple path has < 2^d vertices
        assert longest_path_vertices(g) < 2 ** t.depth


def test_subdivide_examples():
    k3 = complete_graph(3)
    assert subdivide_all_edges(k3, 1).edges == k3.edges
    c6 = subdivide_all_edges(k3, 2)
    assert (c6.n, c6.m) == (6, 6)
    assert all(c6.degree(v) == 2 for v in c6.vertices)

    g = subdivide_all_edges(complete_graph(4), 3)
    assert (g.n, g.m) == (16, 18)
    assert feedback_edge_set(g).ell == 3


def test_subdivide_preserves_ell(rng):
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 5))
        ell = feedback_edge_set(g).ell
        for k in (1, 2, 3, 4):
            assert feedback_edge_set(subdivide_all_edges(g, k)).ell == ell


def test_edge_list_round_trip():
    text = "# comment\n0 1\n\n2 1  # trailing\n"
    g = parse_edge_list(text)
    assert g.m == 2
    canon = format_edge_list(g)
    assert canon == "0 1\n1 2\n"
    assert format_edge_list(parse_edge_list(canon)) == canon


def test_linear_ordering():
    g = path_graph(4)
    sigma = LinearOrdering({v: v + 1 for v in range(4)})
    assert sigma.bandwidth(g) == 1
    with pytest.raises(GraphError):
        LinearOrdering({0: 1, 1: 1})


# ---------------------------------------------------------------------------
# Shared primitives: components, degree-2 walks, pair-per-line parsing
# ---------------------------------------------------------------------------

def test_connected_components_match_networkx(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(60):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.2]
        g = Graph.build(pairs, vertices=range(n))
        subset = frozenset(v for v in g.vertices if rng.random() < 0.7)
        for nodes in (g.vertices, subset):
            h = nx.Graph()
            h.add_nodes_from(nodes)
            h.add_edges_from(p for p in pairs if set(p) <= nodes)
            want = sorted(sorted(c) for c in nx.connected_components(h))
            got = connected_components(nodes, g.neighbors)
            assert [sorted(c) for c in got] == want  # ordered by smallest
        assert g.components() == connected_components(g.vertices,
                                                      g.neighbors)


def test_degree2_walks_partition_into_maximal_walks(rng):
    for _ in range(60):
        base = random_connected_graph(rng, rng.randint(1, 6),
                                      rng.randint(0, 4))
        g = subdivide_all_edges(base, rng.randint(1, 3)) if base.m else base
        g = Graph.build(list(g.edges.values())
                        + [(100 + i, 100 + (i + 1) % 3) for i in range(3)],
                        vertices=g.vertices)  # plus a free cycle
        edges = {e for e in g.edges if rng.random() < 0.8}
        inner = {v for v in g.vertices if g.degree(v) == 2
                 and set(g.incident_edges(v)) <= edges
                 and rng.random() < 0.9}
        walks = degree2_walks(g, edges, inner)
        used = [e for es, _ in walks for e in es]
        assert sorted(used) == sorted(edges)  # a partition of ``edges``
        for es, verts in walks:
            assert len(verts) == len(es) + 1
            for i, e in enumerate(es):
                assert set(g.edges[e]) == {verts[i], verts[i + 1]}
            assert set(verts[1:-1]) <= inner
            if verts[0] == verts[-1] and verts[0] in inner:
                assert set(verts) <= inner  # closed only on inner cycles
            else:  # maximal: both ends outside ``inner``
                assert verts[0] not in inner and verts[-1] not in inner


def test_parse_int_pairs_names_the_line():
    assert parse_int_pairs("# c\n1 2\n\n-1 3  # x\n", "a b") == [(1, 2),
                                                                (-1, 3)]
    for bad in ("1 x", "1", "1 2 3"):
        with pytest.raises(GraphError, match="line 2: expected 'a b'"):
            parse_int_pairs("0 1\n" + bad, "a b")
