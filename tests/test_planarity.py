"""The left-right planarity test against ``networkx.check_planarity``, on
simple graphs and multigraphs, and every embedding it returns checked for
genus 0 by face tracing.

On the planarizations of a named graph, networkx is asked once per orbit of
crossing assignments under the graph's automorphisms (isomorphic
planarizations are planar together); the test under review runs on every
planarization."""

from __future__ import annotations

import itertools
import random
from typing import Optional

import pytest

from oneplanar.decider import enumerate_crossing_sets
from oneplanar.embedding import unrotated_embedding
from oneplanar.planarity import planar_rotation

from conftest import complete_bipartite, complete_graph, wheel_graph

nx = pytest.importorskip("networkx")


def genus_zero(n: int, edges: list[tuple[int, int]],
               rotation: list[list[int]]) -> bool:
    """True when ``rotation`` lists each dart exactly once, at the node it
    leaves (dart ``2i + j`` leaves ``edges[i][j]``), and every component
    with an edge has V - E + F = 2."""
    if (sorted(d for rot in rotation for d in rot) != list(range(2 * len(edges)))
            or any(edges[d >> 1][d & 1] != v
                   for v in range(n) for d in rotation[v])):
        return False
    nxt = {}  # the next dart of a face: the successor of the twin
    for rot in rotation:
        for i, d in enumerate(rot):
            nxt[rot[i - 1] ^ 1] = d
    seen: set[int] = set()
    faces = 0
    for dart in nxt:
        if dart in seen:
            continue
        faces += 1
        while dart not in seen:
            seen.add(dart)
            dart = nxt[dart]
    parent: dict[int, int] = {}  # union-find over the touched nodes

    def find(v: int) -> int:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    comps = len({find(v) for v in list(parent)})
    return len(parent) - len(edges) + faces == 2 * comps


def networkx_planar(n: int, edges: list[tuple[int, int]]) -> bool:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.check_planarity(g)[0]


def check(n: int, edges: list[tuple[int, int]],
          want: Optional[bool] = None) -> bool:
    """Compare with networkx (or with its verdict ``want``); return it."""
    if want is None:
        want = networkx_planar(n, edges)
    rotation = planar_rotation(n, edges)
    assert (rotation is not None) == want, edges
    if rotation is not None:
        assert genus_zero(n, edges, rotation), (edges, rotation)
    return want


def test_random_graphs_agree_with_networkx():
    rng = random.Random(7)
    verdicts = set()
    for _ in range(600):
        n = rng.randint(1, 12)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        verdicts.add(check(n, edges))
    assert verdicts == {False, True}


@pytest.mark.parametrize("name,g", [("K5", complete_graph(5)),
                                    ("K3,4", complete_bipartite(3, 4)),
                                    ("W8", wheel_graph(8))])
def test_every_planarization_up_to_three_crossings(name, g):
    edge_id = {pair: e for e, pair in g.edges.items()}
    h = nx.Graph(list(g.edges.values()))
    autos = [{e: edge_id[tuple(sorted((s[u], s[v])))]
              for e, (u, v) in g.edges.items()}
             for s in nx.algorithms.isomorphism.GraphMatcher(
                 h, h).isomorphisms_iter()]
    verdict: dict[tuple, bool] = {}  # orbit representative -> networkx
    planar = 0
    for assignment in enumerate_crossing_sets(g):
        if len(assignment.pairs) > 3:
            break
        segments = unrotated_embedding(g, assignment.pairs).planarization.segments
        nodes = sorted({v for seg in segments for v in seg})
        index = {v: i for i, v in enumerate(nodes)}
        edges = [(index[a], index[b]) for a, b in segments]
        orbit = min(tuple(sorted(tuple(sorted((s[e], s[f])))
                                 for e, f in assignment.pairs))
                    for s in autos)
        if orbit not in verdict:
            verdict[orbit] = networkx_planar(len(nodes), edges)
        planar += check(len(nodes), edges, verdict[orbit])
    # planar planarizations among K5's 236 and K3,4's 2863 assignments
    assert planar == {"K5": 15, "K3,4": 420}.get(name, planar) > 0


def test_multigraphs_agree_with_networkx():
    """Parallel edges are legal input and leave the verdict to the
    underlying simple graph; the rotation lists every parallel dart.  A
    tripled triangle (9 > 3n - 6 edges) and a triple bond are planar."""
    assert check(3, [(0, 1), (1, 2), (2, 0)] * 3, True)
    assert check(2, [(0, 1)] * 3, True)
    rng = random.Random(2009)
    verdicts = set()
    parallel = 0
    for _ in range(2000):
        n = rng.randint(2, 10)
        pairs = list(itertools.combinations(range(n), 2))
        simple = rng.sample(pairs, rng.randint(1, min(len(pairs), 3 * n)))
        edges = simple + [rng.choice(simple) for _ in range(rng.randint(0, n))]
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        parallel += len(edges) > len(simple)
        verdicts.add(check(n, edges))  # networkx collapses parallel edges
    assert verdicts == {False, True} and parallel >= 1000


def test_trivial_graphs():
    assert planar_rotation(0, []) == []
    assert planar_rotation(3, []) == [[], [], []]
    assert planar_rotation(2, [(0, 1)]) == [[0], [1]]
    assert planar_rotation(5, list(itertools.combinations(range(5), 2))) is None


def test_deep_dfs_needs_no_recursion():
    n = 3000  # a cycle far deeper than the interpreter's recursion limit
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    rotation = planar_rotation(n, edges)
    assert rotation is not None and genus_zero(n, edges, rotation)
