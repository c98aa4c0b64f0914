"""The left-right planarity test against ``networkx.check_planarity``, and
every embedding it returns checked for genus 0 by face tracing.

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
    """True when ``rotation`` lists each node's neighbours exactly once and
    every component with an edge has V - E + F = 2."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    if any(sorted(rotation[v]) != sorted(nbrs[v]) for v in range(n)):
        return False
    pos = [{w: i for i, w in enumerate(rot)} for rot in rotation]
    seen: set[tuple[int, int]] = set()
    faces = 0
    for dart in itertools.chain(edges, ((v, u) for u, v in edges)):
        if dart in seen:
            continue
        faces += 1
        while dart not in seen:  # next dart: the successor of the twin
            seen.add(dart)
            u, v = dart
            dart = (v, rotation[v][(pos[v][u] + 1) % len(rotation[v])])
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


def test_trivial_graphs():
    assert planar_rotation(0, []) == []
    assert planar_rotation(3, []) == [[], [], []]
    assert planar_rotation(2, [(0, 1)]) == [[1], [0]]
    assert planar_rotation(5, list(itertools.combinations(range(5), 2))) is None


def test_deep_dfs_needs_no_recursion():
    n = 3000  # a cycle far deeper than the interpreter's recursion limit
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    rotation = planar_rotation(n, edges)
    assert rotation is not None and genus_zero(n, edges, rotation)
