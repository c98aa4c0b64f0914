"""The triangle bound by which the decider skips crossing assignments (k=1).

A planar planarization of a connected graph on n >= 4 vertices has at least
2m - 4n + 8 triangles (``decider._too_few_triangles``).  The test it makes
from the crossing pairs alone is checked against the triangles of each
planarization, counted directly, and the hard way: every assignment it
skips fails the planarity test, and the sample holds planar planarizations
with exactly the needed triangles, so a need one too high fails here.  The
guard keeps K3 and every graph on at most 4 vertices answering as before,
and the decider gives the same answer, witness and B/W configurations as
with the skip monkeypatched off."""

from __future__ import annotations

import itertools
import random

import pytest

from oneplanar import decider
from oneplanar.decider import (
    Predicate,
    _test_rotation,
    _too_few_triangles,
    crossing_lower_bound,
    decide,
    enumerate_crossing_sets,
)
from oneplanar.embedding import PlaneEmbedding, unrotated_embedding
from oneplanar.graph import Graph

from conftest import complete_bipartite, complete_graph, random_connected_graph
from test_crossing_bound import NAMED, PREDICATES, outcome, seeded_graphs

GRAPHS = NAMED | {"K6": complete_graph(6), "K4,4": complete_bipartite(4, 4)}


def planarization_triangles(skeleton: PlaneEmbedding,
                            apex: tuple[int, ...]) -> int:
    """The triangles of the skeleton's planarization, with one more node
    joined to the ``apex`` nodes, counted over node triples."""
    adj: dict[int, set[int]] = {v: set() for v in
                                 skeleton.planarization.node_darts}
    for u, v in skeleton.planarization.segments:
        adj[u].add(v)
        adj[v].add(u)
    if apex:
        adj[-1] = set(apex)
        for v in apex:
            adj[v].add(-1)
    return sum(1 for u, v, w in itertools.combinations(sorted(adj), 3)
               if v in adj[u] and w in adj[u] and w in adj[v])


def sample() -> list[Graph]:
    """300 graphs of ``seeded_graphs`` (4 to 8 vertices, a quarter of them
    K5, K3,3, K3,4 or K3,4 less an edge, relabeled) and 80 random connected
    graphs on 3 to 8 vertices; 164 of the 380 have a positive need."""
    rng = random.Random(2007)
    graphs = seeded_graphs(300, 29)
    for _ in range(80):
        n = rng.randint(3, 8)
        graphs.append(random_connected_graph(
            rng, n, rng.randint(0, (n - 1) * (n - 2) // 2)))
    return graphs


def test_skipped_assignments_fail_the_planarity_test():
    """On each graph, without an apex and with one on a random pair, the
    first 30 assignments from the crossing lower bound up: the skip holds
    exactly when the planarization has fewer triangles than needed, and
    every skipped assignment fails the planarity test."""
    rng = random.Random(11)
    skipped = tight = 0
    for g in sample():
        need = 2 * g.m - 4 * g.n + 8
        for apex in ((), tuple(rng.sample(sorted(g.vertices), 2))):
            too_few = _too_few_triangles(g, apex)
            if need <= 0 or g.n < 4:
                assert too_few is None
                continue
            for assignment in itertools.islice(
                    enumerate_crossing_sets(g, 1, crossing_lower_bound(g)),
                    30):
                skeleton = unrotated_embedding(g, assignment.pairs)
                have = planarization_triangles(skeleton, apex)
                assert too_few(assignment.pairs) == (have < need), \
                    (sorted(g.edges.values()), apex, assignment)
                planar = _test_rotation(skeleton, apex) is not None
                if have < need:
                    assert not planar, (sorted(g.edges.values()), apex,
                                        assignment)
                    skipped += 1
                tight += planar and have == need
    assert skipped >= 2500
    assert tight >= 1500


def test_k3_is_never_skipped():
    """K3 needs 2 triangles by the count and has 1: the n < 4 guard keeps
    it from being skipped (its answers are checked with the other small
    graphs below)."""
    k3 = complete_graph(3)
    assert _too_few_triangles(k3) is None
    assert _too_few_triangles(k3, (0, 1)) is None


def small_graphs() -> list[Graph]:
    """Every connected graph on the vertices 0..n-1, n <= 4."""
    out = [Graph.build([], vertices=[0])]
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(n - 1, len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                g = Graph.build(chosen, vertices=range(n))
                if g.is_connected():
                    out.append(g)
    return out


def without_skip(monkeypatch, g: Graph, pred: Predicate) -> tuple:
    with monkeypatch.context() as patch:
        patch.setattr(decider, "_too_few_triangles", lambda g, apex=(): None)
        return outcome(g, pred)


def test_small_graphs_answer_as_without_the_skip(monkeypatch):
    graphs = small_graphs()
    assert len(graphs) == 1 + 1 + 4 + 38
    for g in graphs:
        for pred in PREDICATES.values():
            if not set(pred.anchors) <= g.vertices:
                continue
            got = outcome(g, pred)
            assert got[0]  # every graph on at most 4 vertices is plane
            assert got == without_skip(monkeypatch, g, pred)


# K4,4 under k = 2 is left out: it takes about 18 s per run, and k = 2
# never consults the skip (test_k2_never_consults_the_skip).
@pytest.mark.parametrize("graph, pred", [
    (graph, pred) for graph in sorted(GRAPHS) for pred in sorted(PREDICATES)
    if (graph, pred) != ("K4,4", "k2")])
def test_named_graphs_decide_as_without_the_skip(monkeypatch, graph, pred):
    g, p = GRAPHS[graph], PREDICATES[pred]
    got = outcome(g, p)
    assert got[0]  # every named graph is 1-planar
    assert got == without_skip(monkeypatch, g, p)


def test_seeded_graphs_decide_as_without_the_skip(monkeypatch):
    rejections = 0
    for g in seeded_graphs(160, 31):
        rejections += decide(g, Predicate(), cap=16).stats.face_bound_rejections
        for pred in PREDICATES.values():
            assert outcome(g, pred) == without_skip(monkeypatch, g, pred)
    assert rejections >= 100


def test_k2_never_consults_the_skip(monkeypatch):
    """The count assumes a simple planarization, which k = 2 does not give
    (two edges may cross twice)."""
    def refuse(g, apex=()):
        raise AssertionError("the triangle bound was consulted for k = 2")

    monkeypatch.setattr(decider, "_too_few_triangles", refuse)
    for g in (complete_graph(6), complete_bipartite(3, 4), NAMED["K2,2,2"]):
        assert decide(g, Predicate(k=2), cap=16).answer
        assert decide(g, Predicate("ab-shared", a=0, b=2, k=2),
                      cap=16).answer
