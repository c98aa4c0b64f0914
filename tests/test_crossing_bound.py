"""The crossing lower bound the decider's search starts at.

``girth`` is checked against ``networkx.girth``.  The bound is pinned on
graphs whose crossing number is known, and checked for soundness the hard
way: on every seeded graph, no crossing assignment below it passes the
planarity test, enumerating from zero crossings.  The sample holds graphs
where an assignment of exactly the bound passes, so a bound one too high
fails.  Last, the decider is run with the bound forced to 0 and must give
the same answer, witness and B/W configurations as from the bound."""

from __future__ import annotations

import random

import pytest

from oneplanar import decider
from oneplanar.decider import (
    Predicate,
    _test_rotation,
    crossing_lower_bound,
    decide,
    enumerate_crossing_sets,
    girth,
)
from oneplanar.embedding import embedding_to_json, unrotated_embedding
from oneplanar.graph import Graph
from oneplanar.straightening import find_bw_configurations

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    wheel_graph,
)

CAP = 16

# The predicates of the perfbench decide-dense workload.
PREDICATES = {
    "plain": Predicate(),
    "geo": Predicate(geometric=True),
    "ab-outer-geo": Predicate("ab-outer", a=0, b=1, geometric=True),
    "ab-shared": Predicate("ab-shared", a=0, b=2),
    "a-outer-geo": Predicate("a-outer", a=0, geometric=True),
    "k2": Predicate(k=2),
}

PETERSEN = Graph.build([(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
OCTAHEDRON = Graph.build([(u, v) for u in range(6) for v in range(u + 1, 6)
                          if u // 2 != v // 2])

NAMED = {
    "K5": complete_graph(5),
    "K3,3": complete_bipartite(3, 3),
    "K3,4": complete_bipartite(3, 4),
    "K2,2,2": OCTAHEDRON,
    "W8": wheel_graph(8),
    "Petersen": PETERSEN,
}


def relabel(rng: random.Random, g: Graph) -> Graph:
    """g on the same vertex ids, permuted at random, so that the edge ids,
    and with them the enumeration order, change."""
    names = dict(zip(sorted(g.vertices), rng.sample(sorted(g.vertices), g.n)))
    return Graph.build([(names[u], names[v]) for u, v in g.edges.values()])


def subdivide_some(rng: random.Random, g: Graph, count: int) -> Graph:
    """g with ``count`` of its edges, picked at random, subdivided once."""
    pairs = sorted(g.edges.values())
    nxt = max(g.vertices) + 1
    for u, v in rng.sample(pairs, count):
        pairs.remove((u, v))
        pairs += [(u, nxt), (nxt, v)]
        nxt += 1
    return Graph.build(pairs)


def random_bipartite(rng: random.Random, a: int, b: int, m: int) -> Graph:
    """A random connected spanning subgraph of Ka,b with m edges, by
    rejection."""
    full = [(i, a + j) for i in range(a) for j in range(b)]
    while True:
        pairs = rng.sample(full, m)
        g = Graph.build(pairs, vertices=range(a + b))
        if g.is_connected():
            return g


def seeded_graphs(count: int, seed: int, max_m: int = 12) -> list[Graph]:
    """Seeded connected graphs with at most ``max_m`` edges: random ones,
    random bipartite ones, subdivisions of small dense graphs, and random
    labellings of the graphs whose bound is positive at this size (K5,
    K3,3, K3,4 and K3,4 less an edge)."""
    rng = random.Random(seed)
    positive = [complete_graph(5), complete_bipartite(3, 3),
                complete_bipartite(3, 4)]
    positive.append(Graph.build(list(positive[2].edges.values())[1:]))
    out: list[Graph] = []
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            n = rng.randint(4, 8)
            extra = rng.randint(0, min(max_m - (n - 1),
                                       (n - 1) * (n - 2) // 2))
            g = random_connected_graph(rng, n, extra)
        elif kind == 1:
            a, b = rng.choice([(2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (4, 4)])
            g = random_bipartite(rng, a, b,
                                 rng.randint(a + b - 1, min(max_m, a * b)))
        elif kind == 2:
            base = rng.choice([complete_graph(4), complete_bipartite(2, 3),
                               complete_bipartite(3, 3), wheel_graph(4)])
            g = subdivide_some(rng, base,
                               rng.randint(1, min(3, max_m - base.m)))
        else:
            g = rng.choice(positive)
        out.append(relabel(rng, g))
    return out


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------

def test_girth_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = seeded_graphs(120, 7, max_m=16)
    graphs += [PETERSEN, path_graph(5), cycle_graph(9), complete_graph(2),
               subdivide_some(random.Random(1), PETERSEN, 5)]
    for g in graphs:
        ref = nx.Graph(list(g.edges.values()))
        ref.add_nodes_from(g.vertices)
        assert girth(g) == nx.girth(ref), sorted(g.edges.values())
    assert {girth(g) for g in graphs} >= {3, 4, 5, 6, float("inf")}


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g, bound", [
    (complete_bipartite(4, 4), 4),  # 16 - 4*6/2: its crossing number
    # 15 - 5*8/3 rounded down: its crossing number, although m <= 2n - 4,
    # so no test of density alone may give it 0
    (PETERSEN, 2),
    (complete_bipartite(3, 4), 2),
    (complete_graph(5), 1),
    (complete_graph(6), 3),  # the Euler bound
    (complete_bipartite(3, 3), 1),
    (OCTAHEDRON, 0),
    (cycle_graph(5), 0),
    (path_graph(4), 0),
    (complete_graph(2), 0),
])
def test_bound_pins(g, bound):
    assert crossing_lower_bound(g) == bound


@pytest.mark.parametrize("k", [1, 2])
def test_no_assignment_below_the_bound_is_planar(k):
    """Enumerating from zero crossings, every assignment below the bound
    fails the planarity test, and on some graphs with a positive bound an
    assignment of exactly that size passes, so a bound one too high fails
    here."""
    tight = 0
    for g in seeded_graphs(200, 11):
        assert g.m <= 12
        bound = crossing_lower_bound(g)
        for assignment in enumerate_crossing_sets(g, k):
            size = len(assignment.pairs)
            if size > bound:
                break
            skeleton = unrotated_embedding(g, assignment.pairs,
                                           assignment.edge_order)
            planar = _test_rotation(skeleton) is not None
            assert not (planar and size < bound), (sorted(g.edges.values()),
                                                   assignment)
            if planar and size == bound > 0:
                tight += 1
                break
    assert tight >= 40


@pytest.mark.parametrize("g, k", [(complete_bipartite(3, 3), 1),
                                  (cycle_graph(5), 2)])
def test_enumeration_starts_at_start(g, k):
    every = list(enumerate_crossing_sets(g, k))
    sizes = {len(a.pairs) for a in every}
    for start in range(max(sizes) + 2):
        assert list(enumerate_crossing_sets(g, k, start)) == \
            [a for a in every if len(a.pairs) >= start]


# ---------------------------------------------------------------------------
# the same decisions as a search from zero crossings
# ---------------------------------------------------------------------------

def outcome(g: Graph, pred: Predicate) -> tuple:
    """Answer, witness JSON and the witness's B/W configurations."""
    got = decide(g, pred, cap=CAP)
    if got.witness is None:
        return got.answer, None, None
    bw = None
    if pred.k == 1:
        bw = [c.to_dict() for c in find_bw_configurations(got.witness)]
    return got.answer, embedding_to_json(got.witness), bw


def from_zero(monkeypatch, g: Graph, pred: Predicate) -> tuple:
    with monkeypatch.context() as patch:
        patch.setattr(decider, "crossing_lower_bound", lambda g: 0)
        return outcome(g, pred)


@pytest.mark.parametrize("graph", sorted(NAMED))
@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_named_graphs_decide_as_from_zero(monkeypatch, graph, pred):
    g, p = NAMED[graph], PREDICATES[pred]
    got = outcome(g, p)
    assert got[0]  # every named graph is 1-planar
    assert got == from_zero(monkeypatch, g, p)


def test_seeded_graphs_decide_as_from_zero(monkeypatch):
    positive = 0
    for g in seeded_graphs(160, 5):
        positive += crossing_lower_bound(g) > 0
        for pred in PREDICATES.values():
            assert outcome(g, pred) == from_zero(monkeypatch, g, pred)
    assert positive >= 30
