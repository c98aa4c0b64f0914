"""Answers fixed by published theorems, one row per graph with its source.

The theorems speak of topological 1-planarity.  A YES row is checked
topologically, and its witness must pass the embedding validator with no
edge crossed twice, so the row does not rest on the search alone.  A
topological NO implies a geometric NO, so a NO row checks both.
"""

from __future__ import annotations

import pytest

from oneplanar.decider import Predicate, decide
from oneplanar.embedding import validate_embedding

from conftest import complete_bipartite, complete_graph

CZAP_HUDAK = ("Czap and Hudák, 1-planarity of complete multipartite graphs, "
              "Discrete Appl. Math. 2012: K_{m,n} with m <= n is 1-planar "
              "iff m <= 2, or m = 3 and n <= 6, or m = n = 4")
DENSITY = ("Pach and Tóth, Graphs drawn with few crossings per edge, "
           "Combinatorica 1997: a 1-planar graph has at most 4n - 8 edges")
WITNESS = "a drawing is its own proof: the witness, checked by the validator"

# (name, graph, 1-planar, source)
ROWS = [
    ("K1,10", complete_bipartite(1, 10), True, "planar; " + CZAP_HUDAK),
    ("K2,10", complete_bipartite(2, 10), True,
     "planar, with the two hubs at the poles; " + CZAP_HUDAK),
    ("K3,3", complete_bipartite(3, 3), True, CZAP_HUDAK),
    ("K3,4", complete_bipartite(3, 4), True, CZAP_HUDAK),
    ("K3,5", complete_bipartite(3, 5), True, CZAP_HUDAK),
    ("K4,4", complete_bipartite(4, 4), True, CZAP_HUDAK),
    ("K5", complete_graph(5), True,
     "one crossing: K5 - e is a triangulation in which the ends of e lie on "
     "two faces that share an edge"),
    ("K6", complete_graph(6), True, WITNESS),
    ("K7", complete_graph(7), False, DENSITY + ", and 21 > 4*7 - 8"),
]


@pytest.mark.parametrize("name, g, answer, source", ROWS,
                         ids=[row[0] for row in ROWS])
def test_theorem_answer(name, g, answer, source):
    verdict = decide(g, Predicate("plain"), cap=g.m)
    assert verdict.answer is answer, name
    if answer:
        emb = verdict.witness
        assert emb.graph.edges == g.edges
        validate_embedding(emb)
        assert all(emb.crossings_of_edge(e) <= 1 for e in g.edges)
    else:
        geometric = decide(g, Predicate("plain", geometric=True), cap=g.m)
        assert geometric.answer is False, name
