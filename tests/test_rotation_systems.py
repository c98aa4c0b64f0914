"""Rotation systems by face insertion (``decider._system_iter``) against the
product loop it replaced (``rotation_oracle.system_iter``): the same
rotation dicts in the same order, on every crossing assignment up to a
crossing bound.  The insertion order (``decider._insertion_steps``) is
checked against its version that took each next node by a ``max`` over
every unplaced node (``rotation_oracle.insertion_steps``).

W8's hub alone has 2520 pinned rotations, so the product loop takes minutes
per assignment there; W8 is checked against independent facts instead."""

from __future__ import annotations

import random

import pytest

from oneplanar import decider
from oneplanar.decider import (
    DecideStats,
    Predicate,
    _insertion_steps,
    _system_iter,
    _test_rotation,
    decide,
    enumerate_crossing_sets,
)
from oneplanar.embedding import unrotated_embedding, validate_embedding
from oneplanar.graph import Graph

import rotation_oracle as oracle
from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    wheel_graph,
)
from test_planarity_decider import NAMED, random_graphs


def assert_same_sequence(g: Graph, most: int, k: int = 1) -> int:
    """Compare the two enumerators on every assignment of at most ``most``
    crossings; the number of systems seen."""
    seen = 0
    for assignment in enumerate_crossing_sets(g, k):
        if len(assignment.pairs) > most:
            break
        stats = DecideStats()
        skeleton = unrotated_embedding(g, assignment.pairs,
                                       assignment.edge_order)
        got = [emb.rotation for emb in _system_iter(skeleton, stats)]
        want = [emb.rotation for emb in oracle.system_iter(g, assignment)]
        assert got == want, assignment
        assert stats.rotation_systems == len(got)
        seen += len(got)
    return seen


@pytest.mark.parametrize("graph, most", [
    ("K4", 6), ("K5", 1), ("K3,3", 2), ("W5", 2), ("K2,2,2", 0)])
def test_named_graphs_match_the_product_loop(graph, most):
    assert assert_same_sequence(NAMED[graph], most)


def test_random_graphs_match_the_product_loop():
    assert sum(assert_same_sequence(g, 1) for g in random_graphs()) > 1000


def test_double_crossings_match_the_product_loop():
    """k = 2: two edges may cross twice, leaving parallel segments."""
    assert assert_same_sequence(Graph.build([(0, 1), (2, 3)]), 2, k=2)
    assert assert_same_sequence(cycle_graph(4), 3, k=2)
    assert assert_same_sequence(complete_graph(4), 2, k=2)


@pytest.mark.parametrize("k", [1, 2])
def test_insertion_steps_match_the_max_order(k):
    """On seeded planarizations, among them some with ties in reach and
    long paths, the heap takes the nodes in the order of the ``max`` over
    every unplaced node, so the steps are the same."""
    rng = random.Random(1997 + k)
    graphs = [path_graph(60), cycle_graph(40), star_graph(9),
              wheel_graph(12), complete_graph(5)]
    graphs += [random_connected_graph(rng, rng.randint(3, 12),
                                      rng.randint(0, 10)) for _ in range(120)]
    compared = 0
    for g in graphs:
        assignments = []
        for assignment in enumerate_crossing_sets(g, k):
            if len(assignment.pairs) > 2 or len(assignments) > 40:
                break
            assignments.append(assignment)
        for assignment in rng.sample(assignments, min(5, len(assignments))):
            skeleton = unrotated_embedding(g, assignment.pairs,
                                           assignment.edge_order)
            plan = skeleton.planarization
            if len(plan.components) > 1:
                continue
            dummies = {c.dummy for c in skeleton.crossings}
            assert _insertion_steps(plan, dummies) == \
                oracle.insertion_steps(plan, dummies), assignment
            compared += 1
    assert compared > 400


def test_wheel8_against_independent_facts():
    """On W8 with at most one crossing: systems exist exactly when the
    planarity test passes; each one is a valid embedding whose pivot (the
    hub) has a smaller second dart than last; they come strictly in product
    order; and a 3-connected planarization has exactly one (Whitney)."""
    nx = pytest.importorskip("networkx")
    g = wheel_graph(8)
    unique = 0
    for assignment in enumerate_crossing_sets(g):
        if len(assignment.pairs) > 1:
            break
        skeleton = unrotated_embedding(g, assignment.pairs)
        embs = list(_system_iter(skeleton, DecideStats()))
        assert bool(embs) == (_test_rotation(skeleton) is not None)
        nodes = sorted(skeleton.planarization.node_darts)
        keys = [[emb.rotation[v] for v in nodes] for emb in embs]
        assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)
        for emb in embs:
            validate_embedding(emb)
            assert emb.rotation[0][1] < emb.rotation[0][-1]
        plan = nx.Graph(skeleton.planarization.segments)
        if embs and nx.node_connectivity(plan) >= 3:
            assert len(embs) == 1
            unique += 1
    assert unique > 10


def test_past_the_sort_limit_systems_stream_in_build_order(monkeypatch):
    """K1,6 has 60 rotation systems up to reflection.  Past
    ``SORTED_SYSTEMS`` they come in build order: the same systems as the
    product loop, each once, in another order."""
    g = star_graph(6)
    assignment = next(enumerate_crossing_sets(g))
    want = [emb.rotation for emb in oracle.system_iter(g, assignment)]
    monkeypatch.setattr(decider, "SORTED_SYSTEMS", 10)
    skeleton = unrotated_embedding(g, assignment.pairs)
    got = [emb.rotation for emb in _system_iter(skeleton, DecideStats())]
    assert len(got) == len(want) == 60 and got != want
    assert sorted(sorted(rot.items()) for rot in got) == \
        sorted(sorted(rot.items()) for rot in want)


def test_star_geometric_answers_from_its_first_systems():
    """K1,11 has 10!/2 genus-0 systems; building them all would pass the
    insertion budget, but past ``SORTED_SYSTEMS`` they stream, so the
    first one comes after ``SORTED_SYSTEMS + 1`` are built.  ``decide``
    accepts the planarity test's embedding and builds none."""
    g = star_graph(11)
    stats = DecideStats()
    systems = _system_iter(unrotated_embedding(g, []), stats)
    validate_embedding(next(systems))
    assert stats.rotation_systems == decider.SORTED_SYSTEMS + 1
    v = decide(g, Predicate(geometric=True))
    assert v.answer and v.witness is not None
    assert v.stats.rotation_systems == 0 and v.stats.insertions == 0
