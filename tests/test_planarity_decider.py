"""The decider against the rotation-system loop it replaced
(``tests/rotation_oracle.py``), on named graphs and seeded random connected
graphs, under the six benchmark predicates plus topological a-outer and
ab-outer.

Verdicts must agree.  Every witness, the planarity test's embedding or,
for a geometric predicate that rejects it, a system of the rotation
search, must pass ``check-embedding`` (its JSON must read back through
``embedding_from_json``, which validates it), embed the graph and place its
anchors; a geometric witness must also leave no B/W configuration for its
outer face.  A geometric verdict examines at most one embedding more than
the rotation loop per assignment that passes the planarity test, the
test's own; geometric ab-outer and ab-shared count the loop's embeddings
only over the assignments that pass the apex test."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from oneplanar import decider
from oneplanar.decider import (
    DecideStats,
    Predicate,
    _accepted_outer,
    _test_rotation,
    crossing_lower_bound,
    decide,
    density_excludes,
    enumerate_crossing_sets,
)
from oneplanar.embedding import (
    embedding_from_json,
    embedding_to_json,
    unrotated_embedding,
)
from oneplanar.graph import Graph
from oneplanar.straightening import find_bw_configurations

import rotation_oracle as oracle
from conftest import (
    complete_bipartite,
    complete_graph,
    random_connected_graph,
    wheel_graph,
)

CAP = 16

PREDICATES = {
    "plain": Predicate(),
    "geo": Predicate(geometric=True),
    "ab-outer-geo": Predicate("ab-outer", a=0, b=1, geometric=True),
    "ab-shared": Predicate("ab-shared", a=0, b=2),
    "a-outer-geo": Predicate("a-outer", a=0, geometric=True),
    "k2": Predicate(k=2),
    "a-outer": Predicate("a-outer", a=0),
    "ab-outer": Predicate("ab-outer", a=0, b=1),
}

NAMED = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K3,3": complete_bipartite(3, 3),
    "K3,4": complete_bipartite(3, 4),
    "W5": wheel_graph(5),
    "W8": wheel_graph(8),
    "K2,2,2": Graph.build([(u, v) for u in range(6) for v in range(u + 1, 6)
                           if u // 2 != v // 2]),
}

# The old loop needs about 30 s for each of these, so only the new verdict
# and its witness are checked there.
ORACLE_TOO_SLOW = {("K2,2,2", "ab-outer"), ("K2,2,2", "ab-outer-geo")}


def random_graphs() -> list[Graph]:
    """100 random connected graphs, and 50 random labellings of K3,3 grown
    by one edge, one pendant edge or one subdivision, so that a third of
    the sample is not planar; every graph has at most 10 edges."""
    rng = random.Random(20090101)
    out = []
    for _ in range(100):
        n = rng.randint(4, 7)
        extra = rng.randint(0, min(10 - (n - 1), (n - 1) * (n - 2) // 2))
        out.append(random_connected_graph(rng, n, extra))
    for _ in range(50):
        n = rng.randint(6, 7)
        label = rng.sample(range(n), n)
        pairs = {(label[i], label[j]) for i in range(3) for j in range(3, 6)}
        if n == 7 and rng.random() < 0.5:  # subdivide an edge
            u, w = rng.choice(sorted(pairs))
            pairs -= {(u, w)}
            pairs |= {(u, label[6]), (label[6], w)}
        elif n == 7:  # hang a pendant edge
            pairs.add((rng.choice(label[:6]), label[6]))
        else:  # add an edge inside one side
            i, j = rng.sample(range(3), 2)
            side = rng.choice((0, 3))
            pairs.add((label[side + i], label[side + j]))
        out.append(Graph.build(sorted(pairs)))
    return out


def check_witness(emb, g: Graph, pred: Predicate) -> None:
    back = embedding_from_json(embedding_to_json(emb), k=pred.k)
    assert set(back.graph.edges.values()) == set(g.edges.values())
    outer = back.face_vertices(back.outer_face)
    if pred.variant in ("a-outer", "ab-outer"):
        assert pred.a in outer
    if pred.variant == "ab-outer":
        assert pred.b in outer
    if pred.variant == "ab-shared":
        assert back.shared_region(pred.a, pred.b) is not None
    if pred.geometric:
        assert not find_bw_configurations(back)


def apex_gated_count(g: Graph, pred: Predicate) -> int:
    """The rotation loop's count of valid embeddings up to its answer, over
    only the assignments whose planarization has a face holding a and b,
    by the apex test the decider runs first."""
    if density_excludes(g, pred.geometric):
        return 0
    count = 0
    for assignment in enumerate_crossing_sets(g, pred.k):
        skeleton = unrotated_embedding(g, assignment.pairs,
                                       assignment.edge_order)
        if _test_rotation(skeleton, pred.anchors) is None:
            continue
        for emb in oracle.system_iter(g, assignment):
            count += 1
            if _accepted_outer(emb, pred, DecideStats()) is not None:
                return count
    return count


def compare(g: Graph, pred: Predicate) -> bool:
    answer, witness, count = oracle.decide_connected(g, pred, CAP, True)
    got = decide(g, pred, cap=CAP)
    assert got.answer == answer
    if pred.geometric:
        if pred.variant in ("ab-outer", "ab-shared"):
            count = apex_gated_count(g, pred)
        passed = got.stats.planarity_tests - got.stats.planarity_failed
        assert got.embeddings_enumerated <= count + passed
        assert (got.witness is None) == (witness is None)
    if got.answer:
        check_witness(got.witness, g, pred)
    return got.answer


@pytest.mark.parametrize("graph", sorted(NAMED))
@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_named_graphs_match_the_rotation_loop(graph, pred):
    g, p = NAMED[graph], PREDICATES[pred]
    if (graph, pred) in ORACLE_TOO_SLOW:
        got = decide(g, p, cap=CAP)
        assert got.answer
        check_witness(got.witness, g, p)
    else:
        assert compare(g, p)  # every named graph is 1-planar


def test_random_graphs_match_the_rotation_loop():
    crossed = 0
    for g in random_graphs():
        assert g.m <= 10 and g.is_connected()
        for pred in PREDICATES.values():
            compare(g, pred)
        crossed += bool(decide(g, Predicate()).witness.crossings)
    assert crossed >= 50


def test_parallel_segments_reach_the_test_as_parallel_edges():
    """Two edges crossing twice (k = 2) leave two parallel segments between
    the dummies; the test takes them as they are, and its rotation is a
    genus-0 rotation of the planarization."""
    g = Graph.build([(0, 1), (2, 3)])
    doubles = [a for a in enumerate_crossing_sets(g, k=2) if len(a.pairs) == 2]
    assert doubles
    for a in doubles:
        skeleton = unrotated_embedding(g, a.pairs, a.edge_order)
        segments = skeleton.planarization.segments
        assert len({frozenset(s) for s in segments}) < len(segments)
        rotation = _test_rotation(skeleton)
        assert rotation is not None
        emb = dataclasses.replace(skeleton, rotation=rotation, outer=0)
        emb.planarization.check_genus_zero()


@pytest.mark.parametrize("k,tests,lenses", [(2, 1313, 100), (3, 1499, 170)])
def test_k6_planarizations_with_parallel_segments_fail(k, tests, lenses):
    """Every planarization the K6 search tests before its witness, and so
    each of those with parallel segments, fails the test, as networkx
    agrees; the witness, as ``decide --witness`` writes it, is the one
    recorded when parallel segments were still subdivided for the test."""
    nx = pytest.importorskip("networkx")
    g = complete_graph(6)
    got = decide(g, Predicate(k=k), cap=CAP)
    assert got.answer and got.stats.planarity_tests == tests
    text = embedding_to_json(got.witness) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e04c30fce6bc3b317469156979a987b9e70e365c0fba435251b7bf9f2d4a73b7")
    seen = 0
    for a in enumerate_crossing_sets(g, k, crossing_lower_bound(g)):
        skeleton = unrotated_embedding(g, a.pairs, a.edge_order)
        segments = skeleton.planarization.segments
        if _test_rotation(skeleton) is not None:
            break
        seen += 1
        if len({frozenset(s) for s in segments}) < len(segments):
            lenses -= 1
            assert not nx.check_planarity(nx.Graph(segments))[0]
    assert seen == tests - 1 and lenses == 0


def test_topological_witnesses_and_stats_keep_their_bytes():
    """The geometric search's use of the test embedding leaves every
    topological call alone: over the named and random graphs under the
    five topological predicates (785 calls), the answers, witness JSON and
    ``DecideStats`` hash to the sha256 recorded before the change."""
    digest = hashlib.sha256()
    calls = 0
    for g in [NAMED[name] for name in sorted(NAMED)] + random_graphs():
        for name in sorted(PREDICATES):
            pred = PREDICATES[name]
            if pred.geometric:
                continue
            got = decide(g, pred, cap=CAP)
            text = ("None" if got.witness is None
                    else embedding_to_json(got.witness))
            stats = json.dumps(vars(got.stats), sort_keys=True)
            digest.update(f"{name} {got.answer} {text} {stats}\n".encode())
            calls += 1
    assert calls == 785
    assert digest.hexdigest() == (
        "b171b1b823b9b90e9345cec1394baa074cefd67d5af96801960554be73a72b57")


@pytest.mark.parametrize("graph", ["K3,4", "K2,2,2"])
def test_rejected_test_embedding_falls_back_to_the_rotation_search(graph):
    """Under geometric ab-outer with a = 0 and b = 1, the first assignment
    that passes the apex test has a test embedding with no accepted outer
    face; the rotation search then builds one system there, rejects it
    too, and the next assignment's test embedding is accepted."""
    g = NAMED[graph]
    pred = Predicate("ab-outer", a=0, b=1, geometric=True)
    got = decide(g, pred, cap=CAP)
    assert got.answer
    assert got.stats.rotation_systems == 1
    assert got.stats.valid_embeddings == 3
    check_witness(got.witness, g, pred)


@pytest.mark.parametrize("pred", ["geo", "ab-outer-geo", "a-outer-geo"])
@pytest.mark.parametrize("graph", ["K5", "K3,3", "K3,4"])
def test_non_alternating_test_embedding_is_skipped(monkeypatch, graph,
                                                   pred):
    """The geometric search uses the test's rotation only when every dummy
    alternates, by the check ``validate_embedding`` makes.  With a test
    whose rotation has a dummy where two edges touch, ``decide`` falls back
    to the rotation search: same answer, a witness that validates, and
    every embedding it examines is a rotation system."""
    g, p = NAMED[graph], PREDICATES[pred]
    want = decide(g, p, cap=CAP)
    test_rotation = _test_rotation

    def bad(skeleton, apex=()):
        """The test's rotation with the middle darts of the first dummy
        swapped, so that its two edges touch there instead of crossing."""
        rotation = test_rotation(skeleton, apex)
        if rotation is None or not skeleton.crossings:
            return rotation
        dummy = skeleton.crossings[0].dummy
        a, b, c, d = rotation[dummy]
        return {**rotation, dummy: (a, c, b, d)}

    monkeypatch.setattr(decider, "_test_rotation", bad)
    got = decide(g, p, cap=CAP)
    assert got.answer == want.answer
    assert got.stats.rotation_systems == got.stats.valid_embeddings >= 1
    assert got.witness.crossings
    check_witness(got.witness, g, p)
