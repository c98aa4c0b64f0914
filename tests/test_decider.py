from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from oneplanar.decider import (
    CapExceeded,
    DecideStats,
    Predicate,
    _accepted_outer,
    _system_iter,
    canonical_key,
    decide,
    density_excludes,
    enumerate_crossing_sets,
    enumerate_embeddings,
)
from oneplanar.embedding import unrotated_embedding, validate_embedding
from oneplanar.graph import Graph, GraphError
from oneplanar.straightening import is_straightenable

import rules_oracle as oracle
from conftest import (
    complete_bipartite,
    complete_graph,
    count_independent_edge_pairs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    theta_graph,
    wheel_graph,
)


# ---------------------------------------------------------------------------
# Crossing assignments
# ---------------------------------------------------------------------------

def test_crossing_sets_c4():
    g = cycle_graph(4)
    assert count_independent_edge_pairs(g) == 2
    sets = list(enumerate_crossing_sets(g))
    # empty assignment, each opposite pair, and both pairs together
    assert [len(s.pairs) for s in sets] == [0, 1, 1, 2]


def test_crossing_sets_k3_and_2k2():
    assert len(list(enumerate_crossing_sets(complete_graph(3)))) == 1
    two_edges = Graph.build([(0, 1), (2, 3)])
    assert len(list(enumerate_crossing_sets(two_edges))) == 2


def test_crossing_sets_k2_multiplicity():
    g = Graph.build([(0, 1), (2, 3)])
    sizes = [len(s.pairs) for s in enumerate_crossing_sets(g, k=2)]
    # with k=2 the two edges may cross twice, in two distinct traversal orders
    assert sizes == [0, 1, 2, 2]


def test_crossing_orders_match_the_whole_product():
    """Filtering each edge's drawing orders before taking their product
    yields the assignments of the old product-then-scan, in the same order:
    the first 20 000 for k = 2 and 3 on K4, K5, K3,3 and 20 seeded graphs."""
    graphs = [complete_graph(4), complete_graph(5), complete_bipartite(3, 3)]
    for seed in range(20):
        rng = random.Random(seed)
        graphs.append(random_connected_graph(rng, rng.randint(5, 7),
                                             rng.randint(1, 5)))
    repeated = 0
    for g in graphs:
        for k in (2, 3):
            got = list(itertools.islice(enumerate_crossing_sets(g, k=k),
                                        20_000))
            assert got == list(itertools.islice(oracle.crossing_sets(g, k=k),
                                                20_000))
            repeated += sum(len(set(a.pairs)) < len(a.pairs) for a in got)
    assert repeated


# ---------------------------------------------------------------------------
# Embedding enumeration
# ---------------------------------------------------------------------------

def test_enumerate_embeddings_c3():
    g = complete_graph(3)
    embs = list(enumerate_embeddings(g, []))
    assert len(embs) == 2  # one rotation system up to reflection, 2 faces


def test_enumerate_embeddings_single_edge():
    g = Graph.build([(0, 1)])
    embs = list(enumerate_embeddings(g, []))
    assert len(embs) == 1
    assert len(embs[0].planarization.faces) == 1


def test_enumerate_embeddings_needs_a_connected_drawing():
    """Two triangles drawn apart are refused; crossings that join two
    components make one drawing (see ``test_k2_embedding_round_trip``)."""
    g = Graph.build([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(GraphError):
        list(enumerate_embeddings(g, []))
    two_edges = Graph.build([(0, 1), (2, 3)])
    assert len(list(enumerate_embeddings(two_edges, [(0, 1)]))) == 1


def test_enumerate_embeddings_edgeless():
    assert list(enumerate_embeddings(Graph.build([], vertices=range(3)),
                                     [])) == []


def test_enumerate_embeddings_k4_self_consistent():
    g = complete_graph(4)
    embs = list(enumerate_embeddings(g, []))
    # independent count: raw rotation products passing Euler, halved for the
    # mirror image, times the face count
    raw = 0
    ids = {v: g.incident_edges(v) for v in g.vertices}
    perms = {v: list(itertools.permutations(ids[v][1:])) for v in g.vertices}
    for combo in itertools.product(*(perms[v] for v in sorted(g.vertices))):
        rotation = {}
        for v, rest in zip(sorted(g.vertices), combo):
            order = (ids[v][0],) + rest
            rotation[v] = [(e, 0 if v == min(g.edges[e]) else 1, 0)
                           for e in order]
        from oneplanar.embedding import build_embedding, EmbeddingError
        try:
            build_embedding(g, [], rotation, outer=rotation[0][0])
            raw += 1
        except EmbeddingError:
            pass
    assert len(embs) == raw // 2 * 4


def test_enumerated_embeddings_are_valid():
    g = theta_graph((1, 2, 2))
    for emb in enumerate_embeddings(g, []):
        validate_embedding(emb)


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def test_decide_k4_geometric_yes():
    v = decide(complete_graph(4), Predicate("plain", geometric=True))
    assert v.answer and v.witness is not None
    assert is_straightenable(v.witness)


def test_decide_k5_geometric_yes():
    v = decide(complete_graph(5), Predicate("plain", geometric=True))
    assert v.answer
    assert sum(v.witness.crossings_of_edge(e) for e in v.witness.graph.edges) == 2
    assert is_straightenable(v.witness)


def test_decide_k7_no_by_density():
    g = complete_graph(7)
    assert density_excludes(g, geometric=False)
    v = decide(g, Predicate("plain"))
    assert not v.answer and v.embeddings_enumerated == 0


def test_decide_path_ab_outer():
    g = path_graph(3)
    v = decide(g, Predicate("ab-outer", a=0, b=2, geometric=True))
    assert v.answer


def test_density_guard_small_n():
    # the 4n-8 bound only applies from n=3 up; K2 is 1-planar
    assert not density_excludes(Graph.build([(0, 1)]), geometric=False)
    assert decide(Graph.build([(0, 1)]), Predicate("plain")).answer


def test_decide_cap():
    with pytest.raises(CapExceeded):
        decide(complete_graph(6), Predicate("plain"), cap=11)


def test_geometric_k2_refused():
    with pytest.raises(GraphError):
        Predicate("plain", geometric=True, k=2)


def test_decide_k2_on_c6():
    g = cycle_graph(6)
    assert decide(g, Predicate("plain", k=2), cap=6).answer


def test_k2_embedding_round_trip():
    from oneplanar.embedding import embedding_from_json, embedding_to_json
    g = Graph.build([(0, 1), (2, 3)])
    double = [a for a in enumerate_crossing_sets(g, k=2)
              if len(a.pairs) == 2][0]
    emb = next(iter(enumerate_embeddings(g, double)))
    blob = embedding_to_json(emb)
    assert "edge_crossing_order" in blob
    again = embedding_to_json(embedding_from_json(blob, k=2))
    assert blob == again


def test_geometric_decide_on_a_long_path():
    """One insertion step per edge: the search keeps its own stack, so a
    path longer than Python's recursion limit is still answered."""
    g = path_graph(1002)
    v = decide(g, Predicate(geometric=True), cap=g.m)
    assert v.answer and v.stats.rotation_systems == 1
    validate_embedding(v.witness)


def test_witness_revalidates():
    for g in (complete_graph(4), theta_graph((2, 2, 2)), cycle_graph(5)):
        v = decide(g, Predicate("plain", geometric=True))
        assert v.answer
        validate_embedding(v.witness)
        assert is_straightenable(v.witness)


def test_monotonicity_spot(rng):
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(0, 2))
        a, b = sorted(g.vertices)[:2]
        plain = decide(g, Predicate("plain", geometric=True)).answer
        outer = decide(g, Predicate("ab-outer", a=a, b=b, geometric=True)).answer
        shared = decide(g, Predicate("ab-shared", a=a, b=b, geometric=True)).answer
        if not plain:
            assert not outer and not shared
        if outer:
            assert shared  # the outer face is a face


def test_hereditary_spot(rng):
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(0, 2))
        if not decide(g, Predicate("plain", geometric=True)).answer:
            continue
        for e in list(g.edges)[:3]:
            sub = g.subgraph_of_edges(set(g.edges) - {e})
            if sub.m:
                assert decide(sub, Predicate("plain", geometric=True)).answer


def test_decide_disconnected_components():
    g = Graph.build([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert decide(g, Predicate("plain", geometric=True)).answer
    # anchors in different components still share the unbounded region
    assert decide(g, Predicate("ab-shared", a=0, b=3, geometric=True)).answer
    assert decide(g, Predicate("ab-outer", a=0, b=3, geometric=True)).answer
    v = decide(g, Predicate("plain"))
    assert v.answer and v.witness is not None
    validate_embedding(v.witness)


@pytest.mark.parametrize("k", [1, 2])
def test_decide_isolated_vertex_answers_without_witness(k):
    """K4 plus an isolated vertex: the isolated vertex has no witness to
    merge, so the YES comes without one instead of raising."""
    g = Graph.build(complete_graph(4).edges.values(), vertices=range(5))
    v = decide(g, Predicate("plain", k=k))
    assert v.answer and v.witness is None


def test_memoization_answers_match(rng):
    memo = {}
    for _ in range(6):
        g = random_connected_graph(rng, 5, 1)
        direct = decide(g, Predicate("plain", geometric=True)).answer
        memoed = decide(g, Predicate("plain", geometric=True), memo=memo).answer
        again = decide(g, Predicate("plain", geometric=True), memo=memo).answer
        assert direct == memoed == again
    assert memo


def test_memo_hit_keeps_requested_witness():
    memo = {}
    g = complete_graph(5)
    for _ in range(2):
        v = decide(g, Predicate("plain", geometric=True), memo=memo)
        assert v.answer and v.witness is not None
        validate_embedding(v.witness)
    assert decide(g, Predicate("plain", geometric=True), memo=memo,
                  want_witness=False).witness is None  # a real hit


def _stats(assignments, bound, tests, failed, systems, valid, outer,
           hits=0, insertions=0, bw=0, face=0) -> DecideStats:
    return DecideStats(
        assignments=assignments, crossing_lower_bound=bound,
        face_bound_rejections=face,
        planarity_tests=tests, planarity_failed=failed,
        insertions=insertions, rotation_systems=systems,
        valid_embeddings=valid, outer_faces_checked=outer, bw_candidates=bw,
        memo_hits=hits)


def test_decide_stats_record():
    k5, k34 = complete_graph(5), complete_bipartite(3, 4)
    # K5 (m=10, n=5, girth 3) starts at one crossing, the Euler bound; its
    # first assignment is planar
    assert decide(k5, Predicate()).stats == _stats(1, 1, 1, 0, 0, 1, 1)
    # face insertion builds its one genus-0 system (up to reflection) in 15
    # insertion steps; the B/W check builds 4 candidates
    assert decide(k5, Predicate(geometric=True)).stats == \
        _stats(1, 1, 1, 0, 1, 1, 5, insertions=15, bw=4)
    # K3,4 (m=12, n=7, girth 4) starts at 12 - 10 = 2 crossings, its
    # crossing number.  A planar planarization needs 2m - 4n + 8 = 4
    # triangles, all kite edges here, and 7 of the 8 two-crossing
    # assignments have fewer, so they are skipped without a planarity test
    # (they all failed it before the skip)
    assert decide(k34, Predicate(), cap=12).stats == \
        _stats(8, 2, 1, 0, 0, 1, 1, face=7)
    v = decide(k34, Predicate(geometric=True), cap=12)
    assert v.stats == _stats(8, 2, 1, 0, 1, 1, 4, insertions=21, bw=5,
                             face=7)
    assert v.embeddings_enumerated == 1
    # opposite octahedron vertices share no face of its plane embedding: with
    # the apex on them, every assignment below two crossings is non-planar;
    # the plane octahedron has girth 3 and 3n - 6 = m edges, so the bound is
    # 0.  It needs 8 triangles, and it has 8: the assignment with no
    # crossing is tested and fails, and 61 of the other 62 have too few
    octahedron = Graph.build([(u, v) for u in range(6) for v in range(u + 1, 6)
                              if u // 2 != v // 2])
    assert decide(octahedron, Predicate("ab-outer", a=0, b=1),
                  cap=12).stats == _stats(63, 0, 2, 1, 0, 1, 2, face=61)
    # components are summed: K5 as above, K3,3 (girth 4) from its bound 1
    two = Graph.build([*k5.edges.values(),
                       *((u + 5, v + 5) for u, v in
                         complete_bipartite(3, 3).edges.values())])
    assert decide(two, Predicate()).stats == _stats(2, 2, 2, 0, 0, 2, 2)
    # a memo hit is counted as a hit, not as zero work
    memo: dict = {}
    first = decide(k5, Predicate(geometric=True), memo=memo,
                   want_witness=False)
    assert first.stats == _stats(1, 1, 1, 0, 1, 1, 5, insertions=15, bw=4)
    hit = decide(complete_graph(5), Predicate(geometric=True), memo=memo,
                 want_witness=False)
    assert hit.answer and hit.stats == _stats(0, 0, 0, 0, 0, 0, 0, hits=1)
    # K7 has 21 > 4n - 8 edges: density rules it out before any search
    assert decide(complete_graph(7), Predicate()).stats == \
        DecideStats(density_rejections=1)


def test_decide_k35_plain_stats():
    """K3,5 (m=15, n=8, girth 4) starts at its girth bound 3, one below its
    crossing number 4.  A planar planarization needs 2m - 4n + 8 = 6
    triangles, all kite edges: 15 616 of the 17 312 assignments of three
    and four crossings have fewer and are skipped without a planarity
    test; of the 1696 tested, only the last passes."""
    assert decide(complete_bipartite(3, 5), Predicate(), cap=15).stats == \
        _stats(17312, 3, 1696, 1695, 0, 1, 1, face=15616)


def test_rotation_enumeration_matches_known_planarity():
    # a valid zero-crossing rotation system exists iff the graph is planar
    def planar(g):
        return any(True for _ in enumerate_embeddings(g, []))

    from conftest import complete_bipartite, wheel_graph
    prism = Graph.build([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                         (0, 3), (1, 4), (2, 5)])
    octahedron = Graph.build([(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3),
                              (1, 4), (1, 5), (2, 4), (4, 3), (3, 5), (5, 2)])
    for g in (complete_graph(4), wheel_graph(5), prism, octahedron,
              theta_graph((2, 3, 4))):
        assert planar(g)
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        assert not planar(g)


def test_kplanar_kernel_equivalence_spot():
    from oneplanar.kernel import kernelize
    from oneplanar.graph import subdivide_all_edges
    for g in (cycle_graph(5), theta_graph((1, 2, 2)), complete_graph(4)):
        res = kernelize(g, "kplanar", k=2)
        orig = decide(g, Predicate("plain", k=2), cap=12,
                      want_witness=False)
        kern = decide(res.kernel, Predicate("plain", k=1),
                      cap=12, want_witness=False)
        assert orig.answer == kern.answer


def test_canonical_key_isomorphism_invariant():
    g1 = Graph.build([(0, 1), (1, 2), (2, 3)])
    g2 = Graph.build([(7, 5), (5, 9), (9, 4)])
    assert canonical_key(g1, (0,)) == canonical_key(g2, (7,))
    assert canonical_key(g1, (0,)) != canonical_key(g2, (9,))


def relabeled(g: Graph, anchors: tuple[int, ...], ids: list[int]):
    """(g, anchors) with the i-th smallest vertex renamed ids[i]."""
    name = dict(zip(sorted(g.vertices), ids))
    return (Graph.build([(name[u], name[v]) for u, v in g.edges.values()],
                        vertices=name.values()),
            tuple(name[a] for a in anchors))


def key_cases(rng, count: int):
    """Seeded graphs on 1 to 8 vertices, isolated vertices allowed, with 0, 1
    or 2 anchors; each comes with three random relabelings onto ids below 20
    and one increasing relabeling, so some keys are shared."""
    for _ in range(count):
        n = rng.randint(1, 8)
        density = rng.random()
        g = Graph.build([p for p in itertools.combinations(range(n), 2)
                         if rng.random() < density], vertices=range(n))
        anchors = tuple(rng.sample(range(n), min(n, rng.randint(0, 2))))
        yield [relabeled(g, anchors, rng.sample(range(20), n))
               for _ in range(3)] + [
                   relabeled(g, anchors, sorted(rng.sample(range(20), n)))]


def keyed(rng, count: int) -> list[list[tuple[Graph, tuple[int, ...]]]]:
    """The cases of ``key_cases`` grouped by key; the groups of two or more."""
    groups: dict = {}
    for case in key_cases(rng, count):
        for g, anchors in case:
            groups.setdefault(canonical_key(g, anchors), []).append(
                (g, anchors))
    return [group for group in groups.values() if len(group) > 1]


def test_canonical_key_equal_only_on_anchored_isomorphism(rng):
    """Soundness: graphs with one key are isomorphic by a map that takes the
    anchors to the anchors in order, so a memo hit never changes an
    answer."""
    nx = pytest.importorskip("networkx")

    def nx_graph(g, anchors):
        h = nx.Graph()
        h.add_nodes_from(g.vertices, anchor=-1)
        h.add_edges_from(g.edges.values())
        for i, a in enumerate(anchors):
            h.nodes[a]["anchor"] = i
        return h

    groups = keyed(rng, 300)
    for group in groups:
        first = nx_graph(*group[0])
        for other in group[1:]:
            assert nx.is_isomorphic(
                first, nx_graph(*other),
                node_match=lambda x, y: x["anchor"] == y["anchor"])
    assert sum(len(group) for group in groups) >= 600


def test_canonical_key_ignores_increasing_relabelings(rng):
    for case in key_cases(rng, 300):
        g, anchors = case[0]
        for _ in range(3):
            ids = sorted(rng.sample(range(40), g.n))
            assert canonical_key(*relabeled(g, anchors, ids)) == \
                canonical_key(g, anchors)


def test_canonical_key_equal_implies_old_key_equal(rng):
    """Where the breadth-first keys are equal, so are the old
    colour-refinement keys, except those that fell back to the labeled
    graph."""
    shared = 0
    for group in keyed(rng, 300):
        old = {oracle.canonical_key(g, anchors) for g, anchors in group}
        old = {key for key in old if key[0] != "labeled"}
        assert len(old) <= 1
        shared += bool(old)
    assert shared >= 150


def test_canonical_key_matches_its_first_body(rng):
    """The key sorts the vertices only when a search runs out and orders
    each edge pair without min and max; the keys are those of the first
    body, on 10 000 seeded graphs with 0 to 2 anchors."""
    checked = 0
    for case in key_cases(rng, 2500):
        for g, anchors in case:
            assert canonical_key(g, anchors) == oracle.bfs_key(g, anchors)
            checked += 1
    assert checked == 10_000


def test_accepted_outer_matches_the_two_branch_loop(rng):
    """The one acceptance test picks the outer face the old topological and
    geometric branches picked, on every rotation system of the graphs
    (crossing counts capped where the enumeration grows), under every
    variant and anchor choice."""
    graphs = [(complete_graph(4), 6), (complete_bipartite(3, 3), 2),
              (wheel_graph(5), 1), (complete_graph(5), 1)]
    graphs += [(random_connected_graph(rng, rng.randint(4, 6),
                                       rng.randint(0, 4)), 1)
               for _ in range(6)]
    picked = set()
    for g, most in graphs:
        vs = sorted(g.vertices)
        preds = [Predicate("plain")]
        preds += [Predicate("a-outer", a=a) for a in vs]
        preds += [Predicate(variant, a=a, b=b)
                  for variant in ("ab-outer", "ab-shared")
                  for a, b in itertools.combinations(vs, 2)]
        for assignment in enumerate_crossing_sets(g):
            if len(assignment.pairs) > most:
                break
            skeleton = unrotated_embedding(g, assignment.pairs)
            for emb in _system_iter(skeleton, DecideStats()):
                for pred in preds:
                    for geometric in (False, True):
                        p = dataclasses.replace(pred, geometric=geometric)
                        want = oracle.accepted_outer(emb, p)
                        got = _accepted_outer(emb, p, DecideStats())
                        assert got == want
                        picked.add((geometric, want is None))
    assert picked == {(False, False), (False, True), (True, False),
                      (True, True)}
