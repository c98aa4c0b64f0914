from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from oneplanar.decider import enumerate_embeddings
from oneplanar.embedding import build_embedding
from oneplanar.graph import Graph, GraphError
from oneplanar.straightening import (
    LMRWord,
    candidate_configurations,
    find_bw_configurations,
    is_straightenable,
    lmr_word,
)

from conftest import complete_bipartite, complete_graph
from test_embedding import k4_planar, k5_one_crossing


def minimal_b(outer=(0, 0, 0)):
    """Edge ab plus one (a,b)-crossing pair with both far endpoints tucked
    inside; a=0 b=1 a'=2 b'=3, dummy 4.  Edge ids: (0,1)=0 (0,2)=1 (1,3)=2."""
    g = Graph.build([(0, 1), (0, 2), (1, 3)])
    rotation = {
        0: [(0, 0, 0), (1, 0, 0)],
        1: [(2, 0, 0), (0, 1, 0)],
        2: [(1, 1, 1)],
        3: [(2, 1, 1)],
        4: [(1, 1, 0), (2, 0, 1), (1, 0, 1), (2, 1, 0)],
    }
    return build_embedding(g, [(1, 2)], rotation, outer=outer)


def minimal_w():
    """Two (a,b)-crossing pairs, all four far endpoints inside; a=0 b=1.
    Edge ids: (0,2)=0 (0,4)=1 (1,3)=2 (1,5)=3; dummies 6, 7."""
    g = Graph.build([(0, 2), (0, 4), (1, 3), (1, 5)])
    rotation = {
        0: [(1, 0, 0), (0, 0, 0)],
        1: [(2, 0, 0), (3, 0, 0)],
        2: [(0, 1, 1)],
        3: [(2, 1, 1)],
        4: [(1, 1, 1)],
        5: [(3, 1, 1)],
        6: [(0, 1, 0), (2, 0, 1), (0, 0, 1), (2, 1, 0)],
        7: [(3, 1, 0), (1, 0, 1), (3, 0, 1), (1, 1, 0)],
    }
    return build_embedding(g, [(0, 2), (1, 3)], rotation, outer=(1, 0, 0))


def _figure_embedding(c1_rotation, c2_rotation):
    """The three-strand figure: a=0 b=1, edge ab, one crossing pair per side.
    Edge ids: (0,1)=0 (0,2)=1 (0,4)=2 (1,3)=3 (1,5)=4; dummies 6, 7."""
    g = Graph.build([(0, 1), (0, 2), (0, 4), (1, 3), (1, 5)])
    rotation = {
        0: [(2, 0, 0), (0, 0, 0), (1, 0, 0)],
        1: [(3, 0, 0), (0, 1, 0), (4, 0, 0)],
        2: [(1, 1, 1)],
        3: [(3, 1, 1)],
        4: [(2, 1, 1)],
        5: [(4, 1, 1)],
        6: c1_rotation,
        7: c2_rotation,
    }
    return build_embedding(g, [(1, 3), (2, 4)], rotation, outer=(2, 0, 0))


def figure_lmr():
    return _figure_embedding(
        [(1, 1, 0), (3, 1, 0), (1, 0, 1), (3, 0, 1)],   # right-crossing
        [(2, 1, 0), (4, 0, 1), (2, 0, 1), (4, 1, 0)])   # left-crossing


def figure_rml():
    return _figure_embedding(
        [(1, 1, 0), (3, 0, 1), (1, 0, 1), (3, 1, 0)],   # left-crossing
        [(2, 1, 0), (4, 1, 0), (2, 0, 1), (4, 0, 1)])   # right-crossing


def single_left_pair():
    g = Graph.build([(0, 2), (1, 3)])
    rotation = {
        0: [(0, 0, 0)],
        1: [(1, 0, 0)],
        2: [(0, 1, 1)],
        3: [(1, 1, 1)],
        4: [(0, 1, 0), (1, 0, 1), (0, 0, 1), (1, 1, 0)],
    }
    return build_embedding(g, [(0, 1)], rotation, outer=(0, 0, 0))


# ---------------------------------------------------------------------------
# B / W detection
# ---------------------------------------------------------------------------

def test_minimal_b_detected():
    configs = find_bw_configurations(minimal_b())
    assert [c.kind for c in configs] == ["B"]
    assert configs[0].anchors == (0, 1)
    assert not is_straightenable(minimal_b())


def test_b_is_outer_face_sensitive():
    # re-rooting the outer face to the bounded side eliminates the B
    inside = minimal_b(outer=(1, 0, 0))
    assert find_bw_configurations(inside) == []
    assert is_straightenable(inside)


def test_minimal_w_detected():
    configs = find_bw_configurations(minimal_w())
    assert [c.kind for c in configs] == ["W"]
    assert configs[0].anchors == (0, 1)


def test_crossing_free_embeddings_are_clean():
    assert find_bw_configurations(k4_planar()) == []
    assert is_straightenable(k4_planar())


def test_k5_straight_line_drawing_straightenable():
    assert is_straightenable(k5_one_crossing())


# sha256 over every embedding that ``enumerate_embeddings`` yields for one
# independent crossing pair, every pair in edge order: (number of
# embeddings, number of configurations, configurations as
# ``find_bw_configurations`` lists them, and per candidate the outer faces it
# is a configuration for, as ``decider._accepted_outer`` reads them)
BW_PINS = {
    "K5": (120, 60,
           "0a1d00247c0fa05f951054ca13d7aabad96f69c8ba076d44b3ede598a9131668",
           "f841a6385e3de1d8a252d57274f93815f64a6dc43603ebcde649b569303ad723"),
    "K3,3": (108, 36,
             "4e7ad9b809e3ea75f129319664c104802b6e17f7a05cf998f3a9510b5b38354e",
             "fbfd7fa7a323693cd742e32e90f227fad0c323464f1805c490206cf6cfdaea8e"),
}


def _one_pair_embeddings(g):
    for e1, e2 in itertools.combinations(sorted(g.edges), 2):
        if not set(g.edges[e1]) & set(g.edges[e2]):
            yield from enumerate_embeddings(g, [(e1, e2)])


@pytest.mark.parametrize("name", sorted(BW_PINS))
def test_bw_lists_are_pinned(name):
    g = {"K5": complete_graph(5), "K3,3": complete_bipartite(3, 3)}[name]
    embs = list(_one_pair_embeddings(g))
    found = [[c.to_dict() for c in find_bw_configurations(emb)]
             for emb in embs]
    accepted = [[[c.is_configuration(f)
                  for f in range(len(emb.planarization.faces))]
                 for c in candidate_configurations(emb)] for emb in embs]

    def sha(obj) -> str:
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    assert (len(embs), sum(map(len, found)), sha(found),
            sha(accepted)) == BW_PINS[name]


# ---------------------------------------------------------------------------
# LMR words (figure reproduction)
# ---------------------------------------------------------------------------

def test_figure_lmr_clean():
    emb = figure_lmr()
    word = lmr_word(emb, 0, 1)
    assert word.word == "LMR"
    assert word.matches_pattern()
    assert find_bw_configurations(emb) == []


def test_figure_rml_two_b_one_w():
    emb = figure_rml()
    word = lmr_word(emb, 0, 1)
    assert word.word == "RML"
    assert not word.matches_pattern()
    configs = find_bw_configurations(emb)
    kinds = sorted(c.kind for c in configs)
    assert kinds == ["B", "B", "W"]
    assert set(word.bad_subwords()) == {"RL", "RM", "ML"}


def test_single_left_pair_word():
    emb = single_left_pair()
    word = lmr_word(emb, 0, 1)
    assert word.word == "L"
    assert word.matches_pattern()
    assert find_bw_configurations(emb) == []


def test_lmr_word_rejects_foreign_edges():
    with pytest.raises(GraphError):
        lmr_word(k5_one_crossing(), 0, 1)


def test_restriction_of_straightenable_is_clean():
    # restricting a straightenable embedding to the edges of an anchored
    # crossing pair (plus the anchor edge) keeps it free of configurations
    from oneplanar.embedding import restrict

    emb = k5_one_crossing()
    assert is_straightenable(emb)
    g = emb.graph
    (e1, e2) = emb.crossings[0].edges
    for a in g.edges[e1]:
        for b in g.edges[e2]:
            keep = {e1, e2}
            ab = g.edge_between(a, b)
            if ab is not None:
                keep.add(ab)
            sub = restrict(emb, keep)
            assert find_bw_configurations(sub) == []
            word = lmr_word(sub, a, b)
            assert word.matches_pattern()


def test_pattern_matcher():
    assert LMRWord("", (0, 0, 0)).matches_pattern()
    assert LMRWord("LLRR", (0, 0, 0)).matches_pattern()
    assert LMRWord("LMR", (0, 0, 0)).matches_pattern()
    assert not LMRWord("RL", (0, 0, 0)).matches_pattern()
    assert not LMRWord("MM", (0, 0, 0)).matches_pattern()
    assert not LMRWord("LRL", (0, 0, 0)).matches_pattern()
