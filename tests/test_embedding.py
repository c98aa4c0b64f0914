from __future__ import annotations

import random
from collections import Counter

import pytest

from oneplanar.embedding import (
    EmbeddingError,
    Planarization,
    build_embedding,
    crossing_orientation,
    embedding_from_json,
    embedding_to_json,
    restrict,
)
from oneplanar.graph import Graph

from conftest import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
    wheel_graph,
)


# ---------------------------------------------------------------------------
# Fixture embeddings (rotations derived from explicit drawings)
# ---------------------------------------------------------------------------

def k4_planar():
    """K4 drawn with vertex 3 inside triangle 0,1,2."""
    g = complete_graph(4)
    rotation = {
        0: [(1, 0, 0), (2, 0, 0), (0, 0, 0)],
        1: [(0, 1, 0), (4, 0, 0), (3, 0, 0)],
        2: [(3, 1, 0), (5, 0, 0), (1, 1, 0)],
        3: [(4, 1, 0), (2, 1, 0), (5, 1, 0)],
    }
    return build_embedding(g, [], rotation, outer=(1, 0, 0))


def k4_toroidal_rotation():
    """Every rotation lists neighbors in ascending order: genus 1."""
    g = complete_graph(4)
    rotation = {
        0: [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
        1: [(0, 1, 0), (3, 0, 0), (4, 0, 0)],
        2: [(1, 1, 0), (3, 1, 0), (5, 0, 0)],
        3: [(2, 1, 0), (4, 1, 0), (5, 1, 0)],
    }
    return g, rotation


def k5_one_crossing():
    """Straight-line K5: hull 4,1,2 with 0 and 3 inside; edge (3,4) crosses
    (0,1).  Edge ids: (0,1)=0 (0,2)=1 (0,3)=2 (0,4)=3 (1,2)=4 (1,3)=5
    (1,4)=6 (2,3)=7 (2,4)=8 (3,4)=9; dummy vertex 5."""
    g = complete_graph(5)
    rotation = {
        0: [(1, 0, 0), (2, 0, 0), (0, 0, 0), (3, 0, 0)],
        1: [(0, 1, 1), (5, 0, 0), (4, 0, 0), (6, 0, 0)],
        2: [(4, 1, 0), (7, 0, 0), (1, 1, 0), (8, 0, 0)],
        3: [(7, 1, 0), (5, 1, 0), (9, 0, 0), (2, 1, 0)],
        4: [(8, 1, 0), (3, 1, 0), (9, 1, 1), (6, 1, 0)],
        5: [(9, 1, 0), (0, 0, 1), (9, 0, 1), (0, 1, 0)],
    }
    return build_embedding(g, [(9, 0)], rotation, outer=(8, 1, 0))


def w5_planar():
    """Wheel with hub 0 and rim 1..5, rim face outer."""
    g = wheel_graph(5)
    rotation = {
        0: [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)],
        1: [(5, 0, 0), (0, 1, 0), (6, 0, 0)],
        2: [(5, 1, 0), (7, 0, 0), (1, 1, 0)],
        3: [(8, 0, 0), (2, 1, 0), (7, 1, 0)],
        4: [(9, 0, 0), (3, 1, 0), (8, 1, 0)],
        5: [(6, 1, 0), (4, 1, 0), (9, 1, 0)],
    }
    return build_embedding(g, [], rotation, outer=(5, 0, 0))


def c3_embedding():
    g = complete_graph(3)
    rotation = {
        0: [(0, 0, 0), (1, 0, 0)],
        1: [(0, 1, 0), (2, 0, 0)],
        2: [(1, 1, 0), (2, 1, 0)],
    }
    return build_embedding(g, [], rotation, outer=(0, 0, 0))


# ---------------------------------------------------------------------------
# Validation and face counts
# ---------------------------------------------------------------------------

def test_k4_planar_four_faces():
    emb = k4_planar()
    assert len(emb.faces) == 4


def test_c3_two_faces():
    assert len(c3_embedding().faces) == 2


def test_k4_toroidal_rejected():
    g, rotation = k4_toroidal_rotation()
    with pytest.raises(EmbeddingError) as err:
        build_embedding(g, [], rotation, outer=(0, 0, 0))
    assert err.value.kind == "genus"


def test_k5_one_crossing_valid_eight_faces():
    emb = k5_one_crossing()
    assert len(emb.faces) == 8  # V'=6, E'=12 after planarization


def test_k5_crossing_orientation_well_defined():
    emb = k5_one_crossing()
    for a in (3, 4):
        for b in (0, 1):
            assert crossing_orientation(emb, 0, a, b) in ("left", "right")
    # swapping both anchors to the other ends flips nothing structurally:
    # orientation stays a function of the designated pair
    assert (crossing_orientation(emb, 0, 3, 0)
            != crossing_orientation(emb, 0, 3, 1))


def test_dummy_alternation_enforced():
    g = complete_graph(5)
    emb = k5_one_crossing()
    rotation = {v: [emb.int_to_dart(d) for d in darts]
                for v, darts in emb.rotation.items()}
    rotation[5] = [(9, 1, 0), (9, 0, 1), (0, 0, 1), (0, 1, 0)]  # not alternating
    with pytest.raises(EmbeddingError) as err:
        build_embedding(g, [(9, 0)], rotation, outer=(8, 1, 0))
    assert err.value.kind == "alternation"


# On C3 every edge is one segment, so a naive ``2*seg + end`` would read
# (1, 2, 0) as int 4, the valid dart (2, 0, 0): encoded darts that name no
# dart must be rejected before they become ints.
@pytest.mark.parametrize("at_0, outer, kind", [
    ([(0, 0, 0), (1, 2, 0)], (0, 0, 0), "dangling-dart"),
    ([(0, 0, 0), (1, 0, 1)], (0, 0, 0), "dangling-dart"),
    ([(0, 0, 0), (1, 0)], (0, 0, 0), "dangling-dart"),
    ([(0, 0, 0), (1, 0, 0), (0, 0, 0)], (0, 0, 0), "dangling-dart"),
    ([(0, 0, 0), (1, 0, 0)], (0, 2, 0), "bad-outer"),
    ([(0, 0, 0), (1, 0, 0)], (3, 0, 0), "bad-outer"),
], ids=["end-2", "segment-out-of-range", "two-element", "duplicated",
        "outer-end-2", "outer-unknown-segment"])
def test_malformed_darts_rejected(at_0, outer, kind):
    rotation = {0: at_0, 1: [(0, 1, 0), (2, 0, 0)], 2: [(1, 1, 0), (2, 1, 0)]}
    with pytest.raises(EmbeddingError) as err:
        build_embedding(complete_graph(3), [], rotation, outer=outer)
    assert err.value.kind == kind


def test_crossing_with_shared_endpoint_rejected():
    g = complete_graph(4)
    with pytest.raises(EmbeddingError) as err:
        build_embedding(g, [(0, 1)], {}, outer=None)  # (0,1) and (0,2) share 0
    assert err.value.kind == "bad-crossing"


def test_multiplicity_cap():
    g = cycle_graph(6)  # ids: 0=(0,1) 1=(0,5) 2=(1,2) 3=(2,3) 4=(3,4) 5=(4,5)
    with pytest.raises(EmbeddingError) as err:
        build_embedding(g, [(0, 3), (0, 4)], {}, outer=None, k=1)
    assert err.value.kind == "multiplicity"


def test_faces_partition_darts():
    for emb in (k4_planar(), k5_one_crossing(), w5_planar()):
        plan = emb.planarization
        all_darts = sorted(d for cyc in plan.faces for d in cyc)
        assert all_darts == list(range(plan.dart_count))


# ---------------------------------------------------------------------------
# shared_region
# ---------------------------------------------------------------------------

def test_shared_region_c4():
    g = cycle_graph(4)
    rotation = {
        0: [(0, 0, 0), (1, 0, 0)],
        1: [(0, 1, 0), (2, 0, 0)],
        2: [(2, 1, 0), (3, 0, 0)],
        3: [(1, 1, 0), (3, 1, 0)],
    }
    emb = build_embedding(g, [], rotation, outer=(0, 0, 0))
    assert len(emb.faces) == 2
    # adjacent and opposite vertices lie on both faces
    found = emb.shared_region(0, 1)
    assert found is not None and found[1] is True
    found = emb.shared_region(0, 2)
    assert found is not None and found[1] is True


def test_shared_region_wheel():
    emb = w5_planar()
    assert len(emb.faces) == 6
    # hub and rim vertex share only bounded triangles when the rim is outer
    face, is_outer = emb.shared_region(0, 1)
    assert is_outer is False
    assert {0, 1} <= emb.face_vertices(face)
    # two rim vertices share the outer rim face
    face, is_outer = emb.shared_region(1, 3)
    assert is_outer is True


# ---------------------------------------------------------------------------
# restrict
# ---------------------------------------------------------------------------

def test_restrict_identity():
    emb = k5_one_crossing()
    same = restrict(emb, emb.graph.edges)
    assert len(same.faces) == len(emb.faces)
    assert same.graph.edges == emb.graph.edges


def test_restrict_empty():
    emb = k4_planar()
    sub = restrict(emb, [])
    assert sub.graph.n == 0 and sub.graph.m == 0


def test_restrict_k5_to_crossing_pair():
    emb = k5_one_crossing()
    sub = restrict(emb, [9, 0])
    assert sub.graph.m == 2
    assert len(sub.crossings) == 1
    assert sub.graph.vertices == frozenset({0, 1, 3, 4})


def test_restrict_preserves_validity(rng):
    emb = k5_one_crossing()
    ids = sorted(emb.graph.edges)
    for _ in range(25):
        keep = [e for e in ids if rng.random() < 0.6]
        sub = restrict(emb, keep)  # validation runs inside
        assert set(sub.graph.edges) == set(keep)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_json_round_trip_bit_exact():
    for emb in (k4_planar(), k5_one_crossing(), w5_planar()):
        blob = embedding_to_json(emb)
        again = embedding_to_json(embedding_from_json(blob))
        assert blob == again


def test_json_preserves_structure():
    emb = k5_one_crossing()
    loaded = embedding_from_json(embedding_to_json(emb))
    assert len(loaded.faces) == 8
    assert loaded.outer_face == loaded.planarization.face_of[loaded.outer]


# ---------------------------------------------------------------------------
# Scrambled rotations vs independent planarity re-check
# ---------------------------------------------------------------------------

def _independent_face_count(g: Graph, rotation) -> int:
    """Counterclockwise-convention tracer used as an independent check."""
    darts = [(e, end) for e in g.edges for end in (0, 1)]
    index = {d: i for i, d in enumerate(darts)}
    pred = {}
    for v, rot in rotation.items():
        for i, (e, end, _) in enumerate(rot):
            prev = rot[i - 1]
            pred[(e, end)] = (prev[0], prev[1])
    count = 0
    seen = set()
    for d in darts:
        if d in seen:
            continue
        count += 1
        cur = d
        while cur not in seen:
            seen.add(cur)
            e, end = cur
            cur = pred[(e, 1 - end)]
    return count


def test_scrambled_rotations_match_euler(rng):
    g = complete_graph(4)
    accepted = rejected = 0
    for _ in range(60):
        rotation = {}
        for v in g.vertices:
            darts = []
            for w, e in g.adjacency[v]:
                end = 0 if v == min(g.edges[e]) else 1
                darts.append((e, end, 0))
            rng.shuffle(darts)
            rotation[v] = darts
        want_faces = 2 - g.n + g.m
        ok_independent = _independent_face_count(g, rotation) == want_faces
        try:
            build_embedding(g, [], rotation, outer=rotation[0][0])
            ok_validator = True
            accepted += 1
        except EmbeddingError:
            ok_validator = False
            rejected += 1
        assert ok_validator == ok_independent
    assert accepted and rejected


# ---------------------------------------------------------------------------
# One Euler sum vs the per-component check it replaced
# ---------------------------------------------------------------------------

def _per_component_genus_zero(plan: Planarization) -> None:
    """The former body of ``Planarization.check_genus_zero``: V - E + F == 2
    on every connected component, counted separately."""
    seg_comp: dict[int, int] = {}
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(plan.components):
        for v in comp:
            comp_of[v] = i
    counts = [[len(c), 0, 0] for c in plan.components]  # V, E, F
    for s, (a, _) in enumerate(plan.segments):
        counts[comp_of[a]][1] += 1
        seg_comp[s] = comp_of[a]
    for cyc in plan.faces:
        counts[seg_comp[cyc[0] >> 1]][2] += 1
    for v, e, f in counts:
        if e and v - e + f != 2:
            raise EmbeddingError(
                "genus", f"component has V={v} E={e} F={f}, not genus 0")


def _random_planarization(rng: random.Random) -> Planarization:
    """One to three disjoint random connected multigraph components (trees,
    cycles and denser graphs, sometimes with a parallel segment) under a
    random rotation system."""
    segments: list[tuple[int, int]] = []
    base = 0
    for _ in range(rng.choice((1, 1, 2, 3))):
        n = rng.randint(2, 7)
        extra = rng.choice((0, 1, rng.randint(0, 2 * n)))
        g = random_connected_graph(rng, n, extra)
        pairs = sorted(g.edges.values())
        if pairs and rng.random() < 0.2:
            pairs.append(rng.choice(pairs))
        segments.extend((base + u, base + v) for u, v in pairs)
        base += n
    rotation: dict[int, list[int]] = {}
    for s, (a, b) in enumerate(segments):
        rotation.setdefault(a, []).append(2 * s)
        rotation.setdefault(b, []).append(2 * s + 1)
    for darts in rotation.values():
        rng.shuffle(darts)
    return Planarization(tuple(segments),
                         {v: tuple(d) for v, d in rotation.items()})


def _genus_error(check, plan: Planarization) -> bool:
    try:
        check(plan)
    except EmbeddingError as err:
        assert err.kind == "genus"
        return True
    return False


def test_euler_sum_matches_per_component_check():
    rng = random.Random(20260417)
    outcomes: Counter = Counter()
    for _ in range(400):
        plan = _random_planarization(rng)
        want = _genus_error(_per_component_genus_zero, plan)
        assert _genus_error(Planarization.check_genus_zero, plan) == want
        outcomes[want, min(len(plan.components), 2)] += 1
    # plane and non-plane drawings, each both connected and disconnected
    assert all(outcomes[want, comps] >= 20
               for want in (False, True) for comps in (1, 2)), outcomes
