from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from oneplanar.decider import enumerate_crossing_sets, enumerate_embeddings
from oneplanar.embedding import build_embedding, validate_embedding
from oneplanar.graph import Graph, GraphError
from oneplanar.straightening import is_straightenable
from oneplanar.surgery import (
    Arrangement,
    ArcSystem,
    arc_system,
    arc_system_from_json,
    reshorten,
    simplify,
)

import surgery_oracle

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"


def bowtie_c4():
    """C4 drawn as a figure eight: edges (0,1) and (2,3) cross."""
    g = Graph.build([(0, 1), (1, 2), (2, 3), (0, 3)])
    # ids: (0,1)=0 (0,3)=1 (1,2)=2 (2,3)=3
    rotation = {
        0: [(0, 0, 0), (1, 0, 0)],
        1: [(0, 1, 1), (2, 0, 0)],
        2: [(2, 1, 0), (3, 0, 0)],
        3: [(3, 1, 1), (1, 1, 0)],
        4: [(3, 1, 0), (0, 1, 0), (3, 0, 1), (0, 0, 1)],
    }
    return build_embedding(g, [(0, 3)], rotation, outer=(1, 0, 0))


def first_embedding(g: Graph, crossings):
    for emb in enumerate_embeddings(g, crossings):
        return emb
    raise AssertionError(f"no valid embedding for {crossings}")


def hosts_with_crossings(walks, static, crossings) -> list[ArcSystem]:
    """Arc systems over every embedding of the graph made of the vertex
    ``walks`` and the ``static`` pairs, with the given pairs of edges (as
    vertex pairs) crossing."""
    pairs = [p for w in walks for p in zip(w, w[1:])] + list(static)
    g = Graph.build(sorted({(min(p), max(p)) for p in pairs}))
    eid = {p: e for e, p in g.edges.items()}

    def edge(u, v):
        return eid[(min(u, v), max(u, v))]

    cross = sorted(tuple(sorted((edge(*x), edge(*y)))) for x, y in crossings)
    systems = [arc_system(h, [edge(*p) for p in static])
               for h in enumerate_embeddings(g, cross)]
    assert systems, f"no valid embedding for {crossings}"
    return systems


def subarc_swap_hosts(antiparallel: bool) -> list[ArcSystem]:
    """Arcs A = 0-10-11-12-1 and B = 2-20-21-22-3 cross twice, and the
    static spokes 30-4 and 30-5 cross the middle edges 11-12 and 21-22, so
    the Rule II step between A and B swaps two non-empty subarcs.  The
    static frame makes B run along A, or against it with ``antiparallel``.
    Nine hosts (one per outer face) in either case."""
    if antiparallel:
        frame = [(0, 3), (1, 2), (4, 0), (5, 2), (4, 3), (5, 1)]
        double = [((10, 11), (22, 3)), ((12, 1), (20, 21))]
    else:
        frame = [(0, 2), (1, 3), (4, 0), (5, 3), (4, 2), (5, 1)]
        double = [((10, 11), (20, 21)), ((12, 1), (22, 3))]
    spokes = [((11, 12), (30, 4)), ((21, 22), (30, 5))]
    return hosts_with_crossings([[0, 10, 11, 12, 1], [2, 20, 21, 22, 3]],
                                [(30, 4), (30, 5)] + frame, double + spokes)


def loop_hosts() -> list[ArcSystem]:
    """Arc 0-10-11-12-13-14-1 crosses itself on 10-11 x 13-14; the static
    path 1-30-0 from inside the loop crosses 11-12 and 12-13, so Rule I
    reverses a loop of two passages.  Six hosts, one per outer face."""
    return hosts_with_crossings(
        [[0, 10, 11, 12, 13, 14, 1]], [(0, 1), (0, 30), (1, 30)],
        [((10, 11), (13, 14)), ((11, 12), (1, 30)), ((12, 13), (0, 30))])


def test_rule1_removes_self_crossing():
    host = bowtie_c4()
    sys = arc_system(host, static_edges=[])
    assert len(sys.arcs) == 1
    out = simplify(sys)
    assert out.rule1_steps == 1 and out.rule2_steps == 0
    assert out.arrangement.total_crossings() == 0


def test_rule2_removes_double_crossing():
    # two arcs 0-4-1 and 2-5-3 crossing twice (a bigon), statics for
    # connectivity; ids: (0,2)=0 (0,4)=1 (1,3)=2 (1,4)=3 (2,5)=4 (3,5)=5
    g = Graph.build([(0, 2), (0, 4), (1, 3), (1, 4), (2, 5), (3, 5)])
    host = first_embedding(g, [(1, 4), (3, 5)])
    sys = arc_system(host, static_edges=[0, 2])
    assert len(sys.arcs) == 2
    out = simplify(sys)
    assert out.rule2_steps == 1
    arc_ids = out.arrangement.arc_curve_ids()
    assert out.arrangement.pair_crossings(*arc_ids) == 0
    assert out.arrangement.total_crossings() == 0


def test_static_crossing_left_alone():
    g = Graph.build([(0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])
    # ids: (0,2)=0 (0,3)=1 (1,2)=2 (1,4)=3 (3,4)=4; arc 0-2-1, statics rest
    host = first_embedding(g, [(0, 4)])
    sys = arc_system(host, static_edges=[1, 3, 4])
    out = simplify(sys)
    assert out.rule1_steps == 0 and out.rule2_steps == 0
    assert out.arrangement.total_crossings() == 1
    assert out.arrangement.static_crossed_by_arc()[4] is True


# ---------------------------------------------------------------------------
# random systems
# ---------------------------------------------------------------------------

def random_arc_system(rng: random.Random, want_straight: bool = False):
    """Sample a small connected host with a static/flexible split and a
    random valid embedding carrying at least one crossing."""
    for _ in range(300):
        pool = list(range(rng.randint(2, 3)))
        nxt = len(pool)
        pairs: list[tuple[int, int]] = []
        arc_specs = []
        for _ in range(rng.randint(1, 3)):
            u = rng.choice(pool)
            v = rng.choice(pool)
            length = rng.randint(3, 4) if u == v else rng.randint(2, 4)
            walk = [u] + list(range(nxt, nxt + length - 1)) + [v]
            nxt += length - 1
            arc_specs.append(walk)
            pairs.extend(zip(walk, walk[1:]))
        static_pairs = set()
        if len(pool) >= 2:
            for _ in range(rng.randint(0, 2)):
                u, v = rng.sample(pool, 2)
                static_pairs.add((min(u, v), max(u, v)))
        all_pairs = {(min(u, v), max(u, v)) for u, v in pairs}
        if all_pairs & static_pairs:
            continue
        g = Graph.build(sorted(all_pairs | static_pairs))
        if not g.is_connected():
            continue
        static_ids = {e for e, p in g.edges.items() if p in static_pairs}
        assignments = [a for a in
                       itertools.islice(enumerate_crossing_sets(g), 80)
                       if a.pairs]
        if not assignments:
            continue
        assignment = rng.choice(assignments)
        embs = list(itertools.islice(
            enumerate_embeddings(g, assignment), 40))
        if want_straight:
            embs = [e for e in embs if is_straightenable(e)]
        if not embs:
            continue
        host = rng.choice(embs)
        return arc_system(host, static_ids)
    raise AssertionError("generator failed to produce a system")


def check_simplify(sys: ArcSystem):
    """Simplify ``sys`` and assert the fixpoint postconditions; return the
    arrangement before the first step and the simplified system."""
    arr_before = Arrangement.from_system(sys)
    out = simplify(sys)
    arr = out.arrangement
    # termination bound: each step removes >= 1 crossing
    assert out.rule1_steps + 2 * out.rule2_steps == (
        arr_before.total_crossings() - arr.total_crossings())
    # fixpoint postconditions
    assert arr.find_self_crossing() is None
    assert arr.find_double_crossing() is None
    arc_ids = arr.arc_curve_ids()
    for a, b in itertools.combinations(arc_ids, 2):
        assert arr.pair_crossings(a, b) <= 1
    s, f = out.s, out.f
    for cid in arc_ids:
        assert arr.crossings_of_curve(cid) <= s + f - 1
    # static crossed-by-flexible booleans preserved exactly
    assert arr.static_crossed_by_arc() == arr_before.static_crossed_by_arc()
    return arr_before, out


def test_simplify_invariants_random(rng):
    for trial in range(40):
        check_simplify(random_arc_system(rng))


@pytest.mark.parametrize("antiparallel", [False, True])
def test_rule2_swaps_nonempty_subarcs(antiparallel):
    for sys in subarc_swap_hosts(antiparallel):
        before, out = check_simplify(sys)
        cid_a, cid_b, ia1, ia2 = before.find_double_crossing()
        seq_a, seq_b = before.curves[cid_a].seq, before.curves[cid_b].seq
        jb1 = seq_b.index(before.other_passage(seq_a[ia1]))
        jb2 = seq_b.index(before.other_passage(seq_a[ia2]))
        assert (jb1 > jb2) == antiparallel
        mid_a = seq_a[ia1 + 1:ia2]
        mid_b = seq_b[min(jb1, jb2) + 1:max(jb1, jb2)]
        assert mid_a and mid_b
        assert (out.rule1_steps, out.rule2_steps) == (0, 1)
        # the enclosed passages changed curves, each keeping its crossing
        arr = out.arrangement
        assert [arr.passage_curve[p] for p in mid_a] == [cid_b] * len(mid_a)
        assert [arr.passage_curve[p] for p in mid_b] == [cid_a] * len(mid_b)
        step = -1 if antiparallel else 1
        assert arr.curves[cid_a].seq == mid_b[::step]
        assert arr.curves[cid_b].seq == mid_a[::step]


def arrangement_state(arr: Arrangement) -> tuple:
    """The whole arrangement, with each map's insertion order."""
    return ([(c, (cu.kind, cu.ref, cu.tail, cu.head, cu.closed, list(cu.seq)))
             for c, cu in arr.curves.items()],
            list(arr.passage_curve.items()), list(arr.passage_node.items()),
            [(n, list(r)) for n, r in arr.node_rot.items()],
            list(arr.real_rot.items()), arr.outer_key, arr._next_pid)


def steps_match_oracle(sys: ArcSystem) -> tuple[int, int]:
    """Run ``simplify``'s schedule with the rules of ``Arrangement`` and of
    ``surgery_oracle`` side by side, asserting the same arrangement state
    after every step; return the (Rule I, Rule II) step counts."""
    arr, ref = Arrangement.from_system(sys), Arrangement.from_system(sys)
    steps = [0, 0]
    while True:
        hit = arr.find_self_crossing()
        if hit is not None:
            arr.rule1(*hit)
            surgery_oracle.rule1(ref, *hit)
            steps[0] += 1
        else:
            hit = arr.find_double_crossing()
            if hit is None:
                return tuple(steps)
            arr.rule2(*hit)
            surgery_oracle.rule2(ref, *hit)
            steps[1] += 1
        assert arrangement_state(arr) == arrangement_state(ref), hit


def test_rules_match_oracle_random():
    r1 = r2 = 0
    for seed in range(300):
        a, b = steps_match_oracle(random_arc_system(random.Random(seed)))
        r1, r2 = r1 + a, r2 + b
    assert r1 and r2


def test_rules_match_oracle_pool():
    records = json.loads(POOL.read_text())["arcs"]
    assert len(records) == 90
    steps = [steps_match_oracle(arc_system_from_json(rec["system"]))
             for rec in records]
    assert any(a for a, _ in steps) and any(b for _, b in steps)


def test_rules_match_oracle_hand_built():
    for sys in subarc_swap_hosts(False) + subarc_swap_hosts(True):
        assert steps_match_oracle(sys) == (0, 1)
    for sys in loop_hosts():
        assert steps_match_oracle(sys) == (1, 0)


def test_from_system_matches_oracle():
    """The one-walk ``from_system`` against the reference that rebuilds
    edge directions and a passage table: random, straightenable random,
    pool and hand-built systems."""
    systems = [random_arc_system(random.Random(seed)) for seed in range(300)]
    systems += [random_arc_system(random.Random(seed), want_straight=True)
                for seed in range(100)]
    records = json.loads(POOL.read_text())["arcs"]
    systems += [arc_system_from_json(rec["system"]) for rec in records]
    systems += subarc_swap_hosts(False) + subarc_swap_hosts(True)
    systems += loop_hosts()
    assert len(systems) == 514
    for sys in systems:
        assert arrangement_state(Arrangement.from_system(sys)) == (
            arrangement_state(surgery_oracle.from_system(sys)))


def test_rule1_reverses_nonempty_loop():
    for sys in loop_hosts():
        before, out = check_simplify(sys)
        cid, i, j = before.find_self_crossing()
        loop = before.curves[cid].seq[i + 1:j]
        assert len(loop) == 2
        assert (out.rule1_steps, out.rule2_steps) == (1, 0)
        arr = out.arrangement
        assert arr.curves[cid].seq == loop[::-1]
        for pid in loop:
            node = arr.passage_node[pid]
            assert dict(arr.node_rot[node])[pid] == (
                1 - dict(before.node_rot[node])[pid])


def test_reshorten_counting_nongeometric():
    # arc with 2 crossings, target 3: one subdivision vertex after each
    # crossing would not fit the end edges, so the pattern packs left
    host = bowtie_c4()
    sys = arc_system(host, static_edges=[])
    out = simplify(sys)
    graph, emb = reshorten(out, target=4)
    assert graph.m == 4
    validate_embedding(emb)


def test_reshorten_demand_error():
    g = Graph.build([(0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])
    host = first_embedding(g, [(0, 4)])
    sys = arc_system(host, static_edges=[1, 3, 4])
    out = simplify(sys)
    with pytest.raises(GraphError):
        reshorten(out, target=1, geometric=True)  # 2*chi = 2 > 1


def test_reshorten_random_valid(rng):
    for trial in range(25):
        sys = random_arc_system(rng)
        out = simplify(sys)
        arr = out.arrangement
        demand = max((arr.crossings_of_curve(c) for c in arr.arc_curve_ids()),
                     default=0)
        target = max(2 * demand + 2, 3, out.s + out.f - 1)
        graph, emb = reshorten(out, target=target)
        validate_embedding(emb)
        # every flexible path now has exactly `target` edges
        assert graph.m == out.s + out.f * target


def test_reshorten_geometric_bw_free(rng):
    produced = 0
    for trial in range(60):
        if produced >= 12:
            break
        sys = random_arc_system(rng, want_straight=True)
        out = simplify(sys)
        arr = out.arrangement
        demand = max((arr.crossings_of_curve(c) for c in arr.arc_curve_ids()),
                     default=0)
        target = max(2 * demand + 3, 3)
        graph, emb = reshorten(out, target=target, geometric=True)
        validate_embedding(emb)
        assert is_straightenable(emb), f"B/W configuration after reshorten"
        produced += 1
    assert produced >= 12
