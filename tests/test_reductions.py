from __future__ import annotations

import itertools
import random

import pytest

from oneplanar import reductions
from oneplanar.graph import Graph, GraphError, LinearOrdering, feedback_edge_set
from oneplanar.reductions import (
    BinPackInstance,
    TwoTerminalGadget,
    bandwidth_bound,
    bandwidth_lift,
    expected_counts,
    frame_graph,
    fvs_witness,
    gen_binpack_instance,
    k6_gadget,
    normalize_binpack,
    pathwidth_witness,
    replace_edges_with_gadget,
    validate_path_decomposition,
    verify_frame,
)

from conftest import complete_graph, cycle_graph, path_graph, random_connected_graph


FIG = BinPackInstance((3, 1, 2, 2), bins=2, capacity=4)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_figure_instance():
    out = normalize_binpack(FIG)
    assert out.sizes == (9, 3, 6, 6)
    assert out.capacity == 12
    assert out.is_normalized()


def test_normalize_infeasible():
    assert normalize_binpack(BinPackInstance((5,), 2, 2)) is None


def test_normalize_already_normalized():
    inst = BinPackInstance((3, 3), 2, 3)
    assert normalize_binpack(inst) == inst


def test_normalize_k1_answered_directly():
    out = normalize_binpack(BinPackInstance((2, 3), 1, 6))
    assert out is not None and out.is_normalized()
    assert normalize_binpack(BinPackInstance((9,), 1, 6)) is None


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------

def test_frame_shape_and_triconnectivity():
    verify_frame()  # exhaustive 2-cut search plus face uniqueness
    g, names = frame_graph()
    assert (g.n, g.m) == (12, 18)
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert len(names) == 6


def test_instance_generation_runs_the_frame_check(monkeypatch):
    """The frame check is cached once per process; with the cache cleared
    and a broken frame, generation still refuses to build."""
    g, names = frame_graph()
    rung = g.edge_between(0, 6)
    broken = Graph(g.vertices, {e: p for e, p in g.edges.items() if e != rung})
    monkeypatch.setattr(reductions, "frame_graph", lambda: (broken, names))
    verify_frame.cache_clear()
    try:
        with pytest.raises(GraphError):
            gen_binpack_instance(FIG, raw=True)
    finally:
        verify_frame.cache_clear()


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def test_figure_instance_structure():
    li = gen_binpack_instance(FIG, raw=True)
    # left path length |U|+K-1 = 5, right path length K*B = 8, 1 purple edge
    assert len(li.edges_with_label("red-left")) == 5
    assert len(li.edges_with_label("red-right")) == 8
    assert len(li.edges_with_label("purple")) == 1
    # diamonds K_{2,s(u)} for sizes 3,1,2,2 (plus the edge to s each)
    for ui, size in enumerate((3, 1, 2, 2)):
        assert len(li.edges_with_label(f"diamond:{ui}")) == 2 * size + 1
    assert li.gadget_count == 18


def test_instance_counts_match_closed_form():
    for inst, raw in ((FIG, True), (normalize_binpack(FIG), False),
                      (BinPackInstance((), 2, 3), True)):
        li = gen_binpack_instance(inst, raw=raw)
        n, m = expected_counts(li)
        assert (li.graph.n, li.graph.m) == (n, m)


def test_gadgets_share_only_attachments():
    li = gen_binpack_instance(FIG, raw=True)
    for gi in range(18):
        internals = li.vertices_with_label(f"k6-gadget:{gi}")
        assert len(internals) == 4
        gadget_edges = li.edges_with_label(f"k6-gadget:{gi}")
        assert len(gadget_edges) == 14  # 15 minus the frame edge itself


def test_labels_cover_everything():
    li = gen_binpack_instance(FIG, raw=True)
    assert set(li.vertex_labels) == set(li.graph.vertices)
    assert set(li.edge_labels) == set(li.graph.edges)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_fvs_witness():
    li = gen_binpack_instance(FIG, raw=True)
    w = fvs_witness(li)
    assert len(w) == 12 + 2 * 18 == 48
    assert feedback_edge_set(li.graph.remove_vertices(w)).ell == 0


def test_frame_removal_leaves_stars_paths_k4s():
    li = gen_binpack_instance(FIG, raw=True)
    residual = li.graph.remove_vertices(range(12))
    for comp in residual.components():
        sub = residual.induced_subgraph(comp)
        is_path = all(sub.degree(v) <= 2 for v in comp) and \
            feedback_edge_set(sub).ell == 0
        is_k4 = len(comp) == 4 and sub.m == 6
        center_candidates = [v for v in comp if sub.degree(v) == len(comp) - 1]
        is_star = sub.m == len(comp) - 1 and bool(center_candidates)
        assert is_path or is_k4 or is_star


def test_pathwidth_witness():
    for inst, raw in ((FIG, True), (BinPackInstance((), 2, 2), True)):
        li = gen_binpack_instance(inst, raw=raw)
        bags = pathwidth_witness(li)
        width = validate_path_decomposition(li.graph, bags)
        assert width <= 15
        assert max(len(b) for b in bags) <= 16


def test_fvs_witness_empty_items():
    li = gen_binpack_instance(BinPackInstance((), 2, 2), raw=True)
    w = fvs_witness(li)
    assert len(w) <= 48


def test_path_decomposition_validator_rejects_bad():
    g = path_graph(3)
    with pytest.raises(GraphError):
        validate_path_decomposition(g, [frozenset({0, 1})])  # edge 1-2 missing
    with pytest.raises(GraphError):
        validate_path_decomposition(
            g, [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1})])


def test_path_decomposition_needs_a_bag():
    with pytest.raises(GraphError, match="no bags"):
        validate_path_decomposition(Graph.build([]), [])
    with pytest.raises(GraphError, match="vertex 0 in no bag"):
        validate_path_decomposition(path_graph(3), [])


def quadratic_path_decomposition_width(g, bags):
    """The validator before its one pass over the bags: each vertex's bag
    indices listed and each edge checked against every bag."""
    for v in g.vertices:
        hits = [i for i, b in enumerate(bags) if v in b]
        if not hits:
            raise GraphError(f"vertex {v} in no bag")
        if hits != list(range(hits[0], hits[-1] + 1)):
            raise GraphError(f"bags of vertex {v} are not contiguous")
    for e, (u, v) in g.edges.items():
        if not any(u in b and v in b for b in bags):
            raise GraphError(f"edge {e} not covered")
    return max(len(b) for b in bags) - 1


FAULTS = ("uncovered", "missing", "gap", "stray")


def random_decomposition(rng):
    """A graph and a bag list built from one interval of bags per vertex,
    with the edges drawn between meeting intervals, then given up to two
    faults: an edge between disjoint intervals, a vertex dropped from
    every bag, a vertex dropped from an inner bag of its interval, or
    vertices outside the graph added to bags."""
    n = rng.randint(1, 7)
    length = rng.randint(1, 6)
    span = {}
    for v in range(n):
        a = rng.randrange(length)
        span[v] = (a, rng.randrange(a, length))

    def meet(u, v):
        return span[u][0] <= span[v][1] and span[v][0] <= span[u][1]

    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if meet(u, v) and rng.random() < 0.6]
    bags = [{v for v in range(n) if span[v][0] <= i <= span[v][1]}
            for i in range(length)]
    for fault in rng.sample(FAULTS, rng.randint(0, 2)):
        if fault == "uncovered":
            apart = [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if not meet(u, v)]
            if apart:
                pairs.append(rng.choice(apart))
        elif fault == "missing":
            v = rng.randrange(n)
            for bag in bags:
                bag.discard(v)
        elif fault == "gap":
            inner = [(i, v) for v in range(n)
                     for i in range(span[v][0] + 1, span[v][1])]
            if inner:
                i, v = rng.choice(inner)
                bags[i].discard(v)
        else:
            for bag in bags:
                if rng.random() < 0.5:
                    bag.add(n + rng.randrange(3))
    g = Graph.build(pairs, vertices=range(n))
    return g, [frozenset(bag) for bag in bags]


def test_path_decomposition_validator_matches_quadratic_scan():
    """Same width or same first message as the quadratic validator."""

    def outcome(validate, g, bags):
        try:
            return validate(g, bags)
        except GraphError as err:
            return str(err)

    seen = set()
    for seed in range(400):
        g, bags = random_decomposition(random.Random(seed))
        want = outcome(quadratic_path_decomposition_width, g, bags)
        assert outcome(validate_path_decomposition, g, bags) == want
        seen.add(want.split()[-1] if isinstance(want, str) else "valid")
        if any(v not in g.vertices for bag in bags for v in bag):
            seen.add("stray")
    assert seen == {"valid", "bag", "contiguous", "covered", "stray"}


# ---------------------------------------------------------------------------
# gadget replacement and bandwidth lifting
# ---------------------------------------------------------------------------

def test_replace_with_path_gadget_subdivides():
    h = TwoTerminalGadget(Graph.build([(0, 1), (1, 2)]), 0, 2)
    out = replace_edges_with_gadget(complete_graph(3), h)
    assert (out.n, out.m) == (6, 6)  # C3 -> C6
    assert all(out.degree(v) == 2 for v in out.vertices)


def test_replace_k2_with_k6():
    out = replace_edges_with_gadget(Graph.build([(0, 1)]), k6_gadget())
    assert (out.n, out.m) == (6, 15)


def test_replace_vertex_count_formula(rng):
    h = k6_gadget()
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 3))
        out = replace_edges_with_gadget(g, h)
        assert out.n == g.n + g.m * (h.t - 2)


def test_bandwidth_lift_p3_triangle():
    g = path_graph(3)
    sigma = LinearOrdering({v: v + 1 for v in range(3)})
    assert sigma.bandwidth(g) == 1
    h = TwoTerminalGadget(complete_graph(3), 0, 1)
    lifted, star = bandwidth_lift(g, sigma, h)
    assert bandwidth_bound(1, 3) == 4
    assert star.bandwidth(lifted) <= 4


def test_bandwidth_lift_single_edge_gadget():
    g = cycle_graph(4)
    sigma = LinearOrdering({v: v + 1 for v in range(4)})
    h = TwoTerminalGadget(Graph.build([(0, 1)]), 0, 1)
    lifted, star = bandwidth_lift(g, sigma, h)
    b = sigma.bandwidth(g)
    assert star.bandwidth(lifted) <= (b + 1) * 1


def test_bandwidth_lift_random(rng):
    # the 200-trial version lives in the acceptance suite
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 3))
        perm = sorted(g.vertices, key=lambda v: rng.random())
        sigma = LinearOrdering({v: i + 1 for i, v in enumerate(perm)})
        hsize = rng.randint(2, 5)
        hg = random_connected_graph(rng, hsize, rng.randint(0, 2))
        h = TwoTerminalGadget(hg, *sorted(hg.vertices)[:2]) if hsize >= 2 \
            else None
        lifted, star = bandwidth_lift(g, sigma, h)
        b = sigma.bandwidth(g)
        assert star.bandwidth(lifted) <= bandwidth_bound(b, h.t)
        assert sorted(star.position.values()) == list(
            range(1, lifted.n + 1))
