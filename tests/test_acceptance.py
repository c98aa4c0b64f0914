"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured statistics.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from oneplanar.decider import Predicate, decide, enumerate_embeddings
from oneplanar.embedding import validate_embedding
from oneplanar.geometry import validate_geometric_1planar
from oneplanar.graph import (
    Graph,
    TreedepthDecomposition,
    decompose_degree2_paths,
    feedback_edge_set,
)
from oneplanar.kernel import convex_certificate, kernelize, worst_case_size
from oneplanar.reductions import (
    BinPackInstance,
    bandwidth_bound,
    bandwidth_lift,
    fvs_witness,
    gen_binpack_instance,
    pathwidth_witness,
    validate_path_decomposition,
    TwoTerminalGadget,
)
from oneplanar.straightening import find_bw_configurations, is_straightenable, lmr_word
from oneplanar.surgery import Arrangement, reshorten, simplify
from oneplanar.td_pipeline import Thresholds, run_pipeline
from oneplanar.graph import LinearOrdering

from conftest import complete_bipartite, complete_graph, random_connected_graph
from test_straightening import figure_lmr, figure_rml
from test_surgery import random_arc_system
from test_td_pipeline import k3n_decomposition


def report(n: int, label: str, details: str) -> None:
    print(f"\nPASS criterion {n} ({label}): {details}")


# ---------------------------------------------------------------------------

def test_criterion_1_kernel_worst_case_sizes():
    started = time.time()
    expected = {ell: (2 ** (3 * ell - 3) - 1) * (3 * ell - 5)
                for ell in (2, 3, 4, 5)}
    for ell, want in expected.items():
        assert worst_case_size(ell, "1planar") == want
    assert expected[2] == 7 and expected[3] == 252
    report(1, "kernel worst-case sizes",
           f"{expected} in {time.time() - started:.2f}s")


def _equivalence_graph(rng: random.Random) -> Graph:
    """Random graph with feedback edge number <= 2, occasionally with long
    subdividable paths so shortening and the base case both fire."""
    n = rng.randint(3, 7)
    g = random_connected_graph(rng, n, rng.randint(0, 2))
    if rng.random() < 0.6:
        # subdivide a few edges to create long degree-2 paths
        pairs = []
        nxt = max(g.vertices) + 1
        for e in sorted(g.edges):
            u, v = g.edges[e]
            length = rng.choice((1, 1, 2, rng.randint(3, 6)))
            chain = [u] + list(range(nxt, nxt + length - 1)) + [v]
            nxt += length - 1
            pairs.extend(zip(chain, chain[1:]))
        g = Graph.build(pairs)
    return g


def test_criterion_2_kernel_equivalence():
    started = time.time()
    rng = random.Random(20260809)
    checked = mismatches = 0
    while checked < 500:
        g = _equivalence_graph(rng)
        if feedback_edge_set(g).ell > 2 or g.m > 13:
            continue
        usable = True
        results = {}
        for variant, geo in (("1planar", False), ("geo1planar", True)):
            res = kernelize(g, variant)
            if res.kernel.m > 11:
                usable = False
                break
            orig = decide(g, Predicate("plain", geometric=geo), cap=13,
                          want_witness=False)
            kern = decide(res.kernel, Predicate("plain", geometric=geo),
                          cap=13, want_witness=False)
            results[variant] = (orig.answer, kern.answer)
        if not usable:
            continue
        checked += 1
        for variant, (a, b) in results.items():
            if a != b:
                mismatches += 1
    assert mismatches == 0
    report(2, "kernel equivalence",
           f"{checked} graphs, {mismatches} mismatches, "
           f"{time.time() - started:.1f}s")


def test_criterion_3_thomassen_figure():
    started = time.time()
    lmr = figure_lmr()
    assert lmr_word(lmr, 0, 1).word == "LMR"
    assert find_bw_configurations(lmr) == []
    rml = figure_rml()
    assert lmr_word(rml, 0, 1).word == "RML"
    kinds = sorted(c.kind for c in find_bw_configurations(rml))
    assert kinds == ["B", "B", "W"]
    report(3, "Thomassen figure", f"LMR clean, RML = 2 B + 1 W, "
           f"{time.time() - started:.2f}s")


def _pair_union_graph(npairs: int, with_ab: bool) -> Graph:
    pairs = []
    nxt = 2
    for _ in range(npairs):
        pairs.append((0, nxt))      # a a'
        pairs.append((1, nxt + 1))  # b b'
        nxt += 2
    if with_ab:
        pairs.append((0, 1))
    return Graph.build(pairs)


def test_criterion_4_lmr_equivalence_exhaustive():
    started = time.time()
    total = counterexamples = 0
    for npairs in (1, 2, 3):
        for with_ab in (False, True):
            g = _pair_union_graph(npairs, with_ab)
            crossing = []
            for i in range(npairs):
                a_edge = g.edge_between(0, 2 + 2 * i)
                b_edge = g.edge_between(1, 3 + 2 * i)
                crossing.append((a_edge, b_edge))
            for emb in enumerate_embeddings(g, crossing):
                total += 1
                word = lmr_word(emb, 0, 1)
                clean = not find_bw_configurations(emb)
                if clean != word.matches_pattern():
                    counterexamples += 1
                if not word.matches_pattern():
                    assert word.bad_subwords(), word.word
    assert counterexamples == 0
    report(4, "L*[M]R* equivalence",
           f"{total} embeddings exhausted, 0 counterexamples, "
           f"{time.time() - started:.1f}s")


def test_criterion_5_density_consistency():
    started = time.time()
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        n = rng.randint(7, 10)
        m_over = 4 * n - 8 + rng.randint(1, max(1, n // 2))
        all_pairs = list(itertools.combinations(range(n), 2))
        if m_over > len(all_pairs):
            continue
        rng.shuffle(all_pairs)
        g = Graph.build(all_pairs[:m_over], vertices=range(n))
        assert not decide(g, Predicate("plain"), want_witness=False).answer
        m_geo = 4 * n - 9 + 1
        g2 = Graph.build(all_pairs[:m_geo], vertices=range(n))
        assert not decide(g2, Predicate("plain", geometric=True),
                          want_witness=False).answer
        checked += 1
    assert checked >= 30
    k5 = decide(complete_graph(5), Predicate("plain", geometric=True))
    assert k5.answer and is_straightenable(k5.witness)
    assert not decide(complete_graph(7), Predicate("plain"),
                      want_witness=False).answer
    report(5, "density consistency",
           f"{checked} over-density graphs rejected, K5 geometric yes, "
           f"K7 no, {time.time() - started:.1f}s")


def test_criterion_6_surgery_fixpoint():
    started = time.time()
    rng = random.Random(6)
    systems = violations = 0
    geo_checked = 0
    while systems < 200:
        want_straight = systems % 4 == 0
        sys_ = random_arc_system(rng, want_straight=want_straight)
        before = Arrangement.from_system(sys_)
        static_before = before.static_crossed_by_arc()
        out = simplify(sys_)
        arr = out.arrangement
        s, f = out.s, out.f
        ok = (arr.find_self_crossing() is None
              and arr.find_double_crossing() is None
              and all(arr.pair_crossings(a, b) <= 1 for a, b in
                      itertools.combinations(arr.arc_curve_ids(), 2))
              and all(arr.crossings_of_curve(c) <= s + f - 1
                      for c in arr.arc_curve_ids())
              and arr.static_crossed_by_arc() == static_before)
        if not ok:
            violations += 1
        if want_straight:
            demand = max((arr.crossings_of_curve(c)
                          for c in arr.arc_curve_ids()), default=0)
            target = max(2 * demand + 3, 3)
            graph, emb = reshorten(out, target, geometric=True)
            validate_embedding(emb)
            if not is_straightenable(emb):
                violations += 1
            geo_checked += 1
        systems += 1
    assert violations == 0
    report(6, "surgery fixpoint",
           f"{systems} systems, {geo_checked} geometric reshortenings, "
           f"0 violations, {time.time() - started:.1f}s")


def test_criterion_7_td_pipeline_safety():
    started = time.time()
    rng = random.Random(7)
    checked = 0
    overrides = Thresholds(rule2_baseline=1)
    while checked < 300:
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(0, 3))
        if g.m > 9:
            continue
        out = run_pipeline(g, overrides=overrides)
        direct = decide(g, Predicate("plain", geometric=True), cap=11,
                        want_witness=False)
        assert out.result == "decided"
        assert out.answer == direct.answer, format(sorted(g.edges.values()))
        checked += 1
    reject = run_pipeline(complete_bipartite(3, 35),
                          decomposition=k3n_decomposition(35))
    assert reject.rejected and reject.log[0]["rule"] == "I"
    report(7, "treedepth pipeline safety",
           f"{checked} graphs agree with the oracle, K(3,35) rejected at "
           f"Rule I, {time.time() - started:.1f}s")


def pendant_k4_twin(core: int, missing=()) -> Graph:
    """K_core on 0..core-1 less the edges ``missing``, with a pendant K4
    block at each of the vertices 0-3."""
    pairs = [e for e in itertools.combinations(range(core), 2)
             if e not in missing]
    for a in range(4):
        top = core + 3 * a
        pairs += itertools.combinations((a, top, top + 1, top + 2), 2)
    return Graph.build(pairs)


# name -> (graph, answer, Rule III deletions); K7 has 21 and K7 - e 20
# edges, past the geometric bound 4n - 9 = 19, and K5 is geometric 1-planar
NO_TWINS = {
    "K7+4K4": (pendant_k4_twin(7), False, 4),
    "K7-e+4K4": (pendant_k4_twin(7, [(0, 6)]), False, 4),
    "K5+4K4": (pendant_k4_twin(5), True, 5),
}


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("name", sorted(NO_TWINS))
def test_pipeline_answers_no_twins(name, descending):
    """Beside criterion 7, whose graphs all answer YES: Rule III deletes
    the pendant K4 blocks and keeps a NO core, under chain decompositions
    in increasing and in decreasing id order.  A pipeline that deletes a
    child it should keep turns the NO answers into YES."""
    g, answer, deletions = NO_TWINS[name]
    order = sorted(g.vertices, reverse=descending)
    dec = TreedepthDecomposition(
        {v: (order[i - 1] if i else -1) for i, v in enumerate(order)})
    out = run_pipeline(g, decomposition=dec)
    assert (out.result, out.answer) == ("decided", answer)
    assert [ev["rule"] for ev in out.deletions] == ["III"] * deletions


def test_criterion_8_reduction_structure():
    started = time.time()
    li = gen_binpack_instance(BinPackInstance((3, 1, 2, 2), 2, 4), raw=True)
    assert len(li.edges_with_label("red-left")) == 5
    assert len(li.edges_with_label("red-right")) == 8
    assert len(li.edges_with_label("purple")) == 1
    sizes = sorted(
        sum(1 for v, l in li.vertex_labels.items()
            if l == f"diamond:{ui}")
        for ui in range(4))
    assert sizes == [1, 2, 2, 3]
    w = fvs_witness(li)
    assert len(w) <= 48
    assert feedback_edge_set(li.graph.remove_vertices(w)).ell == 0
    bags = pathwidth_witness(li)
    width = validate_path_decomposition(li.graph, bags)
    assert width <= 15
    report(8, "reduction structure",
           f"paths 5/8, 1 purple, diamonds {sizes}, |FVS|={len(w)}, "
           f"width={width}, {time.time() - started:.2f}s")


def test_criterion_9_bandwidth_lift():
    started = time.time()
    rng = random.Random(9)
    for trial in range(200):
        g = random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 4))
        perm = sorted(g.vertices, key=lambda v: rng.random())
        sigma = LinearOrdering({v: i + 1 for i, v in enumerate(perm)})
        hg = random_connected_graph(rng, rng.randint(2, 6), rng.randint(0, 3))
        h = TwoTerminalGadget(hg, *sorted(hg.vertices)[:2])
        lifted, star = bandwidth_lift(g, sigma, h)
        b = sigma.bandwidth(g)
        assert star.bandwidth(lifted) <= bandwidth_bound(b, h.t)
    report(9, "bandwidth lift",
           f"200 random (g, H) pairs within the bound, "
           f"{time.time() - started:.1f}s")


def _random_path_system(rng: random.Random) -> Graph:
    """Graph decomposing into f degree-2 paths, each of length >= f-1."""
    kind = rng.random()
    if kind < 0.2:
        n = rng.randint(3, 9)  # single cycle
        return Graph.build([(i, (i + 1) % n) for i in range(n)])
    groups = 1 if kind < 0.8 else 2
    f = rng.randint(3, 4) * groups
    pairs = []
    nxt = 2 * groups
    for grp in range(groups):
        u, v = 2 * grp, 2 * grp + 1
        for _ in range(f // groups):
            length = f - 1 + rng.randint(0, 3)
            chain = [u] + list(range(nxt, nxt + length - 1)) + [v]
            nxt += length - 1
            pairs.extend(zip(chain, chain[1:]))
    return Graph.build(pairs)


def test_criterion_10_convex_certificate():
    started = time.time()
    rng = random.Random(10)
    for trial in range(50):
        g = _random_path_system(rng)
        dec = decompose_degree2_paths(g)
        assert all(l >= dec.p - 1 for l in dec.lengths)
        coords = convex_certificate(g)
        rep = validate_geometric_1planar(coords, g)
        assert rep.ok, rep.violations
    report(10, "convex certificate",
           f"50 systems validated exactly, {time.time() - started:.1f}s")
