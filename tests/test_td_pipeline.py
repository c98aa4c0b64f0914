from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import zlib
from types import SimpleNamespace

import pytest

from oneplanar import decider
from oneplanar.cli import main
from oneplanar.decider import CapExceeded, Predicate, decide
from oneplanar.graph import (
    Graph,
    GraphError,
    TreedepthDecomposition,
    connected_components,
    format_edge_list,
)
from oneplanar.td_pipeline import (
    TDContext,
    Thresholds,
    apply_rule1,
    apply_rule2,
    apply_rule3,
    _rule2_pairs,
    normalize_decomposition,
    parse_decomposition,
    rules_apply_below,
    run_pipeline,
)

import rules_oracle as oracle
from conftest import complete_bipartite, complete_graph, random_connected_graph


def k3n_decomposition(n: int) -> TreedepthDecomposition:
    """Chain 0-1-2 over the 3-side of K_{3,n}, leaves below 2: depth 4."""
    parent = {0: -1, 1: 0, 2: 1}
    parent.update({v: 2 for v in range(3, 3 + n)})
    return TreedepthDecomposition(parent)


def yes_oracle(g, pred, cap=None, memo=None, want_witness=False):
    return SimpleNamespace(answer=True)


def no_oracle(g, pred, cap=None, memo=None, want_witness=False):
    return SimpleNamespace(answer=False)


# ---------------------------------------------------------------------------
# Oracle accounting
# ---------------------------------------------------------------------------

def test_final_call_over_cap_is_counted():
    calls = []

    def capped_final(g, pred, cap=None, memo=None, want_witness=False):
        calls.append(pred.variant)
        if pred.variant == "plain":
            raise CapExceeded("final decision over the cap")
        return SimpleNamespace(answer=False)

    g, dec = three_path_children()
    out = run_pipeline(g, decomposition=dec, oracle=capped_final,
                       overrides=Thresholds(rule2_baseline=1))
    assert out.result == "reduced"
    assert calls[-1] == "plain" and len(calls) > 1  # Rule II ran first
    assert out.oracle_calls == len(calls)


# ---------------------------------------------------------------------------
# Rule I
# ---------------------------------------------------------------------------

def test_k3_35_rejects_at_rule_one():
    g = complete_bipartite(3, 35)
    dec = k3n_decomposition(35)
    assert dec.depth == 4  # threshold 2^5 + 3 = 35
    out = run_pipeline(g, decomposition=dec)
    assert out.rejected
    assert out.log[0]["rule"] == "I"
    assert out.log[0]["threshold"] == 35


def test_k3_34_does_not_trigger_rule_one():
    g = complete_bipartite(3, 34)
    out = run_pipeline(g, decomposition=k3n_decomposition(34))
    assert not out.rejected  # final instance exceeds the cap: reduced
    assert out.result == "reduced"


def test_rule_one_ignores_small_attachments():
    # many children attached to only two ancestors are not counted
    g = complete_bipartite(2, 40)
    parent = {0: -1, 1: 0}
    parent.update({v: 1 for v in range(2, 42)})
    dec = TreedepthDecomposition(parent)
    ctx = TDContext(g, dec, dec.depth, Thresholds(), yes_oracle, 11)
    assert apply_rule1(ctx, 1) is None


# ---------------------------------------------------------------------------
# Rule II
# ---------------------------------------------------------------------------

def three_path_children():
    """a=0, b=1 joined by three length-2 paths; middles are children of 1."""
    g = Graph.build([(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    parent = {0: -1, 1: 0, 2: 1, 3: 1, 4: 1}
    return g, TreedepthDecomposition(parent)


def test_rule_two_noop_at_baseline():
    g, dec = three_path_children()
    ctx = TDContext(g, dec, dec.depth, Thresholds(rule2_baseline=3),
                    yes_oracle, 11)
    assert apply_rule2(ctx, 1, 0, 1) == "noop"
    assert ctx.graph.m == g.m


def test_rule_two_deletes_outer_children():
    g, dec = three_path_children()
    ctx = TDContext(g, dec, dec.depth, Thresholds(rule2_baseline=1),
                    decide, 11)
    assert apply_rule2(ctx, 1, 0, 1) == "mutated"
    # two overflow children were (a,b)-outer (paths), hence deleted
    assert ctx.graph.vertices == frozenset({0, 1, 2})
    assert len([ev for ev in ctx.log if ev["action"] == "delete"]) == 2


def test_rule_two_reject_branch_with_injected_thresholds():
    # genuine non-(a,b)-outer children exceed the brute-force scale (the
    # smallest known rigid gadgets are K6-based), so the rejection branch is
    # exercised with a stubbed oracle
    g, dec = three_path_children()
    ctx = TDContext(g, dec, dec.depth,
                    Thresholds(rule2_baseline=0, rule2_reject=3),
                    no_oracle, 11)
    assert apply_rule2(ctx, 1, 0, 1) == "rejected"
    breach = [ev for ev in ctx.log if ev["action"] == "reject"][0]
    assert breach["survivors"] == 3 and breach["threshold"] == 3


def test_rule_two_pair_order_is_immaterial():
    # two disjoint pairs at one node: children sets are disjoint by
    # definition of the attachment, so processing order cannot matter
    g = Graph.build([(0, 1), (0, 2), (1, 2),
                     (0, 3), (1, 3), (0, 4), (2, 4), (0, 5), (2, 5)])
    parent = {0: -1, 1: 0, 2: 1, 3: 2, 4: 2, 5: 2}
    dec = TreedepthDecomposition(parent)
    results = []
    for order in (((0, 1), (0, 2)), ((0, 2), (0, 1))):
        ctx = TDContext(g, dec, dec.depth, Thresholds(rule2_baseline=0),
                        decide, 11)
        for a, b in order:
            apply_rule2(ctx, 2, a, b)
        results.append(sorted(ctx.graph.vertices))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Rule III
# ---------------------------------------------------------------------------

def test_rule_three_deletes_outer_children():
    # two triangles sharing vertex 2
    g = Graph.build([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    from oneplanar.graph import treedepth_decomposition
    dec = treedepth_decomposition(g)
    ctx = TDContext(g, dec, dec.depth, Thresholds(), decide, 11)
    assert apply_rule3(ctx, ctx.blocks(), 2) == "mutated"
    assert ctx.graph.vertices == frozenset({2})


def test_rule_three_single_child_never_rejects():
    # m >= 1 implies the default threshold m+2 >= 3 > 1
    g = Graph.build([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    from oneplanar.graph import treedepth_decomposition
    dec = treedepth_decomposition(g)
    ctx = TDContext(g, dec, dec.depth, Thresholds(), no_oracle, 11)
    assert apply_rule3(ctx, ctx.blocks(), 2) != "rejected"


def test_rule_three_reject_branch_with_stub():
    g = Graph.build([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    from oneplanar.graph import treedepth_decomposition
    dec = treedepth_decomposition(g)
    ctx = TDContext(g, dec, dec.depth, Thresholds(rule3_reject=2),
                    no_oracle, 11)
    assert apply_rule3(ctx, ctx.blocks(), 2) == "rejected"


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_planar_graph_decides_yes_without_rules():
    out = run_pipeline(complete_graph(4))
    assert out.result == "decided" and out.answer is True


def test_pipeline_equivalence_small(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(0, 2))
        if g.m > 9:
            continue
        out = run_pipeline(g, overrides=Thresholds(rule2_baseline=1))
        direct = decide(g, Predicate("plain", geometric=True), cap=11,
                        want_witness=False)
        assert out.result == "decided"
        assert out.answer == direct.answer
        # deletion monotonicity
        assert out.graph.vertices <= g.vertices
        # every deletion is justified by a recorded yes answer
        for ev in out.deletions:
            assert ev.get("oracle") is True


def test_disconnected_components_processed_independently():
    g = Graph.build([(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)])
    out = run_pipeline(g)
    assert out.result == "decided" and out.answer is True


def test_parse_decomposition_and_normalize():
    text = "0 -1\n1 0\n2 1\n"
    dec = parse_decomposition(text)
    assert dec.parent == {0: -1, 1: 0, 2: 1}
    g = Graph.build([(0, 1), (1, 2)])
    norm = normalize_decomposition(g, dec)
    assert norm.depth <= dec.depth


def test_normalize_splits_disconnected_child():
    # children {2,3} of 1 induce two components: they become siblings
    g = Graph.build([(0, 1), (1, 2), (1, 3)])
    dec = TreedepthDecomposition({0: -1, 1: 0, 2: 1, 3: 2})
    norm = normalize_decomposition(g, dec)
    assert norm.parent[3] != 2
    norm.validate(g)


def test_normalize_keeps_adjacent_vertices_apart():
    """In the chain 0-2-3-1 the old split at 2 moved 3 up to 0, and the
    split at 3 then moved 1 up to 0 too, a sibling of its neighbour 2, so
    Rule II acted at 0 on an invalid decomposition; in the elimination tree
    1 stays below 2 and Rule II acts at 2."""
    g = Graph.build([(0, 1), (0, 2), (0, 3), (1, 2)])
    dec = parse_decomposition("0 -1\n2 0\n3 2\n1 3\n")
    norm = normalize_decomposition(g, dec)
    norm.validate(g)
    assert norm.parent == {0: -1, 2: 0, 3: 0, 1: 2}
    out = run_pipeline(g, decomposition=dec, oracle=yes_oracle,
                       overrides=Thresholds(rule2_baseline=0))
    rule2 = [ev for ev in out.log if ev["rule"] == "II"]
    assert [(ev["node"], ev["pair"]) for ev in rule2] == [(2, [0, 2])]


def random_decomposition(rng, n: int
                         ) -> tuple[Graph, TreedepthDecomposition]:
    """A random rooted forest on 0..n-1 and a graph whose edges are random
    ancestor-descendant pairs of it, so the forest is a valid, usually not
    normalized, decomposition of a graph that may be disconnected."""
    order = rng.sample(range(n), n)
    parent = {v: (order[rng.randrange(i)] if i and rng.random() < 0.9
                  else -1) for i, v in enumerate(order)}
    pairs = []
    for v in order:
        u = parent[v]
        while u != -1:
            if rng.random() < 0.4:
                pairs.append((u, v))
            u = parent[u]
    return (Graph.build(pairs, vertices=range(n)),
            TreedepthDecomposition(parent))


def chain_decomposition(rng, g: Graph) -> TreedepthDecomposition:
    """The vertices of g as one chain in random order: every pair is
    comparable, so any graph on them is covered."""
    order = rng.sample(sorted(g.vertices), g.n)
    return TreedepthDecomposition(
        {v: (order[i - 1] if i else -1) for i, v in enumerate(order)})


def normalization_cases(rng, count: int):
    """Seeded (graph, valid decomposition) pairs: random forests with
    ancestor-descendant edges, and random connected graphs under a
    randomized DFS tree or a chain in random vertex order."""
    for i in range(count):
        if i % 3 == 0:
            yield random_decomposition(rng, rng.randint(1, 12))
            continue
        g = random_connected_graph(rng, rng.randint(1, 12), rng.randint(0, 6))
        yield g, (dfs_decomposition(rng, g) if i % 3 == 1
                  else chain_decomposition(rng, g))


def test_normalize_is_the_elimination_tree(rng):
    """The output validates, every subtree is connected and adjacent to its
    parent, ancestry only shrinks and depth never grows; and it is the old
    fixpoint's output, key order included, wherever that output is valid."""
    moved = old_valid = old_invalid = 0
    for g, dec in normalization_cases(rng, 1500):
        norm = normalize_decomposition(g, dec)
        norm.validate(g)
        for v, p in norm.parent.items():
            below = norm.descendants(v)
            assert len(connected_components(below, g.neighbors)) == 1
            assert p == -1 or any(p in g.neighbors(x) for x in below)
            assert set(oracle.ancestors(norm, v)) <= set(
                oracle.ancestors(dec, v))
        assert norm.depth <= dec.depth
        moved += norm.parent != dec.parent
        old = oracle.normalize_decomposition(g, dec)
        try:
            old.validate(g)
        except GraphError:
            old_invalid += 1
            continue
        old_valid += 1
        assert list(old.parent.items()) == list(norm.parent.items())
    assert moved >= 500 and old_valid >= 1000 and old_invalid >= 20


# ---------------------------------------------------------------------------
# Derived data: computed once per mutation, equal to the definitions
# ---------------------------------------------------------------------------

def k2n_ab(n: int) -> tuple[Graph, TreedepthDecomposition]:
    """K2,N plus the edge ab (a=0, b=1) under the star decomposition."""
    g = Graph.build([(0, 1)] + [(i, 2 + j) for i in range(2)
                                for j in range(n)])
    parent = {0: -1, 1: 0, **{v: 1 for v in range(2, n + 2)}}
    return g, TreedepthDecomposition(parent)


def chain(n: int) -> tuple[Graph, TreedepthDecomposition]:
    """The path 0..n-1 under the chain decomposition rooted at 0."""
    g = Graph.build([(i, i + 1) for i in range(n - 1)])
    return g, TreedepthDecomposition({i: i - 1 for i in range(n)})


def test_share_block_matches_networkx(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 6))
        dec = TreedepthDecomposition({v: -1 for v in g.vertices})
        ctx = TDContext(g, dec, 1, Thresholds(), no_oracle, 11)
        for _ in range(3):  # the last rounds often see several components
            h = nx.Graph(list(ctx.graph.edges.values()))
            h.add_nodes_from(ctx.graph.vertices)
            blocks = list(nx.biconnected_components(h))
            for a in ctx.graph.vertices:
                for b in ctx.graph.vertices - {a}:
                    want = any(a in blk and b in blk for blk in blocks)
                    assert ctx.blocks().share_block(a, b) == want
            drop = rng.sample(sorted(ctx.graph.vertices),
                              min(2, ctx.graph.n - 1))
            ctx.graph = ctx.graph.remove_vertices(drop)


def test_attachment_cache_matches_definition_after_each_mutation(
        rng, monkeypatch):
    from oneplanar import td_pipeline

    def brute(ctx):
        out = {}
        for c in ctx.decomposition.parent:
            desc = ctx.decomposition.descendants(c)
            out[c] = frozenset(u for x in desc
                               for u in ctx.graph.neighbors(x)) - desc
        return out

    real_delete = td_pipeline._delete

    def checked_delete(ctx, drop):
        real_delete(ctx, drop)
        assert ctx.attachments() == brute(ctx)

    monkeypatch.setattr(td_pipeline, "_delete", checked_delete)
    rules = set()
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 9), rng.randint(0, 4))
        out = run_pipeline(
            g, overrides=Thresholds(rule2_baseline=rng.randint(0, 1)),
            oracle=yes_oracle)
        rules.update(ev["rule"] for ev in out.deletions)
    assert rules == {"II", "III"}


def hashed_oracle(g, pred, cap=None, memo=None, want_witness=False):
    """A deterministic mix of yes and no answers."""
    key = repr((sorted(g.edges.values()), pred.variant, pred.a, pred.b))
    return SimpleNamespace(answer=zlib.crc32(key.encode()) % 3 != 0)


def dfs_decomposition(rng, g: Graph) -> TreedepthDecomposition:
    """The tree of a randomized depth-first search: every edge joins an
    ancestor and a descendant, so it is a treedepth decomposition."""
    parent = {}

    def visit(v, p):
        parent[v] = p
        nbrs = sorted(g.neighbors(v))
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in parent:
                visit(w, v)

    visit(rng.choice(sorted(g.vertices)), -1)
    return TreedepthDecomposition(parent)


def rule_test_instances(rng, count: int):
    """Seeded graphs with many children on two or three attachment vertices
    (K2,N and K3,N plus random edges) or none (random graphs), under random
    thresholds and normalized decompositions: ``count`` from randomized DFS
    trees, which are already normalized, then ``count // 3`` from chains in
    random vertex order, which normalization splits."""
    for i in range(count + count // 3):
        if rng.random() < 0.4:
            g = random_connected_graph(rng, rng.randint(3, 10),
                                       rng.randint(0, 5))
        else:
            k = rng.choice((2, 3))
            base = complete_bipartite(k, rng.randint(3, 8))
            extra = [tuple(rng.sample(sorted(base.vertices), 2))
                     for _ in range(rng.randint(0, 3))]
            g = Graph.build(list(base.edges.values()) + extra)
        start = (dfs_decomposition(rng, g) if i < count
                 else chain_decomposition(rng, g))
        dec = normalize_decomposition(g, start)
        yield g, dec, Thresholds(rule1=rng.choice((None, 1, 2, 3)),
                                 rule2_baseline=rng.randint(0, 2),
                                 rule2_reject=rng.choice((None, 2, 3)))


def assert_rule_tests_match(ctx, seen):
    for u in list(ctx.decomposition.parent):
        below = rules_apply_below(ctx, u)
        assert below == oracle.rules_apply_below(ctx, u)
        pairs = list(_rule2_pairs(ctx, u))
        assert pairs == list(oracle.phase1_pairs(ctx, u))
        mark = len(ctx.log)
        fired = apply_rule1(ctx, u)
        assert fired == oracle.apply_rule1(ctx, u)
        del ctx.log[mark:]
        seen.update({("below", below), ("pairs", bool(pairs)),
                     ("rule1", fired is not None)})


def test_rule_tests_match_old_code(rng):
    """Rule I, the Rule II pairs and `rules_apply_below` agree with the old
    code at every node before Phase I and after each Rule II call; the
    pairs are drawn in step with the old Phase I loop, one Rule II call
    between draws, so the block test sees the same deletions."""
    seen = set()
    for g, dec, thresholds in rule_test_instances(rng, 300):
        ctx = TDContext(g, dec, dec.depth, thresholds, hashed_oracle, 11)
        twin = TDContext(g, dec, dec.depth, thresholds, hashed_oracle, 11)
        assert_rule_tests_match(ctx, seen)
        levels = dec.levels
        for v in sorted(levels, key=lambda u: (-levels[u], u)):
            if v not in ctx.decomposition.parent:
                continue
            for got, want in itertools.zip_longest(
                    _rule2_pairs(ctx, v), oracle.phase1_pairs(twin, v)):
                assert got == want
                seen.add(("rule2", apply_rule2(ctx, v, *got)))
                apply_rule2(twin, v, *want)
                assert_rule_tests_match(ctx, seen)
        assert ctx.log == twin.log
    assert seen >= {("below", True), ("below", False), ("pairs", True),
                    ("pairs", False), ("rule1", True), ("rule1", False),
                    ("rule2", "mutated"), ("rule2", "skipped"),
                    ("rule2", "rejected")}


def test_pipeline_matches_old_code_where_old_normalization_is_valid(
        rng, monkeypatch):
    """The pipeline with the elimination tree and one fixed Phase II order
    gives the old pipeline's result, answer, oracle calls and log on every
    instance where each decomposition the old one normalized came out
    valid; connected and disconnected graphs, DFS trees and chains."""
    old_normalize = oracle.normalize_decomposition
    old_valid = []

    def checked(g, t):
        out = old_normalize(g, t)
        try:
            out.validate(g)
            old_valid.append(True)
        except GraphError:
            old_valid.append(False)
        return out

    monkeypatch.setattr(oracle, "normalize_decomposition", checked)
    seen = set()
    compared = 0
    instances = itertools.chain(
        ((g, chain_decomposition(rng, g), th)
         for g, _, th in rule_test_instances(rng, 150)),
        ((g, dec, Thresholds(rule2_baseline=rng.randint(0, 1)))
         for g, dec in normalization_cases(rng, 300)))
    for g, dec, thresholds in instances:
        del old_valid[:]
        try:
            want = oracle.run_pipeline(g, dec, thresholds, hashed_oracle)
        except GraphError:  # a component cut off an ancestry path
            continue
        if not all(old_valid):
            continue
        got = run_pipeline(g, dec, thresholds, hashed_oracle)
        assert (got.result, got.answer, got.oracle_calls, got.log,
                got.graph.vertices) == (
                    want.result, want.answer, want.oracle_calls, want.log,
                    want.graph.vertices)
        compared += 1
        seen.update((ev.get("rule"), ev["action"]) for ev in got.log)
    assert compared >= 250
    assert seen >= {("II", "delete"), ("III", "delete"), ("III", "reject")}


def test_memo_key_leaves_pipeline_outcomes_unchanged(rng, monkeypatch):
    """With the decider as oracle, the breadth-first memo key and the old
    colour-refinement key give the same outcome on the rule test instances
    and on K2,N+ab for N in 20-60; on K2,N+ab, whose children differ by an
    increasing relabeling, the memo ends with as many entries under both."""
    def run(g, dec, thresholds, key):
        memos = []

        def oracle_keeping_memos(g, pred, memo=None, **kwargs):
            memos.append(memo)
            return decide(g, pred, memo=memo, **kwargs)

        monkeypatch.setattr(decider, "canonical_key", key)
        out = run_pipeline(g, dec, thresholds, oracle_keeping_memos)
        entries = sum(len(m) for m in {id(m): m for m in memos}.values())
        return (out.result, out.answer, out.oracle_calls, out.log,
                out.graph.vertices), entries

    new_key = decider.canonical_key
    for g, dec, thresholds in rule_test_instances(rng, 225):
        assert run(g, dec, thresholds, new_key)[0] == \
            run(g, dec, thresholds, oracle.canonical_key)[0]
    for n in range(20, 61):
        g = Graph.build([(0, 1)] + list(complete_bipartite(2, n).edges.values()))
        dec = TreedepthDecomposition(
            {0: -1, 1: 0, **{v: 1 for v in range(2, n + 2)}})
        assert run(g, dec, None, new_key) == \
            run(g, dec, None, oracle.canonical_key)


def test_rule_two_block_test_sees_the_deletions_before_it():
    """At node 2, the pairs {0, 1} and {0, 2} both have one child and lie
    on the 5-cycle 0-3-1-2-4; deleting child 3 at the first pair cuts the
    cycle, so the second pair is no longer drawn, as in the old loop."""
    g = Graph.build([(3, 0), (3, 1), (4, 0), (4, 2), (1, 2)])
    dec = TreedepthDecomposition({0: -1, 1: 0, 2: 1, 3: 2, 4: 2})
    ctx = TDContext(g, dec, dec.depth, Thresholds(rule2_baseline=0),
                    yes_oracle, 11)
    assert oracle.rule2_pairs(ctx, 2) == [(0, 1), (0, 2)]
    drawn = []
    for a, b in _rule2_pairs(ctx, 2):
        drawn.append((a, b))
        assert apply_rule2(ctx, 2, a, b) == "mutated"
    assert drawn == [(0, 1)] and ctx.graph.vertices == {0, 1, 2, 4}


def test_block_cut_tree_built_once_per_graph_version(monkeypatch):
    from oneplanar import td_pipeline
    calls = []
    real = td_pipeline.block_cut_tree

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(td_pipeline, "block_cut_tree", counting)
    g, dec = k2n_ab(300)
    out = run_pipeline(g, decomposition=dec)
    assert out.result == "reduced" and len(out.deletions) == 291
    assert len(calls) <= 3


def test_phase_two_reads_one_block_forest(monkeypatch):
    """Rule III deletes one leaf of the path per cut vertex; every branch
    is read from the forest Phase II starts with, so one block-cut tree is
    built, and the outcome is the one a fresh forest per call gives."""
    from oneplanar import td_pipeline
    g, dec = chain(300)
    want = oracle.run_pipeline(g, dec)
    calls = []
    real = td_pipeline.block_cut_tree

    def counting(h):
        calls.append(h.n)
        return real(h)

    monkeypatch.setattr(td_pipeline, "block_cut_tree", counting)
    got = run_pipeline(g, decomposition=dec)
    assert len(calls) == 1
    assert len(got.deletions) > 100
    assert (got.result, got.answer, got.oracle_calls, got.log,
            got.graph.vertices) == (
                want.result, want.answer, want.oracle_calls, want.log,
                want.graph.vertices)


def test_chain_visits_only_pairs_rule_two_can_act_on(monkeypatch):
    from oneplanar import td_pipeline
    calls = []
    real = td_pipeline.apply_rule2

    def counting(ctx, v, a, b):
        calls.append((v, a, b))
        return real(ctx, v, a, b)

    monkeypatch.setattr(td_pipeline, "apply_rule2", counting)
    g, dec = chain(60)
    out = run_pipeline(g, decomposition=dec)
    assert out.result == "decided" and out.answer is True
    assert len(calls) <= g.n


# sha256 of the `td-run --log` file, recorded before the derived data was
# cached: caching and batched deletions must not change a byte
LOG_DIGESTS = {
    "K2,20+ab": "235b501dfbd4dae591b2e5ac13b8db8093ff3bab8e7eb92413a6366c7386891e",
    "K2,120+ab": "78b4946322ee33c1484e68750445094050ae1581bb8b082f57bd5ef23787585c",
    "K3,20": "f3ef19dc5e2d8dedb656ceb693a46494b1ec3552759e5e2355a8216f1bbb9bec",
    "K3,34": "3d36a9e77c4d789bb682ff2f46465cfd50e8364930af88a953e0322766e9db2c",
    "K3,35": "341a0ee8b95312e6f92780bb8e3b739696743be133c4b3e30dc5941ed8fce5ef",
    "chain40": "23dfaf28efa38e5da7e05e0e6d1bf3c3d0b9ecb1a08646c5415bc3642c716043",
    "pool0": "0e9101f0fc923cefc68f4e2ede43cc223818c1dc4d7fc2c6a4018eccc06a16fc",
    "pool1": "25f7bd84dc055b2b3a14d7b5440dcd292737818ac7903233399aa26baf69d5fa",
    "pool2": "97c898d3069987ee4aa6264bdff51272b0652a53f420c4f6ad9e9ac4f42feac5",
    "pool3": "1466171edf6bb6de3b25a4760691392871f41ef66945b8bd0488b99137e49f41",
    "pool4": "ca38cb6b49740073fe19357f20631427059d38efea5e79e7d169ed8e13a49fa8",
    "pool5": "cfbe06802c68f94b073aaf7fdd883e6824a3e3936688031dcb69e100d3f1eb58",
    "pool6": "5eab76143dc0c6f08b4e1eb88a0887fb6c0beee2c1a876d93ebf8f373bb76ea3",
    "pool7": "b1f355c3bae1582f7070cd7f0ff63bc270a524347ca51d21106ab02402935192",
    "pool8": "a23e34f05667f35070977f7c6896cdd2fd283116542fd89324ac7017643989e3",
    "pool9": "7a88b2a8cd8022cd5034b39cd9ffbffc58474514df548e4bba383a1a3d3eb3b5",
    "pool10": "5eab76143dc0c6f08b4e1eb88a0887fb6c0beee2c1a876d93ebf8f373bb76ea3",
    "pool11": "9569dc56d8006fb26498b3f7acd522c65e274df2b7c6e86efbb8b8f6aac7328b",
    "pool12": "095e4836974ea24f020c717a096d1a0fa9ac34cc6fb2c6bdff2d38ccb6057abf",
    "pool13": "5d8a8ead7092caf034079e4683ca25073c43418331bd5be08af3a50a9c90df72",
    "pool14": "5eab76143dc0c6f08b4e1eb88a0887fb6c0beee2c1a876d93ebf8f373bb76ea3",
    "pool15": "483e7cca07a6682ca0964a0956d448c53e11228fa0dbcc3b3579cb53adecd40d",
    "pool16": "57a51d7645f09cdb74df431ca24b8938b7f5be37ffe9475fa17b90af14075cba",
    "pool17": "7a88b2a8cd8022cd5034b39cd9ffbffc58474514df548e4bba383a1a3d3eb3b5",
    "pool18": "a2f9eed5cd1011569b39829e0a3a266f8fa56b8363e5b3c2c31e8a03e3230818",
    "pool19": "97c898d3069987ee4aa6264bdff51272b0652a53f420c4f6ad9e9ac4f42feac5",
}


def digest_case(name: str):
    """(graph, decomposition or None, --override-thresholds or None)."""
    if name.startswith("K2,"):
        return (*k2n_ab(int(name[3:-3])), None)
    if name.startswith("K3,"):
        n = int(name[3:])
        return complete_bipartite(3, n), k3n_decomposition(n), None
    if name.startswith("chain"):
        return (*chain(int(name[5:])), None)
    # pool style: random connected graphs with 3-6 vertices, <= 9 edges
    rng = random.Random(int(name[4:]))
    g = random_connected_graph(rng, rng.randint(3, 6), rng.randint(0, 3))
    return g, None, '{"rule2-baseline": 1}'


@pytest.mark.parametrize("name", sorted(LOG_DIGESTS))
def test_td_run_log_is_byte_identical(tmp_path, name):
    g, dec, overrides = digest_case(name)
    (tmp_path / "g").write_text(format_edge_list(g))
    argv = ["td-run", "--in", str(tmp_path / "g"),
            "--log", str(tmp_path / "log")]
    if dec is not None:
        (tmp_path / "t").write_text(
            "".join(f"{v} {p}\n" for v, p in dec.parent.items()))
        argv += ["--decomposition", str(tmp_path / "t")]
    if overrides is not None:
        argv += ["--override-thresholds", overrides]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    got = hashlib.sha256((tmp_path / "log").read_bytes()).hexdigest()
    assert got == LOG_DIGESTS[name]
