from __future__ import annotations

from types import SimpleNamespace

from oneplanar.decider import CapExceeded, Predicate, decide
from oneplanar.graph import Graph, TreedepthDecomposition
from oneplanar.td_pipeline import (
    TDContext,
    Thresholds,
    apply_rule1,
    apply_rule2,
    apply_rule3,
    normalize_decomposition,
    parse_decomposition,
    run_pipeline,
)

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
    assert apply_rule3(ctx, 2) == "mutated"
    assert ctx.graph.vertices == frozenset({2})


def test_rule_three_single_child_never_rejects():
    # m >= 1 implies the default threshold m+2 >= 3 > 1
    g = Graph.build([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    from oneplanar.graph import treedepth_decomposition
    dec = treedepth_decomposition(g)
    ctx = TDContext(g, dec, dec.depth, Thresholds(), no_oracle, 11)
    assert apply_rule3(ctx, 2) != "rejected"


def test_rule_three_reject_branch_with_stub():
    g = Graph.build([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    from oneplanar.graph import treedepth_decomposition
    dec = treedepth_decomposition(g)
    ctx = TDContext(g, dec, dec.depth, Thresholds(rule3_reject=2),
                    no_oracle, 11)
    assert apply_rule3(ctx, 2) == "rejected"


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
