"""The treedepth-parameterized decision pipeline: counting-based rejection
(Rule I), bottom-up child filtering against an (a,b)-outer oracle with a
rejection threshold (Rule II), cut-vertex filtering against a v-outer oracle
(Rule III), and a final brute-force decision on the reduced instance.

Default thresholds (d = depth of the initial decomposition):
Rule I fires at 2^(d+1)+3 same-attachment children, Rule II keeps a baseline
of 2^d+1 children and rejects when the surviving overflow reaches 2m+3, and
Rule III rejects at m+2 surviving children (m = the largest child edge
count).  Overrides exist so the deletion and rejection branches can be
exercised at all on instances small enough for the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import decider
from .decider import CapExceeded, Predicate
from .graph import (
    BlockCutTree,
    Graph,
    GraphError,
    TreedepthDecomposition,
    block_cut_tree,
    connected_components,
    parse_int_pairs,
    treedepth_decomposition,
)


@dataclass(frozen=True)
class Thresholds:
    rule1: Optional[int] = None
    rule2_baseline: Optional[int] = None
    rule2_reject: Optional[int] = None  # replaces 2m+3 when set
    rule3_reject: Optional[int] = None  # replaces m+2 when set

    def rule1_at(self, d: int) -> int:
        return self.rule1 if self.rule1 is not None else 2 ** (d + 1) + 3

    def rule2_baseline_at(self, d: int) -> int:
        return (self.rule2_baseline if self.rule2_baseline is not None
                else 2 ** d + 1)

    def rule2_reject_at(self, m: int) -> int:
        return self.rule2_reject if self.rule2_reject is not None else 2 * m + 3

    def rule3_reject_at(self, m: int) -> int:
        return self.rule3_reject if self.rule3_reject is not None else m + 2


@dataclass
class TDContext:
    graph: Graph
    decomposition: TreedepthDecomposition
    d: int  # depth of the initial decomposition; thresholds stay fixed
    thresholds: Thresholds
    oracle: Callable
    oracle_cap: int
    log: list = field(default_factory=list)
    oracle_calls: int = 0
    memo: dict = field(default_factory=dict)

    def ask(self, g: Graph, pred: Predicate) -> bool:
        self.oracle_calls += 1
        return self.oracle(g, pred, cap=self.oracle_cap, memo=self.memo,
                           want_witness=False).answer


@dataclass
class PipelineOutcome:
    result: str  # "rejected" | "reduced" | "decided"
    answer: Optional[bool]
    graph: Graph
    deletions: list
    oracle_calls: int
    log: list

    @property
    def rejected(self) -> bool:
        return self.result == "rejected"


# ---------------------------------------------------------------------------
# decomposition plumbing
# ---------------------------------------------------------------------------

def parse_decomposition(text: str) -> TreedepthDecomposition:
    """One "vertex parent" pair per line, roots marked with parent -1."""
    return TreedepthDecomposition(
        dict(parse_int_pairs(text, "vertex parent")))


def normalize_decomposition(g: Graph, t: TreedepthDecomposition
                            ) -> TreedepthDecomposition:
    """Make every child subtree induce a connected subgraph with at least
    one neighbor among its ancestors; both moves never increase depth."""
    t.validate(g)
    parent = dict(t.parent)
    changed = True
    while changed:
        changed = False
        work = TreedepthDecomposition(dict(parent))
        for v in sorted(parent):
            if parent[v] == -1:
                continue
            desc = work.descendants(v)
            comps = connected_components(desc, g.neighbors)
            if len(comps) > 1:
                # split: components not holding v become separate children
                for comp in comps:
                    if v in comp:
                        continue
                    for r in [u for u in comp if parent[u] not in comp]:
                        parent[r] = parent[v]
                changed = True
                break
            attach = {u for x in desc for u in g.neighbors(x)} - desc
            if not attach:
                # lift: the subtree has no neighbor among its ancestors
                parent[v] = parent[parent[v]]
                changed = True
                break
    return TreedepthDecomposition(parent)


def _attachment(ctx: TDContext, c: int) -> frozenset[int]:
    desc = ctx.decomposition.descendants(c)
    out = set()
    for v in desc:
        out.update(ctx.graph.neighbors(v))
    return frozenset(out - desc)


def _children_by_attachment(ctx: TDContext, v: int
                            ) -> dict[frozenset[int], list[int]]:
    """The children of v grouped by attachment set, each group in child
    order; Rule I reads the groups of size >= 3, Rule II those of size 2."""
    groups: dict[frozenset[int], list[int]] = {}
    for c in ctx.decomposition.children.get(v, ()):
        groups.setdefault(_attachment(ctx, c), []).append(c)
    return groups


def _delete_subtree(ctx: TDContext, c: int, rule: str, reason: dict) -> None:
    desc = ctx.decomposition.descendants(c)
    ctx.graph = ctx.graph.remove_vertices(desc)
    parent = {v: p for v, p in ctx.decomposition.parent.items()
              if v not in desc}
    ctx.decomposition = TreedepthDecomposition(parent)
    ctx.log.append({"rule": rule, "action": "delete", "child": c,
                    "vertices": sorted(desc), **reason})


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def apply_rule1(ctx: TDContext, v: int) -> Optional[dict]:
    """Reject when >= threshold children of v share one attachment set of
    size >= 3."""
    groups = _children_by_attachment(ctx, v)
    limit = ctx.thresholds.rule1_at(ctx.d)
    for x, members in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        if len(x) >= 3 and len(members) >= limit:
            info = {"rule": "I", "action": "reject", "node": v,
                    "attachment": sorted(x), "count": len(members),
                    "threshold": limit}
            ctx.log.append(info)
            return info
    return None


def _child_test_graph(ctx: TDContext, c: int, a: int, b: int) -> Graph:
    """The child subtree together with its two attachment vertices, minus
    the edge ab (the fusion argument books that edge to the rest)."""
    desc = ctx.decomposition.descendants(c)
    sub = ctx.graph.induced_subgraph(desc | {a, b})
    ab = sub.edge_between(a, b)
    if ab is not None:
        sub = sub.subgraph_of_edges(set(sub.edges) - {ab})
        sub = Graph(sub.vertices | {a, b}, sub.edges)
    return sub


def apply_rule2(ctx: TDContext, v: int, a: int, b: int) -> str:
    """Filter the children of v attached exactly to {a, b}: keep a baseline,
    oracle-test the overflow for (a,b)-outer geometric 1-planarity, delete
    the yes children, and reject when too many no children survive.

    Returns one of "noop", "mutated", "rejected", "skipped"."""
    baseline = ctx.thresholds.rule2_baseline_at(ctx.d)
    children = _children_by_attachment(ctx, v).get(frozenset((a, b)), [])
    if len(children) <= baseline:
        return "noop"
    if rules_apply_below(ctx, v):
        ctx.log.append({"rule": "II", "action": "skip", "node": v,
                        "reason": "rules apply to a proper descendant"})
        return "skipped"
    overflow = sorted(children)[baseline:]  # lexicographically last ones
    surviving = []
    mutated = False
    for c in overflow:
        child = _child_test_graph(ctx, c, a, b)
        try:
            ok = ctx.ask(child, Predicate("ab-outer", a=a, b=b,
                                          geometric=True))
        except CapExceeded:
            ctx.log.append({"rule": "II", "action": "skip-child", "child": c,
                            "reason": "oracle cap exceeded"})
            surviving.append((c, child.m))
            continue
        if ok:
            _delete_subtree(ctx, c, "II",
                            {"node": v, "pair": [a, b], "oracle": True})
            mutated = True
        else:
            surviving.append((c, child.m))
    if surviving:
        m = max(size for _, size in surviving)
        limit = ctx.thresholds.rule2_reject_at(m)
        if len(surviving) >= limit:
            ctx.log.append({"rule": "II", "action": "reject", "node": v,
                            "pair": [a, b], "survivors": len(surviving),
                            "m": m, "threshold": limit})
            return "rejected"
    return "mutated" if mutated else "noop"


def rules_apply_below(ctx: TDContext, v: int) -> bool:
    """Whether Rule I or Rule II would fire at a proper descendant of v."""
    rule1 = ctx.thresholds.rule1_at(ctx.d)
    baseline = ctx.thresholds.rule2_baseline_at(ctx.d)
    for u in sorted(ctx.decomposition.descendants(v) - {v}):
        groups = _children_by_attachment(ctx, u).items()
        if any(len(x) >= 3 and len(cs) >= rule1 for x, cs in groups):
            return True
        if any(len(x) == 2 and len(cs) > baseline
               and _share_block(ctx.graph, *sorted(x)) for x, cs in groups):
            return True
    return False


def _share_block(g: Graph, a: int, b: int) -> bool:
    comp = next((c for c in g.components() if a in c), None)
    if comp is None or b not in comp:
        return False
    bct = block_cut_tree(g.induced_subgraph(comp))
    return any(a in blk and b in blk for blk in bct.blocks)


# ---------------------------------------------------------------------------
# Rule III over the block-cut tree
# ---------------------------------------------------------------------------

def _incidence_maps(bct: BlockCutTree) -> tuple[dict, dict]:
    """(blocks at each cut vertex, cut vertices of each block)."""
    blocks_of: dict[int, list[int]] = {c: [] for c in bct.cut_vertices}
    cuts_of: dict[int, list[int]] = {i: [] for i in range(len(bct.blocks))}
    for c, i in bct.incidence:
        blocks_of[c].append(i)
        cuts_of[i].append(c)
    return blocks_of, cuts_of


def _rooted_bct(g: Graph
                ) -> Optional[tuple[BlockCutTree, tuple, dict, dict]]:
    """Block-cut tree of connected g rooted at its smallest cut vertex;
    returns (bct, its incidence maps, depth per cut vertex, children blocks
    per cut vertex)."""
    bct = block_cut_tree(g)
    if not bct.cut_vertices:
        return None
    root = min(bct.cut_vertices)
    # BFS over the bipartite cut/block incidence
    maps = _incidence_maps(bct)
    blocks_of, cuts_of = maps
    depth = {root: 0}
    child_blocks: dict[int, list[int]] = {root: []}
    seen_blocks = set()
    frontier = [root]
    while frontier:
        nxt = []
        for c in frontier:
            for i in blocks_of[c]:
                if i in seen_blocks:
                    continue
                seen_blocks.add(i)
                child_blocks[c].append(i)
                for c2 in cuts_of[i]:
                    if c2 not in depth:
                        depth[c2] = depth[c] + 1
                        child_blocks[c2] = []
                        nxt.append(c2)
        frontier = nxt
    return bct, maps, depth, child_blocks


def _block_subtree_vertices(bct: BlockCutTree, maps: tuple, v: int,
                            block_idx: int) -> frozenset[int]:
    """Vertices of the union of blocks hanging below cut vertex v through
    the given incident block (v included): blocks reachable from it in the
    block-cut tree without passing back through v."""
    blocks_of, cuts_of = maps
    in_tree = {block_idx}
    frontier = [block_idx]
    while frontier:
        bi = frontier.pop()
        for c in cuts_of[bi]:
            if c == v:
                continue
            for bj in blocks_of[c]:
                if bj not in in_tree:
                    in_tree.add(bj)
                    frontier.append(bj)
    return frozenset(x for bi in in_tree for x in bct.blocks[bi])


def apply_rule3(ctx: TDContext, v: int) -> str:
    """At cut vertex v, oracle-test each child subgraph (union of blocks
    below one incident block) for v-outer geometric 1-planarity; delete the
    yes children; reject when too many no children survive."""
    if not ctx.graph.is_connected():
        raise GraphError("rule III runs per connected component")
    rooted = _rooted_bct(ctx.graph)
    if rooted is None:
        return "noop"
    bct, maps, _, child_blocks = rooted
    if v not in child_blocks:
        return "noop"
    surviving = []
    mutated = False
    for bi in sorted(child_blocks[v], key=lambda i: sorted(bct.blocks[i])):
        sub_vertices = _block_subtree_vertices(bct, maps, v, bi)
        child = ctx.graph.induced_subgraph(sub_vertices)
        try:
            ok = ctx.ask(child, Predicate("a-outer", a=v, geometric=True))
        except CapExceeded:
            ctx.log.append({"rule": "III", "action": "skip-child",
                            "cut": v, "reason": "oracle cap exceeded"})
            surviving.append(child.m)
            continue
        if ok:
            drop = sub_vertices - {v}
            ctx.graph = ctx.graph.remove_vertices(drop)
            parent = {u: p for u, p in ctx.decomposition.parent.items()
                      if u not in drop}
            fix = {u: (p if p not in drop else -1)
                   for u, p in parent.items()}
            ctx.decomposition = TreedepthDecomposition(fix)
            ctx.log.append({"rule": "III", "action": "delete", "cut": v,
                            "vertices": sorted(drop), "oracle": True})
            mutated = True
        else:
            surviving.append(child.m)
    if surviving:
        m = max(surviving)
        limit = ctx.thresholds.rule3_reject_at(m)
        if len(surviving) >= limit:
            ctx.log.append({"rule": "III", "action": "reject", "cut": v,
                            "survivors": len(surviving), "m": m,
                            "threshold": limit})
            return "rejected"
    return "mutated" if mutated else "noop"


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def run_pipeline(g: Graph, decomposition: Optional[TreedepthDecomposition] = None,
                 overrides: Optional[Thresholds] = None,
                 oracle: Optional[Callable] = None,
                 oracle_cap: int = decider.DEFAULT_EDGE_CAP,
                 td_cap: int = 20) -> PipelineOutcome:
    """Decide geometric 1-planarity via Rules I-III plus a final brute-force
    decision; components are processed independently.  Returns a reduction
    instead of a decision when a cap is exceeded."""
    thresholds = overrides or Thresholds()
    oracle = oracle or decider.decide

    comps = g.components()
    if len(comps) > 1:
        partials = []
        for comp in comps:
            sub_dec = None
            if decomposition is not None:
                sub_dec = TreedepthDecomposition(
                    {v: (p if p in comp else -1)
                     for v, p in decomposition.parent.items() if v in comp})
            partials.append(run_pipeline(g.induced_subgraph(comp), sub_dec,
                                         overrides, oracle, oracle_cap,
                                         td_cap))
        return _combine(g, partials)

    if not g.vertices:
        return PipelineOutcome("decided", True, g, [], 0, [])

    if decomposition is None:
        try:
            decomposition = treedepth_decomposition(g, cap=td_cap)
        except GraphError:
            return PipelineOutcome("reduced", None, g, [],
                                   0, [{"action": "no-decomposition"}])
    decomposition = normalize_decomposition(g, decomposition)

    ctx = TDContext(g, decomposition, decomposition.depth, thresholds,
                    oracle, oracle_cap)

    # Phase I: Rules I and II bottom-up over the decomposition
    order = sorted(ctx.decomposition.parent,
                   key=lambda v: (-len(ctx.decomposition.ancestors(v)), v))
    for v in order:
        if v not in ctx.decomposition.parent:
            continue  # removed by an earlier deletion
        if apply_rule1(ctx, v) is not None:
            return PipelineOutcome("rejected", False, ctx.graph,
                                   _deletions(ctx), ctx.oracle_calls, ctx.log)
        anc = ctx.decomposition.ancestors(v)
        for i, a in enumerate(anc):
            for b in anc[i + 1:]:
                if not _share_block(ctx.graph, a, b):
                    continue
                if apply_rule2(ctx, v, a, b) == "rejected":
                    return PipelineOutcome("rejected", False, ctx.graph,
                                           _deletions(ctx), ctx.oracle_calls,
                                           ctx.log)

    # Phase II: Rule III bottom-up over the block-cut tree
    processed: set[int] = set()
    while True:
        rooted = _rooted_bct(ctx.graph) if ctx.graph.m else None
        if rooted is None:
            break
        _, _, depth, _ = rooted
        todo = [c for c in depth if c not in processed]
        if not todo:
            break
        v = max(todo, key=lambda c: (depth[c], -c))
        processed.add(v)
        if apply_rule3(ctx, v) == "rejected":
            return PipelineOutcome("rejected", False, ctx.graph,
                                   _deletions(ctx), ctx.oracle_calls, ctx.log)

    # final decision on the reduced instance
    try:
        answer = ctx.ask(ctx.graph, Predicate("plain", geometric=True))
    except CapExceeded:
        return PipelineOutcome("reduced", None, ctx.graph, _deletions(ctx),
                               ctx.oracle_calls, ctx.log)
    return PipelineOutcome("decided", answer, ctx.graph,
                           _deletions(ctx), ctx.oracle_calls, ctx.log)


def _deletions(ctx: TDContext) -> list:
    return [ev for ev in ctx.log if ev.get("action") == "delete"]


def _combine(g: Graph, partials: list[PipelineOutcome]) -> PipelineOutcome:
    deletions = [d for p in partials for d in p.deletions]
    calls = sum(p.oracle_calls for p in partials)
    log = [ev for p in partials for ev in p.log]
    if any(p.rejected for p in partials):
        return PipelineOutcome("rejected", False, g, deletions, calls, log)
    if any(p.result == "reduced" for p in partials):
        keep = frozenset(v for p in partials for v in p.graph.vertices)
        return PipelineOutcome("reduced", None, g.induced_subgraph(keep),
                               deletions, calls, log)
    answer = all(p.answer for p in partials)
    keep = frozenset(v for p in partials for v in p.graph.vertices)
    return PipelineOutcome("decided", answer, g.induced_subgraph(keep),
                           deletions, calls, log)
