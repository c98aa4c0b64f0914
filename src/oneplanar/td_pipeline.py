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

`normalize_decomposition` makes the input decomposition its elimination
tree, whose subtrees are connected, before the graph is split into
components; each tree then spans one component.  Phase I visits only the
internal nodes of the decomposition, deepest first: neither Rule I nor Rule
II fires at a node without children.  Phase II is one bottom-up pass over
the cut vertices of the block forest Phase I leaves, deepest first, then by
label; it keeps below[c], c plus what survives of its child branches.  The
branch of v through its child block bi is blocks[bi] and below[c] for the
other cut vertices c of bi, less v; each such c came first.  Rule III at v
deletes only branches below v, so no other cut vertex changes its depth or
cut status, and a deleted branch below c holds neither c nor a vertex of
bi: this is the branch a fresh forest would give.  The graph is cut down
once, at the end or before a reject: a branch holds no deleted vertex, and
its test graph drops the edges that leave it and its rim.

Structure is derived once per mutation, not once per query.  `TDContext`
caches it keyed on the identity of ``ctx.graph`` and ``ctx.decomposition``;
both are immutable and every deletion assigns new ones, so any reassignment
invalidates the cache.  Two things are cached:

* the block forest of the graph: the block-cut tree of every component,
  rooted at its smallest cut vertex, with the blocks holding each vertex
  (a disconnected graph gets one lowpoint search per component on the
  graph itself, not an induced subgraph per component).  It answers "do
  a and b lie in a common block?" for the Rule II pairs of Phase I and
  `rules_apply_below` that are not joined by an edge (an edge lies in a
  block, so adjacent a and b share one without a forest), and gives
  Phase II its cut vertices and blocks;
* the attachment set of every decomposition node, bottom-up:
  att(c) = (N(c) | union of att(children)) - desc(c), which on a valid
  decomposition is ((N(c) & anc(c)) | union of att(children)) - {c};
  desc(c) is the preorder span of c (`TreedepthDecomposition.spans`).

Each rule test is written once.  `_rule1_group` is the Rule I test,
`_rule2_groups` the Rule II baseline and `_rule2_pairs` adds the block
test; Phase I and `rules_apply_below` both read them.  `_filter_children`
is the test and reject loop of Rules II and III; its caller deletes.

Rule II deletes the yes children of one call as one batch: the children of
one decomposition node are disjoint and joined by no edge, so deleting one
changes neither the test graph nor the attachment set of another, and the
oracle and the log see what one deletion at a time gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from . import decider
from .decider import CapExceeded, Predicate
from .graph import (
    Graph,
    GraphError,
    TreedepthDecomposition,
    block_cut_tree,
    lowpoint_blocks,
    parse_vertex_map,
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
    # name -> (the objects the value was derived from, the value)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def ask(self, g: Graph, pred: Predicate) -> bool:
        self.oracle_calls += 1
        return self.oracle(g, pred, cap=self.oracle_cap, memo=self.memo,
                           want_witness=False).answer

    def _cached(self, name: str, build: Callable, *sources):
        hit = self._derived.get(name)
        if hit is None or any(x is not y for x, y in zip(hit[0], sources)):
            hit = self._derived[name] = (sources, build(*sources))
        return hit[1]

    def blocks(self) -> _BlockForest:
        """The block forest of the current graph."""
        return self._cached("blocks", _block_forest, self.graph)

    def attachments(self) -> dict[int, frozenset[int]]:
        """The attachment set of every node of the current decomposition."""
        return self._cached("attachments", _attachment_sets, self.graph,
                            self.decomposition)


@dataclass
class PipelineOutcome:
    result: str  # "rejected" | "reduced" | "decided"
    answer: Optional[bool]
    graph: Graph
    oracle_calls: int
    log: list

    @property
    def rejected(self) -> bool:
        return self.result == "rejected"

    @property
    def deletions(self) -> list:
        return [ev for ev in self.log if ev.get("action") == "delete"]


# ---------------------------------------------------------------------------
# decomposition plumbing
# ---------------------------------------------------------------------------

def parse_decomposition(text: str) -> TreedepthDecomposition:
    """One "vertex parent" pair per line, roots marked with parent -1."""
    return TreedepthDecomposition(parse_vertex_map(text, "vertex parent"))


def normalize_decomposition(g: Graph, t: TreedepthDecomposition
                            ) -> TreedepthDecomposition:
    """The elimination tree of t (Liu 1990): every subtree is connected, so
    every child subtree has a neighbour in its parent.

    One union-find pass, bottom-up over t: v becomes the parent of the top
    of every set holding a visited neighbour, each a descendant of v in t.
    Every set is connected and lies below its top in t, so ancestry only
    shrinks and depth never grows.  No other tree does this: for a valid s
    with connected subtrees and ancestry within t's, desc_s(v) is the
    component C of v in g[desc_t(v)], as a path in C leaving desc_s(v)
    would step to a proper ancestor of v in s, hence in t.  The split and
    lift fixpoint this replaces only moved vertices up to ancestors and
    stopped with every subtree connected (non-root ones with a neighbour
    above), so wherever its output was valid, it was this tree."""
    t.validate(g)
    parent = dict.fromkeys(t.parent, -1)  # the key order of t
    top: dict[int, int] = {}  # union-find over the visited vertices
    for v in reversed(t.preorder):
        top[v] = v
        for u in g.neighbors(v):
            if u not in top:
                continue
            while top[u] != u:  # path halving
                top[u] = top[top[u]]
                u = top[u]
            if u != v:
                parent[u] = top[u] = v
    return TreedepthDecomposition(parent)


def _attachment_sets(g: Graph, t: TreedepthDecomposition
                     ) -> dict[int, frozenset[int]]:
    """N(desc(c)) - desc(c) for every node c, bottom-up over the reversed
    preorder, where desc(c) is the preorder span of c."""
    span = t.spans
    att: dict[int, frozenset[int]] = {}
    for c in reversed(t.preorder):
        start, end = span[c]
        around = set(g.neighbors(c)).union(*(att[k] for k in t.children[c]))
        att[c] = frozenset(u for u in around
                           if not start <= span[u][0] < end)
    return att


def _children_by_attachment(ctx: TDContext, v: int
                            ) -> dict[frozenset[int], list[int]]:
    """The children of v grouped by attachment set, each group in child
    order; Rule I reads the groups of size >= 3, Rule II those of size 2."""
    att = ctx.attachments()
    groups: dict[frozenset[int], list[int]] = {}
    for c in ctx.decomposition.children.get(v, ()):
        groups.setdefault(att[c], []).append(c)
    return groups


def _subgraph_at(g: Graph, inner: frozenset[int], rim: tuple[int, ...]
                 ) -> Graph:
    """The edges of g at ``inner`` whose other end lies in inner or rim, on
    the vertices inner | rim; an edge between two rim vertices is left out.
    Costs the degrees of ``inner``, not a scan of all edges."""
    vs = inner.union(rim)
    ids = sorted({e for x in inner for w, e in g.adjacency[x] if w in vs})
    return Graph(vs, {e: g.edges[e] for e in ids})


def _delete(ctx: TDContext, drop: set[int]) -> None:
    """Delete ``drop`` from the graph and the decomposition in one step; a
    vertex whose parent is deleted becomes a root."""
    if not drop:
        return
    ctx.graph = ctx.graph.remove_vertices(drop)
    ctx.decomposition = TreedepthDecomposition(
        {u: (p if p not in drop else -1)
         for u, p in ctx.decomposition.parent.items() if u not in drop})


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _rule1_group(ctx: TDContext, v: int
                 ) -> Optional[tuple[frozenset[int], list[int]]]:
    """The attachment set, of size >= 3, shared by at least the Rule I
    threshold of children of v, with those children; the smallest in sorted
    order when there are several, None when there is none."""
    limit = ctx.thresholds.rule1_at(ctx.d)
    groups = _children_by_attachment(ctx, v)
    fired = [x for x, cs in groups.items() if len(x) >= 3 and len(cs) >= limit]
    if not fired:
        return None
    x = min(fired, key=sorted)
    return x, groups[x]


def apply_rule1(ctx: TDContext, v: int) -> Optional[dict]:
    """Reject when >= threshold children of v share one attachment set of
    size >= 3."""
    hit = _rule1_group(ctx, v)
    if hit is None:
        return None
    x, members = hit
    info = {"rule": "I", "action": "reject", "node": v,
            "attachment": sorted(x), "count": len(members),
            "threshold": ctx.thresholds.rule1_at(ctx.d)}
    ctx.log.append(info)
    return info


def _rule2_groups(ctx: TDContext, v: int) -> dict[frozenset[int], list[int]]:
    """The children of v grouped by attachment set, for the sets of size 2
    shared by more than the Rule II baseline of children."""
    baseline = ctx.thresholds.rule2_baseline_at(ctx.d)
    return {x: cs for x, cs in _children_by_attachment(ctx, v).items()
            if len(x) == 2 and len(cs) > baseline}


def _rule2_pairs(ctx: TDContext, v: int) -> Iterator[tuple[int, int]]:
    """The pairs of ``_rule2_groups`` that share a block, each as
    (shallower, deeper), ordered by the levels of a, then b.  A pair's block
    test runs when it is drawn, after the deletions at the pairs before."""
    level = ctx.decomposition.levels
    pairs = sorted((tuple(sorted(x, key=level.__getitem__))
                    for x in _rule2_groups(ctx, v)),
                   key=lambda ab: (level[ab[0]], level[ab[1]]))
    for a, b in pairs:
        # the edge ab lies in a block, so only a non-adjacent pair needs
        # the block forest
        if (ctx.graph.edge_between(a, b) is not None
                or ctx.blocks().share_block(a, b)):
            yield a, b


def apply_rule2(ctx: TDContext, v: int, a: int, b: int) -> str:
    """Filter the children of v attached exactly to {a, b}: keep a baseline,
    oracle-test the overflow for (a,b)-outer geometric 1-planarity, delete
    the yes children, and reject when too many no children survive.

    Returns one of "noop", "mutated", "rejected", "skipped"."""
    children = _rule2_groups(ctx, v).get(frozenset((a, b)))
    if children is None:
        return "noop"
    if rules_apply_below(ctx, v):
        ctx.log.append({"rule": "II", "action": "skip", "node": v,
                        "reason": "rules apply to a proper descendant"})
        return "skipped"
    # the lexicographically last children beyond the baseline, each tested
    # with its attachment vertices but not the edge ab (the fusion argument
    # books that edge to the rest)
    overflow = sorted(children)[ctx.thresholds.rule2_baseline_at(ctx.d):]
    tested = (({"child": c}, ctx.decomposition.descendants(c))
              for c in overflow)
    reject, drop = _filter_children(
        ctx, "II", {"node": v, "pair": [a, b]},
        Predicate("ab-outer", a=a, b=b, geometric=True), (a, b), tested,
        ctx.thresholds.rule2_reject_at)
    _delete(ctx, drop)
    return "rejected" if reject else "mutated" if drop else "noop"


def rules_apply_below(ctx: TDContext, v: int) -> bool:
    """Whether Rule I or Rule II would fire at a proper descendant of v;
    neither fires at a leaf."""
    t = ctx.decomposition
    return any(_rule1_group(ctx, u) is not None
               or next(_rule2_pairs(ctx, u), None) is not None
               for u in t.descendants(v) - {v} if t.children[u])


def _filter_children(ctx: TDContext, rule: str, where: dict, pred: Predicate,
                     rim: tuple[int, ...], children: Iterable,
                     reject_at: Callable[[int], int]) -> tuple[bool, set[int]]:
    """The child filter of Rules II and III: oracle-test each child, a (log
    tag, vertices) pair, on its subgraph with the ``rim``.  Returns whether
    the no children, those over the oracle cap included, number at least
    ``reject_at`` of their largest edge count (a reject), and the yes
    children's vertices.  ``where`` goes into the delete and reject events."""
    surviving = []
    drop: set[int] = set()
    for tag, inner in children:
        child = _subgraph_at(ctx.graph, inner, rim)
        try:
            ok = ctx.ask(child, pred)
        except CapExceeded:
            ctx.log.append({"rule": rule, "action": "skip-child", **tag,
                            "reason": "oracle cap exceeded"})
            surviving.append(child.m)
            continue
        if ok:
            drop |= inner
            ctx.log.append({"rule": rule, "action": "delete", **tag,
                            "vertices": sorted(inner), **where,
                            "oracle": True})
        else:
            surviving.append(child.m)
    if surviving:
        m = max(surviving)
        limit = reject_at(m)
        if len(surviving) >= limit:
            ctx.log.append({"rule": rule, "action": "reject", **where,
                            "survivors": len(surviving), "m": m,
                            "threshold": limit})
            return True, drop
    return False, drop


# ---------------------------------------------------------------------------
# Rule III over the block-cut tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BlockForest:
    """The block-cut trees of the components of a graph (isolated vertices
    left out), each rooted at its smallest cut vertex; block ids are global.
    """

    blocks: list[frozenset[int]]
    blocks_at: dict[int, frozenset[int]]  # vertex -> ids of its blocks
    cuts_in: list[list[int]]  # block id -> its cut vertices
    depth: dict[int, int]  # cut vertex -> distance from its tree's root
    child_blocks: dict[int, list[int]]  # cut vertex -> blocks below it

    def share_block(self, a: int, b: int) -> bool:
        return not self.blocks_at.get(a, frozenset()).isdisjoint(
            self.blocks_at.get(b, frozenset()))


def _block_forest(g: Graph) -> _BlockForest:
    blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
    disc: dict[int, int] = {}
    for comp in g.components():
        if len(comp) == g.n > 1:
            bct = block_cut_tree(g)
            blocks, cuts = list(bct.blocks), set(bct.cut_vertices)
        elif len(comp) > 1:  # one lowpoint search on g itself, no subgraph
            more, more_cuts = lowpoint_blocks(g, min(comp), disc)
            blocks += more
            cuts |= more_cuts
    at: dict[int, list[int]] = {}
    for i, blk in enumerate(blocks):
        for x in blk:
            at.setdefault(x, []).append(i)
    cuts_in = [[c for c in blk if c in cuts] for blk in blocks]
    # BFS over the bipartite cut/block incidence; sorted, so the first cut
    # vertex met in each component is its smallest
    depth: dict[int, int] = {}
    child_blocks: dict[int, list[int]] = {}
    seen: set[int] = set()
    for root in sorted(cuts):
        if root in depth:
            continue
        depth[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for c in frontier:
                child_blocks[c] = [i for i in at[c] if i not in seen]
                seen.update(child_blocks[c])
                for i in child_blocks[c]:
                    for c2 in cuts_in[i]:
                        if c2 not in depth:
                            depth[c2] = depth[c] + 1
                            nxt.append(c2)
            frontier = nxt
    return _BlockForest(blocks, {x: frozenset(ids) for x, ids in at.items()},
                        cuts_in, depth, child_blocks)


def apply_rule3(ctx: TDContext, forest: _BlockForest,
                below: dict[int, set[int]], v: int) -> tuple[bool, set[int]]:
    """At cut vertex v of ``forest``, oracle-test each child branch for
    v-outer geometric 1-planarity; return whether too many no children
    survive and the vertices of the yes children, and set ``below[v]``."""
    branches = [set(forest.blocks[bi]).union(
                    *(below[c] for c in forest.cuts_in[bi] if c != v)) - {v}
                for bi in sorted(forest.child_blocks[v],
                                 key=lambda i: sorted(forest.blocks[i]))]
    reject, drop = _filter_children(
        ctx, "III", {"cut": v}, Predicate("a-outer", a=v, geometric=True),
        (v,), (({"cut": v}, b) for b in branches),
        ctx.thresholds.rule3_reject_at)
    below[v] = {v}.union(*branches) - drop
    return reject, drop


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def run_pipeline(g: Graph, decomposition: Optional[TreedepthDecomposition] = None,
                 overrides: Optional[Thresholds] = None,
                 oracle: Optional[Callable] = None,
                 oracle_cap: int = decider.DEFAULT_EDGE_CAP) -> PipelineOutcome:
    """Decide geometric 1-planarity via Rules I-III plus a final brute-force
    decision; components are processed independently.  Returns a reduction
    instead of a decision when a cap is exceeded."""
    thresholds = overrides or Thresholds()
    oracle = oracle or decider.decide
    if decomposition is not None:
        decomposition = normalize_decomposition(g, decomposition)

    comps = g.components()
    if len(comps) > 1:
        partials = []
        for comp in comps:
            sub_dec = None
            if decomposition is not None:
                sub_dec = TreedepthDecomposition(
                    {v: p for v, p in decomposition.parent.items()
                     if v in comp})
            partials.append(run_pipeline(g.induced_subgraph(comp), sub_dec,
                                         overrides, oracle, oracle_cap))
        return _combine(g, partials)

    if not g.vertices:
        return PipelineOutcome("decided", True, g, 0, [])

    if decomposition is None:
        try:
            decomposition = treedepth_decomposition(g)
        except GraphError:
            return PipelineOutcome("reduced", None, g, 0,
                                   [{"action": "no-decomposition"}])
        decomposition = normalize_decomposition(g, decomposition)

    ctx = TDContext(g, decomposition, decomposition.depth, thresholds,
                    oracle, oracle_cap)

    # Phase I: Rules I and II bottom-up over the internal nodes of the
    # decomposition; neither rule fires at a node without children
    levels = ctx.decomposition.levels
    children = ctx.decomposition.children
    for v in sorted((u for u in levels if children[u]),
                    key=lambda u: (-levels[u], u)):
        if not ctx.decomposition.children.get(v):
            continue  # removed, or left a leaf, by an earlier deletion
        if apply_rule1(ctx, v) is not None:
            return _outcome(ctx, "rejected", False)
        for a, b in _rule2_pairs(ctx, v):
            if apply_rule2(ctx, v, a, b) == "rejected":
                return _outcome(ctx, "rejected", False)

    # Phase II: Rule III in one pass over the block forest, one deletion
    forest = ctx.blocks()
    below: dict[int, set[int]] = {}
    drop: set[int] = set()
    for v in sorted(forest.depth, key=lambda c: (-forest.depth[c], c)):
        reject, gone = apply_rule3(ctx, forest, below, v)
        drop |= gone
        if reject:
            _delete(ctx, drop)
            return _outcome(ctx, "rejected", False)
    _delete(ctx, drop)

    # final decision on the reduced instance
    try:
        answer = ctx.ask(ctx.graph, Predicate("plain", geometric=True))
    except CapExceeded:
        return _outcome(ctx, "reduced", None)
    return _outcome(ctx, "decided", answer)


def _outcome(ctx: TDContext, result: str, answer: Optional[bool]
             ) -> PipelineOutcome:
    return PipelineOutcome(result, answer, ctx.graph, ctx.oracle_calls,
                           ctx.log)


def _combine(g: Graph, partials: list[PipelineOutcome]) -> PipelineOutcome:
    calls = sum(p.oracle_calls for p in partials)
    log = [ev for p in partials for ev in p.log]
    if any(p.rejected for p in partials):
        return PipelineOutcome("rejected", False, g, calls, log)
    kept = g.induced_subgraph(
        frozenset(v for p in partials for v in p.graph.vertices))
    if any(p.result == "reduced" for p in partials):
        return PipelineOutcome("reduced", None, kept, calls, log)
    return PipelineOutcome("decided", all(p.answer for p in partials), kept,
                           calls, log)
