"""Reference implementations for the rule and ancestry tests: the code that
``oneplanar.decider``, ``oneplanar.td_pipeline`` and
``TreedepthDecomposition`` ran before each rule decision was written once.

* ``accepted_outer`` is the two-branch acceptance loop of the old
  ``_decide_connected`` for one embedding, with ``_check_predicate_faces``;
* ``apply_rule1``, ``rule2_pairs``, ``phase1_pairs`` and
  ``rules_apply_below`` are the old Rule I test, the old Rule II pair list,
  the block filter of the old Phase I loop over that list, and the old
  descendant scan that restated both;
* ``ancestors``, ``descendants`` and ``validate`` walk parent chains and
  child lists instead of reading preorder spans;
* ``normalize_decomposition`` is the split and lift fixpoint that came
  before the elimination tree, and ``run_pipeline`` the pipeline that
  restricted the decomposition to each component before normalizing it and
  re-picked the deepest unvisited cut vertex after every Rule III call.
  The fixpoint rebuilds its decomposition after every move, and its split
  re-parents every vertex of a component whose parent lies outside it,
  which can make two adjacent vertices siblings;
* ``branch`` and ``apply_rule3`` are Rule III as it was before Phase II
  became one pass: each branch walked again from the block forest, less
  the vertices no longer in the graph, and the yes children deleted at each
  cut vertex.  ``pipeline_one_forest`` is the pipeline that ran them, with
  the elimination tree and one fixed Phase II order over one forest;
* ``canonical_key`` is the memo key that came before the breadth-first
  relabeling: colour refinement, then the least edge list over the
  orderings within colour classes, or the labeled graph when there are more
  than 1000 of them;
* ``bfs_key`` is the breadth-first memo key as first written, sorting the
  vertices on every call and each edge pair with ``min`` and ``max``;
* ``block_forest`` is the start of the old ``_block_forest``: a component
  search, then an induced subgraph and a ``block_cut_tree`` for every
  component that is not the whole graph;
* ``crossing_sets`` is ``enumerate_crossing_sets`` as it was when it took
  the whole product of per-edge drawing orders and scanned every pair of
  crossings for each element.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from oneplanar import decider
from oneplanar import td_pipeline as td
from oneplanar.decider import CapExceeded, Predicate
from oneplanar.embedding import PlaneEmbedding
from oneplanar.graph import (
    Graph,
    GraphError,
    TreedepthDecomposition,
    block_cut_tree,
    connected_components,
    treedepth_decomposition,
)
from oneplanar.straightening import candidate_configurations


# ---------------------------------------------------------------------------
# decider acceptance
# ---------------------------------------------------------------------------

def _check_predicate_faces(pred: Predicate, face_vertices: list[frozenset[int]],
                           shared_exists: bool, outer: int) -> bool:
    if pred.variant == "plain":
        return True
    if pred.variant == "a-outer":
        return pred.a in face_vertices[outer]
    if pred.variant == "ab-outer":
        return pred.a in face_vertices[outer] and pred.b in face_vertices[outer]
    return shared_exists  # ab-shared quantifies over all faces


def accepted_outer(emb: PlaneEmbedding, pred: Predicate) -> Optional[int]:
    """The face the old loop made outer for this rotation system, or None
    when it went on to the next one."""
    plan = emb.planarization
    fverts = [frozenset(plan.origin(d) for d in cyc)
              for cyc in plan.faces]
    shared = (pred.variant != "ab-shared"
              or any(pred.a in fv and pred.b in fv for fv in fverts))
    if not pred.geometric:
        ok_faces = [f for f in range(len(fverts))
                    if _check_predicate_faces(pred, fverts, shared, f)]
        if shared and ok_faces:
            return ok_faces[0]
        return None
    if not shared:
        return None
    cands = candidate_configurations(emb)
    for outer in range(len(fverts)):
        if not _check_predicate_faces(pred, fverts, shared, outer):
            continue
        if any(c.is_configuration(outer) for c in cands):
            continue
        return outer
    return None


# ---------------------------------------------------------------------------
# Rules I and II
# ---------------------------------------------------------------------------

def children_by_attachment(ctx, v: int) -> dict[frozenset[int], list[int]]:
    att = ctx.attachments()
    groups: dict[frozenset[int], list[int]] = {}
    for c in ctx.decomposition.children.get(v, ()):
        groups.setdefault(att[c], []).append(c)
    return groups


def apply_rule1(ctx, v: int) -> Optional[dict]:
    groups = children_by_attachment(ctx, v)
    limit = ctx.thresholds.rule1_at(ctx.d)
    for x, members in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        if len(x) >= 3 and len(members) >= limit:
            info = {"rule": "I", "action": "reject", "node": v,
                    "attachment": sorted(x), "count": len(members),
                    "threshold": limit}
            ctx.log.append(info)
            return info
    return None


def rule2_pairs(ctx, v: int) -> list[tuple[int, int]]:
    baseline = ctx.thresholds.rule2_baseline_at(ctx.d)
    level = ctx.decomposition.levels
    pairs = [tuple(sorted(x, key=level.__getitem__))
             for x, cs in children_by_attachment(ctx, v).items()
             if len(x) == 2 and len(cs) > baseline]
    return sorted(pairs, key=lambda ab: (level[ab[0]], level[ab[1]]))


def phase1_pairs(ctx, v: int):
    """The pairs the old Phase I loop handed to ``apply_rule2``: the list
    drawn up front, the block test made as each pair was reached."""
    for a, b in rule2_pairs(ctx, v):
        if ctx.blocks().share_block(a, b):
            yield a, b


def rules_apply_below(ctx, v: int) -> bool:
    rule1 = ctx.thresholds.rule1_at(ctx.d)
    baseline = ctx.thresholds.rule2_baseline_at(ctx.d)
    for u in descendants(ctx.decomposition, v) - {v}:
        groups = children_by_attachment(ctx, u).items()
        if any(len(x) >= 3 and len(cs) >= rule1 for x, cs in groups):
            return True
        if any(len(x) == 2 and len(cs) > baseline
               and ctx.blocks().share_block(*x) for x, cs in groups):
            return True
    return False


# ---------------------------------------------------------------------------
# ancestry
# ---------------------------------------------------------------------------

def ancestors(t: TreedepthDecomposition, v: int) -> tuple[int, ...]:
    """Ancestors of v including v itself, root first."""
    chain = []
    while v != -1:
        chain.append(v)
        v = t.parent[v]
    return tuple(reversed(chain))


def descendants(t: TreedepthDecomposition, v: int) -> frozenset[int]:
    out = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for c in t.children[u]:
            out.add(c)
            stack.append(c)
    return frozenset(out)


def validate(t: TreedepthDecomposition, g: Graph) -> None:
    if set(t.parent) != set(g.vertices):
        raise GraphError("decomposition does not cover V(g)")
    if not set(t.parent.values()) <= set(t.parent) | {-1}:
        raise GraphError("decomposition has a parent outside V(g)")
    t.levels  # raises on a cyclic parent map
    for u, v in g.edges.values():
        if u not in ancestors(t, v) and v not in ancestors(t, u):
            raise GraphError(f"edge {u, v} violates ancestor closure")


# ---------------------------------------------------------------------------
# normalization and the pipeline
# ---------------------------------------------------------------------------

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
        att = td._attachment_sets(g, work)
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
            if not att[v]:
                # lift: the subtree has no neighbor among its ancestors
                parent[v] = parent[parent[v]]
                changed = True
                break
    return TreedepthDecomposition(parent)


def run_pipeline(g: Graph, decomposition: Optional[TreedepthDecomposition] = None,
                 overrides: Optional[td.Thresholds] = None,
                 oracle: Optional[Callable] = None,
                 oracle_cap: int = decider.DEFAULT_EDGE_CAP) -> td.PipelineOutcome:
    thresholds = overrides or td.Thresholds()
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
                                         overrides, oracle, oracle_cap))
        return td._combine(g, partials)

    if not g.vertices:
        return td.PipelineOutcome("decided", True, g, 0, [])

    if decomposition is None:
        try:
            decomposition = treedepth_decomposition(g)
        except GraphError:
            return td.PipelineOutcome("reduced", None, g, 0,
                                   [{"action": "no-decomposition"}])
    decomposition = normalize_decomposition(g, decomposition)

    ctx = td.TDContext(g, decomposition, decomposition.depth, thresholds,
                    oracle, oracle_cap)

    # Phase I: Rules I and II bottom-up over the decomposition
    levels = ctx.decomposition.levels
    for v in sorted(levels, key=lambda u: (-levels[u], u)):
        if v not in ctx.decomposition.parent:
            continue  # removed by an earlier deletion
        if td.apply_rule1(ctx, v) is not None:
            return td._outcome(ctx, "rejected", False)
        for a, b in td._rule2_pairs(ctx, v):
            if td.apply_rule2(ctx, v, a, b) == "rejected":
                return td._outcome(ctx, "rejected", False)

    # Phase II: Rule III bottom-up over the block-cut trees
    processed: set[int] = set()
    while True:
        depth = ctx.blocks().depth
        todo = [c for c in depth if c not in processed]
        if not todo:
            break
        v = max(todo, key=lambda c: (depth[c], -c))
        processed.add(v)
        if apply_rule3(ctx, ctx.blocks(), v) == "rejected":
            return td._outcome(ctx, "rejected", False)

    # final decision on the reduced instance
    try:
        answer = ctx.ask(ctx.graph, Predicate("plain", geometric=True))
    except CapExceeded:
        return td._outcome(ctx, "reduced", None)
    return td._outcome(ctx, "decided", answer)


def branch(forest, v: int, block: int) -> frozenset[int]:
    """Vertices of the union of blocks hanging below cut vertex v through
    the given incident block (v included): blocks reachable from it in the
    block-cut tree without passing back through v."""
    in_tree = {block}
    frontier = [block]
    while frontier:
        bi = frontier.pop()
        for c in forest.cuts_in[bi]:
            if c == v:
                continue
            for bj in forest.blocks_at[c]:
                if bj not in in_tree:
                    in_tree.add(bj)
                    frontier.append(bj)
    return frozenset(x for bi in in_tree for x in forest.blocks[bi])


def apply_rule3(ctx, forest, v: int) -> str:
    """At cut vertex v of ``forest``, oracle-test each child subgraph (union
    of blocks below one incident block, less the vertices no longer in the
    graph) for v-outer geometric 1-planarity; delete the yes children;
    reject when too many no children survive."""
    if v not in forest.child_blocks:
        return "noop"
    tested = (({"cut": v},
               (branch(forest, v, bi) & ctx.graph.vertices) - {v})
              for bi in sorted(forest.child_blocks[v],
                               key=lambda i: sorted(forest.blocks[i])))
    reject, drop = td._filter_children(
        ctx, "III", {"cut": v}, Predicate("a-outer", a=v, geometric=True),
        (v,), tested, ctx.thresholds.rule3_reject_at)
    td._delete(ctx, drop)
    return "rejected" if reject else "mutated" if drop else "noop"


def pipeline_one_forest(
        g: Graph, decomposition: Optional[TreedepthDecomposition] = None,
        overrides: Optional[td.Thresholds] = None,
        oracle: Optional[Callable] = None,
        oracle_cap: int = decider.DEFAULT_EDGE_CAP) -> td.PipelineOutcome:
    thresholds = overrides or td.Thresholds()
    oracle = oracle or decider.decide
    if decomposition is not None:
        decomposition = td.normalize_decomposition(g, decomposition)

    comps = g.components()
    if len(comps) > 1:
        partials = []
        for comp in comps:
            sub_dec = None
            if decomposition is not None:
                sub_dec = TreedepthDecomposition(
                    {v: p for v, p in decomposition.parent.items()
                     if v in comp})
            partials.append(pipeline_one_forest(
                g.induced_subgraph(comp), sub_dec, overrides, oracle,
                oracle_cap))
        return td._combine(g, partials)

    if not g.vertices:
        return td.PipelineOutcome("decided", True, g, 0, [])

    if decomposition is None:
        try:
            decomposition = treedepth_decomposition(g)
        except GraphError:
            return td.PipelineOutcome("reduced", None, g, 0,
                                      [{"action": "no-decomposition"}])
        decomposition = td.normalize_decomposition(g, decomposition)

    ctx = td.TDContext(g, decomposition, decomposition.depth, thresholds,
                       oracle, oracle_cap)

    # Phase I: Rules I and II bottom-up over the internal nodes of the
    # decomposition; neither rule fires at a node without children
    levels = ctx.decomposition.levels
    children = ctx.decomposition.children
    for v in sorted((u for u in levels if children[u]),
                    key=lambda u: (-levels[u], u)):
        if not ctx.decomposition.children.get(v):
            continue  # removed, or left a leaf, by an earlier deletion
        if td.apply_rule1(ctx, v) is not None:
            return td._outcome(ctx, "rejected", False)
        for a, b in td._rule2_pairs(ctx, v):
            if td.apply_rule2(ctx, v, a, b) == "rejected":
                return td._outcome(ctx, "rejected", False)

    # Phase II: Rule III bottom-up over the block-cut trees, in one order
    forest = ctx.blocks()
    depth = forest.depth
    for v in sorted(depth, key=lambda c: (-depth[c], c)):
        if apply_rule3(ctx, forest, v) == "rejected":
            return td._outcome(ctx, "rejected", False)

    # final decision on the reduced instance
    try:
        answer = ctx.ask(ctx.graph, Predicate("plain", geometric=True))
    except CapExceeded:
        return td._outcome(ctx, "reduced", None)
    return td._outcome(ctx, "decided", answer)


# ---------------------------------------------------------------------------
# The memo key
# ---------------------------------------------------------------------------

def canonical_key(g: Graph, anchors: tuple[int, ...] = ()):
    """Isomorphism-invariant key for (g, anchors); falls back to the labeled
    key when tie-breaking would exceed 1000 orderings."""
    verts = sorted(g.vertices)
    color = {v: (anchors.index(v) + 1 if v in anchors else 0, g.degree(v))
             for v in verts}
    for _ in range(g.n):
        ranks = {c: i for i, c in enumerate(sorted(set(color.values())))}
        nxt = {v: (ranks[color[v]],
                   tuple(sorted(ranks[color[w]] for w in g.neighbors(v))))
               for v in verts}
        if len(set(nxt.values())) == len(set(color.values())):
            color = nxt
            break
        color = nxt

    classes: dict = {}
    for v in verts:
        classes.setdefault(color[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    work = 1
    for cls in ordered:
        for i in range(2, len(cls) + 1):
            work *= i
        if work > 1000:
            return ("labeled", frozenset(g.edges.values()), anchors)

    best = None
    for perms in itertools.product(*(itertools.permutations(c) for c in ordered)):
        idx = {}
        for cls in perms:
            for v in cls:
                idx[v] = len(idx)
        sig = tuple(sorted(tuple(sorted((idx[u], idx[v])))
                           for u, v in g.edges.values()))
        if best is None or sig < best[0]:
            best = (sig, tuple(idx[a] for a in anchors))
    return ("canon", g.n) + best


def bfs_key(g: Graph, anchors: tuple[int, ...] = ()):
    order = list(anchors)
    label = {v: i for i, v in enumerate(order)}
    roots = iter(sorted(g.vertices))
    for head in range(g.n):
        if head == len(order):  # the search ran out: start a new one
            order.append(next(v for v in roots if v not in label))
            label[order[head]] = head
        for w, _ in g.adjacency[order[head]]:
            if w not in label:
                label[w] = len(order)
                order.append(w)
    return (g.n, len(anchors),
            tuple(sorted((min(label[u], label[v]), max(label[u], label[v]))
                         for u, v in g.edges.values())))


# ---------------------------------------------------------------------------
# The block forest
# ---------------------------------------------------------------------------

def block_forest(g: Graph) -> tuple[list[frozenset[int]], set[int]]:
    """The blocks, in order, and the cut vertices of the components of g
    with an edge."""
    blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
    for comp in g.components():
        if len(comp) > 1:
            bct = block_cut_tree(g if len(comp) == g.n
                                 else g.induced_subgraph(comp))
            blocks.extend(bct.blocks)
            cuts |= bct.cut_vertices
    return blocks, cuts


def crossing_sets(g: Graph, k: int = 1, start: int = 0
                  ) -> Iterator[decider.CrossingAssignment]:
    """All ways to pick pairwise-compatible crossing pairs with at least
    ``start`` crossings, in order of increasing crossing count.  For k=1
    these are the matchings on independent edge pairs; for k >= 2 multisets
    with per-edge multiplicity <= k, each expanded with every drawing order
    along multiply-crossed edges (canonicalized so that two crossings of the
    same pair keep their index order along the lower edge).  The assignment
    with no crossing comes before the edge pairs are listed."""
    if start == 0:
        yield decider.CrossingAssignment(())
        start = 1
    pairs = decider._independent_pairs(g)
    capacity = {e: k for e in g.edges}

    def chosen_orders(chosen: list[tuple[int, int]]) -> Iterator[dict]:
        per_edge: dict[int, list[int]] = {}
        for i, (e, f) in enumerate(chosen):
            per_edge.setdefault(e, []).append(i)
            per_edge.setdefault(f, []).append(i)
        multi = {e: lst for e, lst in per_edge.items() if len(lst) > 1}
        if not multi:
            yield {}
            return
        keys = sorted(multi)
        for perms in itertools.product(
                *(itertools.permutations(multi[e]) for e in keys)):
            order = dict(zip(keys, map(tuple, perms)))
            ok = True
            for i, j in itertools.combinations(range(len(chosen)), 2):
                if chosen[i] == chosen[j]:
                    e = min(chosen[i])  # same unordered pair: fix index order
                    seq = order.get(e, ())
                    if seq and seq.index(i) > seq.index(j):
                        ok = False
                        break
            if ok:
                yield order

    def of_size(size: int) -> Iterator[tuple[tuple[int, int], ...]]:
        chosen: list[tuple[int, int]] = []

        def rec(start: int, left: int) -> Iterator[tuple[tuple[int, int], ...]]:
            if left == 0:
                yield tuple(chosen)
                return
            for idx in range(start, len(pairs)):
                e, f = pairs[idx]
                if capacity[e] and capacity[f]:
                    capacity[e] -= 1
                    capacity[f] -= 1
                    chosen.append(pairs[idx])
                    # same pair may repeat (k >= 2): allow idx again
                    yield from rec(idx if k > 1 else idx + 1, left - 1)
                    chosen.pop()
                    capacity[e] += 1
                    capacity[f] += 1

        yield from rec(0, size)

    size = start
    while True:
        found = False
        for chosen in of_size(size):
            found = True
            if k == 1:  # a matching crosses no edge twice: no orders
                yield decider.CrossingAssignment(chosen)
                continue
            for order in chosen_orders(list(chosen)):
                yield decider.CrossingAssignment(chosen, order)
        if not found:
            return
        size += 1
