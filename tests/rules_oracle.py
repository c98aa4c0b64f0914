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
  child lists instead of reading preorder spans.
"""

from __future__ import annotations

from typing import Optional

from oneplanar.decider import Predicate
from oneplanar.embedding import PlaneEmbedding
from oneplanar.graph import Graph, GraphError, TreedepthDecomposition
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
