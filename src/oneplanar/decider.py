"""Exhaustive deciders for k-planarity and geometric 1-planarity on small
graphs, by enumerating crossing assignments, rotation systems, and outer
faces.

Geometric 1-planarity is decided combinatorially: a graph is a yes-instance
iff some valid 1-planar embedding together with an outer-face choice is free
of B- and W-configurations.  No coordinates are produced.  For k >= 2 only
the plain (topological) decider is available; no straightening
characterization exists there.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .embedding import CrossingPair, PlaneEmbedding, validate_embedding
from .graph import Graph, GraphError, connected_components
from .straightening import candidate_configurations

DEFAULT_EDGE_CAP = 11


class CapExceeded(RuntimeError):
    """Instance exceeds the configured brute-force cap."""


@dataclass(frozen=True)
class Predicate:
    variant: str = "plain"  # plain | ab-shared | ab-outer | a-outer
    a: Optional[int] = None
    b: Optional[int] = None
    geometric: bool = False
    k: int = 1

    def __post_init__(self) -> None:
        if self.variant not in ("plain", "ab-shared", "ab-outer", "a-outer"):
            raise GraphError(f"unknown predicate variant {self.variant!r}")
        if self.k < 1:
            raise GraphError("k must be >= 1")
        if self.variant in ("ab-shared", "ab-outer") and (
                self.a is None or self.b is None or self.a == self.b):
            raise GraphError("two distinct anchors required")
        if self.variant == "a-outer" and self.a is None:
            raise GraphError("anchor a required")
        if self.geometric and self.k >= 2:
            raise GraphError(
                "geometric deciding is refused for k >= 2 "
                "(no straightening characterization exists)")

    @property
    def anchors(self) -> tuple[int, ...]:
        if self.variant == "plain":
            return ()
        if self.variant == "a-outer":
            return (self.a,)
        return (self.a, self.b)


@dataclass
class Verdict:
    answer: bool
    witness: Optional[PlaneEmbedding]
    embeddings_enumerated: int


@dataclass(frozen=True)
class CrossingAssignment:
    pairs: tuple[tuple[int, int], ...]
    edge_order: dict[int, tuple[int, ...]] = field(default_factory=dict)


def density_excludes(g: Graph, geometric: bool) -> bool:
    """True when the 1-planar edge-density bound already rules the graph
    out: m > 4n-8, or m > 4n-9 in the geometric case (simple graphs, n>=3)."""
    if g.n < 3:
        return False
    limit = 4 * g.n - (9 if geometric else 8)
    return g.m > limit


# ---------------------------------------------------------------------------
# Crossing assignments
# ---------------------------------------------------------------------------

def _independent_pairs(g: Graph) -> list[tuple[int, int]]:
    ids = sorted(g.edges)
    return [(e, f) for i, e in enumerate(ids) for f in ids[i + 1:]
            if not set(g.edges[e]) & set(g.edges[f])]


def enumerate_crossing_sets(g: Graph, k: int = 1) -> Iterator[CrossingAssignment]:
    """All ways to pick pairwise-compatible crossing pairs, in order of
    increasing crossing count.  For k=1 these are the matchings on
    independent edge pairs; for k >= 2 multisets with per-edge multiplicity
    <= k, each expanded with every drawing order along multiply-crossed
    edges (canonicalized so that two crossings of the same pair keep their
    index order along the lower edge)."""
    pairs = _independent_pairs(g)
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

    size = 0
    while True:
        found = False
        for chosen in of_size(size):
            for order in chosen_orders(list(chosen)):
                found = True
                yield CrossingAssignment(chosen, order)
        if not found:
            return
        size += 1


# ---------------------------------------------------------------------------
# Rotation-system enumeration
# ---------------------------------------------------------------------------

def _unchecked_embedding(g: Graph, assignment: CrossingAssignment,
                         rotation: dict[int, tuple], outer) -> PlaneEmbedding:
    base = max(g.vertices, default=-1) + 1
    crossings = tuple(CrossingPair(p, base + i)
                      for i, p in enumerate(assignment.pairs))
    per_edge: dict[int, list[int]] = {}
    for i, (e, f) in enumerate(assignment.pairs):
        per_edge.setdefault(e, []).append(i)
        per_edge.setdefault(f, []).append(i)
    order = {}
    for e, lst in per_edge.items():
        order[e] = assignment.edge_order.get(e, tuple(lst))
    return PlaneEmbedding(g, crossings, order, rotation, outer)


def _system_iter(g: Graph, assignment: CrossingAssignment,
                 reduce_reflection: bool = True) -> Iterator[PlaneEmbedding]:
    """Yield one PlaneEmbedding per genus-0 rotation system with proper
    (alternating) crossings; the outer dart is a placeholder."""
    if not g.edges:
        return
    skeleton = _unchecked_embedding(g, assignment, {}, None)
    plan_segments: list[tuple[int, int]] = []
    for e in sorted(g.edges):
        path = skeleton.edge_path(e)
        plan_segments.extend(zip(path, path[1:]))

    node_darts: dict[int, list[int]] = {}
    for s, (x, y) in enumerate(plan_segments):
        node_darts.setdefault(x, []).append(2 * s)
        node_darts.setdefault(y, []).append(2 * s + 1)

    dummies = [c.dummy for c in skeleton.crossings]
    dummy_set = set(dummies)

    # candidate rotations per node: cyclic orders with the first dart pinned
    def real_candidates(darts: list[int]) -> list[tuple[int, ...]]:
        head, rest = darts[0], darts[1:]
        return [(head,) + p for p in itertools.permutations(rest)]

    def dummy_candidates(dummy: int) -> list[tuple[int, ...]]:
        darts = node_darts[dummy]
        by_seg_edge: dict[int, list[int]] = {}
        for d in darts:
            e = skeleton._seg_info[d >> 1][0]
            by_seg_edge.setdefault(e, []).append(d)
        groups = sorted(by_seg_edge.values())
        if len(groups) == 1:  # same pair crossing twice: split by instance
            (a1, a2, b1, b2) = sorted(groups[0])
            groups = [[a1, a2], [b1, b2]]
        (a1, a2), (b1, b2) = (sorted(gr) for gr in groups)
        return [(a1, b1, a2, b2), (a1, b2, a2, b1)]

    nodes = sorted(node_darts)
    pivot = None
    real_nodes = [v for v in nodes if v not in dummy_set]
    if reduce_reflection:
        eligible = [v for v in real_nodes if len(node_darts[v]) >= 3]
        if eligible:
            pivot = max(eligible, key=lambda v: (len(node_darts[v]), -v))
        elif dummies:
            pivot = dummies[0]

    cand_lists: list[list[tuple[int, ...]]] = []
    for v in nodes:
        if v in dummy_set:
            cands = dummy_candidates(v)
            if v == pivot:
                cands = cands[:1]
        else:
            cands = real_candidates(node_darts[v])
            if v == pivot:
                cands = [c for c in cands if c[1:] <= c[1:][::-1]]
        cand_lists.append(cands)

    # connected-component count of the planarization skeleton
    adj: dict[int, set[int]] = {v: set() for v in nodes}
    for x, y in plan_segments:
        adj[x].add(y)
        adj[y].add(x)
    comps = len(connected_components(adj, adj.__getitem__))

    nd = 2 * len(plan_segments)
    want_faces = 2 * comps - len(nodes) + len(plan_segments)
    if want_faces < comps:
        return
    succ = [0] * nd
    for combo in itertools.product(*cand_lists):
        for rot in combo:
            prev = rot[-1]
            for d in rot:
                succ[prev ^ 1] = d
                prev = d
        faces = 0
        unseen = bytearray(nd)
        for d0 in range(nd):
            if not unseen[d0]:
                faces += 1
                if faces > want_faces:
                    break
                d = d0
                while not unseen[d]:
                    unseen[d] = 1
                    d = succ[d]
        if faces != want_faces:
            continue
        rotation = {v: tuple(skeleton.int_to_dart(d) for d in rot)
                    for v, rot in zip(nodes, combo)}
        yield _unchecked_embedding(g, assignment, rotation,
                                   skeleton.int_to_dart(0))


def enumerate_embeddings(g: Graph, crossings, k: int = 1,
                         edge_order=None) -> Iterator[PlaneEmbedding]:
    """All valid embeddings for the given crossing assignment, paired with
    every choice of outer face."""
    assignment = (crossings if isinstance(crossings, CrossingAssignment)
                  else CrossingAssignment(tuple(tuple(c) for c in crossings),
                                          dict(edge_order or {})))
    for emb in _system_iter(g, assignment):
        plan = emb.planarization
        for cyc in plan.faces:
            yield dataclasses.replace(emb, outer=emb.int_to_dart(cyc[0]))


# ---------------------------------------------------------------------------
# Canonical keys for memoization
# ---------------------------------------------------------------------------

def canonical_key(g: Graph, anchors: tuple[int, ...] = (),
                  work_cap: int = 1000):
    """Isomorphism-invariant key for (g, anchors); falls back to the labeled
    key when tie-breaking would exceed ``work_cap`` orderings."""
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
        if work > work_cap:
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


# ---------------------------------------------------------------------------
# decide
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


def _decide_connected(g: Graph, pred: Predicate, cap: int,
                      want_witness: bool) -> Verdict:
    if density_excludes(g, pred.geometric) and pred.k == 1:
        return Verdict(False, None, 0)
    if g.m > cap:
        raise CapExceeded(f"{g.m} edges exceeds decider cap {cap}")
    if g.m == 0:
        return Verdict(True, None, 0)

    count = 0
    for assignment in enumerate_crossing_sets(g, pred.k):
        for emb in _system_iter(g, assignment):
            count += 1
            plan = emb.planarization
            fverts = [frozenset(plan.origin(d) for d in cyc)
                      for cyc in plan.faces]
            shared = (pred.variant != "ab-shared"
                      or any(pred.a in fv and pred.b in fv for fv in fverts))
            if not pred.geometric:
                ok_faces = [f for f in range(len(fverts))
                            if _check_predicate_faces(pred, fverts, shared, f)]
                if shared and ok_faces:
                    outer = ok_faces[0]
                    witness = None
                    if want_witness:
                        witness = dataclasses.replace(
                            emb, outer=emb.int_to_dart(plan.faces[outer][0]))
                        validate_embedding(witness, k=pred.k)
                    return Verdict(True, witness, count)
                continue
            if not shared:
                continue
            cands = candidate_configurations(emb)
            for outer in range(len(fverts)):
                if not _check_predicate_faces(pred, fverts, shared, outer):
                    continue
                if any(c.is_configuration(outer) for c in cands):
                    continue
                witness = None
                if want_witness:
                    witness = dataclasses.replace(
                        emb, outer=emb.int_to_dart(plan.faces[outer][0]))
                    validate_embedding(witness, k=pred.k)
                return Verdict(True, witness, count)
    return Verdict(False, None, count)


def _merge_witnesses(parts: list[PlaneEmbedding], g: Graph) -> Optional[PlaneEmbedding]:
    """Stitch per-component embeddings into one embedding of g (components
    drawn side by side); outer dart taken from the first component."""
    parts = [p for p in parts if p is not None and p.graph.m]
    if not parts:
        return None
    base = max(g.vertices, default=-1) + 1
    crossings: list[CrossingPair] = []
    rotation: dict[int, tuple] = {}
    edge_order: dict[int, tuple[int, ...]] = {}
    for p in parts:
        offset = len(crossings)
        remap = {c.dummy: base + offset + i for i, c in enumerate(p.crossings)}
        for c in p.crossings:
            crossings.append(CrossingPair(c.edges, remap[c.dummy]))
        for e, order in p.edge_order.items():
            edge_order[e] = tuple(i + offset for i in order)
        for v, darts in p.rotation.items():
            rotation[remap.get(v, v)] = darts
    emb = PlaneEmbedding(g, tuple(crossings), edge_order, rotation,
                         parts[0].outer)
    return emb


def decide(g: Graph, pred: Predicate, cap: int = DEFAULT_EDGE_CAP,
           memo: Optional[dict] = None, want_witness: bool = True) -> Verdict:
    """Decide the predicate by exhaustive enumeration, per component.

    Disconnected graphs combine componentwise: a drawing places components
    side by side, so anchored predicates reduce to outer-variants on the
    anchor components.  Witnesses are merged for non-geometric results and
    for single-component graphs; otherwise only the answer is reported.
    """
    for v in pred.anchors:
        if v not in g.vertices:
            raise GraphError(f"anchor {v} not in graph")

    if memo is not None:
        key = (canonical_key(g, pred.anchors), pred.variant, pred.geometric,
               pred.k, cap)
        if key in memo and not want_witness:  # a hit has no witness to give
            return Verdict(memo[key], None, 0)
        verdict = decide(g, pred, cap=cap, memo=None,
                         want_witness=want_witness)
        memo[key] = verdict.answer
        return verdict

    comps = g.components()
    if len(comps) <= 1:
        return _decide_connected(g, pred, cap, want_witness)

    total = 0
    sub_witnesses: list[Optional[PlaneEmbedding]] = []

    def run(comp: frozenset[int], sub_pred: Predicate) -> bool:
        nonlocal total
        got = _decide_connected(g.induced_subgraph(comp), sub_pred, cap,
                                want_witness)
        total += got.embeddings_enumerated
        sub_witnesses.append(got.witness)
        return got.answer

    plain = Predicate("plain", geometric=pred.geometric, k=pred.k)
    comp_of = {v: c for c in comps for v in c}

    if pred.variant == "plain":
        answer = all(run(c, plain) for c in comps)
    elif pred.variant == "a-outer":
        answer = all(
            run(c, dataclasses.replace(pred) if pred.a in c else plain)
            for c in comps)
    else:
        ca, cb = comp_of[pred.a], comp_of[pred.b]
        if ca == cb:
            answer = all(run(c, pred if c == ca else plain) for c in comps)
        else:
            rest_ok = all(run(c, plain) for c in comps if c not in (ca, cb))
            a_out = Predicate("a-outer", a=pred.a, geometric=pred.geometric,
                              k=pred.k)
            b_out = Predicate("a-outer", a=pred.b, geometric=pred.geometric,
                              k=pred.k)
            if pred.variant == "ab-outer":
                answer = rest_ok and run(ca, a_out) and run(cb, b_out)
            else:  # ab-shared across components
                answer = rest_ok and (
                    (run(ca, plain) and run(cb, b_out))
                    or (run(ca, a_out) and run(cb, plain)))

    witness = None
    if answer and not pred.geometric and pred.variant == "plain":
        witness = _merge_witnesses(sub_witnesses, g)
    return Verdict(answer, witness, total)
