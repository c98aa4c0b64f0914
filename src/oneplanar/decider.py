"""Exhaustive deciders for k-planarity and geometric 1-planarity on small
graphs, by enumerating crossing assignments in order of increasing size.

Every assignment whose size passes the Euler bound gets one left-right
planarity test of its planarization (``oneplanar.planarity``); only a
geometric search skips it on planarizations of fewer than 9 segments,
which are all planar.

* A topological predicate is answered by the first assignment that passes.
  ab-shared and ab-outer are tested with an apex vertex joined to a and b
  (a drawing can put any face outside, so both ask for a face holding a
  and b); a-outer is plain 1-planarity.  The witness is the test's
  rotation system, apex removed, with an outer face picked by
  ``_accepted_outer``.
* A geometric predicate enumerates every genus-0 rotation system and every
  outer face of the assignments that pass, because Thomassen's B/W check
  depends on the whole embedding: a graph is a yes-instance iff some valid
  1-planar embedding together with an outer-face choice is free of B- and
  W-configurations.  No coordinates are produced.

For k >= 2 only the topological deciders are available; no straightening
characterization exists there.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .embedding import (
    PlaneEmbedding,
    build_embedding,
    unrotated_embedding,
    validate_embedding,
)
from .graph import Graph, GraphError
from .planarity import planar_rotation
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
class DecideStats:
    """The work of one ``decide`` call, summed over components."""

    assignments: int = 0  # crossing assignments generated
    assignments_euler_skipped: int = 0  # of those, below the Euler start
    planarity_tests: int = 0
    planarity_failed: int = 0
    rotation_systems: int = 0  # tried by the geometric search
    valid_embeddings: int = 0  # rotation systems that passed, or the test's
    outer_faces_checked: int = 0
    memo_hits: int = 0


@dataclass
class Verdict:
    answer: bool
    witness: Optional[PlaneEmbedding]
    stats: DecideStats

    @property
    def embeddings_enumerated(self) -> int:
        return self.stats.valid_embeddings


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

def _system_iter(g: Graph, assignment: CrossingAssignment,
                 stats: Optional[DecideStats] = None
                 ) -> Iterator[PlaneEmbedding]:
    """Yield one PlaneEmbedding per genus-0 rotation system with proper
    (alternating) crossings, up to reflection; the outer dart is a
    placeholder.  Each rotation system tried is counted in ``stats``."""
    if not g.edges:
        return
    if stats is None:
        stats = DecideStats()
    skeleton = unrotated_embedding(g, assignment.pairs, assignment.edge_order)
    plan = skeleton.planarization
    node_darts = plan.node_darts

    dummies = [c.dummy for c in skeleton.crossings]
    dummy_set = set(dummies)

    # candidate rotations per node: cyclic orders with the first dart pinned
    def real_candidates(darts: list[int]) -> list[tuple[int, ...]]:
        head, rest = darts[0], darts[1:]
        return [(head,) + p for p in itertools.permutations(rest)]

    def dummy_candidates(dummy: int) -> list[tuple[int, ...]]:
        by_edge: dict[int, list[int]] = {}
        for d in node_darts[dummy]:
            by_edge.setdefault(skeleton.edge_of(d), []).append(d)
        groups = sorted(by_edge.values())
        if len(groups) == 1:  # same pair crossing twice: split by instance
            (a1, a2, b1, b2) = sorted(groups[0])
            groups = [[a1, a2], [b1, b2]]
        (a1, a2), (b1, b2) = (sorted(gr) for gr in groups)
        return [(a1, b1, a2, b2), (a1, b2, a2, b1)]

    nodes = sorted(node_darts)
    pivot = None  # pinned to one of each mirror pair of its rotations
    eligible = [v for v in nodes
                if v not in dummy_set and len(node_darts[v]) >= 3]
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

    comps = len(plan.components)
    nd = plan.dart_count
    want_faces = 2 * comps - len(nodes) + len(plan.segments)
    if want_faces < comps:
        return
    succ = [0] * nd
    for combo in itertools.product(*cand_lists):
        stats.rotation_systems += 1
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
        yield dataclasses.replace(skeleton, rotation=dict(zip(nodes, combo)),
                                  outer=0)


def _test_rotation(skeleton: PlaneEmbedding, apex: tuple[int, ...] = ()
                   ) -> Optional[dict[int, tuple[int, ...]]]:
    """The rotation, in int darts, of a planar embedding of the skeleton's
    planarization, or None when it has none.  With ``apex``, the planarity
    test runs with one more vertex joined to those nodes, and the rotation
    leaves it out.  Parallel segments (k >= 2) are subdivided for the test."""
    plan = skeleton.planarization
    nodes = sorted(plan.node_darts)
    index = {v: i for i, v in enumerate(nodes)}
    count = len(nodes)
    edges: list[tuple[int, int]] = []
    dart_at: dict[tuple[int, int], int] = {}  # (node, neighbour) -> dart
    for s, (a, b) in enumerate(plan.segments):
        ia, ib = index[a], index[b]
        if (ia, ib) in dart_at:
            edges += [(ia, count), (count, ib)]
            ia_to, ib_to = (ia, count), (ib, count)
            count += 1
        else:
            edges.append((ia, ib))
            ia_to, ib_to = (ia, ib), (ib, ia)
        dart_at[ia_to], dart_at[ib_to] = 2 * s, 2 * s + 1
    if apex:
        edges += [(count, index[v]) for v in apex]
        count += 1
    rotation = planar_rotation(count, edges)
    if rotation is None:
        return None
    return {v: tuple(dart_at[i, w] for w in rotation[i] if (i, w) in dart_at)
            for i, v in enumerate(nodes)}


def enumerate_embeddings(g: Graph, crossings, k: int = 1,
                         edge_order=None) -> Iterator[PlaneEmbedding]:
    """All valid embeddings for the given crossing assignment, paired with
    every choice of outer face."""
    assignment = (crossings if isinstance(crossings, CrossingAssignment)
                  else CrossingAssignment(tuple(tuple(c) for c in crossings),
                                          dict(edge_order or {})))
    for emb in _system_iter(g, assignment):
        for cyc in emb.planarization.faces:
            yield dataclasses.replace(emb, outer=cyc[0])


# ---------------------------------------------------------------------------
# Canonical keys for memoization
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


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _accepted_outer(emb: PlaneEmbedding, pred: Predicate,
                    stats: Optional[DecideStats] = None) -> Optional[int]:
    """The first face of emb that may be outer under pred, or None.

    ab-shared needs some face holding both anchors and then accepts any
    outer face; a-outer and ab-outer need the anchors on the outer face.
    A geometric predicate also needs the outer face to leave no B/W
    configuration.  Each face tried as the outer one is counted in
    ``stats``."""
    plan = emb.planarization
    fverts = [frozenset(plan.origin(d) for d in cyc) for cyc in plan.faces]
    if pred.variant == "ab-shared":
        if not any(pred.a in fv and pred.b in fv for fv in fverts):
            return None
        outer_anchors: tuple[int, ...] = ()
    else:
        outer_anchors = pred.anchors
    cands = candidate_configurations(emb) if pred.geometric else []
    for f, fv in enumerate(fverts):
        if stats is not None:
            stats.outer_faces_checked += 1
        if (all(x in fv for x in outer_anchors)
                and not any(c.is_configuration(f) for c in cands)):
            return f
    return None


def _decide_connected(g: Graph, pred: Predicate, cap: int,
                      want_witness: bool, stats: DecideStats) -> Verdict:
    """Decide pred on a connected graph, adding the work done to ``stats``.

    For k = 1 and n >= 3, assignments below ``c = m - 3n + 6`` crossings
    are skipped: their planarization is simple, with n + c vertices and
    m + 2c edges, so Euler's bound m + 2c <= 3(n + c) - 6 fails.

    A topological predicate takes the first assignment whose planarization
    passes the planarity test, and the test's embedding is the witness.
    Its crossings alternate without a special case: were some dummy's two
    edges to touch instead of cross, the dummy could be split in two and
    the edges uncrossed there, a planar planarization of an assignment with
    one crossing less, which was tried before and failed."""
    if density_excludes(g, pred.geometric) and pred.k == 1:
        return Verdict(False, None, stats)
    if g.m > cap:
        raise CapExceeded(f"{g.m} edges exceeds decider cap {cap}")
    if g.m == 0:
        return Verdict(True, None, stats)

    start = g.m - 3 * g.n + 6 if pred.k == 1 and g.n >= 3 else 0
    apex = (pred.anchors if pred.variant in ("ab-shared", "ab-outer")
            and not pred.geometric else ())
    for assignment in enumerate_crossing_sets(g, pred.k):
        stats.assignments += 1
        if len(assignment.pairs) < start:
            stats.assignments_euler_skipped += 1
            continue
        # Fewer than 9 segments are planar (K3,3 has 9), and the geometric
        # search needs no rotation from the test.
        if not pred.geometric or g.m + 2 * len(assignment.pairs) >= 9:
            skeleton = unrotated_embedding(g, assignment.pairs,
                                           assignment.edge_order)
            stats.planarity_tests += 1
            rotation = _test_rotation(skeleton, apex)
            if rotation is None:
                stats.planarity_failed += 1
                continue
        embs = (_system_iter(g, assignment, stats) if pred.geometric else
                [dataclasses.replace(skeleton, rotation=rotation, outer=0)])
        for emb in embs:
            stats.valid_embeddings += 1
            outer = _accepted_outer(emb, pred, stats)
            if outer is None:
                continue
            witness = None
            if want_witness:
                witness = dataclasses.replace(
                    emb, outer=emb.planarization.faces[outer][0])
                validate_embedding(witness, k=pred.k)
            return Verdict(True, witness, stats)
    return Verdict(False, None, stats)


def _merge_witnesses(parts: list[PlaneEmbedding], g: Graph,
                     k: int) -> Optional[PlaneEmbedding]:
    """Stitch per-component embeddings into one embedding of g (components
    drawn side by side); outer dart taken from the first component."""
    parts = [p for p in parts if p is not None and p.graph.m]
    if not parts:
        return None
    crossings: list[tuple[int, int]] = []
    edge_order: dict[int, tuple[int, ...]] = {}
    for p in parts:
        for e, order in p.edge_order.items():
            edge_order[e] = tuple(len(crossings) + i for i in order)
        crossings.extend(c.edges for c in p.crossings)
    dummies = iter(c.dummy for c in
                   unrotated_embedding(g, crossings, edge_order).crossings)
    rotation: dict[int, list[tuple[int, int, int]]] = {}
    for p in parts:
        remap = {c.dummy: next(dummies) for c in p.crossings}
        for v, darts in p.rotation.items():
            rotation[remap.get(v, v)] = [p.int_to_dart(d) for d in darts]
    return build_embedding(g, crossings, rotation,
                           parts[0].int_to_dart(parts[0].outer), k=k,
                           edge_order=edge_order)


def decide(g: Graph, pred: Predicate, cap: int = DEFAULT_EDGE_CAP,
           memo: Optional[dict] = None, want_witness: bool = True) -> Verdict:
    """Decide the predicate by exhaustive search, per component.

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
            return Verdict(memo[key], None, DecideStats(memo_hits=1))
        verdict = decide(g, pred, cap=cap, memo=None,
                         want_witness=want_witness)
        memo[key] = verdict.answer
        return verdict

    stats = DecideStats()
    comps = g.components()
    if len(comps) <= 1:
        return _decide_connected(g, pred, cap, want_witness, stats)

    sub_witnesses: list[Optional[PlaneEmbedding]] = []

    def run(comp: frozenset[int], sub_pred: Predicate) -> bool:
        got = _decide_connected(g.induced_subgraph(comp), sub_pred, cap,
                                want_witness, stats)
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
        witness = _merge_witnesses(sub_witnesses, g, pred.k)
    return Verdict(answer, witness, stats)
