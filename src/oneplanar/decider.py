"""Exhaustive deciders for k-planarity and geometric 1-planarity on small
graphs, by enumerating crossing assignments in order of increasing size.

The search starts at ``crossing_lower_bound`` crossings, m - floor(g(n-2)
/ (g-2)) for girth g (the Euler bound m - 3n + 6 when g = 3, 0 for a
forest).  Every drawing meets it, for every k and every predicate:
deleting one edge of each of its c crossing pairs leaves a plane graph on
the n vertices with at least m - c edges and no cycle shorter than g, and
such a graph has at most g(n-2)/(g-2) edges.  For k = 1 an assignment is
skipped when its planarization has fewer than 2m - 4n + 8 triangles, which
no planar one has (``_too_few_triangles``, argued at ``_decide_connected``).
Every other assignment from the bound up gets one left-right planarity
test of its planarization (``oneplanar.planarity``).  ab-shared and
ab-outer run it with an apex vertex joined to a and b, since both need a
face holding a and b (a drawing can put any face outside).  Only a
geometric search skips the test, on planarizations of fewer than 9
segments, the apex's path counted as one, which are all planar.

* A topological predicate is answered by the first assignment that passes;
  a-outer is plain 1-planarity.  The witness is the test's rotation
  system, apex removed, with an outer face picked by ``_accepted_outer``.
* A geometric predicate enumerates every genus-0 rotation system and every
  outer face of the assignments that pass, because Thomassen's B/W check
  depends on the whole embedding: a graph is a yes-instance iff some valid
  1-planar embedding together with an outer-face choice is free of B- and
  W-configurations.  No coordinates are produced.  The rotation systems
  are built by face insertion, one segment of the planarization at a time:
  a chord goes only into two corners of one face, so no partial map leaves
  genus 0, and a dummy's fourth dart only between the darts of one edge.
  Up to ``SORTED_SYSTEMS`` systems of an assignment are sorted into the
  order of the product of per-node rotations, which fixes the witnesses;
  more stream in build order.  At most ``INSERTION_BUDGET`` insertion
  steps are taken per ``decide`` call; beyond it the search raises
  ``CapExceeded``.

For k >= 2 only the topological deciders are available; no straightening
characterization exists there.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .embedding import (
    PlaneEmbedding,
    Planarization,
    build_embedding,
    unrotated_embedding,
    validate_embedding,
)
from .graph import Graph, GraphError
from .planarity import planar_rotation
from .straightening import candidate_configurations

DEFAULT_EDGE_CAP = 11
# Insertion steps the rotation search may take in one ``decide`` call.
INSERTION_BUDGET = 1_000_000
# An assignment with at most this many rotation systems yields them in the
# order of the product of per-node rotations.  Past it they stream in build
# order, so that a graph with very many embeddings (a star K1,11 has 1.8
# million up to reflection) is answered from its first ones.
SORTED_SYSTEMS = 1000


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
    crossing_lower_bound: int = 0  # the crossing count the search starts at
    face_bound_rejections: int = 0  # assignments with too few triangles
    planarity_tests: int = 0
    planarity_failed: int = 0
    density_rejections: int = 0  # components ruled out by edge density
    insertions: int = 0  # segment insertion steps of the geometric search
    rotation_systems: int = 0  # genus-0 systems it built
    valid_embeddings: int = 0  # rotation systems examined, or the test's
    outer_faces_checked: int = 0
    bw_candidates: int = 0  # B/W candidates built for geometric predicates
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


def girth(g: Graph) -> float:
    """The length of a shortest cycle of g; ``math.inf`` for a forest.

    Triangles are looked for first, one edge at a time, since most dense
    inputs have one.  Otherwise a breadth-first search from each vertex
    closes a cycle at every non-tree edge; the shortest such cycle over all
    roots is the girth.  A search stops once no shorter cycle can close,
    and the roots run out early at a 4-cycle, the shortest one left."""
    adj = {v: {w for w, _ in nbrs} for v, nbrs in g.adjacency.items()}
    if any(adj[u] & adj[v] for u, v in g.edges.values()):
        return 3
    best = math.inf
    for root in adj:
        dist, parent = {root: 0}, {root: root}
        queue = collections.deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] + 1 >= best:  # edges to lower levels are counted
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
        if best == 4:
            break
    return best


def crossing_lower_bound(g: Graph) -> int:
    """At least this many crossings are in every drawing of g, whatever the
    crossings per edge: max(0, m - floor(gamma(n-2)/(gamma-2))) for the
    girth gamma of g (see the module docstring).  A plane graph left as a
    forest has at most n - 1 edges, and a graph with a cycle has gamma <= n,
    so gamma(n-2)/(gamma-2) >= n covers it, and the bound is 0 when m <= n
    without a girth."""
    if g.m <= g.n:
        return 0
    gamma = girth(g)
    return max(0, g.m - gamma * (g.n - 2) // (gamma - 2))


# ---------------------------------------------------------------------------
# Crossing assignments
# ---------------------------------------------------------------------------

def _independent_pairs(g: Graph) -> list[tuple[int, int]]:
    ids = sorted(g.edges)
    return [(e, f) for i, e in enumerate(ids) for f in ids[i + 1:]
            if not set(g.edges[e]) & set(g.edges[f])]


def enumerate_crossing_sets(g: Graph, k: int = 1, start: int = 0
                            ) -> Iterator[CrossingAssignment]:
    """All ways to pick pairwise-compatible crossing pairs with at least
    ``start`` crossings, in order of increasing crossing count.  For k=1
    these are the matchings on independent edge pairs; for k >= 2 multisets
    with per-edge multiplicity <= k, each expanded with every drawing order
    along multiply-crossed edges (canonicalized so that two crossings of the
    same pair keep their index order along the lower edge).  The assignment
    with no crossing comes before the edge pairs are listed."""
    if start == 0:
        yield CrossingAssignment(())
        start = 1
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

    size = start
    while True:
        found = False
        for chosen in of_size(size):
            found = True
            if k == 1:  # a matching crosses no edge twice: no orders
                yield CrossingAssignment(chosen)
                continue
            for order in chosen_orders(list(chosen)):
                yield CrossingAssignment(chosen, order)
        if not found:
            return
        size += 1


def _too_few_triangles(g: Graph, apex: tuple[int, ...] = ()
                       ) -> Optional[Callable[[tuple[tuple[int, int], ...]],
                                              bool]]:
    """For k = 1 on a connected g: a test that is true of the crossing
    pairs of an assignment whose planarization, with an apex joined to
    ``apex`` if given, has fewer than 2m - 4n + 8 triangles and so is not
    planar (see ``_decide_connected``).  None when the need is at most 0 or
    n < 4, so that no assignment fails it: K3 is plane with one triangle.

    The planarization's triangles are the triangles of g with no crossed
    edge, for each crossing pair its uncrossed kite edges (the edges of g
    joining an endpoint of one crossing edge to one of the other), and,
    with an apex, one more when the edge ab is uncrossed.  Triangles are
    bit masks over the edges of g, listed only when the need is positive;
    the kite edges of a pair are a mask built on the pair's first use."""
    need = 2 * g.m - 4 * g.n + 8
    if need <= 0 or g.n < 4:
        return None
    bit = {e: 1 << i for i, e in enumerate(g.edges)}
    adj = {v: dict(nbrs) for v, nbrs in g.adjacency.items()}
    triangles = [bit[e] | bit[f] | bit[adj[v][w]]
                 for e, (u, v) in g.edges.items()
                 for w, f in adj[u].items() if w > v and w in adj[v]]
    ab = g.edge_between(*apex) if apex else None
    if ab is not None:  # the apex's triangle is lost only if ab is crossed
        triangles.append(bit[ab])
    kites: dict[tuple[int, int], int] = {}

    def too_few(pairs: tuple[tuple[int, int], ...]) -> bool:
        crossed = 0
        for e, f in pairs:
            crossed |= bit[e] | bit[f]
        count = sum(not t & crossed for t in triangles)
        for pair in pairs:
            mask = kites.get(pair)
            if mask is None:
                (a, b), (c, d) = g.edges[pair[0]], g.edges[pair[1]]
                mask = kites[pair] = sum(
                    bit[x] for x in (adj[a].get(c), adj[a].get(d),
                                     adj[b].get(c), adj[b].get(d))
                    if x is not None)
            count += (mask & ~crossed).bit_count()
        return count < need

    return too_few


# ---------------------------------------------------------------------------
# Rotation systems by face insertion
# ---------------------------------------------------------------------------

_NEW, _FREE, _ALTERNATE = range(3)  # the modes of a segment end


def _insertion_steps(plan: Planarization, dummies: set[int]
                     ) -> list[tuple[int, int, int, int, int]]:
    """The order in which the segments of a connected planarization are
    inserted, as steps ``(dart at origin, twin, mode at origin, mode at
    target, pin)``.

    Nodes join by maximum-cardinality search from a node of largest degree:
    the next node is the one with the most segments to placed nodes, the
    smallest on ties, popped from a heap that passes over stale entries.
    One of those segments goes in first as a pendant segment, from its end
    with the fewest placed darts; the rest follow at once as chords, so
    every segment touches what is placed, and chords come before the next
    pendant.  An end's mode is ``_NEW`` when its node has no dart yet,
    ``_ALTERNATE`` when it is the fourth dart of a dummy, and ``_FREE``
    otherwise.  The first dart to be a node's third gets as ``pin`` the
    node's second dart, which it must be inserted before; a planarization
    with no node of degree 3 or more has no pin."""
    node_darts = plan.node_darts
    start = min(node_darts, key=lambda v: (-len(node_darts[v]), v))
    placed_darts: dict[int, list[int]] = {v: [] for v in node_darts}
    reach = dict.fromkeys(node_darts, 0)  # segments to placed nodes
    placed = {start}
    for d in node_darts[start]:
        reach[plan.target(d)] += 1
    # (-reach, node), one entry per reach a node has had; stale ones are
    # passed over
    heap = [(-reach[v], v) for v in node_darts if v != start]
    heapq.heapify(heap)
    steps: list[tuple[int, int, int, int, int]] = []
    pin = True
    while len(placed) < len(node_darts):
        r, w = heapq.heappop(heap)
        if w in placed or -r != reach[w]:
            continue
        into = sorted((d ^ 1 for d in node_darts[w] if plan.target(d) in placed),
                      key=lambda d: (len(placed_darts[plan.origin(d)]), d))
        placed.add(w)
        for d in node_darts[w]:
            v = plan.target(d)
            reach[v] += 1
            if v not in placed:
                heapq.heappush(heap, (-reach[v], v))
        for d in into:
            step = [d, d ^ 1, 0, 0, -1]
            for end, x in enumerate((d, d ^ 1)):
                node = plan.origin(x)
                have = placed_darts[node]
                if not have:
                    step[2 + end] = _NEW
                elif len(have) == 3 and node in dummies:
                    step[2 + end] = _ALTERNATE
                else:
                    step[2 + end] = _FREE
                if pin and len(have) == 2:
                    step[4] = have[1]
                    pin = False
            for x in (d, d ^ 1):
                placed_darts[plan.origin(x)].append(x)
            steps.append(tuple(step))
    return steps


def _rotations(skeleton: PlaneEmbedding, stats: DecideStats
               ) -> Iterator[dict[int, tuple[int, ...]]]:
    """Every genus-0 rotation system of the skeleton's planarization, which
    must be connected, whose dummies alternate, up to reflection; each
    rotation is listed from its node's smallest dart.

    The segments go in one at a time (``_insertion_steps``).  A pendant
    segment may go into any corner of its placed end.  A chord may go only
    into two corners of one face, which it splits; a chord across two faces
    would raise the genus, and the genus never drops again, so no partial
    map off genus 0 is built.  A dummy's fourth dart must go between the
    two darts of one edge.  The pin keeps one of each mirror pair, so every
    system arises from exactly one sequence of corners; the system is then
    read off in the mirror image that fixes the reflection at a pivot: the
    real node of largest degree (at least 3, smallest id on ties), else the
    first dummy, whose second dart must be smaller than its last.  Each
    corner taken is an insertion step of ``stats`` and each system built
    is counted there; passing ``INSERTION_BUDGET`` raises ``CapExceeded``.
    The search keeps an explicit stack, so a long path does not recurse."""
    plan = skeleton.planarization
    node_darts = plan.node_darts
    nodes = sorted(node_darts)
    dummies = [c.dummy for c in skeleton.crossings]
    dummy_set = set(dummies)
    eligible = [v for v in nodes
                if len(node_darts[v]) >= 3 and v not in dummy_set]
    pivot = (max(eligible, key=lambda v: (len(node_darts[v]), -v))
             if eligible else dummies[0] if dummies else None)
    origin = [plan.origin(d) for d in range(plan.dart_count)]
    edge = [skeleton.edge_of(d) for d in range(plan.dart_count)]
    steps = _insertion_steps(plan, dummy_set)
    first: dict[int, int] = {}  # the first dart placed at each node
    for step in steps:
        for d in step[:2]:
            first.setdefault(origin[d], d)
    succ = [-1] * plan.dart_count
    pred = [-1] * plan.dart_count

    def corners(node: int, mode: int, pin_dart: int) -> list[int]:
        """The placed darts at node that a new dart may go in front of; -1
        alone when the node has none."""
        if mode == _NEW:
            return [-1]
        if pin_dart >= 0 and origin[pin_dart] == node:
            return [pin_dart]
        out = []
        d = first[node]
        while True:
            if mode == _FREE or edge[pred[d]] == edge[d]:
                out.append(d)
            d = succ[d]
            if d == first[node]:
                return out

    def options(step: tuple[int, int, int, int, int]) -> list[tuple[int, int]]:
        da, db, mode_a, mode_b, pin_dart = step
        at_a = corners(origin[da], mode_a, pin_dart)
        at_b = corners(origin[db], mode_b, pin_dart)
        if mode_a == _NEW or mode_b == _NEW:  # a pendant segment
            return [(qa, qb) for qa in at_a for qb in at_b]
        out = []  # a chord: two corners of one face
        for qa in at_a:
            x = qa
            while True:  # the face of the corner in front of qa
                if x in at_b:
                    out.append((qa, x))
                x = succ[x ^ 1]
                if x == qa:
                    break
        return out

    def insert(d: int, q: int) -> None:
        if q < 0:
            succ[d] = pred[d] = d
        else:
            p = pred[q]
            succ[p], pred[d], succ[d], pred[q] = d, p, q, d

    def remove(d: int, q: int) -> None:
        if q >= 0:
            p = pred[d]
            succ[p], pred[q] = q, p

    taken: list[Optional[tuple[int, int]]] = [None] * len(steps)
    pending = [iter(options(steps[0]))]
    while pending:
        i = len(pending) - 1
        da, db = steps[i][:2]
        if taken[i] is not None:
            remove(da, taken[i][0])
            remove(db, taken[i][1])
            taken[i] = None
        choice = next(pending[i], None)
        if choice is None:
            pending.pop()
            continue
        stats.insertions += 1
        if stats.insertions > INSERTION_BUDGET:
            raise CapExceeded(
                f"rotation search exceeds {INSERTION_BUDGET} insertion steps")
        insert(da, choice[0])
        insert(db, choice[1])
        taken[i] = choice
        if i + 1 < len(steps):
            pending.append(iter(options(steps[i + 1])))
            continue
        turn = succ
        if pivot is not None:
            p = node_darts[pivot][0]
            if succ[p] > pred[p]:
                turn = pred
        rotation = {}
        for v in nodes:
            d = head = node_darts[v][0]
            rot = []
            while True:
                rot.append(d)
                d = turn[d]
                if d == head:
                    break
            rotation[v] = tuple(rot)
        stats.rotation_systems += 1
        yield rotation


def _system_iter(skeleton: PlaneEmbedding, stats: DecideStats
                 ) -> Iterator[PlaneEmbedding]:
    """Yield one PlaneEmbedding per system of ``_rotations``; the outer dart
    is a placeholder.  Up to ``SORTED_SYSTEMS`` systems are yielded in the
    order of the product of per-node rotations listed from their smallest
    darts, as lexicographic tuples; more stream in build order."""
    nodes = sorted(skeleton.planarization.node_darts)
    systems = _rotations(skeleton, stats)
    head = list(itertools.islice(systems, SORTED_SYSTEMS + 1))
    if len(head) <= SORTED_SYSTEMS:
        head.sort(key=lambda rot: [rot[v] for v in nodes])
    for rot in itertools.chain(head, systems):
        yield dataclasses.replace(skeleton, rotation=rot, outer=0)


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


def enumerate_embeddings(g: Graph, crossings) -> Iterator[PlaneEmbedding]:
    """All valid embeddings of g with the given crossings, a
    ``CrossingAssignment`` or a list of edge pairs, each paired with every
    choice of outer face.  The drawing must be connected: the crossings may
    join components of g, but a planarization with two components raises
    ``GraphError``.  An edgeless graph has no embedding to yield."""
    assignment = (crossings if isinstance(crossings, CrossingAssignment)
                  else CrossingAssignment(tuple(tuple(c) for c in crossings)))
    if not g.edges:
        return
    skeleton = unrotated_embedding(g, assignment.pairs, assignment.edge_order)
    if len(skeleton.planarization.components) > 1:
        raise GraphError("enumerate_embeddings needs a connected drawing")
    for emb in _system_iter(skeleton, DecideStats()):
        for cyc in emb.planarization.faces:
            yield dataclasses.replace(emb, outer=cyc[0])


# ---------------------------------------------------------------------------
# Memo keys
# ---------------------------------------------------------------------------

def canonical_key(g: Graph, anchors: tuple[int, ...] = ()):
    """Memo key for (g, anchors): n, the number of anchors and the edges of
    g relabeled in breadth-first order, sorted.

    The anchors get labels 0, 1, ... in order.  A breadth-first search from
    them, then from each unlabeled vertex in increasing id, labels the rest
    in the order it visits them, neighbours in increasing id.  Equal keys
    give an isomorphism that maps the anchors to the anchors in order, so a
    memo hit never changes an answer.  Other keys of isomorphic graphs may
    differ, but not under an increasing relabeling of the ids, which is how
    the treedepth pipeline's repeated children differ.  The benchmark's
    tracer wraps this function by its name."""
    order = list(anchors)
    label = {v: i for i, v in enumerate(order)}
    adjacency = g.adjacency
    roots = None  # the sorted vertices, once a search runs out
    for head in range(g.n):
        if head == len(order):  # the search ran out: start a new one
            if roots is None:
                roots = iter(sorted(g.vertices))
            order.append(next(v for v in roots if v not in label))
            label[order[head]] = head
        for w, _ in adjacency[order[head]]:
            if w not in label:
                label[w] = len(order)
                order.append(w)
    pairs = []
    for u, v in g.edges.values():
        lu, lv = label[u], label[v]
        pairs.append((lu, lv) if lu < lv else (lv, lu))
    pairs.sort()
    return (g.n, len(anchors), tuple(pairs))


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _accepted_outer(emb: PlaneEmbedding, pred: Predicate,
                    stats: DecideStats) -> Optional[int]:
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
    stats.bw_candidates += len(cands)
    for f, fv in enumerate(fverts):
        stats.outer_faces_checked += 1
        if (all(x in fv for x in outer_anchors)
                and not any(c.is_configuration(f) for c in cands)):
            return f
    return None


def _decide_connected(g: Graph, pred: Predicate, cap: int,
                      want_witness: bool, stats: DecideStats) -> Verdict:
    """Decide pred on a connected graph, adding the work done to ``stats``.

    The enumeration starts at ``crossing_lower_bound(g)`` crossings, for
    every k and every predicate: the planarization of a smaller assignment,
    were it planar, would give a drawing with too few crossings, from which
    deleting one edge of each crossing pair would leave a plane graph with
    too many edges for its girth.  So every assignment below the bound
    fails the planarity test, and starting there changes no answer and no
    witness.

    For k = 1 the planarization, apex included, is connected and simple,
    with m' segments and n' nodes.  Planar, it has f = m' - n' + 2 faces,
    each of length at least 3, so 2m' >= 3t + 4(f - t) for the t faces of
    length 3.  Each of those is bounded by a triangle, and no triangle
    bounds two faces unless the planarization is K3 itself, which n >= 4
    rules out.
    So it has at least 2m' - 4n' + 8 = 2m - 4n + 8 triangles: a crossing
    pair adds one node and two segments, and so does the apex.  An
    assignment with fewer (``_too_few_triangles``, which counts them from
    the crossing pairs) is skipped before its skeleton is built.  It would
    have failed the test, so no answer, witness or B/W configuration
    changes.  The guard n >= 4 is needed: K3 needs 2 triangles by the count
    and has 1, which bounds both of its faces.

    A topological predicate takes the first assignment whose planarization
    passes the planarity test, and the test's embedding is the witness.
    Its crossings alternate without a special case: were some dummy's two
    edges to touch instead of cross, the dummy could be split in two and
    the edges uncrossed there, a planar planarization of an assignment with
    one crossing less, which was tried before and failed, or lies below the
    bound and cannot be planar."""
    if density_excludes(g, pred.geometric) and pred.k == 1:
        stats.density_rejections += 1
        return Verdict(False, None, stats)
    if g.m > cap:
        raise CapExceeded(f"{g.m} edges exceeds decider cap {cap}")
    if g.m == 0:
        return Verdict(True, None, stats)

    start = crossing_lower_bound(g)
    stats.crossing_lower_bound += start
    apex = pred.anchors if pred.variant in ("ab-shared", "ab-outer") else ()
    too_few = _too_few_triangles(g, apex) if pred.k == 1 else None
    for assignment in enumerate_crossing_sets(g, pred.k, start):
        stats.assignments += 1
        if too_few is not None and too_few(assignment.pairs):
            stats.face_bound_rejections += 1
            continue
        skeleton = unrotated_embedding(g, assignment.pairs,
                                       assignment.edge_order)
        # Fewer than 9 segments, the apex's path ab counted as one, are
        # planar (K3,3 has 9); the geometric search needs no rotation.
        if (not pred.geometric
                or g.m + 2 * len(assignment.pairs) + bool(apex) >= 9):
            stats.planarity_tests += 1
            rotation = _test_rotation(skeleton, apex)
            if rotation is None:
                stats.planarity_failed += 1
                continue
        embs = (_system_iter(skeleton, stats) if pred.geometric else
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
                validate_embedding(witness)
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
    anchor components.  A YES on a connected graph carries a witness.  On a
    disconnected graph only a topological plain YES does, merged from the
    components; any other predicate reports the answer without a witness.
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
            run(c, pred if pred.a in c else plain)
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
