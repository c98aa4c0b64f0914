"""Reidemeister-style crossing elimination on 1-planar embeddings with a
static/flexible edge partition.

Flexible paths are treated as curves: their internal subdivision vertices
are smoothed away and reintroduced afterwards (``reshorten``).  Rule I
removes a self-crossing of a curve by the orientation-reversing smoothing
(the loop is traversed backwards), which keeps every crossing with other
curves in place; Rule II removes two crossings between two curves by
reconnecting the strands at both crossing points, which swaps the enclosed
subarcs.  An antiparallel Rule II step, where the second curve meets the
two crossings in the opposite order, is the same swap with both subarcs
reversed.  Every step is one reconnection per strand (``_splice``) at the
crossing points, so every region of the drawing persists and the outer
face can be tracked across every step.

``reshorten`` relays the arrangement's planarization onto the int darts of
the re-subdivided graph.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import json

from .embedding import (
    Arc,
    PlaneEmbedding,
    Planarization,
    _embedding_dict,
    embedding_from_json,
    unrotated_embedding,
    validate_embedding,
)
from .graph import Graph, GraphError, degree2_walks

_END0, _END1 = 0, 1


@dataclass(frozen=True)
class ArcSystem:
    """Host embedding with a static/flexible partition; ``arcs`` are the
    maximal degree-2 paths of the flexible edges."""

    host: PlaneEmbedding
    static_edges: frozenset[int]
    arcs: tuple[Arc, ...]


def arc_system(host: PlaneEmbedding, static_edges: Iterable[int]) -> ArcSystem:
    """Partition the host's non-static edges into maximal degree-2 paths and
    assemble the ArcSystem."""
    g = host.graph
    static = frozenset(static_edges)
    if not static <= set(g.edges):
        raise GraphError("static edges not in host")
    if not g.edges:
        raise GraphError("arc systems require a host with an edge")
    if not g.is_connected():
        raise GraphError("arc systems require a connected host")

    flexible = set(g.edges) - static
    internal_ok = {v for v in g.vertices
                   if g.degree(v) == 2
                   and all(e in flexible for e in g.incident_edges(v))}

    arcs = tuple(Arc(edges, walk)
                 for edges, walk in degree2_walks(g, flexible, internal_ok))
    return ArcSystem(host, static, arcs)


def arc_system_to_json(sys_: ArcSystem) -> str:
    """Embedding JSON extended with "static" (edge ids) and "arcs"
    (edge-id walks)."""
    base = _embedding_dict(sys_.host)
    base["static"] = sorted(sys_.static_edges)
    base["arcs"] = [list(a.edges) for a in sys_.arcs]
    return json.dumps(base, sort_keys=True, separators=(",", ":"))


def arc_system_from_json(text: str) -> ArcSystem:
    obj = json.loads(text)
    host = embedding_from_json(text)
    return arc_system(host, obj["static"])


# ---------------------------------------------------------------------------
# Curve arrangement
# ---------------------------------------------------------------------------

@dataclass
class _Curve:
    kind: str  # "static" | "arc"
    ref: int  # edge id or arc index
    tail: int
    head: int
    closed: bool
    seq: list[int]  # passage ids in traversal order


def _emark(cid: int, which: int) -> tuple:
    return ("E", cid, which)


def _is_end(marker) -> bool:
    """Whether a node-path entry is a curve-end marker, not a passage id."""
    return isinstance(marker, tuple)


def _splice(transform: dict, left, x, x2, mid: list, y2, y, right) -> None:
    """Record in ``transform`` how the segments of one reconnected strand
    merge, under both orientations of each segment key.  The strand's new
    node path is ``left, *mid, right``; it replaces the segments
    (left, x), (x2, mid[0]), (mid[-1], y2) and (y, right), or (left, x),
    (x2, y2) and (y, right) when ``mid`` is empty."""
    if mid:
        first, last = (left, mid[0]), (mid[-1], right)
        merges = [((left, x), first), ((x2, mid[0]), first),
                  ((mid[-1], y2), last), ((y, right), last)]
    else:
        merges = [((left, x), (left, right)), ((x2, y2), (left, right)),
                  ((y, right), (left, right))]
    for (a, b), (c, d) in merges:
        transform[(a, b)] = (c, d)
        transform[(b, a)] = (d, c)


class Arrangement:
    """Mutable curve arrangement; crossings carry two stable passage ids and
    a clockwise rotation of four (passage, toward-end) darts."""

    def __init__(self) -> None:
        self.curves: dict[int, _Curve] = {}
        self.passage_curve: dict[int, int] = {}
        self.passage_node: dict[int, int] = {}
        self.node_rot: dict[int, list[tuple[int, int]]] = {}
        self.real_rot: dict[int, list[tuple[int, int]]] = {}
        self.outer_key: Optional[tuple] = None
        self._next_pid = 0

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_system(sys: ArcSystem) -> "Arrangement":
        """One walk per curve, static edges in id order and then the arcs,
        along the host segments of its edges: a passage id at every dummy
        passed, and for every host dart the curve, the node-path position
        of its segment and whether the dart runs along the curve."""
        arr = Arrangement()
        host = sys.host
        g = host.graph
        plan = host.planarization
        walks = [("static", e, (e,), g.edges[e])
                 for e in sorted(sys.static_edges)]
        walks += [("arc", ai, arc.edges, arc.walk)
                  for ai, arc in enumerate(sys.arcs)]
        at: dict[int, tuple[int, int, bool]] = {}
        for cid, (kind, ref, edges, walk) in enumerate(walks):
            curve = arr.curves[cid] = _Curve(kind, ref, walk[0], walk[-1],
                                             walk[0] == walk[-1], [])
            for e, v in zip(edges, walk):
                forward = v == g.edges[e][0]
                segs = host.edge_segments(e)
                for i, s in enumerate(segs if forward else segs[::-1]):
                    d = 2 * s + (0 if forward else 1)
                    if i:
                        pid = arr._next_pid
                        arr._next_pid += 1
                        curve.seq.append(pid)
                        arr.passage_curve[pid] = cid
                        arr.passage_node[pid] = plan.origin(d)
                    pos = len(curve.seq)
                    at[d], at[d ^ 1] = (cid, pos, True), (cid, pos, False)

        paths = [arr.node_path(cid) for cid in arr.curves]
        for cp in host.crossings:
            rot = arr.node_rot[cp.dummy] = []
            for cid, pos, forward in map(at.get, host.rotation[cp.dummy]):
                rot.append((paths[cid][pos], _END1) if forward
                           else (paths[cid][pos + 1], _END0))
        smoothed = {v for arc in sys.arcs for v in arc.walk[1:-1]}
        for v in sorted(g.vertices - smoothed):
            arr.real_rot[v] = [(cid, _END0 if forward else _END1)
                               for cid, _, forward
                               in map(at.get, host.rotation[v])]
        cid, pos, forward = at[host.outer]
        a, b = paths[cid][pos:pos + 2]
        arr.outer_key = (a, b) if forward else (b, a)
        return arr

    # -- planarization ----------------------------------------------------------

    def node_path(self, cid: int) -> list:
        curve = self.curves[cid]
        return [_emark(cid, _END0)] + list(curve.seq) + [_emark(cid, _END1)]

    def _marker_node(self, marker) -> int:
        if _is_end(marker):
            curve = self.curves[marker[1]]
            return curve.tail if marker[2] == _END0 else curve.head
        return self.passage_node[marker]

    def planarization(self) -> Planarization:
        """Segments follow each curve's node path, curves in id order: the
        dart leaving a path entry toward the curve's head is twice the index
        of the segment the entry starts, and the one toward its tail is one
        less."""
        segments = []
        start: dict = {}  # path entry -> index of the segment it starts
        for cid in sorted(self.curves):
            path = self.node_path(cid)
            for a, b in zip(path, path[1:]):
                start[a] = len(segments)
                segments.append((self._marker_node(a), self._marker_node(b)))
            start[path[-1]] = len(segments)

        def leaving(marker, toward: int) -> int:
            forward = 2 * start[marker]
            return forward if toward == _END1 else forward - 1

        rotation = {node: tuple(leaving(pid, toward) for pid, toward in rot)
                    for node, rot in self.node_rot.items()}
        for v, stubs in self.real_rot.items():
            # the stub at a curve's tail leaves toward its head, and the
            # stub at its head toward its tail
            rotation[v] = tuple(leaving(_emark(cid, end), 1 - end)
                                for cid, end in stubs)
        return Planarization(tuple(segments), rotation)

    def validate(self) -> None:
        plan = self.planarization()
        plan.check_genus_zero()
        for node, rot in self.node_rot.items():
            pids = [p for p, _ in rot]
            if pids[0] == pids[1] or pids[1] == pids[2]:
                raise GraphError(f"crossing {node} lost alternation")

    # -- queries -----------------------------------------------------------------

    def arc_curve_ids(self) -> list[int]:
        return [c for c in sorted(self.curves)
                if self.curves[c].kind == "arc"]

    def other_passage(self, pid: int) -> int:
        node = self.passage_node[pid]
        return next(p for p, _ in self.node_rot[node] if p != pid)

    def total_crossings(self) -> int:
        return len(self.node_rot)

    def crossings_of_curve(self, cid: int) -> int:
        return len(self.curves[cid].seq)

    def pair_crossings(self, cid_a: int, cid_b: int) -> int:
        return sum(1 for pid in self.curves[cid_a].seq
                   if self.passage_curve[self.other_passage(pid)] == cid_b)

    def static_crossed_by_arc(self) -> dict[int, bool]:
        out = {}
        for cid, curve in self.curves.items():
            if curve.kind != "static":
                continue
            out[curve.ref] = any(
                self.curves[self.passage_curve[self.other_passage(p)]].kind
                == "arc" for p in curve.seq)
        return out

    # -- rewrites ----------------------------------------------------------------

    def _flip_toward(self, pid: int) -> None:
        node = self.passage_node[pid]
        self.node_rot[node] = [(p, (1 - t) if p == pid else t)
                               for p, t in self.node_rot[node]]

    def _drop_node(self, pid_a: int, pid_b: int) -> None:
        node = self.passage_node[pid_a]
        del self.node_rot[node]
        for pid in (pid_a, pid_b):
            del self.passage_curve[pid]
            del self.passage_node[pid]

    def _apply_transform(self, transform: dict) -> None:
        self.outer_key = transform.get(self.outer_key, self.outer_key)

    def rule1(self, cid: int, i: int, j: int) -> None:
        """Remove the self-crossing of curve ``cid`` between sequence
        positions i < j by reversing the enclosed loop inline."""
        curve = self.curves[cid]
        seq = curve.seq
        p, q = seq[i], seq[j]
        if self.passage_node[p] != self.passage_node[q]:
            raise GraphError("positions are not a self-crossing")
        path = self.node_path(cid)
        loop = seq[i + 1:j][::-1]
        transform: dict = {}
        _splice(transform, path[i], p, q, loop, p, q, path[j + 2])
        for pid in loop:
            self._flip_toward(pid)
        curve.seq = seq[:i] + loop + seq[j + 1:]
        self._drop_node(p, q)
        self._apply_transform(transform)

    def rule2(self, cid_a: int, cid_b: int, ia1: int, ia2: int) -> None:
        """Remove two crossings between curves a and b; ia1 < ia2 are the
        positions along a of the two shared crossing nodes.  The subarcs
        between them trade curves; when b runs against a they are reversed
        and their passages flipped."""
        A, B = self.curves[cid_a], self.curves[cid_b]
        pa1, pa2 = A.seq[ia1], A.seq[ia2]
        pb1, pb2 = self.other_passage(pa1), self.other_passage(pa2)
        if self.passage_curve[pb1] != cid_b or self.passage_curve[pb2] != cid_b:
            raise GraphError("positions are not crossings with curve b")
        jb1, jb2 = B.seq.index(pb1), B.seq.index(pb2)
        lo, hi = sorted((jb1, jb2))
        step = 1 if jb1 < jb2 else -1
        mid_a, mid_b = A.seq[ia1 + 1:ia2][::step], B.seq[lo + 1:hi][::step]
        (pa_lo, pb_lo), (pa_hi, pb_hi) = ((pa1, pb1), (pa2, pb2))[::step]

        path_a, path_b = self.node_path(cid_a), self.node_path(cid_b)
        transform: dict = {}
        _splice(transform, path_a[ia1], pa1, pb1, mid_b, pb2, pa2,
                path_a[ia2 + 2])
        _splice(transform, path_b[lo], pb_lo, pa_lo, mid_a, pa_hi, pb_hi,
                path_b[hi + 2])
        for pid in mid_a:
            self.passage_curve[pid] = cid_b
        for pid in mid_b:
            self.passage_curve[pid] = cid_a
        if step < 0:
            for pid in mid_a + mid_b:
                self._flip_toward(pid)
        A.seq = A.seq[:ia1] + mid_b + A.seq[ia2 + 1:]
        B.seq = B.seq[:lo] + mid_a + B.seq[hi + 1:]
        self._drop_node(pa1, pb1)
        self._drop_node(pa2, pb2)
        self._apply_transform(transform)

    # -- rule scheduling -----------------------------------------------------------

    def find_self_crossing(self) -> Optional[tuple[int, int, int]]:
        for cid in self.arc_curve_ids():
            seq = self.curves[cid].seq
            for i, pid in enumerate(seq):
                other = self.other_passage(pid)
                if self.passage_curve[other] == cid:
                    return (cid, i, seq.index(other))
        return None

    def find_double_crossing(self) -> Optional[tuple[int, int, int, int]]:
        arc_ids = self.arc_curve_ids()
        for cid_a, cid_b in itertools.combinations(arc_ids, 2):
            hits = [i for i, pid in enumerate(self.curves[cid_a].seq)
                    if self.passage_curve[self.other_passage(pid)] == cid_b]
            if len(hits) >= 2:
                return (cid_a, cid_b, hits[0], hits[1])
        return None


# ---------------------------------------------------------------------------
# simplify / reshorten
# ---------------------------------------------------------------------------

@dataclass
class SimplifiedSystem:
    original: ArcSystem
    arrangement: Arrangement
    rule1_steps: int
    rule2_steps: int

    @property
    def s(self) -> int:
        return len(self.original.static_edges)

    @property
    def f(self) -> int:
        return len(self.original.arcs)


def simplify(sys: ArcSystem) -> SimplifiedSystem:
    """Apply Rule I (self-crossing removal) and Rule II (double-crossing
    removal between two arcs) to a fixpoint.  Crossings with static edges
    are preserved exactly; the total crossing count drops by 1 per Rule I
    step and 2 per Rule II step.  The arrangement is validated after every
    step."""
    arr = Arrangement.from_system(sys)
    arr.validate()
    r1 = r2 = 0
    while True:
        before = arr.total_crossings()
        hit1 = arr.find_self_crossing()
        if hit1 is not None:
            arr.rule1(*hit1)
            r1 += 1
            arr.validate()
            assert arr.total_crossings() == before - 1
            continue
        hit2 = arr.find_double_crossing()
        if hit2 is not None:
            arr.rule2(*hit2)
            r2 += 1
            arr.validate()
            assert arr.total_crossings() == before - 2
            continue
        break
    return SimplifiedSystem(sys, arr, r1, r2)


def reshorten(simplified: SimplifiedSystem, target: int,
              geometric: bool = False) -> tuple[Graph, PlaneEmbedding]:
    """Re-subdivide every flexible arc to exactly ``target`` edges, placing
    one subdivision vertex after each crossing (or one on each side of it
    with ``geometric``) and distributing leftovers on crossing-free tail
    segments.  Every rotation and the outer dart are the arrangement's, each
    dart moved onto the output dart leaving its node along the same strand.
    Returns the new graph with its validated 1-planar embedding."""
    arr = simplified.arrangement
    g = simplified.original.host.graph

    # A crossing whose partner curve touches the arc's own endpoint can
    # close a B-configuration through the arc's end edge; keeping two
    # uncrossed edges on such an end makes every configuration of the
    # output consist of static edges only, where the host rules it out.
    end_margin: dict[int, tuple[int, int]] = {}
    for cid in arr.arc_curve_ids():
        curve = arr.curves[cid]
        chi = len(curve.seq)
        td = hd = 0
        if geometric and chi:
            def partner_touches(pid: int, vertex: int) -> bool:
                other = arr.curves[arr.passage_curve[arr.other_passage(pid)]]
                return vertex in (other.tail, other.head)

            td = 1 if partner_touches(curve.seq[0], curve.tail) else 0
            hd = 1 if partner_touches(curve.seq[-1], curve.head) else 0
        end_margin[cid] = (td, hd)
        if geometric and chi:
            demand = 2 * chi + 1 + td + hd
        else:
            demand = chi
        if target < max(demand, 1):
            raise GraphError(
                f"target {target} below crossing demand {demand} of arc "
                f"{curve.ref}")
        if curve.closed and target < 3:
            raise GraphError("closed arcs need target >= 3")

    # walks of the output graph, one per curve
    fresh = max(g.vertices) + 1
    walks: dict[int, list[int]] = {}
    for cid in sorted(arr.curves):
        curve = arr.curves[cid]
        if curve.kind == "static":
            walks[cid] = [curve.tail, curve.head]
            continue
        inner = list(range(fresh, fresh + target - 1))
        fresh += target - 1
        walks[cid] = [curve.tail] + inner + [curve.head]

    pairs = [uv for cid in sorted(arr.curves)
             for uv in zip(walks[cid], walks[cid][1:])]
    if len({(min(p), max(p)) for p in pairs}) != len(pairs):
        raise GraphError("target produces parallel edges between endpoints")
    out_graph = Graph.build(pairs)

    # crossing t of an arc sits on walk edge slot(t); the end edges touch
    # real vertices, so they are used only when the demand forces it
    def slot(cid: int, t: int) -> int:
        curve = arr.curves[cid]
        if curve.kind == "static":
            return 0
        chi = len(curve.seq)
        if not geometric:
            return t + 1 if chi <= target - 2 else t
        return 1 + end_margin[cid][0] + 2 * t

    node_ids = sorted(arr.node_rot)
    position = {pid: t for curve in arr.curves.values()
                for t, pid in enumerate(curve.seq)}
    cross_pairs = []
    edge_order: dict[int, list[int]] = {}
    for i, node in enumerate(node_ids):
        eids = []
        for pid in sorted({p for p, _ in arr.node_rot[node]}):
            cid = arr.passage_curve[pid]
            at = slot(cid, position[pid])
            eids.append(out_graph.edge_between(*walks[cid][at:at + 2]))
        cross_pairs.append(tuple(eids))
        for eid in eids:
            edge_order.setdefault(eid, []).append(i)
    # unchecked, as perfbench/pool.json records outputs with adjacent crossings
    emb = unrotated_embedding(out_graph, cross_pairs, edge_order)

    # One walk per curve, curves in id order as in the arrangement's
    # planarization, records the output darts along each of its segments;
    # a dummy starts a new segment.  Fresh subdivision vertices get their
    # degree-2 rotations on the way.
    runs: list[list[int]] = []
    start: dict = {}  # node-path entry -> index of the segment it starts
    rotation: dict[int, tuple[int, ...]] = {}
    for cid in sorted(arr.curves):
        w = walks[cid]
        start.update((entry, len(runs) + i)
                     for i, entry in enumerate(arr.node_path(cid)))
        runs.append([])
        for pos, (u, v) in enumerate(zip(w, w[1:])):
            segs = emb.edge_segments(out_graph.edge_between(u, v))
            darts = ([2 * s for s in segs] if u < v
                     else [2 * s + 1 for s in reversed(segs)])
            if pos:
                rotation[u] = (runs[-1][-1] ^ 1, darts[0])
            runs[-1].append(darts[0])
            runs.extend([d] for d in darts[1:])

    def moved(d: int) -> int:
        """The output dart leaving where arrangement dart d leaves."""
        run = runs[d >> 1]
        return run[-1] ^ 1 if d & 1 else run[0]

    # real vertices and dummies relay the arrangement's rotations
    plan = arr.planarization()
    dummy = {node: cp.dummy for node, cp in zip(node_ids, emb.crossings)}
    for node, darts in plan.rotation.items():
        rotation[dummy.get(node, node)] = tuple(map(moved, darts))
    # the outer dart leaves entry a along the segment a starts when b
    # follows a, and along the segment before it otherwise
    a, b = arr.outer_key
    outer = moved(2 * start[a] if start[b] > start[a] else 2 * start[a] - 1)

    emb = dataclasses.replace(emb, rotation=rotation, outer=outer)
    try:
        validate_embedding(emb)
    except Exception as err:  # demand-tight targets can force end-edge clashes
        raise GraphError(
            f"target {target} leaves no room to keep crossings off the "
            f"arcs' end edges: {err}") from err
    return out_graph, emb
