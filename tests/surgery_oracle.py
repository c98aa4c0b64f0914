"""Reference implementations for the surgery tests.

``Arrangement.rule1`` and ``Arrangement.rule2`` as they were before both
rules recorded their strand reconnection through one splice.  Each
reconnection is written out as hand-built ``merge`` blocks, and Rule II
keeps a mirrored branch for a curve b that runs against a.  ``self`` is the
arrangement to rewrite.

``from_system`` and ``_host_dart_key`` are ``Arrangement.from_system`` as it
was before it read the host's segments in one walk per curve: it rebuilds
each edge's direction, a (node, edge) passage table, and walks a curve's
edges again to place the outer dart.
"""

from __future__ import annotations

from oneplanar.embedding import PlaneEmbedding
from oneplanar.graph import GraphError
from oneplanar.surgery import _END0, _END1, Arrangement, ArcSystem, _Curve


def rule1(self: Arrangement, cid: int, i: int, j: int) -> None:
    """Remove the self-crossing of curve ``cid`` between sequence
    positions i < j by reversing the enclosed loop inline."""
    curve = self.curves[cid]
    seq = curve.seq
    p, q = seq[i], seq[j]
    if self.passage_node[p] != self.passage_node[q]:
        raise GraphError("positions are not a self-crossing")
    path = self.node_path(cid)
    a, b = path[i], path[j + 2]
    mid = seq[i + 1:j]

    transform: dict = {}

    def merge(old, new) -> None:
        transform[old] = new
        transform[(old[1], old[0])] = (new[1], new[0])

    if mid:
        mk, m1 = mid[-1], mid[0]
        merge((a, p), (a, mk))
        merge((q, mk), (a, mk))
        merge((m1, p), (m1, b))
        merge((q, b), (m1, b))
    else:
        merge((a, p), (a, b))
        merge((q, p), (a, b))
        merge((q, b), (a, b))

    for pid in mid:
        self._flip_toward(pid)
    curve.seq = seq[:i] + mid[::-1] + seq[j + 1:]
    self._drop_node(p, q)
    self._apply_transform(transform)


def rule2(self: Arrangement, cid_a: int, cid_b: int, ia1: int,
          ia2: int) -> None:
    """Remove two crossings between curves a and b; ia1 < ia2 are the
    positions along a of the two shared crossing nodes."""
    A, B = self.curves[cid_a], self.curves[cid_b]
    pa1, pa2 = A.seq[ia1], A.seq[ia2]
    pb1, pb2 = self.other_passage(pa1), self.other_passage(pa2)
    if self.passage_curve[pb1] != cid_b or self.passage_curve[pb2] != cid_b:
        raise GraphError("positions are not crossings with curve b")
    jb1, jb2 = B.seq.index(pb1), B.seq.index(pb2)

    path_a, path_b = self.node_path(cid_a), self.node_path(cid_b)
    aL, aR = path_a[ia1], path_a[ia2 + 2]
    mid_a = A.seq[ia1 + 1:ia2]

    transform: dict = {}

    def merge(old, new) -> None:
        transform[old] = new
        transform[(old[1], old[0])] = (new[1], new[0])

    if jb1 < jb2:  # parallel traversal
        bL, bR = path_b[jb1], path_b[jb2 + 2]
        mid_b = B.seq[jb1 + 1:jb2]
        if mid_b:
            merge((aL, pa1), (aL, mid_b[0]))
            merge((pb1, mid_b[0]), (aL, mid_b[0]))
            merge((mid_b[-1], pb2), (mid_b[-1], aR))
            merge((pa2, aR), (mid_b[-1], aR))
        else:
            merge((aL, pa1), (aL, aR))
            merge((pb1, pb2), (aL, aR))
            merge((pa2, aR), (aL, aR))
        if mid_a:
            merge((bL, pb1), (bL, mid_a[0]))
            merge((pa1, mid_a[0]), (bL, mid_a[0]))
            merge((mid_a[-1], pa2), (mid_a[-1], bR))
            merge((pb2, bR), (mid_a[-1], bR))
        else:
            merge((bL, pb1), (bL, bR))
            merge((pa1, pa2), (bL, bR))
            merge((pb2, bR), (bL, bR))
        new_a = A.seq[:ia1] + mid_b + A.seq[ia2 + 1:]
        new_b = B.seq[:jb1] + mid_a + B.seq[jb2 + 1:]
        flipped: list[int] = []
    else:  # antiparallel: b meets the second node first
        bL, bR = path_b[jb2], path_b[jb1 + 2]
        mid_b = B.seq[jb2 + 1:jb1]
        if mid_b:
            wm, w1 = mid_b[-1], mid_b[0]
            merge((aL, pa1), (aL, wm))
            merge((pb1, wm), (aL, wm))
            merge((w1, pb2), (w1, aR))
            merge((pa2, aR), (w1, aR))
        else:
            merge((aL, pa1), (aL, aR))
            merge((pb1, pb2), (aL, aR))
            merge((pa2, aR), (aL, aR))
        if mid_a:
            uk, u1 = mid_a[-1], mid_a[0]
            merge((bL, pb2), (bL, uk))
            merge((pa2, uk), (bL, uk))
            merge((u1, pa1), (u1, bR))
            merge((pb1, bR), (u1, bR))
        else:
            merge((bL, pb2), (bL, bR))
            merge((pa2, pa1), (bL, bR))
            merge((pb1, bR), (bL, bR))
        new_a = A.seq[:ia1] + mid_b[::-1] + A.seq[ia2 + 1:]
        new_b = B.seq[:jb2] + mid_a[::-1] + B.seq[jb1 + 1:]
        flipped = mid_a + mid_b

    for pid in mid_a:
        self.passage_curve[pid] = cid_b
    for pid in mid_b:
        self.passage_curve[pid] = cid_a
    for pid in flipped:
        self._flip_toward(pid)
    A.seq = new_a
    B.seq = new_b
    self._drop_node(pa1, pb1)
    self._drop_node(pa2, pb2)
    self._apply_transform(transform)


def from_system(sys: ArcSystem) -> "Arrangement":
    arr = Arrangement()
    host = sys.host
    g = host.graph

    curve_edges: dict[int, list[int]] = {}
    curve_of_edge: dict[int, int] = {}
    edge_dir: dict[int, bool] = {}  # curve traverses low -> high
    cid = 0
    for e in sorted(sys.static_edges):
        u, v = g.edges[e]
        arr.curves[cid] = _Curve("static", e, u, v, False, [])
        curve_edges[cid] = [e]
        curve_of_edge[e] = cid
        edge_dir[e] = True
        cid += 1
    for ai, arc in enumerate(sys.arcs):
        walk = arc.walk
        closed = walk[0] == walk[-1]
        arr.curves[cid] = _Curve("arc", ai, walk[0], walk[-1], closed, [])
        curve_edges[cid] = list(arc.edges)
        for e, at in zip(arc.edges, walk):
            curve_of_edge[e] = cid
            edge_dir[e] = at == min(g.edges[e])
        cid += 1

    strand_pid: dict[tuple[int, int], int] = {}  # (node, edge) -> pid

    def edge_nodes(e: int) -> list[int]:
        nodes = [host.crossings[i].dummy
                 for i in host.edge_order.get(e, ())]
        return nodes if edge_dir[e] else nodes[::-1]

    for c in sorted(arr.curves):
        for e in curve_edges[c]:
            for node in edge_nodes(e):
                pid = arr._next_pid
                arr._next_pid += 1
                arr.curves[c].seq.append(pid)
                arr.passage_curve[pid] = c
                arr.passage_node[pid] = node
                strand_pid[(node, e)] = pid

    for cp in host.crossings:
        node = cp.dummy
        rot = []
        for e, end, _ in map(host.int_to_dart, host.rotation[node]):
            pid = strand_pid[(node, e)]
            toward_end = (end == 0) == edge_dir[e]
            rot.append((pid, 1 if toward_end else 0))
        arr.node_rot[node] = rot

    smoothed: set[int] = set()
    for arc in sys.arcs:
        smoothed.update(arc.walk[1:-1])
    for v in sorted(g.vertices):
        if v in smoothed:
            continue
        stubs = []
        for e in map(host.edge_of, host.rotation[v]):
            c = curve_of_edge[e]
            curve = arr.curves[c]
            if curve.closed:
                stubs.append((c, _END0 if e == curve_edges[c][0] else _END1))
            elif v == curve.tail and e == curve_edges[c][0]:
                stubs.append((c, _END0))
            else:
                stubs.append((c, _END1))
        arr.real_rot[v] = stubs

    arr.outer_key = _host_dart_key(arr, host, curve_edges, curve_of_edge,
                                   edge_dir, host.outer)
    return arr


def _host_dart_key(self: Arrangement, host: PlaneEmbedding, curve_edges,
                   curve_of_edge, edge_dir, dart) -> tuple:
    e, end, seg = host.int_to_dart(dart)
    c = curve_of_edge[e]
    path = self.node_path(c)
    passages_before = 0
    for prev in curve_edges[c]:
        if prev == e:
            break
        passages_before += len(host.edge_order.get(prev, ()))
    t = len(host.edge_order.get(e, ()))
    travel_seg = seg if edge_dir[e] else t - seg
    pos = passages_before + travel_seg
    a, b = path[pos], path[pos + 1]
    forward = (end == 0) == edge_dir[e]
    return (a, b) if forward else (b, a)
