"""Combinatorial model of (<=k)-planar drawings.

A drawing is stored as its planarization: every crossing becomes a degree-4
dummy vertex subdividing the two crossing edges, and every vertex (real or
dummy) carries a clockwise cyclic order of its incident darts.  Faces are the
orbits of "twin, then clockwise successor at the twin's origin"; with that
convention the corner swept clockwise into a dart at its origin belongs to
the dart's own face.

Inside, a dart is an int ``2*segment + end`` of the planarization: the
rotations and the outer dart of a ``PlaneEmbedding`` are stored that way.
Encoded darts ``(edge, end, seg)`` appear only at the boundary: in
``build_embedding``'s input (converted by ``_encoded_to_int``), in the JSON
format and in ``int_to_dart``; faces are int-dart cycles of
``PlaneEmbedding.planarization``.  ``restrict`` and
``decider._merge_witnesses`` build encoded darts for ``build_embedding``.
There ``end`` 0 points from the edge's smaller endpoint toward the larger
one and 1 the reverse, and ``seg`` indexes the planarization segment along
the edge (0 for uncrossed edges, in which case JSON omits it).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .graph import Graph, GraphError, connected_components

Dart = tuple[int, int, int]


class EmbeddingError(ValueError):
    """Structured validation failure; ``kind`` is one of genus, alternation,
    multiplicity, dangling-dart, bad-crossing, bad-outer, disconnected,
    shape (a JSON document of the wrong shape)."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


# ---------------------------------------------------------------------------
# Planarization: the shared dart/face machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Planarization:
    """Plane multigraph skeleton on real + dummy nodes.

    Dart ints are ``2*seg + d`` with twin ``^1``; ``d`` 0 runs tail->head.
    """

    segments: tuple[tuple[int, int], ...]
    rotation: dict[int, tuple[int, ...]]  # node -> clockwise dart ints

    def origin(self, dart: int) -> int:
        return self.segments[dart >> 1][dart & 1]

    def target(self, dart: int) -> int:
        return self.segments[dart >> 1][1 - (dart & 1)]

    @property
    def dart_count(self) -> int:
        return 2 * len(self.segments)

    @cached_property
    def _face_next(self) -> list[int]:
        nxt = [-1] * self.dart_count
        for node, rot in self.rotation.items():
            for i, d in enumerate(rot):
                if self.origin(d) != node:
                    raise EmbeddingError(
                        "dangling-dart",
                        f"dart {d} listed at {node} but originates elsewhere")
                nxt[rot[i - 1] ^ 1] = d
        if -1 in nxt:
            raise EmbeddingError("dangling-dart",
                                 f"dart {nxt.index(-1)} missing from rotation")
        return nxt

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        nxt = self._face_next
        seen = [False] * self.dart_count
        out = []
        for d0 in range(self.dart_count):
            if seen[d0]:
                continue
            cyc = []
            d = d0
            while not seen[d]:
                seen[d] = True
                cyc.append(d)
                d = nxt[d]
            out.append(tuple(cyc))
        return tuple(out)

    @cached_property
    def face_of(self) -> dict[int, int]:
        return {d: i for i, cyc in enumerate(self.faces) for d in cyc}

    @cached_property
    def node_darts(self) -> dict[int, list[int]]:
        """Node -> the darts leaving it, in segment order."""
        out: dict[int, list[int]] = {}
        for s, (a, b) in enumerate(self.segments):
            out.setdefault(a, []).append(2 * s)
            out.setdefault(b, []).append(2 * s + 1)
        return out

    @cached_property
    def components(self) -> list[frozenset[int]]:
        darts = self.node_darts
        return connected_components(
            darts, lambda v: (self.target(d) for d in darts[v]))

    def rotated(self, rotation: dict[int, tuple[int, ...]]) -> Planarization:
        """This planarization with another rotation: ``node_darts`` and
        ``components`` depend only on the segments and carry over.  The
        same rotation object gives back this planarization, faces and all."""
        if rotation is self.rotation:
            return self
        plan = Planarization(self.segments, rotation)
        plan.__dict__.update(node_darts=self.node_darts,
                             components=self.components)
        return plan

    def check_genus_zero(self) -> None:
        """Euler check: a component of genus g has V - E + F = 2 - 2g, so
        the sum over the C components reaches 2C only when all are plane."""
        v, e, f = len(self.node_darts), len(self.segments), len(self.faces)
        c = len(self.components)
        if v - e + f != 2 * c:
            raise EmbeddingError(
                "genus",
                f"V={v} E={e} F={f} over C={c} components, V - E + F != 2C")

    def vertex_faces(self, v: int) -> tuple[int, ...]:
        return tuple(sorted({self.face_of[d] for d in self.rotation[v]}))

    def side_partition(self, cycle_segments: set[int]) -> Optional[list[int]]:
        """2-color faces by which side of the closed curve (given as a set of
        segment indices) they lie on; colors 0/1 with face adjacency flipping
        exactly across curve segments.  Returns None if inconsistent."""
        color = [-1] * len(self.faces)
        color[0] = 0
        queue = [0]
        # adjacency by segments
        while queue:
            f = queue.pop()
            for d in self.faces[f]:
                g = self.face_of[d ^ 1]
                want = color[f] ^ (1 if (d >> 1) in cycle_segments else 0)
                if color[g] == -1:
                    color[g] = want
                    queue.append(g)
                elif color[g] != want:
                    return None
        if -1 in color:
            return None  # disconnected planarization: sides undefined
        return color


# ---------------------------------------------------------------------------
# PlaneEmbedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingPair:
    """Two independent edges crossing at a dummy vertex; orientation is read
    off the dummy's rotation relative to ordered anchor endpoints (a, b):
    clockwise (b', a', b, a) is left, (a', b', a, b) is right."""

    edges: tuple[int, int]
    dummy: int


@dataclass(frozen=True)
class Arc:
    """A walk through the host graph, used to trace degree-2 paths;
    ``walk`` is its vertex sequence, first == last for a closed walk."""

    edges: tuple[int, ...]
    walk: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PlaneEmbedding:
    """Validated planarization of a (<=k)-planar drawing of ``graph``.

    ``edge_order`` lists each edge's crossing indices in drawing order from
    the edge's smaller endpoint.  ``rotation`` holds the clockwise int darts
    at every node and ``outer`` an int dart of the unbounded face.
    """

    graph: Graph
    crossings: tuple[CrossingPair, ...]
    edge_order: dict[int, tuple[int, ...]]
    rotation: dict[int, tuple[int, ...]]
    outer: Optional[int]

    # -- dummy/segment layout ------------------------------------------------

    def edge_path(self, e: int) -> tuple[int, ...]:
        """Planarization node path of edge e from its smaller endpoint."""
        u, v = self.graph.edges[e]
        mids = tuple(self.crossings[i].dummy for i in self.edge_order.get(e, ()))
        return (u,) + mids + (v,)

    @cached_property
    def _seg_info(self) -> tuple[tuple[int, int], ...]:
        """segment index -> (edge, seg within edge)"""
        return tuple((e, j) for e in sorted(self.graph.edges)
                     for j in range(len(self.edge_order.get(e, ())) + 1))

    @cached_property
    def _seg_table(self) -> dict[tuple[int, int], int]:
        return {es: s for s, es in enumerate(self._seg_info)}

    def edge_of(self, d: int) -> int:
        return self._seg_info[d >> 1][0]

    def edge_segments(self, e: int) -> list[int]:
        """The segments of edge e, from its smaller endpoint."""
        return [self._seg_table[(e, j)]
                for j in range(self.crossings_of_edge(e) + 1)]

    def edge_darts(self, e: int, v: int) -> list[int]:
        """The darts along edge e leaving its endpoint v, in path order from
        v: forward ``2s`` from the smaller endpoint, backward ``2s + 1``
        from the larger."""
        segs = self.edge_segments(e)
        if v == self.graph.edges[e][0]:
            return [2 * s for s in segs]
        return [2 * s + 1 for s in reversed(segs)]

    def strand(self, e: int, v: int, dummy: int) -> int:
        """The segment of edge e that meets ``dummy`` on the side of the
        edge's endpoint v."""
        path = self.edge_path(e)
        pos = path.index(dummy)
        seg = pos - 1 if v == path[0] else pos if v == path[-1] else None
        if seg is None:
            raise GraphError(f"{v} is not an endpoint of edge {e}")
        return self._seg_table[(e, seg)]

    def int_to_dart(self, d: int) -> Dart:
        e, j = self._seg_info[d >> 1]
        return (e, d & 1, j)

    @cached_property
    def planarization(self) -> Planarization:
        segs = []
        for e in sorted(self.graph.edges):
            path = self.edge_path(e)
            segs.extend(zip(path, path[1:]))
        return Planarization(tuple(segs), self.rotation)

    def rotated(self, rotation: dict[int, tuple[int, ...]],
                outer: Optional[int]) -> PlaneEmbedding:
        """This embedding with another rotation and outer dart, unchecked.
        The segment tables and the planarization's ``node_darts`` and
        ``components`` depend only on the graph and its crossings and carry
        over (``Planarization.rotated``); so does the whole planarization
        when ``rotation`` is this embedding's own rotation object."""
        emb = PlaneEmbedding(self.graph, self.crossings, self.edge_order,
                             rotation, outer)
        emb.__dict__.update(_seg_info=self._seg_info,
                            _seg_table=self._seg_table,
                            planarization=self.planarization.rotated(rotation))
        return emb

    # -- faces ----------------------------------------------------------------

    @cached_property
    def outer_face(self) -> int:
        return self.planarization.face_of[self.outer]

    def face_vertices(self, face: int) -> frozenset[int]:
        plan = self.planarization
        return frozenset(plan.origin(d) for d in plan.faces[face])

    def crossings_of_edge(self, e: int) -> int:
        return len(self.edge_order.get(e, ()))

    # -- queries ---------------------------------------------------------------

    def shared_region(self, a: int, b: int) -> Optional[tuple[int, bool]]:
        """Some face incident to both real vertices a and b (preferring the
        outer face), as (face index, is_outer), or None."""
        plan = self.planarization
        fa = set(plan.vertex_faces(a))
        fb = set(plan.vertex_faces(b))
        common = fa & fb
        if not common:
            return None
        if self.outer_face in common:
            return (self.outer_face, True)
        return (min(common), False)


def unrotated_embedding(
    g: Graph,
    crossings: Sequence[tuple[int, int]],
    edge_order: Optional[Mapping[int, Sequence[int]]] = None,
) -> PlaneEmbedding:
    """The embedding of g with the given crossing pairs and no rotation yet.

    Dummy i is ``max vertex + 1 + i``; each edge meets its crossings in list
    order unless ``edge_order`` gives their drawing order.  The only check is
    that ``edge_order`` lists each edge's own crossings.
    """
    base = max(g.vertices, default=-1) + 1
    per_edge: dict[int, list[int]] = {}
    for i, pair in enumerate(crossings):
        for e in pair:
            per_edge.setdefault(e, []).append(i)
    given = edge_order or {}
    order = {e: tuple(given.get(e, lst)) for e, lst in per_edge.items()}
    for e, lst in per_edge.items():
        if sorted(order[e]) != lst:
            raise EmbeddingError(
                "bad-crossing", f"edge_order for edge {e} inconsistent")
    return PlaneEmbedding(g, tuple(CrossingPair(tuple(p), base + i)
                                   for i, p in enumerate(crossings)),
                          order, {}, None)


def build_embedding(
    g: Graph,
    crossings: Sequence[tuple[int, int]],
    rotation: Mapping[int, Sequence[Dart]],
    outer: Optional[Dart],
    k: int = 1,
    edge_order: Optional[Mapping[int, Sequence[int]]] = None,
) -> PlaneEmbedding:
    """Validate and construct a PlaneEmbedding from encoded darts.

    ``crossings`` lists crossing edge pairs, laid out as by
    ``unrotated_embedding``.  For k >= 2, ``edge_order`` must give each
    multiply-crossed edge its crossing indices in drawing order (defaults to
    list order).
    """
    for i, (e1, e2) in enumerate(crossings):
        if e1 not in g.edges or e2 not in g.edges or e1 == e2:
            raise EmbeddingError("bad-crossing", f"crossing {i}: bad edge ids")
        if set(g.edges[e1]) & set(g.edges[e2]):
            raise EmbeddingError(
                "bad-crossing", f"crossing {i}: edges share an endpoint")
    for e, times in Counter(e for pair in crossings for e in pair).items():
        if times > k:
            raise EmbeddingError(
                "multiplicity", f"edge {e} crossed {times} > k={k} times")
    emb = unrotated_embedding(g, crossings, edge_order)
    emb = emb.rotated(
        {v: tuple(_encoded_to_int(emb, d) for d in darts)
         for v, darts in rotation.items()},
        None if outer is None else _encoded_to_int(emb, outer))
    validate_embedding(emb)
    return emb


def _encoded_to_int(emb: PlaneEmbedding, dart: Sequence[int]) -> int:
    """The int of an encoded dart, or -1, which validation rejects, when the
    tuple names no dart of the planarization."""
    if len(dart) == 3 and dart[1] in (0, 1):
        s = emb._seg_table.get((dart[0], dart[2]))
        if s is not None:
            return 2 * s + dart[1]
    return -1


def alternation_fault(emb: PlaneEmbedding) -> Optional[str]:
    """Why some dummy of emb is no crossing, or None when every dummy has
    degree 4 and its rotation alternates between its two edges.  The
    rotation must list every dummy."""
    for c in emb.crossings:
        rot = emb.rotation[c.dummy]
        if len(rot) != 4:
            return f"dummy {c.dummy} has degree {len(rot)}"
        owners = [emb.edge_of(d) for d in rot]
        if owners[0] == owners[1] or owners[1] == owners[2]:
            return f"dummy {c.dummy} rotation does not alternate edges"
    return None


def validate_embedding(emb: PlaneEmbedding) -> None:
    """Check rotation coverage, dummy alternation, genus 0, and the outer
    dart.  Raises EmbeddingError on the first violation."""
    g = emb.graph
    for v in g.vertices:
        if g.degree(v) == 0:
            raise EmbeddingError(
                "dangling-dart", f"isolated vertex {v} cannot be embedded")
    plan = emb.planarization
    node_darts = plan.node_darts
    for v in [*g.vertices, *(c.dummy for c in emb.crossings)]:
        got, darts = emb.rotation.get(v), node_darts[v]
        if got is None or len(got) != len(darts) or set(got) != set(darts):
            raise EmbeddingError(
                "dangling-dart", f"rotation at {v} does not list exactly its "
                f"incident darts")
    for v in emb.rotation:
        if v not in node_darts:
            raise EmbeddingError("dangling-dart", f"rotation for unknown {v}")

    fault = alternation_fault(emb)
    if fault is not None:
        raise EmbeddingError("alternation", fault)

    plan.check_genus_zero()

    if emb.outer is not None:
        if not 0 <= emb.outer < plan.dart_count:
            raise EmbeddingError(
                "bad-outer", "outer dart is not a dart of the planarization")
    elif g.edges:
        raise EmbeddingError("bad-outer", "non-empty embedding needs an outer dart")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def restrict(emb: PlaneEmbedding, edge_ids: Iterable[int]) -> PlaneEmbedding:
    """Subembedding on an edge subset with induced rotations; crossings are
    retained only between kept edges, and the outer face is mapped to the
    face that absorbs the old outer region."""
    keep = set(edge_ids)
    if not keep <= set(emb.graph.edges):
        raise GraphError("restricting to edges outside the host")
    sub = emb.graph.subgraph_of_edges(keep)
    if not keep:
        return build_embedding(sub, [], {}, None)

    kept = [i for i, c in enumerate(emb.crossings) if set(c.edges) <= keep]
    cross_map = {i: j for j, i in enumerate(kept)}
    new_edge_order = {}
    for e in keep:
        order = tuple(cross_map[i] for i in emb.edge_order.get(e, ())
                      if i in cross_map)
        if order:
            new_edge_order[e] = order

    def encoded(d: int) -> Dart:
        """Dart d in the subembedding: smoothing a dropped crossing merges
        the segments on both sides of it."""
        e, end, seg = emb.int_to_dart(d)
        old = emb.edge_order.get(e, ())
        return (e, end, sum(1 for i in old[:seg] if i in cross_map))

    pairs = [emb.crossings[i].edges for i in kept]
    new_dummy = {emb.crossings[i].dummy: c.dummy for i, c in zip(
        kept, unrotated_embedding(sub, pairs, new_edge_order).crossings)}
    dropped = {c.dummy for c in emb.crossings} - set(new_dummy)
    new_rot: dict[int, list[Dart]] = {}
    kept_darts = []
    for v, darts in emb.rotation.items():
        mapped = [d for d in darts if emb.edge_of(d) in keep]
        kept_darts.extend(mapped)
        if mapped and v not in dropped:  # else smoothed or isolated
            new_rot[new_dummy.get(v, v)] = [encoded(d) for d in mapped]

    # outer face: union-find over old faces across removed segments
    plan = emb.planarization
    parent = list(range(len(plan.faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, (e, _) in enumerate(emb._seg_info):
        if e not in keep:
            f1, f2 = find(plan.face_of[2 * s]), find(plan.face_of[2 * s + 1])
            parent[f1] = f2
    outer_class = find(emb.outer_face)
    # if only dropped edges bounded the old outer face, any surviving face
    # absorbs it
    new_outer = next((d for d in kept_darts
                      if find(plan.face_of[d]) == outer_class), kept_darts[0])
    return build_embedding(
        sub, pairs, new_rot, encoded(new_outer), edge_order=new_edge_order,
        k=max(map(len, new_edge_order.values()), default=1))


# ---------------------------------------------------------------------------
# Crossing orientation
# ---------------------------------------------------------------------------

def crossing_orientation(emb: PlaneEmbedding, cross_index: int,
                         a: int, b: int) -> str:
    """'left' or 'right' for the (a, b)-designation of the crossing: left iff
    the dummy's clockwise order reads (b', a', b, a)."""
    c = emb.crossings[cross_index]
    e1, e2 = c.edges
    if a in emb.graph.edges[e2] and b in emb.graph.edges[e1]:
        e1, e2 = e2, e1
    if a not in emb.graph.edges[e1] or b not in emb.graph.edges[e2]:
        raise GraphError(f"({a},{b}) do not anchor crossing {cross_index}")

    def toward(e: int, v: int) -> int:
        """The dart at the dummy on edge e whose strand leads to endpoint v:
        the strand's far end when v is the edge's first endpoint."""
        return 2 * emb.strand(e, v, c.dummy) + (v == emb.graph.edges[e][0])

    rot = emb.rotation[c.dummy]
    ia = rot.index(toward(e1, a))
    succ = rot[(ia + 1) % 4]
    b_prime = emb.graph.other_end(e2, b)
    return "left" if succ == toward(e2, b_prime) else "right"


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _dart_json(emb: PlaneEmbedding, d: int) -> list[int]:
    e, end, seg = emb.int_to_dart(d)
    return [e, end] if not emb.edge_order.get(e) else [e, end, seg]


def _json_list(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise EmbeddingError("shape", f"{what}: expected a list, got {raw!r}")
    return raw


def _json_ints(raw, what: str, sizes: tuple[int, ...] = ()) -> list[int]:
    """``raw`` as a list of integers, of one of ``sizes`` when given."""
    if (any(type(x) is not int for x in _json_list(raw, what))
            or (sizes and len(raw) not in sizes)):
        count = " or ".join(map(str, sizes)) + " " if sizes else ""
        raise EmbeddingError(
            "shape", f"{what}: expected a list of {count}integers, got {raw!r}")
    return raw


def _json_map(raw, what: str) -> dict[int, object]:
    """A JSON object whose keys are integers, keyed by int."""
    if not isinstance(raw, dict):
        raise EmbeddingError("shape",
                             f"{what}: expected an object, got {raw!r}")
    out = {}
    for key, value in raw.items():
        try:
            out[int(key)] = value
        except ValueError:
            raise EmbeddingError(
                "shape", f"{what}: key {key!r} is not an integer") from None
    return out


def _dart_from_json(raw) -> Dart:
    e, end, *seg = _json_ints(raw, "dart", (2, 3))
    return (e, end, seg[0] if seg else 0)


def _embedding_dict(emb: PlaneEmbedding) -> dict:
    """The JSON object of ``embedding_to_json``, before encoding."""
    obj = {
        "vertices": sorted(emb.graph.vertices),
        "edges": [list(emb.graph.edges[e]) for e in sorted(emb.graph.edges)],
        "crossings": [list(c.edges) for c in emb.crossings],
        "rotation": {str(v): [_dart_json(emb, d) for d in emb.rotation[v]]
                     for v in sorted(emb.rotation)},
        "outer": _dart_json(emb, emb.outer) if emb.outer is not None else None,
    }
    if any(len(v) > 1 for v in emb.edge_order.values()):
        obj["edge_crossing_order"] = {
            str(e): list(order) for e, order in sorted(emb.edge_order.items())
            if len(order) > 1
        }
    return obj


def embedding_to_json(emb: PlaneEmbedding) -> str:
    return json.dumps(_embedding_dict(emb), sort_keys=True,
                      separators=(",", ":"))


def embedding_from_json(text: str, k: int = 1) -> PlaneEmbedding:
    """Parse the output of ``embedding_to_json``; a document of another
    shape raises EmbeddingError of kind "shape"."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise EmbeddingError(
            "shape", f"expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in ("vertices", "edges", "crossings", "rotation",
                               "outer") if key not in obj]
    if missing:
        raise EmbeddingError("shape", f"missing {', '.join(missing)}")
    pairs = [_json_ints(p, "edge", (2,))
             for p in _json_list(obj["edges"], "edges")]
    # edge ids are positions in the "edges" list
    g = Graph(frozenset(_json_ints(obj["vertices"], "vertices")),
              {i: (min(p), max(p)) for i, p in enumerate(pairs)})
    rotation = {v: [_dart_from_json(d)
                    for d in _json_list(darts, f"rotation at {v}")]
                for v, darts in _json_map(obj["rotation"], "rotation").items()}
    outer = _dart_from_json(obj["outer"]) if obj["outer"] is not None else None
    order = {e: _json_ints(lst, f"crossing order of edge {e}")
             for e, lst in _json_map(obj.get("edge_crossing_order", {}),
                                     "edge_crossing_order").items()}
    crossings = [tuple(_json_ints(c, "crossing", (2,)))
                 for c in _json_list(obj["crossings"], "crossings")]
    return build_embedding(g, crossings, rotation, outer, k=k,
                           edge_order=order or None)
