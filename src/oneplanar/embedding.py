"""Combinatorial model of (<=k)-planar drawings.

A drawing is stored as its planarization: every crossing becomes a degree-4
dummy vertex subdividing the two crossing edges, and every vertex (real or
dummy) carries a clockwise cyclic order of its incident darts.  Faces are the
orbits of "twin, then clockwise successor at the twin's origin"; with that
convention the corner swept clockwise into a dart at its origin belongs to
the dart's own face.

Dart encoding (also used in the JSON format): ``(edge, end, seg)`` where
``end`` 0 points from the edge's smaller endpoint toward the larger one and
1 the reverse, and ``seg`` indexes the planarization segment along the edge
(0 for uncrossed edges, in which case JSON omits it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .graph import Graph, GraphError, connected_components

Dart = tuple[int, int, int]


class EmbeddingError(ValueError):
    """Structured validation failure; ``kind`` is one of genus, alternation,
    multiplicity, dangling-dart, bad-crossing, bad-outer, disconnected."""

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
    def components(self) -> list[frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.rotation}
        for a, b in self.segments:
            adj[a].add(b)
            adj[b].add(a)
        return connected_components(adj, adj.__getitem__)

    def check_genus_zero(self) -> None:
        """Euler check per connected component: V - E + F == 2."""
        seg_comp: dict[int, int] = {}
        comp_of: dict[int, int] = {}
        for i, comp in enumerate(self.components):
            for v in comp:
                comp_of[v] = i
        counts = [[len(c), 0, 0] for c in self.components]  # V, E, F
        for s, (a, _) in enumerate(self.segments):
            counts[comp_of[a]][1] += 1
            seg_comp[s] = comp_of[a]
        for cyc in self.faces:
            counts[seg_comp[cyc[0] >> 1]][2] += 1
        for v, e, f in counts:
            if e and v - e + f != 2:
                raise EmbeddingError(
                    "genus", f"component has V={v} E={e} F={f}, not genus 0")

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
    """A walk through the host graph, used to trace degree-2 paths."""

    edges: tuple[int, ...]
    endpoints: tuple[int, int]


@dataclass(frozen=True, eq=False)
class PlaneEmbedding:
    """Validated planarization of a (<=k)-planar drawing of ``graph``.

    ``edge_order`` lists each edge's crossing indices in drawing order from
    the edge's smaller endpoint.  ``outer`` designates the unbounded face.
    """

    graph: Graph
    crossings: tuple[CrossingPair, ...]
    edge_order: dict[int, tuple[int, ...]]
    rotation: dict[int, tuple[Dart, ...]]
    outer: Optional[Dart]

    # -- dummy/segment layout ------------------------------------------------

    @cached_property
    def dummy_base(self) -> int:
        return max(self.graph.vertices, default=-1) + 1

    def edge_path(self, e: int) -> tuple[int, ...]:
        """Planarization node path of edge e from its smaller endpoint."""
        u, v = self.graph.edges[e]
        mids = tuple(self.crossings[i].dummy for i in self.edge_order.get(e, ()))
        return (u,) + mids + (v,)

    @cached_property
    def _seg_table(self) -> dict[tuple[int, int], int]:
        table = {}
        idx = 0
        for e in sorted(self.graph.edges):
            for j in range(len(self.edge_order.get(e, ())) + 1):
                table[(e, j)] = idx
                idx += 1
        return table

    @cached_property
    def _seg_info(self) -> tuple[tuple[int, int, int], ...]:
        """segment index -> (edge, seg within edge, #segments of that edge)"""
        out = []
        for e in sorted(self.graph.edges):
            t = len(self.edge_order.get(e, ()))
            for j in range(t + 1):
                out.append((e, j, t + 1))
        return tuple(out)

    def dart_to_int(self, dart: Dart) -> int:
        e, end, seg = dart
        return 2 * self._seg_table[(e, seg)] + end

    def int_to_dart(self, d: int) -> Dart:
        e, j, _ = self._seg_info[d >> 1]
        return (e, d & 1, j)

    @cached_property
    def planarization(self) -> Planarization:
        segs = []
        for e in sorted(self.graph.edges):
            path = self.edge_path(e)
            segs.extend(zip(path, path[1:]))
        rot = {v: tuple(self.dart_to_int(d) for d in darts)
               for v, darts in self.rotation.items()}
        return Planarization(tuple(segs), rot)

    # -- faces ----------------------------------------------------------------

    @cached_property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face cycles in encoded-dart form."""
        return tuple(tuple(self.int_to_dart(d) for d in cyc)
                     for cyc in self.planarization.faces)

    @cached_property
    def outer_face(self) -> int:
        return self.planarization.face_of[self.dart_to_int(self.outer)]

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


def build_embedding(
    g: Graph,
    crossings: Sequence[tuple[int, int]],
    rotation: Mapping[int, Sequence[Dart]],
    outer: Optional[Dart],
    k: int = 1,
    edge_order: Optional[Mapping[int, Sequence[int]]] = None,
) -> PlaneEmbedding:
    """Validate and construct a PlaneEmbedding.

    ``crossings`` lists crossing edge pairs; dummy ids are assigned in list
    order starting after the largest vertex id.  For k >= 2, ``edge_order``
    must give each multiply-crossed edge its crossing indices in drawing
    order (defaults to list order).
    """
    base = max(g.vertices, default=-1) + 1
    pairs = []
    per_edge: dict[int, list[int]] = {}
    for i, (e1, e2) in enumerate(crossings):
        if e1 not in g.edges or e2 not in g.edges or e1 == e2:
            raise EmbeddingError("bad-crossing", f"crossing {i}: bad edge ids")
        if set(g.edges[e1]) & set(g.edges[e2]):
            raise EmbeddingError(
                "bad-crossing", f"crossing {i}: edges share an endpoint")
        pairs.append(CrossingPair((e1, e2), base + i))
        per_edge.setdefault(e1, []).append(i)
        per_edge.setdefault(e2, []).append(i)

    for e, lst in per_edge.items():
        if len(lst) > k:
            raise EmbeddingError(
                "multiplicity", f"edge {e} crossed {len(lst)} > k={k} times")

    order: dict[int, tuple[int, ...]] = {}
    for e, lst in per_edge.items():
        if edge_order is not None and e in edge_order:
            given = tuple(edge_order[e])
            if sorted(given) != sorted(lst):
                raise EmbeddingError(
                    "bad-crossing", f"edge_order for edge {e} inconsistent")
            order[e] = given
        else:
            order[e] = tuple(lst)

    emb = PlaneEmbedding(g, tuple(pairs), order,
                         {v: tuple(map(tuple, darts))
                          for v, darts in rotation.items()},
                         tuple(outer) if outer is not None else None)
    validate_embedding(emb, k=k)
    return emb


def validate_embedding(emb: PlaneEmbedding, k: int = 1) -> None:
    """Check rotation coverage, dummy alternation, genus 0, and the outer
    dart.  Raises EmbeddingError on the first violation."""
    g = emb.graph
    for v in g.vertices:
        if g.degree(v) == 0:
            raise EmbeddingError(
                "dangling-dart", f"isolated vertex {v} cannot be embedded")
    expected: dict[int, set[Dart]] = {v: set() for v in g.vertices}
    for c in emb.crossings:
        expected[c.dummy] = set()
    for e in sorted(g.edges):
        path = emb.edge_path(e)
        for j in range(len(path) - 1):
            expected[path[j]].add((e, 0, j))
            expected[path[j + 1]].add((e, 1, j))
    for v, darts in expected.items():
        got = emb.rotation.get(v)
        if got is None or set(got) != darts or len(got) != len(darts):
            raise EmbeddingError(
                "dangling-dart", f"rotation at {v} does not list exactly its "
                f"incident darts")
    for v in emb.rotation:
        if v not in expected:
            raise EmbeddingError("dangling-dart", f"rotation for unknown {v}")

    for c in emb.crossings:
        rot = emb.rotation[c.dummy]
        if len(rot) != 4:
            raise EmbeddingError("alternation",
                                 f"dummy {c.dummy} has degree {len(rot)}")
        owners = [d[0] for d in rot]
        if owners[0] == owners[1] or owners[1] == owners[2]:
            raise EmbeddingError(
                "alternation",
                f"dummy {c.dummy} rotation does not alternate edges")

    plan = emb.planarization
    plan._face_next  # triggers dangling-dart detection
    plan.check_genus_zero()

    if emb.outer is not None:
        e, end, seg = emb.outer
        if (e, seg) not in emb._seg_table or end not in (0, 1):
            raise EmbeddingError("bad-outer", f"outer dart {emb.outer} invalid")
    elif g.edges:
        raise EmbeddingError("bad-outer", "non-empty embedding needs an outer dart")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def faces(emb: PlaneEmbedding) -> list[tuple[Dart, ...]]:
    """All face cycles; each dart appears in exactly one cycle."""
    return list(emb.faces)


def shared_region(emb: PlaneEmbedding, a: int, b: int) -> Optional[tuple[int, bool]]:
    return emb.shared_region(a, b)


def restrict(emb: PlaneEmbedding, edge_ids: Iterable[int]) -> PlaneEmbedding:
    """Subembedding on an edge subset with induced rotations; crossings are
    retained only between kept edges, and the outer face is mapped to the
    face that absorbs the old outer region."""
    keep = set(edge_ids)
    if not keep <= set(emb.graph.edges):
        raise GraphError("restricting to edges outside the host")
    sub = emb.graph.subgraph_of_edges(keep)

    kept_cross: list[tuple[int, int]] = []
    cross_map: dict[int, int] = {}
    for i, c in enumerate(emb.crossings):
        if c.edges[0] in keep and c.edges[1] in keep:
            cross_map[i] = len(kept_cross)
            kept_cross.append(c.edges)

    def new_seg(e: int, old_seg: int) -> int:
        old = emb.edge_order.get(e, ())
        return sum(1 for i in old[:old_seg] if i in cross_map)

    new_edge_order = {}
    for e in keep:
        kept = tuple(cross_map[i] for i in emb.edge_order.get(e, ())
                     if i in cross_map)
        if kept:
            new_edge_order[e] = kept

    old_dummy = {c.dummy: i for i, c in enumerate(emb.crossings)}
    new_base = max(sub.vertices, default=-1) + 1

    new_rot: dict[int, tuple[Dart, ...]] = {}
    for v, darts in emb.rotation.items():
        mapped = []
        for (e, end, seg) in darts:
            if e not in keep:
                continue
            # a dart survives if its origin node survives; dummy-origin darts
            # whose crossing was dropped are re-anchored by the merge below
            mapped.append((e, end, seg))
        if v in old_dummy and old_dummy[v] not in cross_map:
            continue  # smoothed dummy
        if not mapped:
            continue  # vertex became isolated
        node = (new_base + cross_map[old_dummy[v]]) if v in old_dummy else v
        new_rot[node] = tuple(mapped)

    # merge segments across smoothed dummies: re-index every dart
    def map_dart(d: Dart) -> Dart:
        e, end, seg = d
        return (e, end, new_seg(e, seg))

    merged_rot: dict[int, tuple[Dart, ...]] = {}
    for node, darts in new_rot.items():
        seen: list[Dart] = []
        for d in darts:
            nd = map_dart(d)
            if nd not in seen:
                seen.append(nd)
        merged_rot[node] = tuple(seen)

    if not keep or not merged_rot:
        return PlaneEmbedding(sub, (), {}, {}, None)

    # outer face: union-find over old faces across removed segments
    plan = emb.planarization
    parent = list(range(len(plan.faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, (e, j, _) in enumerate(emb._seg_info):
        if e not in keep:
            f1, f2 = find(plan.face_of[2 * s]), find(plan.face_of[2 * s + 1])
            parent[f1] = f2
    outer_class = find(emb.outer_face)
    new_outer = None
    for v, darts in emb.rotation.items():
        for d in darts:
            if d[0] in keep and find(plan.face_of[emb.dart_to_int(d)]) == outer_class:
                new_outer = map_dart(d)
                break
        if new_outer:
            break
    if new_outer is None:
        # old outer bounded only by dropped edges; any surviving face absorbs it
        new_outer = map_dart(next(d for v, darts in emb.rotation.items()
                                  for d in darts if d[0] in keep))

    out = PlaneEmbedding(sub, tuple(CrossingPair(p, new_base + i)
                                    for i, p in enumerate(kept_cross)),
                         new_edge_order, merged_rot, new_outer)
    validate_embedding(out, k=max((len(v) for v in new_edge_order.values()),
                                  default=1) or 1)
    return out


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

    def toward(e: int, v: int) -> Dart:
        """The dart at the dummy on edge e whose strand leads to endpoint v."""
        path = emb.edge_path(e)
        pos = path.index(c.dummy)
        if v == path[0]:
            return (e, 1, pos - 1)
        return (e, 0, pos)

    rot = emb.rotation[c.dummy]
    ia = rot.index(toward(e1, a))
    succ = rot[(ia + 1) % 4]
    b_prime = emb.graph.other_end(e2, b)
    return "left" if succ == toward(e2, b_prime) else "right"


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _dart_json(emb: PlaneEmbedding, d: Dart) -> list[int]:
    e, end, seg = d
    return [e, end] if not emb.edge_order.get(e) else [e, end, seg]


def _dart_from_json(raw: Sequence[int]) -> Dart:
    if len(raw) == 2:
        return (raw[0], raw[1], 0)
    return (raw[0], raw[1], raw[2])


def embedding_to_json(emb: PlaneEmbedding) -> str:
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
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def embedding_from_json(text: str, k: int = 1) -> PlaneEmbedding:
    obj = json.loads(text)
    pairs = [tuple(p) for p in obj["edges"]]
    # edge ids are positions in the "edges" list
    g = Graph(frozenset(obj["vertices"]),
              {i: (min(p), max(p)) for i, p in enumerate(pairs)})
    rotation = {int(v): [_dart_from_json(d) for d in darts]
                for v, darts in obj["rotation"].items()}
    outer = _dart_from_json(obj["outer"]) if obj["outer"] is not None else None
    order = {int(e): lst for e, lst in obj.get("edge_crossing_order", {}).items()}
    return build_embedding(g, [tuple(c) for c in obj["crossings"]],
                           rotation, outer, k=k, edge_order=order or None)
