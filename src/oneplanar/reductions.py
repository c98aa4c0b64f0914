"""Generators for the Bin Packing hardness construction and the gadget
machinery for bandwidth lifting, with machine-checkable structural
witnesses.

The frame is a fixed triconnected cubic plane graph on 12 vertices and 18
edges (a hexagonal prism) whose outer hexagon carries the six distinguished
vertices in the cyclic order s, r1l, r1r, t, r2r, r2l; the outer hexagon is
the unique face containing both members of each distinguished pair, which
is what pins the drawing down once every frame edge is reinforced with a
K6 gadget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .graph import Graph, GraphError, LinearOrdering, degree2_walks


@dataclass(frozen=True)
class BinPackInstance:
    sizes: tuple[int, ...]
    bins: int  # K
    capacity: int  # B

    def __post_init__(self) -> None:
        if self.bins < 1 or self.capacity < 1:
            raise GraphError("bins and capacity must be positive")
        if any(s < 1 for s in self.sizes):
            raise GraphError("item sizes must be positive")

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def is_normalized(self) -> bool:
        return (self.bins >= 2 and self.total == self.bins * self.capacity
                and (not self.sizes or min(self.sizes) >= self.bins + 1))


def normalize_binpack(inst: BinPackInstance) -> Optional[BinPackInstance]:
    """Pad with unit items to an exactly-filling instance and scale so the
    minimum size exceeds the bin count; returns None when infeasible.
    K = 1 inputs are answered directly by conversion to an equivalent
    two-bin instance."""
    if inst.bins == 1:
        if inst.total > inst.capacity:
            return None
        return normalize_binpack(BinPackInstance(inst.sizes, 2, inst.total
                                                 if inst.total else 1))
    if inst.total > inst.bins * inst.capacity:
        return None
    pad = inst.bins * inst.capacity - inst.total
    sizes = inst.sizes + (1,) * pad
    cap = inst.capacity
    if sizes and min(sizes) < inst.bins + 1:
        factor = inst.bins + 1
        sizes = tuple(s * factor for s in sizes)
        cap *= factor
    out = BinPackInstance(sizes, inst.bins, cap)
    assert out.is_normalized()
    return out


# ---------------------------------------------------------------------------
# Frame
# ---------------------------------------------------------------------------

FRAME_VERTICES = 12
FRAME_EDGES = 18
DISTINGUISHED = ("s", "r1l", "r1r", "t", "r2r", "r2l")  # outer hexagon order


def frame_graph() -> tuple[Graph, dict[str, int]]:
    """Hexagonal prism: outer hexagon 0..5, inner 6..11, rungs between."""
    pairs = [(i, (i + 1) % 6) for i in range(6)]
    pairs += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    pairs += [(i, 6 + i) for i in range(6)]
    g = Graph.build(pairs)
    names = dict(zip(DISTINGUISHED, range(6)))
    return g, names


def frame_faces() -> list[frozenset[int]]:
    """Vertex sets of the 8 faces of the prism's planar embedding."""
    faces = [frozenset(range(6)), frozenset(range(6, 12))]
    faces += [frozenset({i, (i + 1) % 6, 6 + (i + 1) % 6, 6 + i})
              for i in range(6)]
    return faces


def verify_frame() -> None:
    """Build-time checks: triconnectivity by exhaustive 2-cut search, and
    uniqueness of the face shared by each distinguished pair."""
    g, names = frame_graph()
    if (g.n, g.m) != (FRAME_VERTICES, FRAME_EDGES):
        raise GraphError("frame has wrong size")
    for pair in itertools.combinations(sorted(g.vertices), 2):
        if not g.remove_vertices(pair).is_connected():
            raise GraphError(f"frame has a 2-cut {pair}")
    faces = frame_faces()
    hexagon = frozenset(range(6))
    for x, y in (("s", "t"), ("r1l", "r2l"), ("r1r", "r2r")):
        holding = [f for f in faces if names[x] in f and names[y] in f]
        if holding != [hexagon]:
            raise GraphError(f"pair {x},{y} not uniquely on the outer hexagon")


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledInstance:
    graph: Graph
    distinguished: dict[str, int]
    items: tuple[int, ...]
    bins: int
    capacity: int
    gadget_count: int

    def vertices_with_label(self, label: str) -> list[int]:
        return sorted(v for v, l in self.graph.vertex_labels.items()
                      if l == label or l.startswith(label + ":"))

    def edges_with_label(self, label: str) -> list[int]:
        return sorted(e for e, l in self.graph.edge_labels.items()
                      if l == label or l.startswith(label + ":"))


def gen_binpack_instance(inst: BinPackInstance, raw: bool = False
                         ) -> LabeledInstance:
    """Build the hardness instance: the K6-reinforced frame, the left red
    path of length |U|+K-1, the right red path of length K*B subdivided by
    K-1 purple edges into K length-B subpaths, and one diamond K_{2,s(u)}
    per item joined to s and t."""
    if not raw:
        normalized = normalize_binpack(inst)
        if normalized is None:
            raise GraphError("infeasible bin packing instance")
        inst = normalized
    elif inst.bins < 2:
        raise GraphError("raw generation still needs K >= 2")

    verify_frame()
    frame, names = frame_graph()
    K, B, sizes = inst.bins, inst.capacity, inst.sizes

    pairs: list[tuple[int, int]] = []
    vlabel: dict[int, str] = {v: "frame" for v in frame.vertices}
    elabel: dict[tuple[int, int], str] = {}
    nxt = FRAME_VERTICES

    def add_edge(u: int, v: int, label: str) -> None:
        pairs.append((u, v))
        elabel[(min(u, v), max(u, v))] = label

    # frame edges reinforced with K6 gadgets
    for gi, e in enumerate(sorted(frame.edges)):
        u, v = frame.edges[e]
        add_edge(u, v, "frame")
        internals = list(range(nxt, nxt + 4))
        nxt += 4
        for w in internals:
            vlabel[w] = f"k6-gadget:{gi}"
        six = [u, v] + internals
        for x, y in itertools.combinations(six, 2):
            if (x, y) == (u, v):
                continue
            add_edge(x, y, f"k6-gadget:{gi}")

    def red_path(a: int, b: int, length: int, label: str) -> list[int]:
        nonlocal nxt
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        for w in inner:
            vlabel[w] = label
        walk = [a] + inner + [b]
        for x, y in zip(walk, walk[1:]):
            add_edge(x, y, label)
        return walk

    s, t = names["s"], names["t"]
    left = red_path(names["r1l"], names["r2l"], len(sizes) + K - 1,
                    "red-left")
    right = red_path(names["r1r"], names["r2r"], K * B, "red-right")

    for i in range(1, K):
        add_edge(s, right[i * B], "purple")

    for ui, size in enumerate(sizes):
        d_u = nxt
        nxt += 1
        vlabel[d_u] = f"diamond-vertex:{ui}"
        add_edge(s, d_u, f"diamond:{ui}")
        for _ in range(size):
            mid = nxt
            nxt += 1
            vlabel[mid] = f"diamond:{ui}"
            add_edge(d_u, mid, f"diamond:{ui}")
            add_edge(mid, t, f"diamond:{ui}")

    g = Graph.build(pairs, vertices=range(FRAME_VERTICES))
    edge_labels = {e: elabel[p] for e, p in g.edges.items()}
    g = Graph(g.vertices, g.edges, vlabel, edge_labels)
    return LabeledInstance(g, names, sizes, K, B, FRAME_EDGES)


def expected_counts(li: LabeledInstance) -> tuple[int, int]:
    """Closed-form (vertices, edges) of a generated instance."""
    u, total = len(li.items), sum(li.items)
    K, B = li.bins, li.capacity
    n = (FRAME_VERTICES + 4 * FRAME_EDGES + (u + K - 2) + (K * B - 1)
         + total + u)
    m = (15 * FRAME_EDGES + (u + K - 1) + K * B + (K - 1) + 2 * total + u)
    return n, m


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

def fvs_witness(li: LabeledInstance) -> frozenset[int]:
    """Feedback vertex set: the 12 frame vertices plus two internals per K6
    gadget; verified acyclic by construction check."""
    out = set(range(FRAME_VERTICES))
    for gi in range(li.gadget_count):
        internals = li.vertices_with_label(f"k6-gadget:{gi}")
        out.update(internals[:2])
    rest = li.graph.remove_vertices(out)
    from .graph import feedback_edge_set
    if feedback_edge_set(rest).ell != 0:
        raise GraphError("witness does not hit every cycle")
    return frozenset(out)


def pathwidth_witness(li: LabeledInstance) -> list[frozenset[int]]:
    """Explicit path decomposition of width <= 15: width-3 decompositions of
    the residual components (K4s, stars, paths) concatenated, with all 12
    frame vertices in every bag."""
    g = li.graph
    frame_set = frozenset(range(FRAME_VERTICES))
    residual = g.remove_vertices(frame_set)
    bags: list[frozenset[int]] = []
    for comp in residual.components():
        sub = residual.induced_subgraph(comp)
        if sub.m == 0:
            bags.append(frozenset(comp))
        elif all(sub.degree(v) <= 2 for v in comp):  # path component
            ((_, order),) = degree2_walks(
                sub, sub.edges, {v for v in comp if sub.degree(v) == 2})
            bags.extend(frozenset(p) for p in zip(order, order[1:]))
        elif len(comp) <= 4:  # K4 remnants of the gadgets
            bags.append(frozenset(comp))
        else:  # star: diamond vertex with its middles
            center = max(comp, key=sub.degree)
            bags.extend(frozenset({center, leaf})
                        for leaf in sorted(comp - {center}))
    if not bags:
        bags = [frozenset()]
    bags = [b | frame_set for b in bags]
    validate_path_decomposition(g, bags)
    return bags


def validate_path_decomposition(g: Graph, bags: list[frozenset[int]]) -> int:
    """Formal validity: every vertex's bags form a contiguous interval and
    every edge is contained in some bag.  Returns the width."""
    for v in g.vertices:
        hits = [i for i, b in enumerate(bags) if v in b]
        if not hits:
            raise GraphError(f"vertex {v} in no bag")
        if hits != list(range(hits[0], hits[-1] + 1)):
            raise GraphError(f"bags of vertex {v} are not contiguous")
    for e, (u, v) in g.edges.items():
        if not any(u in b and v in b for b in bags):
            raise GraphError(f"edge {e} not covered")
    return max(len(b) for b in bags) - 1


# ---------------------------------------------------------------------------
# Two-terminal gadgets and bandwidth lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoTerminalGadget:
    graph: Graph
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.alpha == self.beta or not {self.alpha, self.beta} <= self.graph.vertices:
            raise GraphError("gadget needs two distinct attachment vertices")

    @property
    def t(self) -> int:
        return self.graph.n


def k6_gadget() -> TwoTerminalGadget:
    return TwoTerminalGadget(
        Graph.build([(i, j) for i in range(6) for j in range(i + 1, 6)]),
        0, 1)


def _replace_with_copies(g: Graph, h: TwoTerminalGadget
                         ) -> tuple[Graph, dict[int, dict[int, int]]]:
    nxt = max(g.vertices, default=-1) + 1
    pairs: list[tuple[int, int]] = []
    vlabels: dict[int, str] = dict(g.vertex_labels)
    copies: dict[int, dict[int, int]] = {}
    for e in sorted(g.edges):
        u, v = g.edges[e]  # alpha to the smaller endpoint
        mapping = {h.alpha: u, h.beta: v}
        for w in sorted(h.graph.vertices):
            if w in (h.alpha, h.beta):
                continue
            mapping[w] = nxt
            vlabels[nxt] = f"gadget-internal:{e}"
            nxt += 1
        copies[e] = mapping
        for x, y in h.graph.edges.values():
            pairs.append((mapping[x], mapping[y]))
    out = Graph.build(pairs, vertices=g.vertices)
    return Graph(out.vertices, out.edges, vlabels, {}), copies


def replace_edges_with_gadget(g: Graph, h: TwoTerminalGadget) -> Graph:
    """Replace every edge uv by a fresh copy of the gadget, attachment
    alpha at the smaller endpoint.  |V| grows by |E| * (t - 2)."""
    return _replace_with_copies(g, h)[0]


def bandwidth_lift(g: Graph, sigma: LinearOrdering, h: TwoTerminalGadget
                   ) -> tuple[Graph, LinearOrdering]:
    """Column construction: every vertex x takes the gadget internals of its
    upward edges into its column; the measured bandwidth of the result is
    at most (b+1)(1+(t-2)b) for b the bandwidth of sigma."""
    if set(sigma.position) != g.vertices:
        raise GraphError("ordering does not cover exactly V(g)")
    lifted, copies = _replace_with_copies(g, h)
    order = sorted(g.vertices, key=lambda v: sigma.position[v])
    position: dict[int, int] = {}
    slot = 1
    for x in order:
        column = [x]
        for e in sorted(g.edges):
            u, v = g.edges[e]
            lo, hi = ((u, v) if sigma.position[u] < sigma.position[v]
                      else (v, u))
            if lo != x:
                continue
            column.extend(w for w_orig, w in sorted(copies[e].items())
                          if w != hi and w not in column)
        for w in column:
            position[w] = slot
            slot += 1
    return lifted, LinearOrdering(position)


def bandwidth_bound(b: int, t: int) -> int:
    return (b + 1) * (1 + (t - 2) * b)
