"""Simple undirected graphs with stable integer ids, plus the structural
decompositions consumed by the rest of the package.

All types are immutable after construction; every operation returns a new
object and preserves vertex/edge ids where the result contains them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Container, Iterable, Optional

# The most vertices ``treedepth_decomposition`` searches; past it, callers
# supply a decomposition.
TREEDEPTH_CAP = 20


class GraphError(ValueError):
    """Raised when a graph invariant or operation precondition is violated."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite simple graph. ``edges`` maps a stable edge id to its endpoint
    pair, stored with the smaller vertex first."""

    vertices: frozenset[int]
    edges: dict[int, tuple[int, int]]
    vertex_labels: dict[int, str] = field(default_factory=dict)
    edge_labels: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        normalized = {}
        for e, (u, v) in self.edges.items():
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise GraphError(f"edge {e}={u, v} has missing endpoint")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise GraphError(f"parallel edge {pair}")
            seen.add(pair)
            normalized[e] = pair
        object.__setattr__(self, "edges", normalized)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def build(edge_pairs: Iterable[tuple[int, int]],
              vertices: Iterable[int] = ()) -> "Graph":
        """Create a graph from endpoint pairs; edge ids are assigned densely
        in sorted endpoint order."""
        vs = set(vertices)
        pairs = set()
        for u, v in edge_pairs:
            vs.update((u, v))
            pairs.add((u, v) if u < v else (v, u))
        edges = {i: p for i, p in enumerate(sorted(pairs))}
        return Graph(frozenset(vs), edges)

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """vertex -> tuple of (neighbor, edge id), sorted by neighbor."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for e, (u, v) in self.edges.items():
            adj[u].append((v, e))
            adj[v].append((u, e))
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    @cached_property
    def _pair_to_edge(self) -> dict[tuple[int, int], int]:
        return {pair: e for e, pair in self.edges.items()}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(n for n, _ in self.adjacency[v])

    def incident_edges(self, v: int) -> tuple[int, ...]:
        return tuple(e for _, e in self.adjacency[v])

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._pair_to_edge

    def edge_between(self, u: int, v: int) -> Optional[int]:
        return self._pair_to_edge.get((u, v) if u < v else (v, u))

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} not an endpoint of edge {e}")

    def components(self) -> list[frozenset[int]]:
        return connected_components(self.vertices, self.neighbors)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    # -- id-preserving derivations ------------------------------------------

    def induced_subgraph(self, vs: Iterable[int]) -> "Graph":
        keep = frozenset(vs)
        edges = {e: p for e, p in self.edges.items()
                 if p[0] in keep and p[1] in keep}
        return Graph(keep, edges,
                     {v: l for v, l in self.vertex_labels.items() if v in keep},
                     {e: l for e, l in self.edge_labels.items() if e in edges})

    def subgraph_of_edges(self, edge_ids: Iterable[int]) -> "Graph":
        keep = set(edge_ids)
        edges = {e: self.edges[e] for e in keep}
        vs = frozenset(v for p in edges.values() for v in p)
        return Graph(vs, edges,
                     {v: l for v, l in self.vertex_labels.items() if v in vs},
                     {e: l for e, l in self.edge_labels.items() if e in edges})

    def remove_vertices(self, vs: Iterable[int]) -> "Graph":
        return self.induced_subgraph(self.vertices - frozenset(vs))


# ---------------------------------------------------------------------------
# Traversals shared across the package
# ---------------------------------------------------------------------------

def connected_components(nodes: Collection[int],
                         neighbors: Callable[[int], Iterable[int]]
                         ) -> list[frozenset[int]]:
    """Connected components of the graph that ``neighbors`` induces on
    ``nodes``, ordered by their smallest node.  ``nodes`` is only iterated
    and tested with ``in``, so a vertex subset needs no copy."""
    seen: set[int] = set()
    comps = []
    for start in sorted(nodes):
        if start in seen:
            continue
        stack, comp = [start], {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in neighbors(v):
                if w not in seen and w in nodes:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def degree2_walks(g: Graph, edges: Iterable[int], inner: Container[int]
                  ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Partition ``edges`` into maximal walks whose internal vertices all lie
    in ``inner``; every inner vertex must have degree 2 with both its edges
    among ``edges``.  Returns (edge ids, vertex walk) pairs.  Walks leave
    the vertices outside ``inner`` in increasing order; the cycles left
    over (all vertices inner) start at their smallest edge and close, so
    their vertex walk ends where it starts."""
    unused = set(edges)
    walks = []

    def walk(start: int, first_edge: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        edge_seq = [first_edge]
        vert_seq = [start, g.other_end(first_edge, start)]
        unused.discard(first_edge)
        while vert_seq[-1] in inner and vert_seq[-1] != start:
            v = vert_seq[-1]
            (_, a), (_, b) = g.adjacency[v]  # inner: exactly two edges
            e = b if a == edge_seq[-1] else a
            edge_seq.append(e)
            vert_seq.append(g.other_end(e, v))
            unused.discard(e)
        return tuple(edge_seq), tuple(vert_seq)

    for v in sorted(g.vertices):
        if v in inner:
            continue
        for _, e in g.adjacency[v]:
            if e in unused:
                walks.append(walk(v, e))
    while unused:
        e = min(unused)
        walks.append(walk(min(g.edges[e]), e))
    return walks


# ---------------------------------------------------------------------------
# Text formats: one pair of integers per line
# ---------------------------------------------------------------------------

def _int_pair_lines(text: str, form: str) -> Iterable[tuple[int, int, int]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise GraphError(
                f"line {lineno}: expected '{form}', got {raw!r}") from None
        yield lineno, u, v


def parse_int_pairs(text: str, form: str) -> list[tuple[int, int]]:
    """One pair of integers per line, '#' comments and blank lines ignored;
    ``form`` names the pair in the error message (e.g. 'u v')."""
    return [(u, v) for _, u, v in _int_pair_lines(text, form)]


def parse_vertex_map(text: str, form: str) -> dict[int, int]:
    """The pairs of ``parse_int_pairs`` as a map from the first integer, a
    vertex, to the second; a vertex on two lines is an error."""
    out: dict[int, int] = {}
    for lineno, v, x in _int_pair_lines(text, form):
        if v in out:
            raise GraphError(f"line {lineno}: vertex {v} listed twice")
        out[v] = x
    return out


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: one "u v" pair per line, '#' comments and
    blank lines ignored, vertex ids non-negative integers."""
    pairs = parse_int_pairs(text, "u v")
    for u, v in pairs:
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex id in '{u} {v}'")
    return Graph.build(pairs)


def format_edge_list(g: Graph) -> str:
    """Canonical serialization: edges sorted lexicographically."""
    lines = [f"{u} {v}" for u, v in sorted(g.edges.values())]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Decomposition types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackEdgeSet:
    edges: frozenset[int]
    ell: int


@dataclass(frozen=True)
class Degree2PathDecomposition:
    """Maximal degree-2 paths covering E(g), sorted by increasing length.

    ``paths[i]`` is an edge-id sequence, ``vertex_paths[i]`` the matching
    vertex walk (first == last for closed paths).
    """

    paths: tuple[tuple[int, ...], ...]
    vertex_paths: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.paths)

    def is_closed(self, i: int) -> bool:
        walk = self.vertex_paths[i]
        return walk[0] == walk[-1]


@dataclass(frozen=True)
class BlockCutTree:
    """Biconnected components plus cut vertices of a connected graph; a cut
    vertex and the blocks holding it are adjacent in the block-cut tree."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


@dataclass(frozen=True)
class TreedepthDecomposition:
    """Rooted forest over V(g); for every edge one endpoint is an ancestor of
    the other. Roots have parent -1."""

    parent: dict[int, int]

    @cached_property
    def levels(self) -> dict[int, int]:
        """Vertex -> number of its ancestors, itself included, listed in
        depth-first preorder: every vertex before its descendants and each
        subtree contiguous, so the reversed listing runs bottom-up."""
        out: dict[int, int] = {}
        stack = [(r, 1) for r in reversed(self.roots)]
        while stack:
            v, level = stack.pop()
            out[v] = level
            stack.extend((c, level + 1) for c in reversed(self.children[v]))
        if len(out) != len(self.parent):
            raise GraphError("parent map has a cycle")
        return out

    @cached_property
    def depth(self) -> int:
        return max(self.levels.values(), default=0)

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        ch: dict[int, list[int]] = {v: [] for v in self.parent}
        for v, p in sorted(self.parent.items()):
            if p != -1:
                ch[p].append(v)
        return {v: tuple(c) for v, c in ch.items()}

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(sorted(v for v, p in self.parent.items() if p == -1))

    @cached_property
    def preorder(self) -> tuple[int, ...]:
        """The vertices in the depth-first preorder of ``levels``."""
        return tuple(self.levels)

    @cached_property
    def spans(self) -> dict[int, tuple[int, int]]:
        """Vertex v -> (start, end) with ``preorder[start:end]`` the subtree
        of v, so u is a descendant of v iff start <= spans[u][0] < end."""
        order = self.preorder
        end: dict[int, int] = {}
        for i in range(len(order) - 1, -1, -1):
            kids = self.children[order[i]]
            end[order[i]] = end[kids[-1]] if kids else i + 1
        return {v: (i, end[v]) for i, v in enumerate(order)}

    def descendants(self, v: int) -> frozenset[int]:
        start, end = self.spans[v]
        return frozenset(self.preorder[start:end])

    def validate(self, g: Graph) -> None:
        if set(self.parent) != set(g.vertices):
            raise GraphError("decomposition does not cover V(g)")
        if not set(self.parent.values()) <= set(self.parent) | {-1}:
            raise GraphError("decomposition has a parent outside V(g)")
        span = self.spans  # raises on a cyclic parent map
        for u, v in g.edges.values():
            (su, eu), (sv, ev) = span[u], span[v]
            if not (su <= sv < eu or sv <= su < ev):
                raise GraphError(f"edge {u, v} violates ancestor closure")


@dataclass(frozen=True)
class LinearOrdering:
    """Bijection V(g) -> 1..n with its measured bandwidth."""

    position: dict[int, int]

    def __post_init__(self) -> None:
        n = len(self.position)
        if sorted(self.position.values()) != list(range(1, n + 1)):
            raise GraphError("ordering is not a bijection onto 1..n")

    def bandwidth(self, g: Graph) -> int:
        return max((abs(self.position[u] - self.position[v])
                    for u, v in g.edges.values()), default=0)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def prune_degree_one(g: Graph) -> Graph:
    """Repeatedly delete degree-<=1 vertices; the result has min degree >= 2
    or is empty."""
    current = g
    while True:
        drop = [v for v in current.vertices if current.degree(v) <= 1]
        if not drop:
            return current
        current = current.remove_vertices(drop)


def feedback_edge_set(g: Graph) -> FeedbackEdgeSet:
    """Minimum feedback edge set: the complement of a spanning forest."""
    seen: set[int] = set()
    tree_edges: set[int] = set()
    for start in sorted(g.vertices):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w, e in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    tree_edges.add(e)
                    stack.append(w)
    rest = frozenset(g.edges) - tree_edges
    return FeedbackEdgeSet(rest, len(rest))


def decompose_degree2_paths(g: Graph) -> Degree2PathDecomposition:
    """Decompose E(g) into maximal degree-2 paths, sorted by increasing
    length.  Pure-cycle components each yield one closed path.  Rejects
    graphs with degree-<=1 vertices (prune first)."""
    for v in g.vertices:
        if g.degree(v) <= 1:
            raise GraphError(f"vertex {v} has degree {g.degree(v)} < 2")

    raw = degree2_walks(g, g.edges,
                        {v for v in g.vertices if g.degree(v) == 2})

    def canon(item: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple:
        edges, verts = item
        fwd, bwd = verts, tuple(reversed(verts))
        return (len(edges), min(fwd, bwd))

    raw.sort(key=canon)
    return Degree2PathDecomposition(
        tuple(r[0] for r in raw),
        tuple(r[1] for r in raw),
        tuple(len(r[0]) for r in raw),
    )


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Biconnected components via iterative lowpoint DFS. Rejects
    disconnected input; callers split components first."""
    if not g.vertices:
        raise GraphError("empty graph")

    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent_edge: dict[int, Optional[int]] = {}
    edge_stack: list[int] = []
    blocks_edges: list[list[int]] = []
    cuts: set[int] = set()
    timer = 0

    start = min(g.vertices)
    # frames: (vertex, iterator over (neighbor, edge))
    disc[start] = low[start] = timer
    timer += 1
    parent_edge[start] = None
    stack = [(start, iter(g.adjacency[start]))]
    root_children = 0
    while stack:
        v, it = stack[-1]
        advanced = False
        for w, e in it:
            if e == parent_edge[v]:
                continue
            if w not in disc:
                disc[w] = low[w] = timer
                timer += 1
                parent_edge[w] = e
                edge_stack.append(e)
                stack.append((w, iter(g.adjacency[w])))
                if v == start:
                    root_children += 1
                advanced = True
                break
            elif disc[w] < disc[v]:
                edge_stack.append(e)
                low[v] = min(low[v], disc[w])
        if advanced:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                # u separates the block just finished
                blk = []
                while True:
                    e = edge_stack.pop()
                    blk.append(e)
                    if e == parent_edge[v]:
                        break
                blocks_edges.append(blk)
                if u != start or root_children > 1:
                    cuts.add(u)
    if len(disc) != g.n:
        raise GraphError("block_cut_tree requires a connected graph")

    if g.m == 0:  # single vertex
        return BlockCutTree((frozenset(g.vertices),), frozenset())

    blocks = tuple(frozenset(x for e in blk for x in g.edges[e])
                   for blk in blocks_edges)
    # the start vertex is a cut vertex iff it got >= 2 DFS children
    if root_children > 1:
        cuts.add(start)
    return BlockCutTree(blocks, frozenset(cuts))


def treedepth_decomposition(g: Graph) -> TreedepthDecomposition:
    """Minimum-depth treedepth decomposition by exhaustive search with
    memoization over vertex subsets.  Inputs above ``TREEDEPTH_CAP``
    vertices are rejected; callers may supply a decomposition instead."""
    if g.n > TREEDEPTH_CAP:
        raise GraphError(f"treedepth search capped at {TREEDEPTH_CAP} "
                         f"vertices (n={g.n})")

    memo: dict[frozenset[int], int] = {}
    choice: dict[frozenset[int], int] = {}

    nbrs = {v: g.neighbors(v) for v in g.vertices}

    def comps(vs: frozenset[int]) -> list[frozenset[int]]:
        return connected_components(vs, nbrs.__getitem__)

    def td(vs: frozenset[int]) -> int:
        if len(vs) <= 1:
            return len(vs)
        if vs in memo:
            return memo[vs]
        parts = comps(vs)
        if len(parts) > 1:
            memo[vs] = max(td(c) for c in parts)
            return memo[vs]
        best = len(vs)
        best_v = min(vs)
        for v in sorted(vs):
            d = 1 + td(vs - {v})
            if d < best:
                best, best_v = d, v
        memo[vs] = best
        choice[vs] = best_v
        return best

    parent: dict[int, int] = {}

    def build(vs: frozenset[int], above: int) -> None:
        for comp in comps(vs):
            if len(comp) == 1:
                (v,) = comp
                parent[v] = above
            elif len(comp) > 1:
                td(comp)
                v = choice[comp]
                parent[v] = above
                build(comp - {v}, v)

    build(g.vertices, -1)
    return TreedepthDecomposition(parent)


def subdivide_all_edges(g: Graph, k: int) -> Graph:
    """Replace every edge by a path of k edges through k-1 fresh vertices.
    Preserves the feedback edge number for every k >= 1."""
    if k < 1:
        raise GraphError("k must be positive")
    if k == 1:
        return g
    nxt = max(g.vertices, default=-1) + 1
    pairs: list[tuple[int, int]] = []
    vlabels = dict(g.vertex_labels)
    for e in sorted(g.edges):
        u, v = g.edges[e]
        chain = [u]
        for _ in range(k - 1):
            chain.append(nxt)
            vlabels[nxt] = f"subdivision:{e}"
            nxt += 1
        chain.append(v)
        pairs.extend(zip(chain, chain[1:]))
    out = Graph.build(pairs, vertices=g.vertices)
    return Graph(out.vertices, out.edges, vlabels, {})
