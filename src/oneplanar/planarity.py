"""Left-right planarity test with a planar embedding (Brandes, "The
Left-Right Planarity Test", 2009, after de Fraysseix and Rosenstiehl).

``planar_rotation`` works on a loopless multigraph with nodes ``0..n-1``
and answers in darts numbered from the caller's edge list: dart ``2i``
leaves ``edges[i][0]`` and dart ``2i + 1`` leaves ``edges[i][1]``.  There
is no early return on edge density, which a multigraph may exceed while
planar.  Each of the three depth-first phases (orientation, testing,
embedding) keeps its own stack of nodes, each with an iterator over its
remaining edges, so the Python call depth stays constant however deep the
DFS tree is.  The work a recursive version does after a child returns is
done when the child is popped.
"""

from __future__ import annotations

from typing import Optional, Sequence


class _NotPlanar(Exception):
    pass


def planar_rotation(n: int, edges: Sequence[tuple[int, int]]
                    ) -> Optional[list[list[int]]]:
    """The clockwise darts at each node of a planar embedding of the
    loopless multigraph on ``0..n-1`` with the given edges, or None when
    the graph is not planar.  Dart ``2i`` of edge i leaves ``edges[i][0]``
    and dart ``2i + 1`` leaves ``edges[i][1]``.  Linear time apart from
    sorting adjacency lists by nesting depth."""
    m = len(edges)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))

    # -- orientation: DFS heights, lowpoints and nesting depths -------------
    # edge i is oriented src[i] -> dst[i]; out[v] lists the edges leaving v
    height: list[Optional[int]] = [None] * n
    parent_edge: list[Optional[int]] = [None] * n
    oriented = [False] * m
    src, dst = [0] * m, [0] * m
    lowpt, lowpt2, nesting = [0] * m, [0] * m, [0] * m
    out: list[list[int]] = [[] for _ in range(n)]

    def finish(i: int) -> None:
        """Nesting depth of edge i, and the lowpoints of its parent edge."""
        v = src[i]
        nesting[i] = 2 * lowpt[i] + (lowpt2[i] < height[v])  # +1 if chordal
        e = parent_edge[v]
        if e is not None:
            if lowpt[i] < lowpt[e]:
                lowpt2[e] = min(lowpt[e], lowpt2[i])
                lowpt[e] = lowpt[i]
            elif lowpt[i] > lowpt[e]:
                lowpt2[e] = min(lowpt2[e], lowpt[i])
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[i])

    roots = []
    for root in range(n):
        if height[root] is not None:
            continue
        height[root] = 0
        roots.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, todo = stack[-1]
            for w, i in todo:
                if oriented[i]:
                    continue
                oriented[i] = True
                src[i], dst[i] = v, w
                out[v].append(i)
                lowpt[i] = lowpt2[i] = height[v]
                if height[w] is None:  # tree edge: finished when w is popped
                    parent_edge[w] = i
                    height[w] = height[v] + 1
                    stack.append((w, iter(adj[w])))
                    break
                lowpt[i] = height[w]  # back edge
                finish(i)
            else:
                stack.pop()
                if parent_edge[v] is not None:
                    finish(parent_edge[v])

    # -- testing: the LR partition of the back edges ------------------------
    # A conflict pair is [left.low, left.high, right.low, right.high]; an
    # interval is empty when both its ends are None.
    for v in range(n):
        out[v].sort(key=nesting.__getitem__)
    ref: list[Optional[int]] = [None] * m
    side = [1] * m
    lowpt_edge: list[Optional[int]] = [None] * m
    stack_bottom: list[Optional[list]] = [None] * m
    S: list[list] = []

    def conflicting(low, high, b: int) -> bool:
        return (low is not None or high is not None) and lowpt[high] > lowpt[b]

    def lowest(p: list) -> int:
        if p[0] is None and p[1] is None:
            return lowpt[p[2]]
        if p[2] is None and p[3] is None:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def add_constraints(ei: int, e: int) -> None:
        p: list = [None, None, None, None]
        while True:  # merge the return edges of ei into p's right interval
            q = S.pop()
            if q[0] is not None or q[1] is not None:
                q[:] = q[2:] + q[:2]
            if q[0] is not None or q[1] is not None:
                raise _NotPlanar
            if lowpt[q[2]] > lowpt[e]:
                if p[2] is None and p[3] is None:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:  # align
                ref[q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is stack_bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into p.left
        while conflicting(*S[-1][:2], ei) or conflicting(*S[-1][2:], ei):
            q = S.pop()
            if conflicting(q[2], q[3], ei):
                q[:] = q[2:] + q[:2]
            if conflicting(q[2], q[3], ei):
                raise _NotPlanar
            if p[2] is not None:
                ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[0] is None and p[1] is None:
                p[1] = q[1]
            elif p[0] is not None:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if any(x is not None for x in p):
            S.append(p)

    def remove_back_edges(e: int) -> None:
        u = src[e]
        while S and lowest(S[-1]) == height[u]:  # drop whole pairs
            p = S.pop()
            if p[0] is not None:
                side[p[0]] = -1
        if S:  # trim the next pair's intervals of edges returning to u
            p = S[-1]
            while p[1] is not None and dst[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] is None and p[0] is not None:  # just emptied
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = None
            while p[3] is not None and dst[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] is None and p[2] is not None:  # just emptied
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = None
        if lowpt[e] < height[u]:  # e's side is that of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (
                hr is None or lowpt[hl] > lowpt[hr]) else hr

    def integrate(i: int) -> None:
        """Add the return edges of edge i, now fully explored, to the
        constraints at its tail."""
        v = src[i]
        if lowpt[i] < height[v]:  # i has a return edge
            if i == out[v][0]:
                lowpt_edge[parent_edge[v]] = lowpt_edge[i]
            else:
                add_constraints(i, parent_edge[v])

    try:
        for root in roots:
            stack = [(root, iter(out[root]))]
            while stack:
                v, todo = stack[-1]
                for i in todo:
                    stack_bottom[i] = S[-1] if S else None
                    if i == parent_edge[dst[i]]:  # tree edge
                        stack.append((dst[i], iter(out[dst[i]])))
                        break
                    lowpt_edge[i] = i  # back edge
                    S.append([None, None, i, i])
                    integrate(i)
                else:
                    stack.pop()
                    e = parent_edge[v]
                    if e is not None:
                        remove_back_edges(e)
                        integrate(e)
    except _NotPlanar:
        return None

    # -- embedding ----------------------------------------------------------
    for i in range(m):  # resolve each side along its chain of references
        chain = []
        e = i
        while ref[e] is not None:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for x in reversed(chain):
            s = side[x] = side[x] * s
            ref[x] = None
        nesting[i] *= side[i]
    # the rotation at each node as a cyclic list of edges: cw[v][i] follows i
    cw: list[dict[int, int]] = [{} for _ in range(n)]
    ccw: list[dict[int, int]] = [{} for _ in range(n)]
    for v in range(n):
        out[v].sort(key=nesting.__getitem__)
        for j, i in enumerate(out[v]):
            cw[v][i] = out[v][(j + 1) % len(out[v])]
            ccw[v][i] = out[v][j - 1]

    def insert_after(v: int, ref_i: int, i: int) -> None:
        nxt = cw[v][ref_i]
        cw[v][ref_i], cw[v][i] = i, nxt
        ccw[v][nxt], ccw[v][i] = i, ref_i

    left_ref = [0] * n
    right_ref = [0] * n
    for root in roots:
        stack = [iter(out[root])]
        while stack:
            for i in stack[-1]:
                v, w = src[i], dst[i]
                if i == parent_edge[w]:  # tree edge: i goes first at w
                    if out[w]:
                        insert_after(w, ccw[w][out[w][0]], i)
                    else:
                        cw[w][i] = ccw[w][i] = i
                    left_ref[v] = right_ref[v] = i
                    stack.append(iter(out[w]))
                    break
                if side[i] == 1:  # back edge: i right after right_ref[w]
                    insert_after(w, right_ref[w], i)
                else:  # back edge: i right before left_ref[w]
                    insert_after(w, ccw[w][left_ref[w]], i)
                    left_ref[w] = i
            else:
                stack.pop()
    rotation = []
    for v, succ in enumerate(cw):
        order = list(succ)[:1]
        while order and succ[order[-1]] != order[0]:
            order.append(succ[order[-1]])
        rotation.append([2 * i + (edges[i][0] != v) for i in order])
    return rotation
