"""Reference implementation for ``tests/test_geometry.py``: the exact
``Fraction`` predicates and drawing validation that ``oneplanar.geometry``
used before it moved to homogeneous integers and rank boxes.  Every
segment pair and every vertex-edge pair is tested, with no filter."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from oneplanar.geometry import DrawingReport, Point
from oneplanar.graph import Graph


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q-p) x (r-p)."""
    val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (val > 0) - (val < 0)


def on_segment(p: Point, q: Point, r: Point) -> bool:
    """True if r lies on the closed segment pq (r assumed collinear)."""
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def segment_intersection(p1: Point, p2: Point, q1: Point, q2: Point
                         ) -> Optional[tuple[str, Optional[Point]]]:
    """Classify the intersection of two closed segments.

    Returns None for disjoint segments, ("proper", point) for a transversal
    interior crossing, ("touch", point) for a single shared boundary point,
    and ("overlap", None) for collinear overlap in more than one point.
    """
    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)

    if d1 != d2 and d3 != d4 and 0 not in (d1, d2, d3, d4):
        # solve p1 + t (p2 - p1) on the line q1q2
        ax, ay = p2[0] - p1[0], p2[1] - p1[1]
        bx, by = q2[0] - q1[0], q2[1] - q1[1]
        denom = ax * by - ay * bx
        t = ((q1[0] - p1[0]) * by - (q1[1] - p1[1]) * bx) / denom
        return ("proper", (p1[0] + t * ax, p1[1] + t * ay))

    touches = []
    if d1 == 0 and on_segment(q1, q2, p1):
        touches.append(p1)
    if d2 == 0 and on_segment(q1, q2, p2):
        touches.append(p2)
    if d3 == 0 and on_segment(p1, p2, q1):
        touches.append(q1)
    if d4 == 0 and on_segment(p1, p2, q2):
        touches.append(q2)
    if not touches:
        return None
    distinct = set(touches)
    if len(distinct) > 1:
        return ("overlap", None)
    return ("touch", touches[0])


def validate_geometric_1planar(coords: Mapping[int, Point], g: Graph,
                               max_crossings_per_edge: int = 1) -> DrawingReport:
    """Exact check that the straight-line drawing is a proper drawing with
    every edge crossed at most ``max_crossings_per_edge`` times.

    Checks: distinct vertex points; no vertex interior to a non-incident
    edge; adjacent edges meet only at the shared endpoint; non-adjacent
    edges cross transversally in at most one interior point; crossing
    points pairwise distinct; per-edge crossing counts within bound.
    """
    violations: list[str] = []
    pts = {v: (Fraction(x), Fraction(y)) for v, (x, y) in coords.items()}
    if set(pts) != set(g.vertices):
        violations.append("coordinates do not cover V(g)")
        return DrawingReport(False, [], violations)

    seen_pts: dict[Point, int] = {}
    for v, p in pts.items():
        if p in seen_pts:
            violations.append(f"vertices {seen_pts[p]} and {v} coincide")
        seen_pts[p] = v

    ids = sorted(g.edges)
    for e in ids:
        u, w = g.edges[e]
        for v in g.vertices:
            if v in (u, w):
                continue
            if orient(pts[u], pts[w], pts[v]) == 0 and on_segment(
                    pts[u], pts[w], pts[v]):
                violations.append(f"vertex {v} lies on edge {e}")

    crossings: list[tuple[int, int, Point]] = []
    per_edge: dict[int, int] = {e: 0 for e in ids}
    for i, e in enumerate(ids):
        for f in ids[i + 1:]:
            pe, qe = (pts[x] for x in g.edges[e])
            pf, qf = (pts[x] for x in g.edges[f])
            shared = set(g.edges[e]) & set(g.edges[f])
            hit = segment_intersection(pe, qe, pf, qf)
            if hit is None:
                continue
            kind, point = hit
            if shared:
                ok_point = pts[next(iter(shared))]
                if kind != "touch" or point != ok_point:
                    violations.append(
                        f"adjacent edges {e},{f} overlap beyond their endpoint")
                continue
            if kind == "proper":
                crossings.append((e, f, point))
                per_edge[e] += 1
                per_edge[f] += 1
            else:
                violations.append(f"edges {e},{f} touch improperly")

    points = [p for _, _, p in crossings]
    if len(set(points)) != len(points):
        violations.append("two crossings coincide in one point")
    for e, c in per_edge.items():
        if c > max_crossings_per_edge:
            violations.append(f"edge {e} crossed {c} times")

    return DrawingReport(not violations, crossings, violations)
