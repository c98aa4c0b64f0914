"""Exact plane geometry: segment intersections and validation of
straight-line drawings where every edge is crossed at most once.

Coordinates are rationals.  Each point is converted once to homogeneous
integers ``(X, Y, W)`` with ``W > 0``; orientation is then the sign of an
integer 3x3 determinant, read as the dot product of a point with the line
``p x q`` through two others.  Per-point homogeneous coordinates stay small
where a common denominator would not: the denominators of ``circle_points``
and of chord intersections are unrelated, so their LCM keeps growing.

Bounding boxes and on-segment tests compare ranks instead of coordinates:
the distinct x values and the distinct y values are sorted once, exactly,
and a point's ranks order it as its coordinates do, ties included.  Two
vertices coincide exactly when both their ranks do.  Ranks and the
crossing-coincidence set are keyed by a ``Fraction``'s (numerator,
denominator) ints, which are canonical, so no ``Fraction`` is hashed.  A
vertex is tested against an edge only within the edge's x-rank slab, and
edge pairs come from a sweep over their rank boxes.  A ``Fraction`` is
built only for the point of a proper crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .graph import Graph

Point = tuple[Fraction, Fraction]
Homogeneous = tuple[int, int, int]


def _homogeneous(p: Point) -> Homogeneous:
    x, y = p
    return (x.numerator * y.denominator, y.numerator * x.denominator,
            x.denominator * y.denominator)


def _cross(p: Homogeneous, q: Homogeneous) -> Homogeneous:
    """The line through two points, or the meet of two lines."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _side(line: Homogeneous, r: Homogeneous) -> int:
    """Orientation of r against ``line == _cross(p, q)``: the sign of the
    cross product (q-p) x (r-p), since every W is positive."""
    val = line[0] * r[0] + line[1] * r[1] + line[2] * r[2]
    return (val > 0) - (val < 0)


def _fraction(c) -> Fraction:
    """``c`` as a Fraction; one already a Fraction is kept, not re-wrapped."""
    return c if type(c) is Fraction else Fraction(c)


def _key(c: Fraction) -> tuple[int, int]:
    """A Fraction's hash key: it is normalized, so the pair is canonical,
    and hashing two ints skips the modular inverse of ``Fraction.__hash__``."""
    return (c.numerator, c.denominator)


def _ranks(values: Iterable[Fraction]) -> dict[tuple[int, int], int]:
    """The rank of each distinct value among them, by its ``_key``.  The
    sort compares floats first: int division rounds correctly, so distinct
    values keep their order or tie, and the exact values break the ties.
    Values past the float range are sorted exactly."""
    distinct = {_key(v): v for v in values}
    try:
        order = sorted(distinct, key=lambda k: (k[0] / k[1], distinct[k]))
    except OverflowError:
        order = sorted(distinct, key=distinct.__getitem__)
    return {k: i for i, k in enumerate(order)}


def _within(rx, ry, a, b, r) -> bool:
    """True if point r lies in the closed bounding box of points a and b."""
    return ((rx[a] <= rx[r] <= rx[b] or rx[b] <= rx[r] <= rx[a])
            and (ry[a] <= ry[r] <= ry[b] or ry[b] <= ry[r] <= ry[a]))


def _classify(h, rx, ry, p1, p2, lp, q1, q2, lq):
    """Intersection kind of the closed segments p1p2 and q1q2, given as keys
    into the homogeneous points ``h`` and the sort keys ``rx``, ``ry``, with
    ``lp``, ``lq`` their lines.  A sort key orders the points as their x (y)
    coordinates do and ties exactly where they tie: a rank, or the
    coordinate itself.  Returns None, ("proper", None), ("touch", key of the
    first touching endpoint) or ("overlap", None)."""
    d1 = _side(lq, h[p1])
    d2 = _side(lq, h[p2])
    d3 = _side(lp, h[q1])
    d4 = _side(lp, h[q2])
    if d1 != d2 and d3 != d4 and d1 and d2 and d3 and d4:
        return ("proper", None)

    touches = []
    if d1 == 0 and _within(rx, ry, q1, q2, p1):
        touches.append(p1)
    if d2 == 0 and _within(rx, ry, q1, q2, p2):
        touches.append(p2)
    if d3 == 0 and _within(rx, ry, p1, p2, q1):
        touches.append(q1)
    if d4 == 0 and _within(rx, ry, p1, p2, q2):
        touches.append(q2)
    if not touches:
        return None
    if len({(rx[t], ry[t]) for t in touches}) > 1:
        return ("overlap", None)
    return ("touch", touches[0])


def _meet(lp: Homogeneous, lq: Homogeneous) -> Point:
    x, y, w = _cross(lp, lq)
    return (Fraction(x, w), Fraction(y, w))


def segment_intersection(p1: Point, p2: Point, q1: Point, q2: Point
                         ) -> Optional[tuple[str, Optional[Point]]]:
    """Classify the intersection of two closed segments whose endpoint
    coordinates are ints or Fractions.

    Returns None for disjoint segments, ("proper", point) for a transversal
    interior crossing, ("touch", point) for a single shared boundary point,
    and ("overlap", None) for collinear overlap in more than one point.
    """
    given = (p1, p2, q1, q2)
    h = [_homogeneous(p) for p in given]
    lp, lq = _cross(h[0], h[1]), _cross(h[2], h[3])
    hit = _classify(h, [p[0] for p in given], [p[1] for p in given],
                    0, 1, lp, 2, 3, lq)
    if hit is None or hit[0] == "overlap":
        return hit
    if hit[0] == "proper":
        return ("proper", _meet(lp, lq))
    return ("touch", given[hit[1]])


@dataclass
class DrawingReport:
    ok: bool
    crossings: list[tuple[int, int, Point]]
    violations: list[str]


def validate_geometric_1planar(coords: Mapping[int, Point], g: Graph
                               ) -> DrawingReport:
    """Exact check that the straight-line drawing is a proper drawing with
    every edge crossed at most once.

    Checks: distinct vertex points; no vertex interior to a non-incident
    edge; adjacent edges meet only at the shared endpoint; non-adjacent
    edges cross transversally in at most one interior point; crossing
    points pairwise distinct; no edge crossed twice.
    Only vertices and edge pairs whose rank boxes meet are tested exactly.
    """
    violations: list[str] = []
    pts = {v: (_fraction(x), _fraction(y)) for v, (x, y) in coords.items()}
    if set(pts) != set(g.vertices):
        violations.append("coordinates do not cover V(g)")
        return DrawingReport(False, [], violations)

    h = {v: _homogeneous(p) for v, p in pts.items()}
    xs = _ranks(p[0] for p in pts.values())
    ys = _ranks(p[1] for p in pts.values())
    rx = {v: xs[_key(p[0])] for v, p in pts.items()}
    ry = {v: ys[_key(p[1])] for v, p in pts.items()}

    # two points coincide exactly when both their ranks do
    seen_pts: dict[tuple[int, int], int] = {}
    for v in pts:
        r = (rx[v], ry[v])
        if r in seen_pts:
            violations.append(f"vertices {seen_pts[r]} and {v} coincide")
        seen_pts[r] = v

    ids = sorted(g.edges)
    lines, boxes = {}, {}
    for e in ids:
        u, w = g.edges[e]
        lines[e] = _cross(h[u], h[w])
        # rank box: x low, x high, y low, y high
        boxes[e] = (min(rx[u], rx[w]), max(rx[u], rx[w]),
                    min(ry[u], ry[w]), max(ry[u], ry[w]))

    # an edge reads only the vertices in its x-rank slab; its hits are
    # reported in V(g) order
    slab: list[list[int]] = [[] for _ in xs]
    for v in g.vertices:
        slab[rx[v]].append(v)
    index = {v: i for i, v in enumerate(g.vertices)}
    for e in ids:
        u, w = g.edges[e]
        xlo, xhi, ylo, yhi = boxes[e]
        hits = [v for r in range(xlo, xhi + 1) for v in slab[r]
                if ylo <= ry[v] <= yhi and v != u and v != w
                and _side(lines[e], h[v]) == 0]
        hits.sort(key=index.__getitem__)
        violations.extend(f"vertex {v} lies on edge {e}" for v in hits)

    # edge pairs whose rank boxes meet, by a sweep over the boxes' left
    # x ranks, then taken in edge id order
    by_left = sorted(ids, key=lambda e: boxes[e][0])
    pairs = []
    for i, e in enumerate(by_left):
        _, exhi, eylo, eyhi = boxes[e]
        for f in by_left[i + 1:]:
            fxlo, _, fylo, fyhi = boxes[f]
            if fxlo > exhi:
                break
            if fylo <= eyhi and eylo <= fyhi:
                pairs.append((e, f) if e < f else (f, e))
    pairs.sort()

    crossings: list[tuple[int, int, Point]] = []
    per_edge: dict[int, int] = {e: 0 for e in ids}
    for e, f in pairs:
        pe, qe = g.edges[e]
        pf, qf = g.edges[f]
        hit = _classify(h, rx, ry, pe, qe, lines[e], pf, qf, lines[f])
        if hit is None:
            continue
        kind, key = hit
        shared = {pe, qe} & {pf, qf}
        if shared:
            s = shared.pop()
            if kind != "touch" or (rx[key], ry[key]) != (rx[s], ry[s]):
                violations.append(
                    f"adjacent edges {e},{f} overlap beyond their endpoint")
            continue
        if kind == "proper":
            crossings.append((e, f, _meet(lines[e], lines[f])))
            per_edge[e] += 1
            per_edge[f] += 1
        else:
            violations.append(f"edges {e},{f} touch improperly")

    points = {(*_key(x), *_key(y)) for _, _, (x, y) in crossings}
    if len(points) != len(crossings):
        violations.append("two crossings coincide in one point")
    for e, c in per_edge.items():
        if c > 1:
            violations.append(f"edge {e} crossed {c} times")

    return DrawingReport(not violations, crossings, violations)


def circle_points(count: int) -> list[Point]:
    """``count`` distinct rational points in convex position on the unit
    circle, via the tangent half-angle parametrization."""
    pts: list[Point] = []
    t = Fraction(0)
    step = Fraction(1, max(count, 1))
    while len(pts) < count:
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
        t += step
    return pts
