"""Feedback-edge-number kernelization for the four problem variants, the
closed-form worst-case size calculators, and the convex-position certificate
for instances whose shortest path is already long.

Variant thresholds for the i-th path (1-based, s(i) = total length of the
paths before it, p = path count):

* ``1planar``    long:            len >= p - 1 + s(i)
* ``geo1planar`` very long:       len >= 2 * (p - 1 + s(i))
* ``geo-kplanar`` very very long: len >= (s(i)^2 + 3 s(i) + 1) * (p + 1) + 1
* ``kplanar``    subdivide every edge into a k-path, then the 1planar kernel

Shortening replaces every path from the first threshold-meeting index j on
by a path of exactly the threshold length at j.  ``_threshold`` states each
formula once: ``kernelize`` reads it along one walk over the paths, and
``worst_case_size`` reads it with every path one edge too short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .geometry import (
    Point,
    circle_points,
    segment_intersection,
    validate_geometric_1planar,
)
from .graph import (
    Degree2PathDecomposition,
    Graph,
    GraphError,
    decompose_degree2_paths,
    feedback_edge_set,
    prune_degree_one,
    subdivide_all_edges,
)

VARIANTS = ("1planar", "geo1planar", "kplanar", "geo-kplanar")
# the most decimal digits of a size: Python's default int-to-str limit
_MAX_DIGITS = 4300


@dataclass(frozen=True)
class KernelPlan:
    variant: str
    decomposition: Optional[Degree2PathDecomposition]
    p: int
    ell: int
    j: Optional[int]  # first threshold-meeting index (1-based), if any
    threshold: Optional[int]
    classification: tuple[str, ...]  # per path: kept | shortened | base-case
    prefix_sums: tuple[int, ...]


@dataclass(frozen=True)
class KernelResult:
    kernel: Graph
    plan: KernelPlan
    provenance: dict[int, tuple]  # kernel edge -> ("path", i, seg) origin


def _threshold(variant: str, p: int, s_i: int) -> int:
    if variant in ("1planar", "kplanar"):
        return p - 1 + s_i
    if variant == "geo1planar":
        return 2 * (p - 1 + s_i)
    return (s_i * s_i + 3 * s_i + 1) * (p + 1) + 1


def kernelize(g: Graph, variant: str, k: Optional[int] = None) -> KernelResult:
    """Kernelize with respect to the feedback edge number.  ell = 0 inputs
    and base-case inputs (shortest path of length >= p - 1) short-circuit
    to the trivial yes-instance K_2; the output graph otherwise is the
    degree-1-pruned input with every long path shortened to its threshold
    length."""
    if variant not in VARIANTS:
        raise GraphError(f"unknown variant {variant!r}")
    if variant == "kplanar":
        if not k or k < 1:
            raise GraphError("kplanar variant requires k >= 1")
        res = kernelize(subdivide_all_edges(g, k), "1planar")
        return replace(res, plan=replace(res.plan, variant="kplanar"))

    pruned = prune_degree_one(g)
    ell = feedback_edge_set(pruned).ell
    dec = decompose_degree2_paths(pruned) if pruned.m and ell else None
    if dec is None or dec.lengths[0] >= dec.p - 1:
        p = dec.p if dec else 0
        plan = KernelPlan(variant, dec, p, ell, None, None,
                          ("base-case",) * p, ())
        return KernelResult(Graph.build([(0, 1)]), plan, {0: ("trivial-yes",)})

    # One walk over the paths.  Path 1 never meets its threshold, which is
    # at least p - 1 while the base case is excluded.
    p = dec.p
    j = threshold = None
    total = 0
    prefix: list[int] = []
    origin: dict[tuple[int, int], tuple] = {}  # (min, max) pair -> origin
    classification = []
    for i, (walk, length) in enumerate(zip(dec.vertex_paths, dec.lengths), 1):
        prefix.append(total)
        if j is None and length >= _threshold(variant, p, total):
            j, threshold = i, _threshold(variant, p, total)
        total += length
        if j is not None and length > threshold:
            # closed paths stay simple cycles
            target = max(threshold, 3) if walk[0] == walk[-1] else threshold
            walk = walk[:target] + walk[-1:]
        classification.append("kept" if j is None else "shortened")
        for seg, (u, v) in enumerate(zip(walk, walk[1:])):
            origin[(min(u, v), max(u, v))] = ("path", i, seg)

    kernel = Graph.build(origin)
    provenance = {e: origin[pr] for e, pr in kernel.edges.items()}
    plan = KernelPlan(variant, dec, p, ell, j, threshold,
                      tuple(classification), tuple(prefix))
    return KernelResult(kernel, plan, provenance)


# ---------------------------------------------------------------------------
# Worst-case sizes
# ---------------------------------------------------------------------------

def worst_case_size(ell: int, variant: str) -> int:
    """Edge count of the worst-case kernel for feedback edge number ell:
    every path one edge too short for its threshold, p = 3*ell - 3."""
    if variant not in VARIANTS:
        raise GraphError(f"unknown variant {variant!r}")
    if ell < 2:
        raise GraphError("worst-case sizes need ell >= 2 (so p >= 3)")
    p = 3 * ell - 3
    s = p - 2
    limit = 10 ** _MAX_DIGITS
    for _ in range(2, p + 1):
        s += _threshold(variant, p, s) - 1
        if s >= limit:
            raise GraphError(f"worst-case size over {_MAX_DIGITS} digits")
    return s


def worst_case_size_closed_form(ell: int, variant: str) -> int:
    """Exact closed forms where available: (2^p - 1)(p - 2) for the plain
    kernel and the matching cubic-growth expression for the geometric one."""
    if ell < 2:
        raise GraphError("worst-case sizes need ell >= 2")
    p = 3 * ell - 3
    if variant in ("1planar", "kplanar"):
        return (2 ** p - 1) * (p - 2)
    if variant == "geo1planar":
        value = (Fraction(9, 2) - Fraction(19, 2) * 3 ** (3 * ell - 4)
                 + (-3 + 2 * 27 ** (ell - 1)) * ell)
        assert value.denominator == 1
        return int(value)
    raise GraphError(f"no closed form for {variant!r}")


def triangulation_bound(m: int) -> int:
    """Maximum triangle count of a constrained triangulation over the
    planarization of m pairwise once-crossing segments in a triangle."""
    if m < 0:
        raise GraphError("m must be non-negative")
    value = m * m + 3 * m + 1
    if value >= 10 ** _MAX_DIGITS:
        raise GraphError(f"triangulation bound over {_MAX_DIGITS} digits")
    return value


# ---------------------------------------------------------------------------
# Convex-position certificate
# ---------------------------------------------------------------------------

def convex_certificate(g: Graph) -> dict[int, Point]:
    """Straight-line coordinates certifying geometric 1-planarity of a graph
    that decomposes into f degree-2 paths, each of length >= f - 1.

    Open-path endpoints go on a circle and each path follows its chord;
    paths sharing both endpoints are layered at small offsets, and internal
    vertices are placed so every segment is crossed at most once.  The
    coordinates are rationals, and the result is re-validated exactly by
    ``validate_geometric_1planar`` with integer orientation tests."""
    dec = decompose_degree2_paths(g)
    f = dec.p
    if any(length < f - 1 for length in dec.lengths):
        raise GraphError("certificate precondition: every path length >= f-1")

    open_idx = [i for i in range(f) if not dec.is_closed(i)]
    closed_idx = [i for i in range(f) if dec.is_closed(i)]
    endpoints = sorted({dec.vertex_paths[i][0] for i in open_idx}
                       | {dec.vertex_paths[i][-1] for i in open_idx})

    last_report = None
    for attempt in range(40):
        coords = _layout(dec, open_idx, closed_idx, endpoints, attempt)
        report = validate_geometric_1planar(coords, g)
        if report.ok:
            return coords
        last_report = report
    raise GraphError(
        f"convex certificate failed to validate: {last_report.violations}")


def _layout(dec: Degree2PathDecomposition, open_idx, closed_idx,
            endpoints, attempt: int) -> dict[int, Point]:
    coords: dict[int, Point] = {}
    base = circle_points(len(endpoints) + attempt)[attempt:]
    for v, pt in zip(endpoints, base):
        coords[v] = pt
    delta = Fraction(1, 50 * 4 ** attempt)

    # assign layers within same-endpoint groups, shortest path lowest
    groups: dict[frozenset[int], list[int]] = {}
    for i in open_idx:
        walk = dec.vertex_paths[i]
        groups.setdefault(frozenset((walk[0], walk[-1])), []).append(i)
    layer = {}
    for members in groups.values():
        for r, i in enumerate(sorted(members, key=lambda i: dec.lengths[i])):
            layer[i] = r

    def guide(i: int) -> tuple[Point, Point]:
        walk = dec.vertex_paths[i]
        a, b = coords[walk[0]], coords[walk[-1]]
        perp = (-(b[1] - a[1]), b[0] - a[0])
        off = delta * layer[i]
        return ((a[0] + off * perp[0], a[1] + off * perp[1]),
                (b[0] + off * perp[0], b[1] + off * perp[1]))

    guides = {i: guide(i) for i in open_idx}

    def param(i: int, px: Point) -> Fraction:
        """Where px lies along guide i, from 0 at its start to 1 at its end."""
        a, b = guides[i]
        k = 0 if b[0] != a[0] else 1
        return (px[k] - a[k]) / (b[k] - a[k])

    # each unordered pair of guides is classified once
    params: dict[int, list[Fraction]] = {i: [] for i in open_idx}
    for i, j in itertools.combinations(open_idx, 2):
        hit = segment_intersection(*guides[i], *guides[j])
        if hit and hit[0] == "proper":
            params[i].append(param(i, hit[1]))
            params[j].append(param(j, hit[1]))

    for i in open_idx:
        (ax, ay), (bx, by) = guides[i]
        dx, dy = bx - ax, by - ay
        walk = dec.vertex_paths[i]
        length = dec.lengths[i]
        params[i].sort()
        positions = _place_positions(params[i], length - 1, layer[i])
        for pos_idx, t in enumerate(positions):
            num, den = t.numerator, t.denominator
            coords[walk[pos_idx + 1]] = (_along(ax, dx, num, den),
                                         _along(ay, dy, num, den))

    # closed paths become far-away convex polygons
    for slot, i in enumerate(closed_idx):
        walk = dec.vertex_paths[i]
        ring = circle_points(len(walk) - 1)
        cx = Fraction(20 + 3 * slot)
        for v, pt in zip(walk[:-1], ring):
            coords[v] = (pt[0] + cx, pt[1] + Fraction(20))
    return coords


def _along(a: Fraction, d: Fraction, num: int, den: int) -> Fraction:
    """``a + d * num / den``, built as one Fraction from integer products
    instead of three Fraction operations."""
    scale = d.denominator * den
    return Fraction(a.numerator * scale + d.numerator * num * a.denominator,
                    a.denominator * scale)


def _place_positions(params: list[Fraction], count: int, layer_index: int
                     ) -> list[Fraction]:
    """``count`` increasing positions in (0,1) separating consecutive
    entries of ``params``; extras fill the end gaps first.  Layers are
    staggered slightly so grouped paths climb and descend in a fan."""
    bounds = [Fraction(0)] + params + [Fraction(1)]
    gaps = list(zip(bounds, bounds[1:]))
    need = max(len(params) - 1, 0)
    if count < need:
        raise GraphError("path too short to separate its crossings")

    def at(gap, num, den) -> Fraction:
        lo, hi = gap
        return _along(lo, hi - lo, num, den)

    chosen: list[tuple[int, Fraction]] = []
    for gi in range(1, len(gaps) - 1):
        chosen.append((gi, at(gaps[gi], 1 + layer_index, 2 + layer_index + 1)))
    extra = count - need
    filler = []
    if extra and len(gaps) >= 1:
        filler.append((0, at(gaps[0], 2 + layer_index, 4 + 2 * layer_index)))
        extra -= 1
    if extra and len(gaps) >= 2:
        filler.append((len(gaps) - 1,
                       at(gaps[-1], 1, 3 + layer_index)))
        extra -= 1
    slot = 0
    while extra > 0:
        gi = slot % len(gaps)
        filler.append((gi, at(gaps[gi], 2 * slot + 3, 4 * (slot + 2))))
        extra -= 1
        slot += 1
    all_pos = sorted(set(p for _, p in chosen + filler))
    while len(all_pos) < count:  # de-duplicated collisions: top up
        all_pos.append((all_pos[-1] + 1) / 2)
        all_pos.sort()
    return all_pos[:count]
