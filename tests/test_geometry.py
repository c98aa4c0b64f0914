"""Exact geometry: hand-written cases for every intersection kind and every
drawing violation, and a differential test of ``oneplanar.geometry``
against the ``Fraction`` reference in ``fraction_geometry`` on random
small-grid drawings and on the criterion-10 certificates.  The hypothesis
form of the differential test is in ``test_geometry_fuzz.py``."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from oneplanar import geometry, kernel
from oneplanar.geometry import (
    DrawingReport,
    segment_intersection,
    validate_geometric_1planar,
)
from oneplanar.graph import Graph

import fraction_geometry as oracle
from test_acceptance import _random_path_system


def P(x, y):
    return (Fraction(x), Fraction(y))


# ---------------------------------------------------------------------------
# segment_intersection
# ---------------------------------------------------------------------------

SEGMENT_CASES = {
    "parallel": ((P(0, 0), P(1, 0)), (P(0, 1), P(1, 1)), None),
    "collinear-apart": ((P(0, 0), P(1, 0)), (P(2, 0), P(3, 0)), None),
    "lines-meet-outside": ((P(0, 0), P(1, 1)), (P(3, 0), P(2, 1)), None),
    "proper-grid": ((P(0, 0), P(2, 2)), (P(0, 2), P(2, 0)),
                    ("proper", P(1, 1))),
    "proper-rational": ((P(0, 0), P(3, 1)), (P(0, 1), P(1, 0)),
                        ("proper", P(Fraction(3, 4), Fraction(1, 4)))),
    "touch-shared-end": ((P(0, 0), P(1, 0)), (P(0, 0), P(0, 1)),
                         ("touch", P(0, 0))),
    "touch-t-junction": ((P(0, 0), P(2, 0)), (P(1, 0), P(1, 1)),
                         ("touch", P(1, 0))),
    "touch-end-to-end": ((P(0, 0), P(1, 0)), (P(1, 0), P(2, 0)),
                         ("touch", P(1, 0))),
    "overlap-partial": ((P(0, 0), P(2, 0)), (P(1, 0), P(3, 0)),
                        ("overlap", None)),
    "overlap-contained": ((P(0, 0), P(0, 3)), (P(0, 1), P(0, 2)),
                          ("overlap", None)),
    "overlap-equal": ((P(0, 0), P(1, 1)), (P(1, 1), P(0, 0)),
                      ("overlap", None)),
}


@pytest.mark.parametrize("name", sorted(SEGMENT_CASES))
def test_segment_intersection_kinds(name):
    (p1, p2), (q1, q2), want = SEGMENT_CASES[name]
    for a, b, c, d in ((p1, p2, q1, q2), (q2, q1, p2, p1)):
        got = segment_intersection(a, b, c, d)
        assert got == want
        if got and got[1] is not None:
            assert all(type(x) is Fraction for x in got[1])


# ---------------------------------------------------------------------------
# validate_geometric_1planar: one case per violation, plus cases for the
# integer keys and the float-first rank sort
# ---------------------------------------------------------------------------

REPORT_CASES = {
    "valid-one-crossing": (
        {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)},
        Graph.build([(u, v) for u in range(4) for v in range(u + 1, 4)]),
        DrawingReport(True, [(1, 4, P(Fraction(1, 2), Fraction(1, 2)))], [])),
    "coverage-missing": (
        {0: (0, 0)}, Graph.build([(0, 1)]),
        DrawingReport(False, [], ["coordinates do not cover V(g)"])),
    "coverage-extra": (
        {0: (0, 0), 1: (1, 0), 2: (2, 2)}, Graph.build([(0, 1)]),
        DrawingReport(False, [], ["coordinates do not cover V(g)"])),
    "coinciding-vertices": (
        {0: (1, 1), 1: (1, 1)}, Graph.build([], vertices=[0, 1]),
        DrawingReport(False, [], ["vertices 0 and 1 coincide"])),
    "vertex-on-edge": (
        {0: (0, 0), 1: (2, 0), 2: (1, 0)},
        Graph.build([(0, 1)], vertices=[2]),
        DrawingReport(False, [], ["vertex 2 lies on edge 0"])),
    "adjacent-overlap": (
        {0: (0, 0), 1: (2, 0), 2: (1, 0)}, Graph.build([(0, 1), (0, 2)]),
        DrawingReport(False, [], [
            "vertex 2 lies on edge 0",
            "adjacent edges 0,1 overlap beyond their endpoint"])),
    "improper-touch": (
        {0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (1, 1)},
        Graph.build([(0, 1), (2, 3)]),
        DrawingReport(False, [], [
            "vertex 2 lies on edge 0", "edges 0,1 touch improperly"])),
    "coinciding-crossings": (
        {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1), 4: (-1, -1),
         5: (1, 1)},
        Graph.build([(0, 1), (2, 3), (4, 5)]),
        DrawingReport(False, [(0, 1, P(0, 0)), (0, 2, P(0, 0)),
                              (1, 2, P(0, 0))],
                      ["two crossings coincide in one point",
                       "edge 0 crossed 2 times", "edge 1 crossed 2 times",
                       "edge 2 crossed 2 times"])),
    "coinciding-int-and-fraction": (
        {0: (1, 2), 1: (Fraction(3, 3), 2)}, Graph.build([], vertices=[0, 1]),
        DrawingReport(False, [], ["vertices 0 and 1 coincide"])),
    # the meets of the three lines have homogeneous weights -2, 8 and 24
    "coinciding-crossings-rational": (
        {0: (0, 0), 1: (1, 1), 2: (0, 1), 3: (1, 0),
         4: (Fraction(1, 4), 0), 5: (Fraction(3, 4), 1)},
        Graph.build([(0, 1), (2, 3), (4, 5)]),
        DrawingReport(False, [(0, 1, P(Fraction(1, 2), Fraction(1, 2))),
                              (0, 2, P(Fraction(1, 2), Fraction(1, 2))),
                              (1, 2, P(Fraction(1, 2), Fraction(1, 2)))],
                      ["two crossings coincide in one point",
                       "edge 0 crossed 2 times", "edge 1 crossed 2 times",
                       "edge 2 crossed 2 times"])),
    # x values 1 + 10^-30 and 1 round to one float; vertex 0 lies beyond
    # the edge's end
    "beyond-float-precision": (
        {0: (1 + Fraction(1, 10 ** 30), 0), 1: (0, 0), 2: (1, 0)},
        Graph.build([(1, 2)], vertices=[0]),
        DrawingReport(True, [], [])),
    # coordinates past the float range are ranked without floats
    "beyond-float-range": (
        {0: (0, 0), 1: (10 ** 400, 0), 2: (10 ** 400, 10 ** 400),
         3: (0, 10 ** 400)},
        Graph.build([(u, v) for u in range(4) for v in range(u + 1, 4)]),
        DrawingReport(True, [(1, 4, P(10 ** 400 // 2, 10 ** 400 // 2))], [])),
    "crossed-too-often": (
        {0: (0, 0), 1: (3, 0), 2: (1, -1), 3: (1, 1), 4: (2, -1), 5: (2, 1)},
        Graph.build([(0, 1), (2, 3), (4, 5)]),
        DrawingReport(False, [(0, 1, P(1, 0)), (0, 2, P(2, 0))],
                      ["edge 0 crossed 2 times"])),
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_drawing_report_cases(name):
    coords, g, want = REPORT_CASES[name]
    assert validate_geometric_1planar(coords, g) == want
    assert assert_same_report(coords, g) == want


# ---------------------------------------------------------------------------
# differential test against the Fraction reference
# ---------------------------------------------------------------------------

def assert_same_report(coords, g):
    """Field by field, with exact crossing points of the same type, and the
    violations in the same order."""
    got = validate_geometric_1planar(coords, g)
    want = oracle.validate_geometric_1planar(coords, g)
    assert got.ok == want.ok
    assert got.violations == want.violations
    assert got.crossings == want.crossings
    assert repr(got) == repr(want)
    return want


# a small rational grid: coincident vertices, collinear edges, vertices on
# edges and shared endpoints are all frequent
GRID = sorted({Fraction(i, d) for i in range(-2, 3) for d in (1, 2)})


def random_drawing(rng: random.Random):
    n = rng.randint(1, 7)
    pairs = [pr for pr in itertools.combinations(range(n), 2)
             if rng.random() < 0.45]
    g = Graph.build(pairs, vertices=range(n))
    coords = {v: (rng.choice(GRID), rng.choice(GRID)) for v in range(n)}
    if rng.random() < 0.05:
        coords.pop(rng.randrange(n))
    return coords, g


# every message validate_geometric_1planar writes, by violation
VIOLATIONS = {
    "coverage": r"coordinates do not cover V\(g\)",
    "coinciding vertices": r"vertices \d+ and \d+ coincide",
    "vertex on edge": r"vertex \d+ lies on edge \d+",
    "adjacent overlap": r"adjacent edges \d+,\d+ overlap beyond their endpoint",
    "improper touch": r"edges \d+,\d+ touch improperly",
    "coinciding crossings": r"two crossings coincide in one point",
    "crossed too often": r"edge \d+ crossed \d+ times",
}


def violation_kind(message: str) -> str:
    kinds = [k for k, pattern in VIOLATIONS.items()
             if re.fullmatch(pattern, message)]
    assert len(kinds) == 1, message
    return kinds[0]


def test_random_grid_drawings_match_reference():
    seen = set()
    for seed in range(600):
        rng = random.Random(seed)
        coords, g = random_drawing(rng)
        report = assert_same_report(coords, g)
        seen.update(violation_kind(v) for v in report.violations)
        if report.crossings:
            seen.add("crossing")
        if report.ok:
            seen.add("valid")
    # the sample reaches every violation, crossings and valid drawings
    assert seen == {*VIOLATIONS, "crossing", "valid"}


# ---------------------------------------------------------------------------
# criterion-10 certificates
# ---------------------------------------------------------------------------

def certificate_drawings(count: int):
    """Every drawing ``convex_certificate`` validates on the first ``count``
    path systems of the criterion-10 generator, failed attempts included."""
    seen = []
    real = kernel.validate_geometric_1planar

    def record(coords, g):
        seen.append((dict(coords), g))
        return real(coords, g)

    rng = random.Random(10)
    kernel.validate_geometric_1planar = record
    try:
        for _ in range(count):
            kernel.convex_certificate(_random_path_system(rng))
    finally:
        kernel.validate_geometric_1planar = real
    return seen


def test_certificates_match_reference():
    drawings = certificate_drawings(25)
    rng = random.Random(0)
    for index, (coords, g) in enumerate(drawings):
        assert assert_same_report(coords, g).ok
        if index % 5:
            continue
        # broken copies: one vertex moved onto a non-incident edge's
        # midpoint, or onto another vertex
        v = rng.choice(sorted(g.vertices))
        e = rng.choice([e for e, uw in g.edges.items() if v not in uw])
        a, b = (coords[x] for x in g.edges[e])
        moved = dict(coords)
        moved[v] = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        assert not assert_same_report(moved, g).ok
        moved[v] = coords[rng.choice([u for u in g.vertices if u != v])]
        assert not assert_same_report(moved, g).ok


def test_certificate_classifies_few_edge_pairs(monkeypatch):
    """The rank-box filter leaves about 1.8 m of the m(m-1)/2 edge pairs."""
    drawings = certificate_drawings(12)
    calls = 0
    real = geometry._classify

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(geometry, "_classify", counting)
    for coords, g in drawings:
        calls = 0
        assert validate_geometric_1planar(coords, g).ok
        assert calls <= 3 * g.m
    assert max(g.m for _, g in drawings) >= 30
