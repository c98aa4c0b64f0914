"""Differential test of ``oneplanar.geometry`` against the ``Fraction``
reference on hypothesis-drawn drawings over a small rational grid, where
coincident vertices, collinear edges, vertices on edges and shared
endpoints are frequent."""

from __future__ import annotations

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oneplanar.geometry import segment_intersection  # noqa: E402
from oneplanar.graph import Graph  # noqa: E402

import fraction_geometry as oracle  # noqa: E402
from test_geometry import GRID, assert_same_report  # noqa: E402

COORD = st.sampled_from(GRID)


@st.composite
def drawings(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)
                 if pairs else st.just([]))
    g = Graph.build(edges, vertices=range(n))
    coords = {v: (draw(COORD), draw(COORD)) for v in range(n)}
    if draw(st.integers(0, 19)) == 0:
        del coords[draw(st.integers(0, n - 1))]
    return coords, g


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drawings())
def test_drawings_match_reference(drawing):
    assert_same_report(*drawing)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(COORD, COORD), min_size=4, max_size=4))
def test_segment_intersection_matches_reference(points):
    got = segment_intersection(*points)
    want = oracle.segment_intersection(*points)
    assert got == want and repr(got) == repr(want)
