from __future__ import annotations

import random

import pytest

from oneplanar import kernel
from oneplanar.decider import Predicate, decide
from oneplanar.geometry import validate_geometric_1planar
from oneplanar.graph import Graph, GraphError, feedback_edge_set, subdivide_all_edges
from oneplanar.kernel import (
    convex_certificate,
    kernelize,
    triangulation_bound,
    worst_case_size,
    worst_case_size_closed_form,
)

from conftest import cycle_graph, random_connected_graph, theta_graph
from test_acceptance import _random_path_system


# ---------------------------------------------------------------------------
# kernelize
# ---------------------------------------------------------------------------

def test_theta_222_base_case():
    res = kernelize(theta_graph((2, 2, 2)), "1planar")
    assert sorted(res.kernel.edges.values()) == [(0, 1)]  # K_2
    assert "base-case" in res.plan.classification


def test_theta_124_unchanged():
    # worst case: every path one edge short of long; (2^3 - 1)(3 - 2) = 7
    res = kernelize(theta_graph((1, 2, 4)), "1planar")
    assert res.kernel.m == 7
    assert res.plan.j is None
    assert set(res.plan.classification) == {"kept"}


def test_theta_1_10_10_one_planar():
    res = kernelize(theta_graph((1, 10, 10)), "1planar")
    from oneplanar.graph import decompose_degree2_paths
    lengths = decompose_degree2_paths(res.kernel).lengths
    assert lengths == (1, 3, 3)  # threshold p-1+s(2) = 3
    assert res.kernel.m == 7
    assert res.plan.j == 2 and res.plan.threshold == 3


def test_theta_1_10_10_geometric():
    res = kernelize(theta_graph((1, 10, 10)), "geo1planar")
    from oneplanar.graph import decompose_degree2_paths
    assert decompose_degree2_paths(res.kernel).lengths == (1, 6, 6)
    assert res.plan.threshold == 6


def test_ell_zero_short_circuits():
    tree = Graph.build([(0, 1), (1, 2), (2, 3)])
    res = kernelize(tree, "1planar")
    assert sorted(res.kernel.edges.values()) == [(0, 1)]
    assert res.plan.ell == 0


def test_kplanar_variant_subdivides_first():
    g = theta_graph((1, 10, 10))
    res = kernelize(g, "kplanar", k=2)
    # subdividing doubles every path length, ell is preserved
    assert res.plan.ell == feedback_edge_set(g).ell
    direct = kernelize(subdivide_all_edges(g, 2), "1planar")
    assert sorted(res.kernel.edges.values()) == sorted(direct.kernel.edges.values())


def test_kernel_idempotent(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(4, 9), rng.randint(1, 3))
        for variant in ("1planar", "geo1planar"):
            first = kernelize(g, variant)
            again = kernelize(first.kernel, variant)
            assert (sorted(again.kernel.edges.values())
                    == sorted(first.kernel.edges.values()))


def test_lengthening_beyond_threshold_is_invisible():
    short = kernelize(theta_graph((1, 10, 10)), "1planar")
    longer = kernelize(theta_graph((1, 10, 25)), "1planar")
    assert (sorted(short.kernel.edges.values())
            == sorted(longer.kernel.edges.values()))


def test_provenance_covers_kernel():
    res = kernelize(theta_graph((1, 10, 10)), "1planar")
    assert set(res.provenance) == set(res.kernel.edges)


def test_size_bound_respected(rng):
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(4, 10), rng.randint(2, 4))
        res = kernelize(g, "1planar")
        dec = res.plan.decomposition
        if dec is None:
            continue
        ell = res.plan.ell
        closed = any(dec.is_closed(i) for i in range(dec.p))
        if ell >= 2 and not closed and res.plan.p == 3 * ell - 3:
            assert res.kernel.m <= worst_case_size(ell, "1planar")


def test_kernel_equivalence_small(rng):
    # the full property-based run lives in the acceptance suite
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(4, 8), rng.randint(1, 2))
        for variant, geo in (("1planar", False), ("geo1planar", True)):
            res = kernelize(g, variant)
            if res.kernel.m > 11 or g.m > 13:
                continue
            orig = decide(g, Predicate("plain", geometric=geo), cap=13,
                          want_witness=False)
            kern = decide(res.kernel, Predicate("plain", geometric=geo),
                          cap=13, want_witness=False)
            assert orig.answer == kern.answer


# ---------------------------------------------------------------------------
# worst-case sizes
# ---------------------------------------------------------------------------

def test_worst_case_one_planar_closed_form():
    # S_p = (2^p - 1)(p - 2) with p = 3*ell - 3
    assert worst_case_size(2, "1planar") == 7
    assert worst_case_size(3, "1planar") == 252
    assert worst_case_size(4, "1planar") == 3577
    assert worst_case_size(5, "1planar") == 40950
    for ell in range(2, 9):
        assert (worst_case_size(ell, "1planar")
                == worst_case_size_closed_form(ell, "1planar")
                == (2 ** (3 * ell - 3) - 1) * (3 * ell - 5))


def test_worst_case_geometric():
    assert worst_case_size(2, "geo1planar") == 21  # S = 1, 6, 21
    for ell in range(2, 8):
        assert (worst_case_size(ell, "geo1planar")
                == worst_case_size_closed_form(ell, "geo1planar"))


def test_worst_case_kplanar_matches_one_planar():
    for ell in range(2, 6):
        assert worst_case_size(ell, "kplanar") == worst_case_size(ell, "1planar")


def test_worst_case_geo_kplanar_recurrence():
    # p=3: S1=1, S2 = 1 + (1+3+1)*4 = 21, S3 = 21 + (441+63+1)*4 = 2041
    assert worst_case_size(2, "geo-kplanar") == 2041


def test_worst_case_rejects_small_ell():
    with pytest.raises(GraphError):
        worst_case_size(1, "1planar")


def test_triangulation_bound():
    assert triangulation_bound(0) == 1
    assert triangulation_bound(1) == 5
    assert triangulation_bound(4) == 29


# ---------------------------------------------------------------------------
# convex certificate
# ---------------------------------------------------------------------------

def test_certificate_theta_222():
    g = theta_graph((2, 2, 2))
    coords = convex_certificate(g)
    report = validate_geometric_1planar(coords, g)
    assert report.ok


def test_certificate_single_cycle_crossing_free():
    g = cycle_graph(6)
    coords = convex_certificate(g)
    report = validate_geometric_1planar(coords, g)
    assert report.ok and report.crossings == []


def test_certificate_disjoint_length2_paths():
    # 3 paths of length 2 between 6 circle points, plus anchoring cycles so
    # every endpoint has degree >= 2 is not required here: use a theta shape
    g = theta_graph((2, 3, 4))
    coords = convex_certificate(g)
    assert validate_geometric_1planar(coords, g).ok


def test_certificate_precondition():
    with pytest.raises(GraphError):
        convex_certificate(theta_graph((1, 2, 9)))  # shortest path too short


def test_layout_classifies_each_guide_pair_once(monkeypatch):
    """One `segment_intersection` call per unordered pair of guide chords;
    both crossing parameters come from its one crossing point."""
    calls = pairs = 0
    real_intersection, real_layout = kernel.segment_intersection, kernel._layout

    def counting_intersection(*args):
        nonlocal calls
        calls += 1
        return real_intersection(*args)

    def counting_layout(dec, open_idx, *rest):
        nonlocal pairs
        pairs += len(open_idx) * (len(open_idx) - 1) // 2
        return real_layout(dec, open_idx, *rest)

    monkeypatch.setattr(kernel, "segment_intersection", counting_intersection)
    monkeypatch.setattr(kernel, "_layout", counting_layout)
    rng = random.Random(10)
    for _ in range(12):
        g = _random_path_system(rng)
        assert validate_geometric_1planar(convex_certificate(g), g).ok
    assert pairs > 0 and calls <= pairs
