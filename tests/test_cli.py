from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oneplanar import decider, kernel
from oneplanar.cli import build_parser, main
from oneplanar.embedding import embedding_from_json, embedding_to_json
from oneplanar.graph import Graph, format_edge_list, parse_edge_list
from oneplanar.straightening import find_bw_configurations
from oneplanar.surgery import (
    arc_system,
    arc_system_from_json,
    arc_system_to_json,
)

from conftest import complete_graph, theta_graph
from test_embedding import k5_one_crossing
from test_surgery import bowtie_c4, random_arc_system


def write_graph(tmp_path: Path, name: str, g) -> str:
    path = tmp_path / name
    path.write_text(format_edge_list(g))
    return str(path)


JUNK = bytes(range(256)) * 256  # 64 KiB to write an output over


def test_decide_k4_yes(tmp_path, capsys):
    infile = write_graph(tmp_path, "k4.edges", complete_graph(4))
    assert main(["decide", "--in", infile, "--geometric"]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_decide_witness_revalidates(tmp_path, capsys):
    infile = write_graph(tmp_path, "k5.edges", complete_graph(5))
    witness = str(tmp_path / "witness.json")
    assert main(["decide", "--in", infile, "--geometric",
                 "--witness", witness]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert main(["check-embedding", "--in", witness]) == 0


def test_decide_k6_plain_by_planarity_tests(tmp_path, capsys):
    """K6 needs three crossings: the search starts at the crossing lower
    bound (3, Euler's), so no smaller assignment is generated, and one
    planarity test per assignment replaces the rotation search, so no
    rotation system is tried.  A planar planarization needs 2m - 4n + 8 = 14
    triangles; 308 of the 309 three-crossing assignments leave fewer, so
    only the one that passes is tested."""
    infile = write_graph(tmp_path, "k6.edges", complete_graph(6))
    witness, report = str(tmp_path / "w.json"), tmp_path / "r.json"
    assert main(["decide", "--in", infile, "--cap", "16", "--witness", witness,
                 "--report", str(report)]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert main(["check-embedding", "--in", witness]) == 0
    assert capsys.readouterr().out.startswith("OK")
    stats = json.loads(report.read_text())["stats"]
    assert stats == {"assignments": 309, "crossing_lower_bound": 3,
                     "face_bound_rejections": 308,
                     "planarity_tests": 1, "planarity_failed": 0,
                     "density_rejections": 0, "insertions": 0,
                     "rotation_systems": 0, "valid_embeddings": 1,
                     "outer_faces_checked": 1, "bw_candidates": 0,
                     "memo_hits": 0}


def test_decide_k44_plain_from_girth_bound(tmp_path, capsys):
    """K4,4 has girth 4, so every drawing has at least 16 - 12 = 4
    crossings (its crossing number): the search starts there and answers
    within seconds instead of testing the 28 573 smaller assignments.  A
    planar planarization needs 2m - 4n + 8 = 8 triangles, and K4,4 has
    none: all 8 must be kites, two per crossing pair, none of them crossed.
    Only the first assignment where that holds is tested, and it passes."""
    k44 = Graph.build([(u, v) for u in range(4) for v in range(4, 8)])
    infile = write_graph(tmp_path, "k44.edges", k44)
    witness, report = str(tmp_path / "w.json"), tmp_path / "r.json"
    start = time.perf_counter()
    assert main(["decide", "--in", infile, "--cap", "16", "--witness", witness,
                 "--report", str(report)]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.strip() == "YES"
    assert main(["check-embedding", "--in", witness]) == 0
    assert capsys.readouterr().out.startswith("OK")
    stats = json.loads(report.read_text())["stats"]
    assert stats == {"assignments": 5390, "crossing_lower_bound": 4,
                     "face_bound_rejections": 5389,
                     "planarity_tests": 1, "planarity_failed": 0,
                     "density_rejections": 0, "insertions": 0,
                     "rotation_systems": 0, "valid_embeddings": 1,
                     "outer_faces_checked": 1, "bw_candidates": 0,
                     "memo_hits": 0}


def test_decide_k6_geometric_finishes(tmp_path, capsys):
    """Face insertion builds only genus-0 rotation systems, so K6 under
    the geometric predicate answers within seconds; its witness is a valid
    embedding with no B- or W-configuration."""
    infile = write_graph(tmp_path, "k6.edges", complete_graph(6))
    witness = tmp_path / "w.json"
    start = time.perf_counter()
    assert main(["decide", "--in", infile, "--geometric", "--cap", "16",
                 "--witness", str(witness)]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.strip() == "YES"
    assert main(["check-embedding", "--in", str(witness)]) == 0
    assert capsys.readouterr().out.startswith("OK")
    assert not find_bw_configurations(embedding_from_json(witness.read_text()))


def test_decide_cap_exit_code(tmp_path):
    infile = write_graph(tmp_path, "k6.edges", complete_graph(6))
    assert main(["decide", "--in", infile, "--cap", "11"]) == 3


def test_decide_cap_exceeded_writes_a_report(tmp_path, capsys):
    """The edge cap stops ``decide`` before any search: exit 3 with the one
    ``CAP EXCEEDED:`` line, and the report holds no answer, the limit and
    the work done, none."""
    infile = write_graph(tmp_path, "k5.edges", complete_graph(5))
    report = tmp_path / "r.json"
    assert main(["decide", "--in", infile, "--cap", "5",
                 "--report", str(report)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "CAP EXCEEDED: 10 edges exceeds decider cap 5\n"
    assert json.loads(report.read_text()) == {
        "answer": None, "cap_exceeded": "edge_cap",
        "embeddings_enumerated": 0, "stats": vars(decider.DecideStats())}


def test_decide_insertion_budget_exit_code(tmp_path, monkeypatch, capsys):
    """Past ``INSERTION_BUDGET`` insertion steps the rotation search stops
    with CapExceeded, exit 3.  K2,2,2 ab-outer --geometric takes 27: its
    first tested assignment rejects the test's embedding and builds one
    system.  The report counts the work up to the stop."""
    octahedron = Graph.build([(u, v) for u in range(6) for v in range(u + 1, 6)
                              if u // 2 != v // 2])
    infile = write_graph(tmp_path, "k222.edges", octahedron)
    report = tmp_path / "r.json"
    args = ["decide", "--in", infile, "--pred", "ab-outer", "--a", "0",
            "--b", "1", "--geometric", "--cap", "12", "--report", str(report)]
    assert main(args) == 0
    assert json.loads(report.read_text())["stats"]["insertions"] == 27
    monkeypatch.setattr(decider, "INSERTION_BUDGET", 20)
    with pytest.raises(decider.CapExceeded) as info:
        decider.decide(octahedron,
                       decider.Predicate("ab-outer", a=0, b=1, geometric=True),
                       cap=12)
    assert info.value.limit == "insertion_budget"
    assert info.value.stats.insertions == 21
    capsys.readouterr()
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "CAP EXCEEDED: rotation search exceeds 20 insertion steps\n")
    got = json.loads(report.read_text())
    assert got["answer"] is None and got["cap_exceeded"] == "insertion_budget"
    assert got["embeddings_enumerated"] == 1
    assert got["stats"] == {"assignments": 63, "crossing_lower_bound": 0,
                            "face_bound_rejections": 61,
                            "planarity_tests": 2, "planarity_failed": 1,
                            "density_rejections": 0, "insertions": 21,
                            "rotation_systems": 0, "valid_embeddings": 1,
                            "outer_faces_checked": 10, "bw_candidates": 7,
                            "memo_hits": 0}


@pytest.mark.parametrize("options, written", [
    ([], True),
    (["--pred", "a-outer", "--a", "0"], False),
    (["--pred", "ab-outer", "--a", "0", "--b", "1"], False),
    (["--pred", "ab-shared", "--a", "0", "--b", "4"], False),
    (["--geometric"], False),
])
def test_decide_disconnected_witness_only_for_plain(tmp_path, capsys,
                                                    options, written):
    """On a disconnected graph only a topological plain YES merges the
    components' witnesses; any other YES writes no witness file."""
    g = Graph.build([(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)])
    infile = write_graph(tmp_path, "two.edges", g)
    witness = tmp_path / "w.json"
    assert main(["decide", "--in", infile, "--witness", str(witness),
                 *options]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert witness.exists() == written
    if written:
        assert main(["check-embedding", "--in", str(witness)]) == 0


def test_bounds(capsys):
    assert main(["bounds", "--variant", "1p", "--ell", "3"]) == 0
    assert capsys.readouterr().out.strip() == "252"
    assert main(["bounds", "--triangulation", "4"]) == 0
    assert capsys.readouterr().out.strip() == "29"


def test_check_embedding_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    emb = k5_one_crossing()
    obj = json.loads(embedding_to_json(emb))
    obj["rotation"]["5"] = obj["rotation"]["5"][::-1]  # break alternation?
    obj["rotation"]["5"][0], obj["rotation"]["5"][1] = (
        obj["rotation"]["5"][1], obj["rotation"]["5"][0])
    bad.write_text(json.dumps(obj))
    code = main(["check-embedding", "--in", str(bad)])
    out = capsys.readouterr().out
    assert code == 1 and "INVALID" in out


def test_kernelize_cli(tmp_path):
    infile = write_graph(tmp_path, "theta.edges", theta_graph((1, 10, 10)))
    out = str(tmp_path / "kernel.edges")
    report = str(tmp_path / "report.json")
    assert main(["kernelize", "--variant", "1p", "--in", infile,
                 "--out", out, "--report", report]) == 0
    kernel = parse_edge_list(Path(out).read_text())
    assert kernel.m == 7
    payload = json.loads(Path(report).read_text())
    assert payload["j"] == 2 and payload["threshold"] == 3


def test_kernelize_report_provenance_when_no_path_is_shortened(tmp_path):
    """K4 less an edge plus the pendant edge 0 9: no path meets its
    threshold, so every path is kept, and the provenance is keyed by the
    edge ids of the written kernel, not those of the input."""
    infile = tmp_path / "in.edges"
    infile.write_text("0 1\n0 2\n0 9\n1 2\n1 3\n2 3\n")
    out, report = tmp_path / "kernel.edges", tmp_path / "report.json"
    assert main(["kernelize", "--variant", "1p", "--in", str(infile),
                 "--out", str(out), "--report", str(report)]) == 0
    assert out.read_text() == "0 1\n0 2\n1 2\n1 3\n2 3\n"
    payload = json.loads(report.read_text())
    assert payload["j"] is None and payload["threshold"] is None
    assert payload["classification"] == ["kept"] * payload["p"]
    assert list(payload["provenance"]) == [str(e) for e in range(5)]
    assert payload["edges"] == 5


def test_td_run_cli(tmp_path, capsys):
    infile = write_graph(tmp_path, "k4.edges", complete_graph(4))
    log = str(tmp_path / "log.json")
    assert main(["td-run", "--in", infile, "--log", log]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    payload = json.loads(Path(log).read_text())
    assert payload["result"] == "decided"


def test_td_run_disconnected_remainder(tmp_path, capsys):
    # Rule II deletes children 2 and 3 of node 1; what is left is the two
    # disjoint edges 0-4 and 1-5, which Phase II handles per component
    infile = tmp_path / "g.edges"
    infile.write_text("0 2\n1 2\n0 3\n1 3\n0 4\n1 5\n")
    dec = tmp_path / "td.txt"
    dec.write_text("0 -1\n1 0\n2 1\n3 1\n4 0\n5 1\n")
    log = tmp_path / "log.json"
    assert main(["td-run", "--in", str(infile), "--decomposition", str(dec),
                 "--override-thresholds", '{"rule2-baseline": 0}',
                 "--log", str(log)]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    payload = json.loads(log.read_text())
    assert [(d["rule"], d["child"]) for d in payload["deletions"]] == [
        ("II", 2), ("II", 3)]
    assert payload["remaining_vertices"] == [0, 1, 4, 5]


def test_td_run_accepts_a_decomposition_of_a_disconnected_graph(
        tmp_path, capsys):
    # the chain 0-2-1-3 is valid for the edges 01 and 23, but cut at the
    # components it leaves 0 and 1 as two roots; normalizing first keeps
    # each component's ancestry
    infile = tmp_path / "g.edges"
    infile.write_text("0 1\n2 3\n")
    dec = tmp_path / "td.txt"
    dec.write_text("0 -1\n2 0\n1 2\n3 1\n")
    assert main(["td-run", "--in", str(infile),
                 "--decomposition", str(dec)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "YES" and captured.err == ""


def test_td_run_accepts_deep_decomposition_listed_child_first(
        tmp_path, capsys):
    # a chain deeper than the interpreter's recursion limit
    n = 1200
    infile = tmp_path / "cycle.edges"
    infile.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    dec = tmp_path / "td.txt"
    dec.write_text("".join(f"{i} {i - 1}\n" for i in reversed(range(n))))
    assert main(["td-run", "--in", str(infile),
                 "--decomposition", str(dec)]) == 3
    captured = capsys.readouterr()
    assert captured.out.strip() == "REDUCED" and captured.err == ""


@pytest.mark.parametrize("doc", [
    "[]",
    '{"vertices": [0, 1], "edges": [[0, 1]], "crossings": [],'
    ' "rotation": [], "outer": [0, 0]}',
    '{"vertices": [0, 1], "edges": [[0, "1"]], "crossings": [],'
    ' "rotation": {}, "outer": null}',
    '{"vertices": [0, 1]}',
])
def test_check_embedding_wrong_shape(tmp_path, capsys, doc):
    path = tmp_path / "emb.json"
    path.write_text(doc)
    assert main(["check-embedding", "--in", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID: shape: ") and len(out.splitlines()) == 1


def test_gen_binpack_cli(tmp_path):
    out = str(tmp_path / "instance.edges")
    wdir = str(tmp_path / "witnesses")
    assert main(["gen-binpack", "--items", "3,1,2,2", "--bins", "2",
                 "--capacity", "4", "--raw", "--out", out,
                 "--witnesses", wdir]) == 0
    fvs = (Path(wdir) / "fvs.txt").read_text().split()
    assert len(fvs) == 48
    bags = (Path(wdir) / "path_decomposition.txt").read_text().splitlines()
    assert all(len(b.split()) <= 16 for b in bags)


def test_gen_replace_and_lift(tmp_path, capsys):
    graph = write_graph(tmp_path, "p3.edges", theta_graph((2, 2)))
    gadget = tmp_path / "gadget.json"
    gadget.write_text(json.dumps(
        {"edges": [[0, 1], [1, 2], [0, 2]], "alpha": 0, "beta": 1}))
    out = str(tmp_path / "replaced.edges")
    assert main(["gen-replace", "--graph", graph, "--gadget", str(gadget),
                 "--out", out]) == 0

    ordering = tmp_path / "order.txt"
    g = parse_edge_list(Path(graph).read_text())
    ordering.write_text("\n".join(
        f"{v} {i+1}" for i, v in enumerate(sorted(g.vertices))) + "\n")
    assert main(["lift-bandwidth", "--graph", graph, "--ordering",
                 str(ordering), "--gadget", str(gadget)]) == 0
    line = capsys.readouterr().out.strip()
    measured, bound = int(line.split()[1]), int(line.split()[3])
    assert measured <= bound


def test_convex_cert_cli(tmp_path):
    infile = write_graph(tmp_path, "theta.edges", theta_graph((2, 2, 2)))
    out = str(tmp_path / "coords.txt")
    assert main(["convex-cert", "--in", infile, "--out", out]) == 0
    assert len(Path(out).read_text().splitlines()) == 5


def test_convex_cert_of_no_edges_is_an_empty_file(tmp_path):
    infile = tmp_path / "empty.edges"
    infile.write_text("")
    out = tmp_path / "coords.txt"
    assert main(["convex-cert", "--in", str(infile), "--out", str(out)]) == 0
    assert out.read_bytes() == b""
    out.write_bytes(JUNK)  # and written over a longer file
    assert main(["convex-cert", "--in", str(infile), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_lift_bandwidth_of_an_empty_graph_writes_an_empty_file(tmp_path,
                                                               capsys):
    graph, ordering = tmp_path / "empty.edges", tmp_path / "order.txt"
    graph.write_text("")
    ordering.write_text("")
    gadget = tmp_path / "gadget.json"
    gadget.write_text(json.dumps(
        {"edges": [[0, 1], [1, 2], [0, 2]], "alpha": 0, "beta": 1}))
    out, graph_out = tmp_path / "order.out", tmp_path / "lifted.edges"
    assert main(["lift-bandwidth", "--graph", str(graph), "--ordering",
                 str(ordering), "--gadget", str(gadget), "--out", str(out),
                 "--graph-out", str(graph_out)]) == 0
    assert capsys.readouterr().out == "bandwidth 0 bound 1\n"
    assert out.read_bytes() == b"" and graph_out.read_bytes() == b""


def test_simplify_cli_round_trip(tmp_path):
    host = bowtie_c4()
    sys_ = arc_system(host, static_edges=[])
    blob = arc_system_to_json(sys_)
    again = arc_system_to_json(arc_system_from_json(blob))
    assert blob == again

    infile = tmp_path / "system.json"
    infile.write_text(blob)
    out = str(tmp_path / "simplified.json")
    report = str(tmp_path / "report.json")
    assert main(["simplify", "--in", str(infile), "--out", out,
                 "--report", report]) == 0
    payload = json.loads(Path(report).read_text())
    assert payload["rule1_steps"] == 1 and payload["crossings"] == 0
    arc_system_from_json(Path(out).read_text())  # output revalidates


# An arc system whose `simplify` output lets two edges with a common
# endpoint cross: reshorten builds its embedding without the check that
# build_embedding makes, and validate_embedding does not repeat it.
ADJACENT_CROSSING_SYSTEM = {
    "arcs": [[1, 5, 6, 2], [3, 7, 8, 4]],
    "crossings": [[0, 6], [2, 7]],
    "edges": [[0, 1], [0, 2], [0, 4], [0, 5], [0, 7], [2, 3], [3, 4],
              [5, 6], [6, 7]],
    "outer": [0, 0, 0],
    "rotation": {"0": [[0, 0, 0], [1, 0], [4, 0], [2, 0, 0], [3, 0]],
                 "1": [[0, 1, 1]],
                 "2": [[1, 1], [5, 0]],
                 "3": [[5, 1], [6, 0, 0]],
                 "4": [[2, 1, 1], [6, 1, 1]],
                 "5": [[3, 1], [7, 0, 0]],
                 "6": [[7, 1, 1], [8, 0]],
                 "7": [[4, 1], [8, 1]],
                 "8": [[0, 1, 0], [6, 0, 1], [0, 0, 1], [6, 1, 0]],
                 "9": [[2, 1, 0], [7, 0, 1], [2, 0, 1], [7, 1, 0]]},
    "static": [0],
    "vertices": [0, 1, 2, 3, 4, 5, 6, 7],
}


@pytest.mark.xfail(strict=True,
                   reason="simplify output can cross adjacent edges")
def test_simplify_output_passes_check_embedding(tmp_path, capsys):
    infile = tmp_path / "system.json"
    infile.write_text(json.dumps(ADJACENT_CROSSING_SYSTEM))
    out = str(tmp_path / "simplified.json")
    assert main(["simplify", "--in", str(infile), "--out", out]) == 0
    capsys.readouterr()
    assert main(["check-embedding", "--in", out]) == 0
    assert capsys.readouterr().out.startswith("OK: ")


# The default geometric target is max(2 chi, s + f - 1, 3) for the most
# crossings chi on one arc, but reshorten's demand is 2 chi + 1 plus the end
# margins, so this system fails with "target 4 below crossing demand 7 of
# arc 1"; with --target 7 its output passes check-embedding.
@pytest.mark.xfail(strict=True,
                   reason="default geometric target below reshorten's demand")
def test_simplify_geometric_default_target_meets_demand(tmp_path, capsys):
    infile = tmp_path / "system.json"
    infile.write_text(arc_system_to_json(random_arc_system(random.Random(0))))
    out = str(tmp_path / "simplified.json")
    assert main(["simplify", "--in", str(infile), "--out", out,
                 "--geometric"]) == 0
    capsys.readouterr()
    assert main(["check-embedding", "--in", out]) == 0
    assert capsys.readouterr().out.startswith("OK: ")


def test_cli_deterministic(tmp_path):
    infile = write_graph(tmp_path, "theta.edges", theta_graph((1, 10, 10)))
    outs = []
    for i in (1, 2):
        out = tmp_path / f"kernel{i}.edges"
        main(["kernelize", "--variant", "g1p", "--in", infile,
              "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Error contract: malformed input exits 1 with one ERROR line
# ---------------------------------------------------------------------------

GADGET = json.dumps({"edges": [[0, 1], [1, 2], [0, 2]], "alpha": 0, "beta": 1})
TD_RUN = ["td-run", "--in", "@graph", "--override-thresholds"]
TD_DEC = ["td-run", "--in", "@graph", "--decomposition", "@bad"]
SIMPLIFY = ["simplify", "--in", "@bad", "--out", "@out", "--target"]
BOWTIE = arc_system_to_json(arc_system(bowtie_c4(), []))
LIFT = ["lift-bandwidth", "--graph", "@graph", "--ordering", "@bad",
        "--gadget", "@gadget"]
GEN_REPLACE = ["gen-replace", "--graph", "@graph", "--gadget", "@bad",
               "--out", "@out"]

NOT_UTF8 = b"\xff\xfe\x00garbage"

# name -> (argv with @placeholders, text or bytes of the @bad file)
MALFORMED = {
    "edge-file": (["decide", "--in", "@bad"], "0 1\n1 x\n"),
    "edge-file-not-utf8": (["decide", "--in", "@bad"], NOT_UTF8),
    "decomposition-file": (TD_DEC, "0 -1\n1 x\n"),
    "decomposition-not-utf8": (TD_DEC, NOT_UTF8),
    "decomposition-foreign-parent": (TD_DEC, "0 -1\n1 0\n2 7\n"),
    "decomposition-cycle-below-root": (TD_DEC, "0 -1\n1 2\n2 1\n"),
    "decomposition-no-root": (TD_DEC, "0 1\n1 0\n2 0\n"),
    "decomposition-duplicate-vertex": (TD_DEC, "0 -1\n1 0\n2 0\n2 1\n"),
    "ordering-file": (LIFT, "0 1\n1 x\n"),
    "ordering-not-utf8": (LIFT, NOT_UTF8),
    "ordering-misses-vertex": (LIFT, "0 1\n1 2\n"),
    "ordering-duplicate-vertex": (LIFT, "0 3\n1 2\n2 3\n0 1\n"),
    "items": (["gen-binpack", "--items", "3,x", "--bins", "2",
               "--capacity", "4", "--out", "@out"], None),
    "thresholds-syntax": (TD_RUN + ["{rule1: 1"], None),
    "thresholds-not-object": (TD_RUN + ["[1]"], None),
    "thresholds-unknown-key": (TD_RUN + ['{"rule2_baseline": 1}'], None),
    "thresholds-not-integer": (TD_RUN + ['{"rule1": "3"}'], None),
    "gadget-syntax": (GEN_REPLACE, '{"edges": [[0, 1]'),
    "gadget-no-alpha": (GEN_REPLACE, '{"edges": [[0, 1]], "beta": 1}'),
    "simplify-json": (["simplify", "--in", "@bad", "--out", "@out"],
                      '{"vertices": ['),
    # an explicit target is used as given, never replaced by the default
    "simplify-target-zero": (SIMPLIFY + ["0"], BOWTIE),
    "simplify-target-negative": (SIMPLIFY + ["-1"], BOWTIE),
    # a size past 4300 digits, which str() refuses, and gkp stops at once
    # instead of squaring numbers of millions of digits
    "bounds-gkp-ell-5": (["bounds", "--variant", "gkp", "--ell", "5"], None),
    "bounds-1p-ell-5000": (["bounds", "--variant", "1p", "--ell", "5000"],
                           None),
    "bounds-g1p-ell-3100": (["bounds", "--variant", "g1p", "--ell", "3100"],
                            None),
    "bounds-triangulation-3001-digits": (
        ["bounds", "--triangulation", "9" * 3001], None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_one_with_one_line(tmp_path, capsys, case):
    argv, bad = MALFORMED[case]
    files = {"@graph": "0 1\n1 2\n", "@gadget": GADGET, "@bad": bad}
    paths = {"@out": str(tmp_path / "out")}
    for name, text in files.items():
        if text is not None:
            paths[name] = str(tmp_path / name[1:])
            Path(paths[name]).write_bytes(
                text if isinstance(text, bytes) else text.encode())
    assert main([paths.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("ERROR: ")


@pytest.mark.parametrize("key", ["rule1", "rule2-baseline", "rule2-reject",
                                 "rule3-reject"])
def test_td_run_rejects_a_negative_threshold(tmp_path, capsys, key):
    """A negative Rule II baseline would slice ``sorted(children)[-1:]`` and
    test only the last child of K2,N+ab; every negative threshold ends in
    one ERROR line, before the pipeline runs or a log is written."""
    g = Graph.build([(0, 1)] + [(a, v) for a in (0, 1) for v in range(2, 40)])
    dec = tmp_path / "td.txt"
    dec.write_text("0 -1\n1 0\n" + "".join(f"{v} 1\n" for v in range(2, 40)))
    log = tmp_path / "log.json"
    assert main(["td-run", "--in", write_graph(tmp_path, "g.edges", g),
                 "--decomposition", str(dec), "--log", str(log),
                 "--override-thresholds", json.dumps({key: -1})]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not log.exists()
    assert err.startswith("ERROR: ") and len(err.splitlines()) == 1
    assert "non-negative" in err


# ---------------------------------------------------------------------------
# Error contract: a path that cannot be read or written exits 2
# ---------------------------------------------------------------------------

UNUSABLE_PATH = {
    "input-missing": ["decide", "--in", "@missing"],
    "input-is-directory": ["decide", "--in", "@dir"],
    "output-is-directory": ["convex-cert", "--in", "@graph", "--out", "@dir"],
    "witnesses-is-file": ["gen-binpack", "--items", "3,1,2,2", "--bins", "2",
                          "--capacity", "4", "--raw", "--out", "@out",
                          "--witnesses", "@graph"],
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_PATH))
def test_unusable_path_exits_two_with_one_line(tmp_path, capsys, case):
    graph = write_graph(tmp_path, "theta.edges", theta_graph((2, 2, 2)))
    paths = {"@graph": graph,
             "@dir": str(tmp_path), "@missing": str(tmp_path / "missing"),
             "@out": str(tmp_path / "out")}
    assert main([paths.get(a, a) for a in UNUSABLE_PATH[case]]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("ERROR: ")


# ---------------------------------------------------------------------------
# Output files are written over in place and cut to length
# ---------------------------------------------------------------------------

# name -> argv; @name is an input file, @@name an output path under the
# output directory, @@dir/ a --witnesses directory
REWRITES = {
    "decide": ["decide", "--in", "@k5", "--witness", "@@w.json",
               "--report", "@@r.json"],
    "td-run": ["td-run", "--in", "@theta", "--log", "@@log.json"],
    "kernelize": ["kernelize", "--variant", "1p", "--in", "@theta",
                  "--out", "@@kernel.edges", "--report", "@@r.json"],
    "simplify": ["simplify", "--in", "@bowtie", "--out", "@@out.json",
                 "--report", "@@r.json"],
    "convex-cert": ["convex-cert", "--in", "@theta", "--out", "@@coords"],
    "gen-binpack": ["gen-binpack", "--items", "3,1,2,2", "--bins", "2",
                    "--capacity", "4", "--out", "@@inst.edges",
                    "--witnesses", "@@dir/", "--report", "@@r.json"],
    "gen-replace": ["gen-replace", "--graph", "@theta", "--gadget",
                    "@gadget", "--out", "@@out.edges"],
    "lift-bandwidth": ["lift-bandwidth", "--graph", "@theta", "--ordering",
                       "@order", "--gadget", "@gadget", "--out", "@@order",
                       "--graph-out", "@@lifted.edges"],
    "check-embedding": ["check-embedding", "--in", "@emb", "--bw", "@@bw"],
}


def rewrite_inputs(tmp_path: Path) -> dict[str, str]:
    theta = theta_graph((2, 2, 2))
    texts = {
        "k5": format_edge_list(complete_graph(5)),
        "theta": format_edge_list(theta),
        "bowtie": BOWTIE,
        "gadget": GADGET,
        "order": "".join(f"{v} {i + 1}\n"
                         for i, v in enumerate(sorted(theta.vertices))),
        "emb": embedding_to_json(k5_one_crossing()),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {f"@{name}": str(tmp_path / name) for name in texts}


def run_into(argv: list[str], inputs: dict[str, str], out: Path) -> dict:
    """Run ``argv`` with its outputs under ``out``; return every output
    file's bytes by name."""
    args = [inputs.get(a) or (str(out / a[2:]) if a.startswith("@@") else a)
            for a in argv]
    assert main(args) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(REWRITES))
def test_rewrite_over_a_longer_file_leaves_no_tail(tmp_path, capsys, case):
    inputs = rewrite_inputs(tmp_path)
    fresh, junk = tmp_path / "fresh", tmp_path / "junk"
    fresh.mkdir()
    junk.mkdir()
    for a in REWRITES[case]:
        if a == "@@dir/":
            (junk / "dir").mkdir()
            for name in ("fvs.txt", "path_decomposition.txt"):
                (junk / "dir" / name).write_bytes(JUNK)
        elif a.startswith("@@"):
            (junk / a[2:]).write_bytes(JUNK)
    want = run_into(REWRITES[case], inputs, fresh)
    assert want and all(len(b) < len(JUNK) for b in want.values())
    assert run_into(REWRITES[case], inputs, junk) == want


def test_outputs_to_dev_null(tmp_path, capsys):
    k5 = write_graph(tmp_path, "k5.edges", complete_graph(5))
    theta = write_graph(tmp_path, "theta.edges", theta_graph((1, 10, 10)))
    assert main(["decide", "--in", k5]) == 0
    assert main(["kernelize", "--variant", "1p", "--in", theta,
                 "--out", str(tmp_path / "kernel.edges")]) == 0
    want = capsys.readouterr().out
    assert main(["decide", "--in", k5, "--witness", os.devnull,
                 "--report", os.devnull]) == 0
    assert main(["kernelize", "--variant", "1p", "--in", theta,
                 "--out", os.devnull]) == 0
    assert capsys.readouterr().out == want


def test_output_to_a_pipe(tmp_path):
    k4 = write_graph(tmp_path, "k4.edges", complete_graph(4))
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "oneplanar.cli", "kernelize", "--variant",
         "kp", "--k", "2", "--in", k4, "--out", "/dev/stdout"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    res = kernel.kernelize(complete_graph(4), "kplanar", k=2)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == format_edge_list(res.kernel)


def test_new_output_file_mode_follows_umask(tmp_path):
    infile = write_graph(tmp_path, "theta.edges", theta_graph((2, 2, 2)))
    out = tmp_path / "coords.txt"
    old = os.umask(0o022)
    try:
        assert main(["convex-cert", "--in", infile, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644  # as Path.write_text gives


def test_rewrite_keeps_the_file_its_inode_and_mode(tmp_path, capsys):
    k5 = write_graph(tmp_path, "k5.edges", complete_graph(5))
    fresh, report = tmp_path / "fresh.json", tmp_path / "r.json"
    assert main(["decide", "--in", k5, "--report", str(fresh)]) == 0
    report.write_bytes(JUNK)
    report.chmod(0o600)
    inode = report.stat().st_ino
    assert main(["decide", "--in", k5, "--report", str(report)]) == 0
    assert report.read_bytes() == fresh.read_bytes()
    assert report.stat().st_ino == inode
    assert report.stat().st_mode & 0o777 == 0o600


# ---------------------------------------------------------------------------
# One parser per process, and no state carried from one call to the next
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_parser():
    build_parser.cache_clear()


def test_parser_built_once_per_process(tmp_path, monkeypatch, capsys,
                                       fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    theta = write_graph(tmp_path, "theta.edges", theta_graph((2, 2, 2)))
    out = str(tmp_path / "out")
    calls = [["decide", "--in", theta], ["td-run", "--in", theta],
             ["bounds", "--triangulation", "5"],
             ["convex-cert", "--in", theta, "--out", out],
             ["kernelize", "--variant", "1p", "--in", theta, "--out", out]]
    for argv in calls * 4:
        assert main(argv) == 0
    # the top parser and one parser per subcommand, all from the first call
    assert 0 < len(built) <= 11


def test_decide_outputs_do_not_carry_over(tmp_path, capsys, fresh_parser):
    k4 = write_graph(tmp_path, "k4.edges", complete_graph(4))
    k5 = write_graph(tmp_path, "k5.edges", complete_graph(5))
    assert main(["decide", "--in", k4, "--witness", str(tmp_path / "w.json"),
                 "--report", str(tmp_path / "r.json")]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["decide", "--in", k5]) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert capsys.readouterr().out.split() == ["YES", "YES"]


def test_td_run_overrides_do_not_carry_over(tmp_path, capsys, fresh_parser):
    graph = write_graph(tmp_path, "theta.edges", theta_graph((2, 2, 2)))
    log = tmp_path / "log.json"

    def run(*options) -> bytes:
        assert main(["td-run", "--in", graph, "--log", str(log),
                     *options]) == 0
        return log.read_bytes()

    overridden = run("--override-thresholds", '{"rule2-baseline": 1}')
    after = run()
    build_parser.cache_clear()
    assert after == run() != overridden


def test_bounds_options_do_not_carry_over(capsys, fresh_parser):
    assert main(["bounds", "--triangulation", "5"]) == 0
    assert main(["bounds", "--variant", "1p", "--ell", "2"]) == 0
    assert capsys.readouterr().out.split() == [
        str(kernel.triangulation_bound(5)),
        str(kernel.worst_case_size(2, "1planar"))]


def test_module_entry_point_reads_sys_argv(tmp_path):
    k4 = write_graph(tmp_path, "k4.edges", complete_graph(4))
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "oneplanar.cli", "decide", "--in", k4],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "YES\n", "")
