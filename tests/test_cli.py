from __future__ import annotations

import json
from pathlib import Path

import pytest

from oneplanar.cli import arc_system_from_json, arc_system_to_json, main
from oneplanar.embedding import embedding_to_json
from oneplanar.graph import format_edge_list, parse_edge_list
from oneplanar.surgery import arc_system

from conftest import complete_graph, theta_graph
from test_embedding import k5_one_crossing
from test_surgery import bowtie_c4


def write_graph(tmp_path: Path, name: str, g) -> str:
    path = tmp_path / name
    path.write_text(format_edge_list(g))
    return str(path)


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


def test_decide_cap_exit_code(tmp_path):
    infile = write_graph(tmp_path, "k6.edges", complete_graph(6))
    assert main(["decide", "--in", infile, "--cap", "11"]) == 3


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


def test_td_run_cli(tmp_path, capsys):
    infile = write_graph(tmp_path, "k4.edges", complete_graph(4))
    log = str(tmp_path / "log.json")
    assert main(["td-run", "--in", infile, "--log", log]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    payload = json.loads(Path(log).read_text())
    assert payload["result"] == "decided"


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
LIFT = ["lift-bandwidth", "--graph", "@graph", "--ordering", "@bad",
        "--gadget", "@gadget"]
GEN_REPLACE = ["gen-replace", "--graph", "@graph", "--gadget", "@bad",
               "--out", "@out"]

# name -> (argv with @placeholders, text of the @bad file)
MALFORMED = {
    "edge-file": (["decide", "--in", "@bad"], "0 1\n1 x\n"),
    "decomposition-file": (TD_DEC, "0 -1\n1 x\n"),
    "decomposition-foreign-parent": (TD_DEC, "0 -1\n1 0\n2 7\n"),
    "ordering-file": (LIFT, "0 1\n1 x\n"),
    "ordering-misses-vertex": (LIFT, "0 1\n1 2\n"),
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_one_with_one_line(tmp_path, capsys, case):
    argv, bad = MALFORMED[case]
    files = {"@graph": "0 1\n1 2\n", "@gadget": GADGET, "@bad": bad}
    paths = {"@out": str(tmp_path / "out")}
    for name, text in files.items():
        if text is not None:
            paths[name] = str(tmp_path / name[1:])
            Path(paths[name]).write_text(text)
    assert main([paths.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("ERROR: ")
