"""The report writer of the CLI against ``json.dumps(x, sort_keys=True,
indent=2)``: on generated values, on the payload of every ``--report`` and
``--log`` subcommand, and on the types it refuses."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oneplanar import cli  # noqa: E402
from oneplanar.cli import _json_text, main  # noqa: E402
from oneplanar.graph import Graph, format_edge_list  # noqa: E402
from oneplanar.surgery import arc_system, arc_system_to_json  # noqa: E402

from conftest import complete_graph, theta_graph  # noqa: E402
from test_surgery import bowtie_c4  # noqa: E402


def dumps(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2)


ESCAPES = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                           "é", " ", "\U0001f600", "\ud800", "/"])
STRINGS = st.one_of(st.text(max_size=8),
                    st.lists(ESCAPES, max_size=6).map("".join))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                   st.integers(), st.integers(-2 ** 80, 2 ** 80), STRINGS)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(x):
    assert _json_text(x) == dumps(x)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(STRINGS, VALUES, max_size=4), VALUES)
def test_writer_matches_json_dumps_on_a_dict_met_twice(d, x):
    """The same dict at one depth (encoded once) and at another."""
    payload = {"a": [d, x, d], "b": [d], "c": d, "d": {"e": d}}
    assert _json_text(payload) == dumps(payload)


def test_bool_is_not_an_int_and_empty_containers_stay_short():
    x = {"t": True, "f": False, "one": 1, "zero": 0, "n": None,
         "e": [[], {}, ()], "big": -10 ** 30}
    assert _json_text(x) == dumps(x)
    assert '"t": true' in _json_text(x) and '"one": 1' in _json_text(x)


def test_a_dict_met_twice_at_one_depth_is_read_once():
    reads = []

    class Counting(dict):
        def __getitem__(self, k):
            reads.append(k)
            return dict.__getitem__(self, k)

    d = Counting(x=1)
    payload = {"a": [d, d], "b": [d], "c": d}
    assert _json_text(payload) == dumps(payload)
    # once at depth 2 (a and b), once at depth 1 (c)
    assert reads == ["x", "x"]


@pytest.mark.parametrize("bad", [1.5, {1, 2}, {"x": [0.0]}, [frozenset()],
                                 {1: "x"}, {("a",): 1}])
def test_writer_refuses_what_it_does_not_take(bad):
    with pytest.raises(TypeError):
        _json_text(bad)


GADGET = {"edges": [[0, 1], [1, 2], [0, 2]], "alpha": 0, "beta": 1}


def report_calls(tmp_path: Path) -> list[list[str]]:
    """One call of every subcommand that writes a --report or --log."""
    k5 = tmp_path / "k5.edges"
    k5.write_text(format_edge_list(complete_graph(5)))
    theta = tmp_path / "theta.edges"
    theta.write_text(format_edge_list(theta_graph((1, 10, 10))))
    p3 = tmp_path / "p3.edges"
    p3.write_text(format_edge_list(theta_graph((2, 2))))
    gadget = tmp_path / "gadget.json"
    gadget.write_text(json.dumps(GADGET))
    order = tmp_path / "order.txt"
    order.write_text("".join(f"{v} {v + 1}\n" for v in range(4)))
    system = tmp_path / "system.json"
    system.write_text(arc_system_to_json(arc_system(bowtie_c4(), [])))
    k2n = tmp_path / "k2n.edges"
    k2n.write_text(format_edge_list(Graph.build(
        [(0, 1)] + [(a, v) for a in (0, 1) for v in range(2, 24)])))
    dec = tmp_path / "k2n.td"
    dec.write_text("0 -1\n1 0\n" + "".join(f"{v} 1\n" for v in range(2, 24)))
    out = str(tmp_path / "out")
    return [
        ["decide", "--in", str(k5), "--geometric", "--report", "@"],
        ["kernelize", "--variant", "1p", "--in", str(theta), "--out", out,
         "--report", "@"],
        ["simplify", "--in", str(system), "--out", out, "--report", "@"],
        ["td-run", "--in", str(k2n), "--decomposition", str(dec),
         "--log", "@"],
        ["td-run", "--in", str(theta), "--log", "@"],
        ["gen-binpack", "--items", "3,1,2,2", "--bins", "2", "--capacity",
         "4", "--out", out, "--report", "@"],
        ["gen-replace", "--graph", str(p3), "--gadget", str(gadget),
         "--out", out, "--report", "@"],
        ["lift-bandwidth", "--graph", str(p3), "--ordering", str(order),
         "--gadget", str(gadget), "--report", "@"],
    ]


def test_every_report_is_what_json_dumps_writes(tmp_path, monkeypatch,
                                                capsys):
    payloads = []
    real = cli._report

    def recording(path, payload):
        payloads.append(payload)
        real(path, payload)

    monkeypatch.setattr(cli, "_report", recording)
    for i, argv in enumerate(report_calls(tmp_path)):
        report = tmp_path / f"report{i}.json"
        main([str(report) if a == "@" else a for a in argv])
        assert report.read_text() == dumps(payloads[-1]) + "\n", argv[0]
    assert len(payloads) == 8
    # the K2,N log holds each of its delete events twice, as one object
    logged = {id(ev) for ev in payloads[3]["log"]}
    assert len(payloads[3]["deletions"]) == 13
    assert all(id(ev) in logged for ev in payloads[3]["deletions"])
