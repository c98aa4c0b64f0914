"""Fuzz the input files of the CLI (pair-per-line files, and the JSON of
embeddings, arc systems and gadgets): whatever the text, or bytes that need
not be UTF-8, a run exits 0, 1 or 3 and an error is one ``ERROR:`` line
(``INVALID:`` for check-embedding), never a traceback."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oneplanar.cli import main  # noqa: E402
from oneplanar.embedding import embedding_to_json  # noqa: E402
from oneplanar.surgery import arc_system, arc_system_to_json  # noqa: E402

from test_embedding import k5_one_crossing  # noqa: E402
from test_surgery import bowtie_c4  # noqa: E402

EXAMPLES = 15  # per file kind; keeps the suite fast

TOKEN = st.one_of(st.integers(-2, 6).map(str),
                  st.sampled_from(["x", "#", "-", "+1", "1.5", "0x1", "", "\t"]))
LINE = st.lists(TOKEN, max_size=4).map(" ".join)
TEXT = st.one_of(
    st.lists(LINE, max_size=8).map("\n".join),
    st.text(st.characters(min_codepoint=9, max_codepoint=126), max_size=40))

# JSON documents: a valid one with one value replaced or one key dropped,
# or any JSON value at all
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 12),
              st.sampled_from(["", "x", "0", "1.5"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["0", "1", "x", "edges", "outer"]),
                        inner, max_size=3)),
    max_leaves=8)
DROP = object()


def slots(doc):
    """(container, key) of every value inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


@st.composite
def mutated(draw, text: str) -> str:
    doc = json.loads(text)
    where = draw(st.sampled_from([(None, None)] + list(slots(doc))))
    value = draw(st.one_of(JSON, st.just(DROP)))
    holder, key = where
    if holder is None:
        doc = None if value is DROP else value
    elif value is not DROP:
        holder[key] = value
    elif isinstance(holder, dict):
        del holder[key]
    else:
        holder.pop(key)
    return json.dumps(doc)


# fixed tiny inputs next to the fuzzed file
GRAPH = "0 1\n1 2\n0 2\n2 3\n"
GADGET = json.dumps({"edges": [[0, 1], [1, 2], [0, 2]], "alpha": 0, "beta": 1})
COMMANDS = {
    "edges": ["decide", "--in", "@fuzz", "--cap", "4"],
    "decomposition": ["td-run", "--in", "@graph", "--decomposition", "@fuzz"],
    "ordering": ["lift-bandwidth", "--graph", "@graph", "--ordering", "@fuzz",
                 "--gadget", "@gadget"],
    "embedding": ["check-embedding", "--in", "@fuzz"],
    "arc-system": ["simplify", "--in", "@fuzz", "--out", "@out"],
    "gadget": ["gen-replace", "--graph", "@graph", "--gadget", "@fuzz",
               "--out", "@out"],
}
# the valid document each JSON kind mutates
VALID = {
    "embedding": embedding_to_json(k5_one_crossing()),
    "arc-system": arc_system_to_json(arc_system(bowtie_c4(), [1])),
    "gadget": GADGET,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "graph").write_text(GRAPH)
    (d / "gadget").write_text(GADGET)
    return d


def run_on(workdir, kind: str, text: str | bytes) -> tuple[int, str, str]:
    (workdir / "fuzz").write_bytes(
        text if isinstance(text, bytes) else text.encode())
    argv = [str(workdir / a[1:]) if a.startswith("@") else a
            for a in COMMANDS[kind]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        if kind == "embedding" and not lines:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("INVALID: ")
        else:
            assert len(lines) == 1 and lines[0].startswith("ERROR: ")
    return code, out.getvalue(), err.getvalue()


def fuzz(workdir, kind: str, texts) -> None:
    @settings(max_examples=EXAMPLES, deadline=None, database=None,
              derandomize=True)
    @given(texts)
    def check(text):
        run_on(workdir, kind, text)

    check()


@pytest.mark.parametrize("kind", sorted(set(COMMANDS) - set(VALID)))
def test_pair_files_never_crash(workdir, kind):
    fuzz(workdir, kind, TEXT | st.binary(max_size=40))


@pytest.mark.parametrize("kind", sorted(VALID))
def test_json_files_never_crash(workdir, kind):
    fuzz(workdir, kind, mutated(VALID[kind]) | TEXT)


def test_empty_documents(workdir):
    """The empty embedding is valid, has no outer face and no B/W
    configuration; an arc system needs a host with an edge."""
    empty = {"vertices": [], "edges": [], "crossings": [], "rotation": {},
             "outer": None}
    code, out, _ = run_on(workdir, "embedding", json.dumps(empty))
    assert (code, out) == (0, "OK: 0 faces, no outer face\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-embedding", "--in", str(workdir / "fuzz"),
                     "--bw", str(workdir / "bw")]) == 0
    assert (workdir / "bw").read_text() == "[]\n"
    code, _, _ = run_on(workdir, "arc-system",
                        json.dumps({**empty, "static": []}))
    assert code == 1
