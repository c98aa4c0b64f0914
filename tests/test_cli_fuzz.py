"""Fuzz the pair-per-line input files of the CLI: whatever the text, a run
exits 0, 1 or 3 and an error is one ``ERROR:`` line, never a traceback."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oneplanar.cli import main  # noqa: E402

EXAMPLES = 15  # per file kind; keeps the suite fast

TOKEN = st.one_of(st.integers(-2, 6).map(str),
                  st.sampled_from(["x", "#", "-", "+1", "1.5", "0x1", "", "\t"]))
LINE = st.lists(TOKEN, max_size=4).map(" ".join)
TEXT = st.one_of(
    st.lists(LINE, max_size=8).map("\n".join),
    st.text(st.characters(min_codepoint=9, max_codepoint=126), max_size=40))

# fixed tiny inputs next to the fuzzed file
GRAPH = "0 1\n1 2\n0 2\n2 3\n"
GADGET = json.dumps({"edges": [[0, 1], [1, 2], [0, 2]], "alpha": 0, "beta": 1})
COMMANDS = {
    "edges": ["decide", "--in", "@fuzz", "--cap", "4"],
    "decomposition": ["td-run", "--in", "@graph", "--decomposition", "@fuzz"],
    "ordering": ["lift-bandwidth", "--graph", "@graph", "--ordering", "@fuzz",
                 "--gadget", "@gadget"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "graph").write_text(GRAPH)
    (d / "gadget").write_text(GADGET)
    return d


def run_on(workdir, kind: str, text: str) -> None:
    (workdir / "fuzz").write_text(text)
    argv = [str(workdir / a[1:]) if a.startswith("@") else a
            for a in COMMANDS[kind]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR: ")


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_pair_files_never_crash(workdir, kind):
    @settings(max_examples=EXAMPLES, deadline=None, database=None,
              derandomize=True)
    @given(TEXT)
    def check(text):
        run_on(workdir, kind, text)

    check()
