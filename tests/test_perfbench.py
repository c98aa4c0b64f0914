"""The benchmark's view of the library, checked without running it.

* Every digest call recorded in ``perfbench/pool.json`` (``kernelize``,
  ``simplify``, ``gen-binpack`` and ``lift-bandwidth``) is replayed through
  the benchmark's own corpus and outcome gate, so a change that alters one
  of those output files fails here, not only in a benchmark run.
* Every name the benchmark's tracer wraps resolves in ``oneplanar``.

The benchmark modules are imported by path and not changed.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

import pytest

from oneplanar import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


corpus, gate, tracer = _load("corpus"), _load("gate"), _load("tracer")


@pytest.mark.parametrize("kind", ["kernel", "arcs", "binpack", "lift"])
def test_pool_digest_calls_replay(kind, tmp_path, monkeypatch):
    """Exit code, printed text and the sha256 of every written file equal
    the record, for every recorded call of this kind."""
    pool = corpus.load_pool()
    calls = [corpus.pool_instance(kind, entry, key)
             for entry in pool[kind] for key in entry["calls"]]
    corpus.write_inputs(calls, tmp_path)
    monkeypatch.chdir(tmp_path)  # instance arguments name files in the root
    wrong = []
    for inst in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(inst.args)
        if gate.check(inst, gate.observe(inst, code, out.getvalue())):
            wrong.append(inst.id)
    assert calls and not wrong


def _resolve(target: str):
    module, *path = target.split(".")
    owner = importlib.import_module(f"oneplanar.{module}")
    for part in path:
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("target", tracer.SPANNED + tracer.COUNTED)
def test_tracer_name_resolves(target):
    assert callable(_resolve(target))


@pytest.mark.parametrize("target", list(tracer.GENERATORS))
def test_tracer_generator_is_a_generator_function(target):
    assert inspect.isgeneratorfunction(_resolve(target))
