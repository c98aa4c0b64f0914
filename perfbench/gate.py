"""Outcome gate: checks one finished CLI call against its instance's
expected outcome.  Runs outside the timed span.  YES witnesses are
re-validated through ``check-embedding``; convex certificates through
``validate_geometric_1planar``; generator and kernel outputs are compared
with the digests recorded at the seed commit."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional


LOG_RESULTS = {"YES": ("decided",), "NO": ("decided", "rejected"),
               "REDUCED": ("reduced",)}


def observe(inst, code: int, stdout: str) -> dict:
    """The comparable outcome of one call: exit code, printed text and,
    for digest instances, the sha256 of every file the call wrote."""
    seen = {"exit": code, "stdout": stdout.strip()}
    if inst.kind == "digest":
        seen["files"] = files = {}
        for name in inst.outputs:
            path = inst.files[name]
            found = sorted(path.rglob("*")) if path.is_dir() else [path]
            for p in found:
                if p.is_file():
                    key = str(Path(name) / p.relative_to(path)) \
                        if path.is_dir() else name
                    files[key] = hashlib.sha256(p.read_bytes()).hexdigest()
    return seen


def _cli(argv: list[str]) -> tuple[int, str]:
    from oneplanar import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _pairs(text: str) -> set[tuple[int, int]]:
    from oneplanar.graph import parse_edge_list
    return set(parse_edge_list(text).edges.values())


def _check_witness(inst) -> Optional[str]:
    from oneplanar.embedding import embedding_from_json
    args = inst.argv
    k = args[args.index("--k") + 1] if "--k" in args else "1"
    path = inst.files["witness.json"]
    if not path.exists():
        return "YES without a witness"
    code, out = _cli(["check-embedding", "--in", str(path), "--k", k,
                      "--bw", str(inst.files["bw.json"])])
    if code != 0 or not out.startswith("OK"):
        return f"witness rejected: {out.strip()}"
    emb = embedding_from_json(path.read_text(), k=int(k))
    if set(emb.graph.edges.values()) != _pairs(inst.inputs["in.edges"]):
        return "witness embeds another graph"
    if "--geometric" in args and json.loads(inst.files["bw.json"].read_text()):
        return "geometric witness has a B- or W-configuration"
    a = int(args[args.index("--a") + 1]) if "--a" in args else None
    b = int(args[args.index("--b") + 1]) if "--b" in args else None
    pred = args[args.index("--pred") + 1] if "--pred" in args else "plain"
    outer = emb.face_vertices(emb.outer_face)
    if pred in ("a-outer", "ab-outer") and a not in outer:
        return "anchor a not on the outer face"
    if pred == "ab-outer" and b not in outer:
        return "anchor b not on the outer face"
    if pred == "ab-shared" and emb.shared_region(a, b) is None:
        return "anchors share no face"
    return None


def _check_decide(inst, seen: dict) -> Optional[str]:
    answer = seen["stdout"]
    if seen["exit"] != 0 or answer not in ("YES", "NO"):
        return f"exit {seen['exit']}, printed {answer!r}"
    want = inst.expect.get("stdout")
    if want is not None and answer != want:
        return f"answered {answer}, expected {want}"
    report = json.loads(inst.files["report.json"].read_text())
    if report["answer"] != (answer == "YES"):
        return "report disagrees with the printed answer"
    return _check_witness(inst) if answer == "YES" else None


def _check_td(inst, seen: dict) -> Optional[str]:
    want = inst.expect
    if (seen["exit"], seen["stdout"]) != (want["exit"], want["stdout"]):
        return (f"exit {seen['exit']} {seen['stdout']!r}, expected "
                f"{want['exit']} {want['stdout']!r}")
    log = json.loads(inst.files["log.json"].read_text())
    if log["result"] not in LOG_RESULTS.get(seen["stdout"], ()):
        return f"log result {log['result']} after {seen['stdout']}"
    if "remaining" in want and log["remaining_vertices"] != want["remaining"]:
        return "wrong children kept"
    if want.get("first_rule") and log["log"][0].get("rule") != want[
            "first_rule"]:
        return f"rejected by rule {log['log'][0].get('rule')}"
    return None


def _check_convex(inst, seen: dict) -> Optional[str]:
    from oneplanar.geometry import validate_geometric_1planar
    from oneplanar.graph import parse_edge_list
    if seen["exit"] != 0:
        return f"exit {seen['exit']}"
    coords = {}
    for line in inst.files["coords.txt"].read_text().splitlines():
        v, x, y = line.split()
        coords[int(v)] = (Fraction(x), Fraction(y))
    g = parse_edge_list(inst.inputs["in.edges"])
    report = validate_geometric_1planar(coords, g)
    return None if report.ok else f"invalid drawing: {report.violations[:2]}"


def check(inst, seen: dict) -> Optional[str]:
    """None when the call's outcome is right, else the reason it is not."""
    if inst.kind == "decide":
        return _check_decide(inst, seen)
    if inst.kind == "td":
        return _check_td(inst, seen)
    if inst.kind == "convex":
        return _check_convex(inst, seen)
    return None if seen == inst.expect else "output differs from the record"
