"""Smoke test of the benchmark itself, at a tiny corpus size.

    python3 perfbench/smoke.py

Checks that every workload of BENCHMARK.json runs, that the untraced run
emits exactly the end-to-end metrics and the traced run exactly the
per-layer metrics, each with its unit, that the traced run reaches the
layers its workload is meant to stress, that the gate counts a deliberately
wrong expected outcome, and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import corpus
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# a layer counter each workload must move, so wrappers that miss show up
STRESSED = {
    "decide-dense": ["decider.decide.calls", "decider.crossing_assignments",
                     "embedding.validate_embedding.calls"],
    "td-pipeline": ["graph.block_cut_tree.calls", "td_pipeline.oracle_calls",
                    "graph.components.calls"],
    "certify": ["geometry.segment_intersection.calls",
                "kernel.cert_validations_per_cert", "surgery.reshorten.s"],
}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: {message}")


def measure(workload: str, trace: bool, tamper=None) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.run_workload(workload, seed=7, seconds=0, trace=trace, tiny=True,
                         limit=0.5, tamper=tamper)
    text = buf.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_metrics() -> None:
    names = [w["name"] for w in BENCH["workloads"]]
    require(sorted(names) == sorted(corpus.WORKLOADS), "workload names")
    for workload in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = measure(workload, trace)
            require(result["correct"] and result["failed"] == 0,
                    f"{workload}: {result}")
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == want, f"{workload} {key}: {got} != {want}")
            require(all(isinstance(m["value"], (int, float))
                        for m in result["metrics"].values()),
                    f"{workload}: non-numeric metric")
            if trace:
                for name in STRESSED[workload]:
                    require(result["metrics"][name]["value"] > 0,
                            f"{workload}: {name} is 0")
        print(f"ok {workload}")


def check_gate() -> None:
    def tamper(instances):
        first = next(i for i in instances if i.kind == "decide"
                     and i.expect["stdout"] == "YES")
        first.expect["stdout"] = "NO"

    result, text = measure("decide-dense", False, tamper)
    require(not result["correct"] and result["failed"] == 1,
            f"tampered expectation not caught: {result}")
    require("wrong_outcomes 1 count" in text, "wrong_outcomes not reported")
    print("ok gate counts a wrong expected outcome")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail, no result."""
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "ran without the program")
    require('"metrics"' not in proc.stdout, "printed a result without it")
    print("ok refuses to run without src/")


def main() -> int:
    check_metrics()
    check_gate()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
