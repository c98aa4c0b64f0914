"""Regenerate ``pool.json``: the seeded input pool with the outcomes the
program produced on it when the pool was recorded.

    python3 perfbench/pool.py

Run it only to change the pool; the benchmark reads the committed file.
Every pool call is made through the same code as a benchmark call and must
pass the same gate (witnesses, td-run answers equal to the geometric
decider's) before its outcome is recorded.  The recorded ``cost`` (median
seconds of three calls) orders the pool calls for ``corpus.sample``.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import signal
import statistics
import sys

import corpus
import gate
import run

POOL_SEED = 20261017
TIMINGS = 3  # the recorded cost is the median of this many calls
SIZES = {"decide": 192, "td": 240, "kernel": 48, "arcs": 90, "binpack": 32,
         "lift": 32}


def record(cli, inst, work) -> tuple[dict, float]:
    """Run one instance and return (observed outcome, median seconds of
    TIMINGS calls)."""
    shutil.rmtree(work, ignore_errors=True)
    corpus.write_inputs([inst], work)
    run.os.chdir(work)
    try:
        times = []
        for _ in range(TIMINGS):
            status, code, stdout, secs = run.call(cli, inst.args, run.LIMIT_S)
            if status != "done":
                return {"status": status}, secs
            times.append(secs)
        secs = statistics.median(times)
        seen = gate.observe(inst, code, stdout)
        if inst.kind != "digest":
            inst.expect = {**inst.expect, "stdout": seen["stdout"]}
            reason = gate.check(inst, seen)
            if reason:
                raise SystemExit(f"{inst.id}: {reason}")
        return seen, secs
    finally:
        run.os.chdir(run.ROOT)


def arc_system_text(rng: random.Random, want_straight: bool):
    """A small connected host with a static/flexible split and a random
    valid embedding carrying at least one crossing."""
    from oneplanar.decider import enumerate_crossing_sets, enumerate_embeddings
    from oneplanar.graph import Graph
    from oneplanar.straightening import is_straightenable
    from oneplanar.surgery import arc_system, arc_system_to_json
    while True:
        pool = list(range(rng.randint(2, 3)))
        nxt = len(pool)
        pairs, static = [], set()
        for _ in range(rng.randint(1, 3)):
            u, v = rng.choice(pool), rng.choice(pool)
            length = rng.randint(3, 4) if u == v else rng.randint(2, 4)
            walk = [u] + list(range(nxt, nxt + length - 1)) + [v]
            nxt += length - 1
            pairs.extend(zip(walk, walk[1:]))
        if len(pool) >= 2:
            for _ in range(rng.randint(0, 2)):
                u, v = sorted(rng.sample(pool, 2))
                static.add((u, v))
        flexible = {(min(p), max(p)) for p in pairs}
        if flexible & static:
            continue
        g = Graph.build(sorted(flexible | static))
        if not g.is_connected():
            continue
        assignments = [a for a in itertools.islice(enumerate_crossing_sets(g),
                                                   80) if a.pairs]
        if not assignments:
            continue
        embs = list(itertools.islice(
            enumerate_embeddings(g, rng.choice(assignments)), 40))
        if want_straight:
            embs = [e for e in embs if is_straightenable(e)]
        if embs:
            static_ids = [e for e, p in g.edges.items() if p in static]
            return arc_system_to_json(arc_system(rng.choice(embs), static_ids))


def draw(kind: str, rng: random.Random, index: int) -> dict:
    """The inputs of one pool entry."""
    if kind == "decide":
        n = rng.randint(5, 8)
        m = rng.randint(9, min(12, n * (n - 1) // 2))
        return {"edges": corpus.random_connected(rng, n, m)}
    if kind == "td":
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, min(9, n * (n - 1) // 2))
        return {"edges": corpus.random_connected(rng, n, m)}
    if kind == "kernel":
        n = rng.randint(3, 6)
        ell = rng.randint(1, min(3, (n - 1) * (n - 2) // 2))
        base = corpus.random_connected(rng, n, n - 1 + ell)
        return {"edges": corpus.subdivided(rng, base, rng.randint(6, 14))}
    if kind == "arcs":
        geometric = index % 4 == 0
        return {"system": arc_system_text(rng, geometric),
                "geometric": geometric}
    if kind == "binpack":
        items = [rng.randint(1, 4) for _ in range(rng.randint(3, 6))]
        bins = rng.randint(2, 3)
        return {"items": items, "bins": bins,
                "capacity": -(-sum(items) // bins) + rng.randint(0, 1)}
    n = rng.randint(4, 10)
    order = list(range(n))
    rng.shuffle(order)
    return {"edges": corpus.random_connected(
                rng, n, rng.randint(n - 1, min(n + 3, n * (n - 1) // 2))),
            "ordering": {str(v): i + 1 for i, v in enumerate(order)}}


def geometric_answer(cli, edges, work) -> str:
    inst = corpus.decide_instance("pool/check", edges, "geo", {"exit": 0})
    return record(cli, inst, work)[0]["stdout"]


def main() -> int:
    cli = run.import_program()
    signal.signal(signal.SIGALRM, run._on_alarm)
    work = run.ROOT / ".perfbench" / "pool-work"
    rng = random.Random(POOL_SEED)
    pool: dict = {"named": {}}
    graphs = {**corpus.NAMED, **corpus.TIMEOUT_GRAPHS}
    for name, pairs in graphs.items():
        for pred in corpus.PREDICATES:
            iid = f"decide-dense/{name}/{pred}"
            if name in corpus.TIMEOUT_GRAPHS and pred != "plain":
                continue
            inst = corpus.decide_instance(iid, pairs, pred, {"exit": 0})
            seen, secs = record(cli, inst, work)
            timed_out = seen.get("status") == "timeout"
            if timed_out != (iid in corpus.RECORDED_TIMEOUTS):
                raise SystemExit(f"{iid}: {seen} after {secs:.2f} s")
            if not timed_out and corpus.HAND_ANSWERS.get(
                    iid, seen["stdout"]) != seen["stdout"]:
                raise SystemExit(f"{iid}: contradicts the known answer")
            pool["named"][iid] = seen.get("stdout")
            print(iid, seen, f"{secs:.3f}", flush=True)
    for kind, size in SIZES.items():
        entries = []
        for index in range(size):
            entry = {"index": index, **draw(kind, rng, index), "calls": {
                key: {"expect": None} for key in corpus.POOL_CALLS[kind]}}
            for key, call in entry["calls"].items():
                inst = corpus.pool_instance(kind, entry, key)
                seen, secs = record(cli, inst, work)
                if seen.get("status") == "error":
                    raise SystemExit(f"{inst.id}: {seen}")
                call["expect"] = (seen if inst.kind == "digest"
                                  else seen.get("stdout"))
                call["cost"] = round(secs, 6)
            if kind == "td" and entry["calls"][""]["expect"] != \
                    geometric_answer(cli, entry["edges"], work):
                raise SystemExit(f"td {index}: pipeline disagrees with decide")
            entries.append(entry)
        pool[kind] = entries
        print(kind, len(entries), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    corpus.POOL_PATH.write_text(json.dumps(pool, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
