"""Seeded corpora for the three workloads.

A corpus is a list of ``Instance`` records: the CLI arguments of one call,
the input files that call reads, and the outcome it must produce.  Inputs
that have no answer derivable by hand (random graphs, arc systems, kernels,
hardness instances) are drawn from the committed pool in ``pool.json``,
whose outcomes were recorded once by ``pool.py``.  The seed picks recorded
calls at fixed quantiles of recorded cost, so every seed gets a different
corpus with the same cost profile.  Nothing here calls the decider.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

POOL_PATH = Path(__file__).with_name("pool.json")

DECIDE_CAP = "16"  # K4,4 has 16 edges; every named graph fits

# predicate mix applied to every decide-dense graph: name -> extra CLI args
PREDICATES = {
    "plain": [],
    "geo": ["--geometric"],
    "ab-outer-geo": ["--pred", "ab-outer", "--a", "0", "--b", "1",
                     "--geometric"],
    "ab-shared": ["--pred", "ab-shared", "--a", "0", "--b", "2"],
    "a-outer-geo": ["--pred", "a-outer", "--a", "0", "--geometric"],
    "k2": ["--k", "2"],
}

# Plain 1-planarity answers known from the literature (K6 and K4,4 are the
# extremal 1-planar complete and complete bipartite graphs).
HAND_ANSWERS = {
    "decide-dense/K5/plain": "YES",
    "decide-dense/K33/plain": "YES",
    "decide-dense/K34/plain": "YES",
    "decide-dense/K222/plain": "YES",
    "decide-dense/K6/plain": "YES",
    "decide-dense/K44/plain": "YES",
}

# Instances the seed commit cannot finish within the time limit.  They stay
# in every corpus; each attempt counts as failed and ranks beyond every
# latency percentile.
RECORDED_TIMEOUTS = frozenset({
    "decide-dense/K6/plain",
    "decide-dense/K44/plain",
    "decide-dense/K222/ab-outer-geo",
})

KERNEL_VARIANTS = {"1p": [], "g1p": [], "kp": ["--k", "2"], "gkp": []}

ELIGIBLE_S = 2.0  # slowest recorded time of a sampled pool call

RULE1_THRESHOLD = 35  # 2^(d+1)+3 for the depth-4 K3,N decomposition
K2N_BASELINE = 9  # 2^d+1 children kept by Rule II, d = 3 for the star


@dataclass
class Instance:
    """One CLI call.  ``argv`` names its input and output files by the keys
    of ``inputs`` and ``outputs``; ``write_inputs`` binds them to files
    (``files``) and fills in ``args``.  ``expect`` is checked by
    ``gate.check``."""

    id: str
    kind: str  # decide | td | convex | digest
    argv: list[str]
    inputs: dict[str, str]
    outputs: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    files: dict[str, Path] = field(default_factory=dict)
    args: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# graph builders (edge lists only; the program parses the files)
# ---------------------------------------------------------------------------

def complete(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def octahedron() -> list[tuple[int, int]]:
    """K2,2,2 with parts {0,1}, {2,3}, {4,5}."""
    parts = [(0, 1), (2, 3), (4, 5)]
    return [(u, v) for i, p in enumerate(parts) for q in parts[i + 1:]
            for u in p for v in q]


def wheel(rim: int) -> list[tuple[int, int]]:
    """Hub 0 joined to the cycle 1..rim."""
    return ([(0, i) for i in range(1, rim + 1)]
            + [(i, i % rim + 1) for i in range(1, rim + 1)])


NAMED = {
    "K5": complete(5),
    "K33": complete_bipartite(3, 3),
    "K34": complete_bipartite(3, 4),
    "K222": octahedron(),
    "W8": wheel(8),
}
TIMEOUT_GRAPHS = {"K6": complete(6), "K44": complete_bipartite(4, 4)}


def random_connected(rng: random.Random, n: int, m: int
                     ) -> list[tuple[int, int]]:
    """Random labelled tree on n vertices plus m-(n-1) random chords."""
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    have = set(pairs)
    chords = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in have]
    rng.shuffle(chords)
    return pairs + chords[:m - (n - 1)]


def subdivided(rng: random.Random, pairs, longest: int
               ) -> list[tuple[int, int]]:
    """Replace each edge by a path of 1..longest edges."""
    nxt = max(v for p in pairs for v in p) + 1
    out = []
    for u, v in pairs:
        length = rng.choice((1, 2, rng.randint(3, longest)))
        chain = [u] + list(range(nxt, nxt + length - 1)) + [v]
        nxt += length - 1
        out.extend(zip(chain, chain[1:]))
    return out


def path_system(rng: random.Random, f: int, groups: int
                ) -> list[tuple[int, int]]:
    """Graph decomposing into f degree-2 paths, each of length >= f-1,
    between ``groups`` pairs of branch vertices (the convex-certificate
    precondition).  The lengths f-1+0, f-1+1, f-1+2, f-1+3, f-1+0, ... go
    to the paths in seeded order, so the size is fixed by f and groups."""
    count = f // groups * groups
    extra = [i % 4 for i in range(count)]
    rng.shuffle(extra)
    pairs = []
    nxt = 2 * groups
    for grp in range(groups):
        u, v = 2 * grp, 2 * grp + 1
        for _ in range(f // groups):
            length = f - 1 + extra.pop()
            chain = [u] + list(range(nxt, nxt + length - 1)) + [v]
            nxt += length - 1
            pairs.extend(zip(chain, chain[1:]))
    return pairs


def edge_text(pairs) -> str:
    return "".join(f"{u} {v}\n" for u, v in pairs)


def parent_text(parent: dict[int, int]) -> str:
    return "".join(f"{v} {p}\n" for v, p in sorted(parent.items()))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text())


def spread(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers near the centres of k equal slices of [lo, hi], each
    moved by at most one."""
    width = (hi - lo) / k
    return [min(hi, max(lo, lo + round((s + 0.5) * width) + rng.randint(-1, 1)))
            for s in range(k)]


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def decide_instance(iid: str, pairs, pred: str, expect: dict) -> Instance:
    argv = ["decide", "--in", "in.edges", "--cap", DECIDE_CAP,
            "--witness", "witness.json", "--report", "report.json",
            *PREDICATES[pred]]
    return Instance(iid, "decide", argv, {"in.edges": edge_text(pairs)},
                    ("witness.json", "report.json", "bw.json"),
                    expect)


def decide_expect(iid: str, recorded: dict) -> dict:
    """Hand-written answer where known, otherwise the recorded one."""
    return {"stdout": HAND_ANSWERS.get(iid, recorded.get(iid)), "exit": 0}


def decide_dense(rng: random.Random, pool: dict, tiny: bool) -> list[Instance]:
    named = pool["named"]
    graphs, preds = NAMED, PREDICATES
    if tiny:
        graphs, preds = {"K5": NAMED["K5"], "K222": NAMED["K222"]}, (
            "plain", "ab-outer-geo")
    out = []
    for name, pairs in graphs.items():
        for pred in preds:
            iid = f"decide-dense/{name}/{pred}"
            out.append(decide_instance(iid, pairs, pred,
                                       decide_expect(iid, named)))
    if not tiny:
        for name, pairs in TIMEOUT_GRAPHS.items():
            iid = f"decide-dense/{name}/plain"
            out.append(decide_instance(iid, pairs, "plain",
                                       decide_expect(iid, named)))
    return out + sample(rng, pool, "decide", 192, tiny)


def k2n_instance(n: int) -> Instance:
    """K2,N plus the edge ab (a=0, b=1) under the star decomposition.  Rule
    II keeps the first K2N_BASELINE children, deletes the others as
    (a,b)-outer, and the rest (19 edges) exceeds the oracle cap."""
    pairs = [(0, 1)] + complete_bipartite(2, n)
    parent = {0: -1, 1: 0, **{v: 1 for v in range(2, n + 2)}}
    kept = [0, 1] + list(range(2, 2 + K2N_BASELINE))
    return Instance(
        f"td-pipeline/K2,{n}+ab", "td",
        ["td-run", "--in", "in.edges", "--decomposition", "td.txt",
         "--log", "log.json"],
        {"in.edges": edge_text(pairs), "td.txt": parent_text(parent)},
        ("log.json",), {"stdout": "REDUCED", "exit": 3, "remaining": kept})


def k3n_instance(n: int) -> Instance:
    """K3,N under the chain-over-the-3-side decomposition: Rule I rejects
    from N = 35 on; below it the instance exceeds the oracle cap."""
    parent = {0: -1, 1: 0, 2: 1, **{v: 2 for v in range(3, 3 + n)}}
    rejects = n >= RULE1_THRESHOLD
    return Instance(
        f"td-pipeline/K3,{n}", "td",
        ["td-run", "--in", "in.edges", "--decomposition", "td.txt",
         "--log", "log.json"],
        {"in.edges": edge_text(complete_bipartite(3, n)),
         "td.txt": parent_text(parent)}, ("log.json",),
        {"stdout": "NO" if rejects else "REDUCED", "exit": 0 if rejects else 3,
         "first_rule": "I" if rejects else None})


def td_pipeline(rng: random.Random, pool: dict, tiny: bool) -> list[Instance]:
    if tiny:
        return ([k2n_instance(20), k3n_instance(RULE1_THRESHOLD)]
                + sample(rng, pool, "td", 98, tiny))
    out = [k2n_instance(n) for n in spread(rng, 20, 300, 20)]
    sizes = ([RULE1_THRESHOLD - 1, RULE1_THRESHOLD]
             + spread(rng, 20, RULE1_THRESHOLD - 2, 5)
             + spread(rng, RULE1_THRESHOLD + 1, 60, 5))
    out += [k3n_instance(n) for n in sizes]
    return out + sample(rng, pool, "td", 98, tiny)


def convex_instance(rng: random.Random, f: int, groups: int, tag: int
                    ) -> Instance:
    pairs = path_system(rng, f, groups)
    return Instance(f"certify/convex{tag}-f{f}x{groups}", "convex",
                    ["convex-cert", "--in", "in.edges", "--out", "coords.txt"],
                    {"in.edges": edge_text(pairs)}, ("coords.txt",))


def certify(rng: random.Random, pool: dict, tiny: bool) -> list[Instance]:
    if tiny:
        out = [convex_instance(rng, 4, 1, 0)]
    else:
        out = [convex_instance(rng, 8 + i % 4, 1 + i // 4 % 2, i)
               for i in range(18)]
    for kind, k in (("kernel", 56), ("arcs", 36), ("binpack", 10),
                    ("lift", 12)):
        out += sample(rng, pool, kind, k, tiny)
    return out


# ---------------------------------------------------------------------------
# pool calls
# ---------------------------------------------------------------------------

# the calls recorded for each pool entry, by key
POOL_CALLS = {"decide": list(PREDICATES), "td": [""],
              "kernel": list(KERNEL_VARIANTS), "arcs": [""], "binpack": [""],
              "lift": [""]}


def pool_instance(kind: str, entry: dict, key: str) -> Instance:
    """Call ``key`` of a pool entry, expecting its recorded outcome."""
    want = entry["calls"][key]["expect"]
    tag = f"pool{entry['index']}"
    if kind == "decide":
        return decide_instance(f"decide-dense/{tag}/{key}", entry["edges"],
                               key, {"stdout": want, "exit": 0})
    if kind == "td":
        return Instance(
            f"td-pipeline/{tag}", "td",
            ["td-run", "--in", "in.edges", "--override-thresholds",
             '{"rule2-baseline": 1}', "--log", "log.json"],
            {"in.edges": edge_text(entry["edges"])}, ("log.json",),
            {"stdout": want, "exit": 0})
    if kind == "kernel":
        argv = ["kernelize", "--variant", key, *KERNEL_VARIANTS[key],
                "--in", "in.edges", "--out", "out.edges"]
        inputs = {"in.edges": edge_text(entry["edges"])}
        outputs = ("out.edges",)
    elif kind == "arcs":
        argv = ["simplify", "--in", "sys.json", "--out", "out.json",
                *(["--geometric"] if entry["geometric"] else [])]
        inputs = {"sys.json": entry["system"]}
        outputs = ("out.json",)
    elif kind == "binpack":
        argv = ["gen-binpack", "--items", ",".join(map(str, entry["items"])),
                "--bins", str(entry["bins"]),
                "--capacity", str(entry["capacity"]),
                "--out", "out.edges", "--witnesses", "wit"]
        inputs = {}
        outputs = ("out.edges", "wit")
    else:
        argv = ["lift-bandwidth", "--graph", "in.edges", "--ordering",
                "sigma.txt", "--gadget", "k6.json", "--out", "out.txt"]
        inputs = {"in.edges": edge_text(entry["edges"]),
                  "sigma.txt": parent_text({int(v): p for v, p
                                            in entry["ordering"].items()}),
                  "k6.json": json.dumps({"edges": complete(6), "alpha": 0,
                                         "beta": 1})}
        outputs = ("out.txt",)
    return Instance(f"certify/{kind}{entry['index']}/{key}".rstrip("/"),
                    "digest", argv, inputs, outputs, want)


def sample(rng: random.Random, pool: dict, kind: str, k: int,
           tiny: bool = False) -> list[Instance]:
    """k recorded pool calls at k evenly spaced quantiles of recorded cost:
    for each quantile the seed picks one of the three eligible calls
    nearest to it, so every seed gets other inputs with the same cost
    profile.  Eligible calls finished within ELIGIBLE_S when recorded, far
    below the time limit.  A tiny corpus keeps only the cheapest pick."""
    ranked = sorted((call["cost"], entry["index"], key, entry)
                    for entry in pool[kind]
                    for key, call in entry["calls"].items()
                    if call["cost"] <= ELIGIBLE_S)
    picks = []
    for s in range(1 if tiny else k):
        centre = int((s + 0.5) * len(ranked) / k)
        lo, hi = max(0, centre - 1), min(len(ranked), centre + 2)
        _, _, key, entry = ranked[rng.randrange(lo, hi)]
        picks.append(pool_instance(kind, entry, key))
    return picks


WORKLOADS = {"decide-dense": decide_dense, "td-pipeline": td_pipeline,
             "certify": certify}


def build(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, load_pool(), tiny)


def write_inputs(corpus: list[Instance], root: Path) -> None:
    """Write the distinct input files of the corpus into ``root`` and bind
    every instance's file names: inputs by content, outputs by instance."""
    root.mkdir(parents=True, exist_ok=True)
    written = set()
    for i, inst in enumerate(corpus):
        inst.files = {}
        for name, text in inst.inputs.items():
            path = root / f"{hashlib.sha1(text.encode()).hexdigest()[:16]}-{name}"
            if path not in written:
                path.write_text(text)
                written.add(path)
            inst.files[name] = path
        for name in inst.outputs:
            inst.files[name] = root / f"{i:04d}-{name}"
        inst.args = [inst.files[a].name if a in inst.files else a
                     for a in inst.argv]
