"""Command-line entry point multiplexing the package's operations.

Verdict subcommands print YES or NO and exit 0 regardless of the verdict;
malformed input files and failed preconditions exit 1 with one ``ERROR:``
line, usage errors and unreadable or unwritable paths exit 2 and exceeded
caps exit 3; ``decide --report`` then still writes its report, with
``"answer": null`` and the limit that stopped the search under
``cap_exceeded``.  All output is deterministic: identical inputs produce
byte-identical files.  The parser is built once per process, on the first
``main`` call, and ``build_parser`` returns that shared parser.
Output files are written over in place and cut to length if regular, not
truncated to zero first, as ext4 starts writing such a file back on close:
rewriting an existing 800-byte file takes 3-7 us, not 69-89 us (Linux 6.18);
a new file costs the same either way.  Not atomic: until writeback (about
30 s), a crash can leave old bytes, or old and new, at either length.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
from pathlib import Path

from . import decider, kernel, reductions, surgery, td_pipeline
from .decider import CapExceeded, Predicate
from .embedding import (
    EmbeddingError,
    embedding_from_json,
    embedding_to_json,
)
from .graph import (
    Graph,
    GraphError,
    LinearOrdering,
    format_edge_list,
    parse_edge_list,
    parse_vertex_map,
)
from .straightening import find_bw_configurations

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

VARIANT_NAMES = {"1p": "1planar", "g1p": "geo1planar",
                 "kp": "kplanar", "gkp": "geo-kplanar"}
THRESHOLD_KEYS = {"rule1": "rule1", "rule2-baseline": "rule2_baseline",
                  "rule2-reject": "rule2_reject",
                  "rule3-reject": "rule3_reject"}


@contextlib.contextmanager
def _malformed(what: str):
    """Turn a parse failure inside the block into a one-line GraphError."""
    try:
        yield
    except (GraphError, EmbeddingError):
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise GraphError(
            f"malformed {what}: {type(err).__name__}: {err}") from None


def _read(path: str) -> str:
    with _malformed(path):
        return Path(path).read_text(encoding="utf-8")


def _write(path: str | Path, text: str) -> None:
    data = text.encode("utf-8")  # an encoding error touches no file
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()  # ftruncate fails on /dev/null and on a pipe


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read(path))


def _load_gadget(path: str) -> reductions.TwoTerminalGadget:
    with _malformed(f"gadget {path}"):
        obj = json.loads(_read(path))
        g = Graph.build([tuple(p) for p in obj["edges"]])
        return reductions.TwoTerminalGadget(g, obj["alpha"], obj["beta"])


def _load_ordering(path: str) -> LinearOrdering:
    return LinearOrdering(parse_vertex_map(_read(path), "vertex position"))


def _load_thresholds(text: str) -> td_pipeline.Thresholds:
    with _malformed("--override-thresholds"):
        raw = json.loads(text)
    if (not isinstance(raw, dict) or not set(raw) <= set(THRESHOLD_KEYS)
            or any(v is not None and (type(v) is not int or v < 0)
                   for v in raw.values())):
        raise GraphError(
            "--override-thresholds: expected a JSON object with non-negative "
            f"integer values under keys among {', '.join(THRESHOLD_KEYS)}, "
            f"got {text!r}")
    return td_pipeline.Thresholds(
        **{THRESHOLD_KEYS[k]: v for k, v in raw.items()})


_encode_str = json.encoder.encode_basestring_ascii  # as json.dumps does


def _json_text(payload) -> str:
    """What ``json.dumps(payload, sort_keys=True, indent=2)`` writes, for
    dicts with str keys, lists, tuples and leaves of type str, int, bool
    and None; anything else raises TypeError.  The stdlib takes its
    pure-Python path when it indents; this writer is faster, and it encodes
    a dict met twice at the same depth only once (a delete event is in both
    ``deletions`` and ``log``)."""
    done: dict[tuple[int, int], str] = {}

    def text(o, pad: str) -> str:
        kind = type(o)
        if kind is str:
            return _encode_str(o)
        if kind is int:
            return repr(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            return ("[\n" + inner + sep.join([text(x, inner) for x in o])
                    + "\n" + pad + "]")
        if isinstance(o, dict):
            out = done.get((id(o), len(pad)))
            if out is None:
                # a key that is not a str fails in sorted or _encode_str,
                # both with TypeError
                out = done[id(o), len(pad)] = "{}" if not o else (
                    "{\n" + inner
                    + sep.join([_encode_str(k) + ": " + text(o[k], inner)
                                for k in sorted(o)])
                    + "\n" + pad + "}")
            return out
        raise TypeError(
            f"Object of type {kind.__name__} is not JSON serializable")

    return text(payload, "")


def _report(path: str | None, payload: dict) -> None:
    if path:
        _write(path, _json_text(payload) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _decide_report(path: str | None, answer, stats: decider.DecideStats,
                   **extra) -> None:
    _report(path, {"answer": answer,
                   "embeddings_enumerated": stats.valid_embeddings,
                   "stats": dict(vars(stats)), **extra})


def _cmd_decide(args) -> int:
    g = _load_graph(args.infile)
    pred = Predicate(args.pred, a=args.a, b=args.b,
                     geometric=args.geometric, k=args.k)
    try:
        verdict = decider.decide(g, pred, cap=args.cap,
                                 want_witness=args.witness is not None)
    except CapExceeded as err:  # the report says how far the search got
        _decide_report(args.report, None, err.stats,
                       cap_exceeded=err.limit)
        raise
    print("YES" if verdict.answer else "NO")
    if args.witness and verdict.witness is not None:
        _write(args.witness, embedding_to_json(verdict.witness) + "\n")
    _decide_report(args.report, verdict.answer, verdict.stats)
    return EXIT_OK


def _cmd_kernelize(args) -> int:
    g = _load_graph(args.infile)
    res = kernel.kernelize(g, VARIANT_NAMES[args.variant], k=args.k)
    _write(args.out, format_edge_list(res.kernel))
    plan = res.plan
    _report(args.report, {
        "variant": plan.variant,
        "p": plan.p,
        "ell": plan.ell,
        "j": plan.j,
        "threshold": plan.threshold,
        "classification": list(plan.classification),
        "prefix_sums": list(plan.prefix_sums),
        "provenance": {str(e): list(origin)
                       for e, origin in sorted(res.provenance.items())},
        "edges": res.kernel.m,
    })
    return EXIT_OK


def _cmd_check_embedding(args) -> int:
    try:
        emb = embedding_from_json(_read(args.infile), k=args.k)
    except (EmbeddingError, GraphError, KeyError, ValueError) as err:
        print(f"INVALID: {err}")
        return EXIT_FAIL
    outer = ("no outer face" if emb.outer is None
             else f"outer face {emb.outer_face}")
    print(f"OK: {len(emb.planarization.faces)} faces, {outer}")
    if args.bw:
        configs = [c.to_dict() for c in find_bw_configurations(emb)]
        _write(args.bw, json.dumps(configs, sort_keys=True,
                                   separators=(",", ":")) + "\n")
    return EXIT_OK


def _cmd_simplify(args) -> int:
    with _malformed(f"arc system {args.infile}"):
        sys_ = surgery.arc_system_from_json(_read(args.infile))
    simplified = surgery.simplify(sys_)
    arr = simplified.arrangement
    demand = max((arr.crossings_of_curve(c) for c in arr.arc_curve_ids()),
                 default=0)
    if args.geometric:
        demand *= 2
    target = (args.target if args.target is not None
              else max(demand, simplified.s + simplified.f - 1, 3))
    graph, emb = surgery.reshorten(simplified, target,
                                   geometric=args.geometric)
    old_static_pairs = {sys_.host.graph.edges[e] for e in sys_.static_edges}
    out_sys = surgery.arc_system(
        emb, [e for e, pair in graph.edges.items()
              if pair in old_static_pairs])
    _write(args.out, surgery.arc_system_to_json(out_sys))
    _report(args.report, {
        "rule1_steps": simplified.rule1_steps,
        "rule2_steps": simplified.rule2_steps,
        "crossings": arr.total_crossings(),
        "target": target,
    })
    return EXIT_OK


def _cmd_td_run(args) -> int:
    g = _load_graph(args.infile)
    decomposition = None
    if args.decomposition:
        decomposition = td_pipeline.parse_decomposition(
            _read(args.decomposition))
    overrides = None
    if args.override_thresholds:
        overrides = _load_thresholds(args.override_thresholds)
    out = td_pipeline.run_pipeline(g, decomposition=decomposition,
                                   overrides=overrides, oracle_cap=args.cap)
    _report(args.log, {
        "result": out.result,
        "answer": out.answer,
        "oracle_calls": out.oracle_calls,
        "deletions": out.deletions,
        "log": out.log,
        "remaining_vertices": sorted(out.graph.vertices),
    })
    if out.result == "reduced":
        print("REDUCED")
        return EXIT_CAP
    print("YES" if out.answer else "NO")
    return EXIT_OK


def _cmd_gen_binpack(args) -> int:
    with _malformed("--items"):
        sizes = tuple(int(x) for x in args.items.split(",") if x.strip())
    inst = reductions.BinPackInstance(sizes, args.bins, args.capacity)
    li = reductions.gen_binpack_instance(inst, raw=args.raw)
    _write(args.out, format_edge_list(li.graph))
    if args.witnesses:
        wdir = Path(args.witnesses)
        wdir.mkdir(parents=True, exist_ok=True)
        fvs = reductions.fvs_witness(li)
        _write(wdir / "fvs.txt", "\n".join(str(v) for v in sorted(fvs)) + "\n")
        bags = [" ".join(str(v) for v in sorted(bag))
                for bag in reductions.pathwidth_witness(li)]
        _write(wdir / "path_decomposition.txt", "\n".join(bags) + "\n")
    _report(args.report, {
        "vertices": li.graph.n,
        "edges": li.graph.m,
        "items": list(li.items),
        "bins": li.bins,
        "capacity": li.capacity,
        "distinguished": li.distinguished,
    })
    return EXIT_OK


def _cmd_gen_replace(args) -> int:
    g = _load_graph(args.graph)
    h = _load_gadget(args.gadget)
    out = reductions.replace_edges_with_gadget(g, h)
    _write(args.out, format_edge_list(out))
    _report(args.report, {"vertices": out.n, "edges": out.m,
                          "gadget_size": h.t})
    return EXIT_OK


def _cmd_lift_bandwidth(args) -> int:
    g = _load_graph(args.graph)
    sigma = _load_ordering(args.ordering)
    h = _load_gadget(args.gadget)
    lifted, star = reductions.bandwidth_lift(g, sigma, h)
    b = sigma.bandwidth(g)
    bound = reductions.bandwidth_bound(b, h.t)
    measured = star.bandwidth(lifted)
    print(f"bandwidth {measured} bound {bound}")
    if args.out:
        _write(args.out, "".join(
            f"{v} {p}\n" for v, p in sorted(star.position.items())))
    if args.graph_out:
        _write(args.graph_out, format_edge_list(lifted))
    _report(args.report, {"bandwidth": measured, "bound": bound,
                          "base_bandwidth": b, "gadget_size": h.t})
    return EXIT_OK


def _cmd_convex_cert(args) -> int:
    g = _load_graph(args.infile)
    coords = kernel.convex_certificate(g)
    _write(args.out, "".join(f"{v} {x} {y}\n"
                             for v, (x, y) in sorted(coords.items())))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.triangulation is not None:
        print(kernel.triangulation_bound(args.triangulation))
        return EXIT_OK
    if args.ell is None or args.variant is None:
        raise GraphError("bounds needs --triangulation or --variant/--ell")
    print(kernel.worst_case_size(args.ell, VARIANT_NAMES[args.variant]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="oneplanar",
        description="(geometric) 1-planarity toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="brute-force decision on a small graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pred", default="plain",
                   choices=["plain", "ab-shared", "ab-outer", "a-outer"])
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--geometric", action="store_true")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--cap", type=int, default=decider.DEFAULT_EDGE_CAP)
    p.add_argument("--witness")
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("kernelize", help="feedback-edge-number kernel")
    p.add_argument("--variant", required=True, choices=sorted(VARIANT_NAMES))
    p.add_argument("--k", type=int)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_kernelize)

    p = sub.add_parser("check-embedding", help="validate an embedding file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--bw", help="write the B/W-configuration certificate")
    p.set_defaults(fn=_cmd_check_embedding)

    p = sub.add_parser("simplify", help="crossing elimination on an arc system")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", type=int)
    p.add_argument("--geometric", action="store_true")
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_simplify)

    p = sub.add_parser("td-run", help="treedepth reduction pipeline")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--decomposition")
    p.add_argument("--override-thresholds")
    p.add_argument("--cap", type=int, default=decider.DEFAULT_EDGE_CAP)
    p.add_argument("--log")
    p.set_defaults(fn=_cmd_td_run)

    p = sub.add_parser("gen-binpack", help="bin packing hardness instance")
    p.add_argument("--items", default="")
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("--raw", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--witnesses")
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_gen_binpack)

    p = sub.add_parser("gen-replace", help="replace every edge by a gadget")
    p.add_argument("--graph", required=True)
    p.add_argument("--gadget", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_gen_replace)

    p = sub.add_parser("lift-bandwidth", help="column bandwidth ordering")
    p.add_argument("--graph", required=True)
    p.add_argument("--ordering", required=True)
    p.add_argument("--gadget", required=True)
    p.add_argument("--out")
    p.add_argument("--graph-out", dest="graph_out")
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_lift_bandwidth)

    p = sub.add_parser("convex-cert", help="convex-position certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_convex_cert)

    p = sub.add_parser("bounds", help="worst-case kernel sizes and t(m)")
    p.add_argument("--variant", choices=sorted(VARIANT_NAMES))
    p.add_argument("--ell", type=int)
    p.add_argument("--triangulation", type=int)
    p.set_defaults(fn=_cmd_bounds)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as err:
        print(f"CAP EXCEEDED: {err}", file=sys.stderr)
        return EXIT_CAP
    except (GraphError, EmbeddingError) as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
