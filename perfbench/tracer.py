"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the ``oneplanar`` modules by
wrappers, in every module that holds a reference to them (so the name
``block_cut_tree`` imported into ``td_pipeline`` is wrapped as well as
``graph.block_cut_tree``).  Each wrapped call records a span (name, start,
end, parent, instance id) in memory; a few hot functions only count calls.
Layer numbers are computed from the instances that completed, so counts
repeat exactly from run to run even when some instances time out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# wrapped as spans, by "module.attribute" ("graph.Graph.components" is the
# Graph method, reported as graph.components)
SPANNED = [
    "cli.main",
    "decider.decide", "decider.canonical_key",
    "straightening.candidate_configurations",
    "embedding.validate_embedding", "embedding.embedding_from_json",
    "graph.block_cut_tree", "graph.Graph.components",
    "graph.treedepth_decomposition", "graph.decompose_degree2_paths",
    "graph.parse_edge_list",
    "td_pipeline.run_pipeline", "td_pipeline.normalize_decomposition",
    "td_pipeline.apply_rule1", "td_pipeline.apply_rule2",
    "td_pipeline.apply_rule3",
    "geometry.validate_geometric_1planar",
    "kernel.kernelize", "kernel.convex_certificate",
    "surgery.simplify", "surgery.reshorten",
    "reductions.gen_binpack_instance", "reductions.bandwidth_lift",
]
# hot functions: calls are only counted
COUNTED = ["geometry.segment_intersection"]
# generators: the items drawn are counted under the given metric
GENERATORS = {"decider.enumerate_crossing_sets": "decider.crossing_assignments"}

# (metric, unit, better); computed by Tracer.metrics
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("decider.decide.calls", "count", "lower"),
    ("decider.decide.self_s", "s", "lower"),
    ("decider.crossing_assignments", "count", "lower"),
    ("decider.embeddings_valid", "count", "lower"),
    ("decider.memo_hit_ratio", "ratio", "higher"),
    ("decider.canonical_key.s", "s", "lower"),
    ("straightening.candidate_configurations.calls", "count", "lower"),
    ("straightening.candidate_configurations.s", "s", "lower"),
    ("embedding.validate_embedding.calls", "count", "lower"),
    ("embedding.validate_embedding.s", "s", "lower"),
    ("embedding.embedding_from_json.s", "s", "lower"),
    ("graph.block_cut_tree.calls", "count", "lower"),
    ("graph.block_cut_tree.s", "s", "lower"),
    ("graph.components.calls", "count", "lower"),
    ("graph.components.s", "s", "lower"),
    ("graph.treedepth_decomposition.s", "s", "lower"),
    ("graph.decompose_degree2_paths.s", "s", "lower"),
    ("graph.parse_edge_list.s", "s", "lower"),
    ("td_pipeline.run_pipeline.self_s", "s", "lower"),
    ("td_pipeline.normalize_decomposition.s", "s", "lower"),
    ("td_pipeline.apply_rule1.s", "s", "lower"),
    ("td_pipeline.apply_rule2.s", "s", "lower"),
    ("td_pipeline.apply_rule3.s", "s", "lower"),
    ("td_pipeline.oracle_calls", "count", "lower"),
    ("td_pipeline.deletions", "count", "higher"),
    ("geometry.validate_geometric_1planar.calls", "count", "lower"),
    ("geometry.validate_geometric_1planar.s", "s", "lower"),
    ("geometry.segment_intersection.calls", "count", "lower"),
    ("kernel.kernelize.s", "s", "lower"),
    ("kernel.convex_certificate.s", "s", "lower"),
    ("kernel.cert_validations_per_cert", "ratio", "lower"),
    ("surgery.simplify.s", "s", "lower"),
    ("surgery.rule_steps", "count", "lower"),
    ("surgery.reshorten.s", "s", "lower"),
    ("reductions.gen_binpack_instance.s", "s", "lower"),
    ("reductions.bandwidth_lift.s", "s", "lower"),
    ("trace.instances_per_s_ratio", "ratio", "higher"),
]


def _short(target: str) -> str:
    """'graph.Graph.components' -> 'graph.components'."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.instance = None
        # span: [name, start, end, parent, instance, child_time, nested]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self.counts: Counter = Counter()  # current instance
        self.totals: Counter = Counter()  # completed instances
        self.completed: set = set()  # (instance, call) of finished calls
        self._failed_calls = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- instance bookkeeping ----------------------------------------------

    def begin(self, instance: int) -> None:
        """Start a traced call of ``instance``; its spans carry the pair
        (instance, call number), so a failed call's spans stay apart from
        those of the instance's finished calls."""
        self.instance = (instance, len(self.completed) + self._failed_calls)
        self.counts = Counter()
        self.on = True

    def end(self, completed: bool) -> None:
        self.on = False
        self._stack.clear()
        self._open_names.clear()
        if completed:
            self.completed.add(self.instance)
            self.totals.update(self.counts)
        else:
            self._failed_calls += 1

    # -- wrappers -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nested = self._open_names[name] > 0
        self._open_names[name] += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.instance, 0.0, nested])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open_names[span[0]] -= 1
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def _spanned(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            outermost = self._open_names[name] == 0
            memo = kwargs.get("memo")
            size = len(memo) if memo is not None else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(result, outermost, memo, size)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _generator(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.on:
                    self.counts[key] += 1
                yield item
        return wrapper

    # -- counters read from results -----------------------------------------

    def _after_decider_decide(self, verdict, outermost, memo, size):
        if outermost:
            self.counts["decider.embeddings_valid"] += \
                verdict.embeddings_enumerated
        if memo is not None:
            self.counts["memo_lookups"] += 1
            self.counts["memo_hits"] += len(memo) == size

    def _after_td_pipeline_run_pipeline(self, out, outermost, memo, size):
        if outermost:
            self.counts["td_pipeline.oracle_calls"] += out.oracle_calls
            self.counts["td_pipeline.deletions"] += len(out.deletions)

    def _after_surgery_simplify(self, out, outermost, memo, size):
        self.counts["surgery.rule_steps"] += out.rule1_steps + out.rule2_steps

    def _after_kernel_convex_certificate(self, out, outermost, memo, size):
        self.counts["certs"] += 1

    def _after_geometry_validate_geometric_1planar(self, out, outermost,
                                                   memo, size):
        if self._open_names["kernel.convex_certificate"]:
            self.counts["cert_validations"] += 1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "oneplanar" or k.startswith("oneplanar.")]
        for target in SPANNED + COUNTED + list(GENERATORS):
            mod_name, *path = target.split(".")
            module = sys.modules["oneplanar." + mod_name]
            owner = module
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            if target in GENERATORS:
                wrapper = self._generator(GENERATORS[target], original)
            elif target in COUNTED:
                wrapper = self._counted(_short(target), original)
            else:
                wrapper = self._spanned(_short(target), original)
            for holder in (modules if owner is module else [owner]):
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, passes: int, ips_ratio: float) -> dict:
        calls: Counter = Counter()
        total = defaultdict(float)
        self_time = defaultdict(float)
        for name, start, end, _, inst, child, nested in self.spans:
            if inst not in self.completed:
                continue
            calls[name] += 1
            self_time[name] += end - start - child
            if not nested:
                total[name] += end - start
        counts = Counter(self.totals)
        lookups = counts["memo_lookups"]
        certs = counts["certs"]
        values = {}
        for metric, unit, _ in PER_LAYER:
            base, _, what = metric.rpartition(".")
            if what == "calls":
                value = calls[base] or counts[metric]
            elif what == "self_s":
                value = self_time[base]
            elif what == "s":
                value = total[base]
            elif metric == "decider.memo_hit_ratio":
                value = counts["memo_hits"] / lookups if lookups else 0.0
            elif metric == "kernel.cert_validations_per_cert":
                value = counts["cert_validations"] / certs if certs else 0.0
            elif metric == "trace.instances_per_s_ratio":
                value = ips_ratio
            else:
                value = counts[metric]
            if unit != "ratio":
                value /= passes
            values[metric] = {"value": value, "unit": unit}
        return values

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, inst, child, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst[0],
                                     "call": inst[1],
                                     "self": (end - start - child)
                                     if end is not None else None}) + "\n")
