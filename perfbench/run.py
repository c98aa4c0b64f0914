"""Benchmark of the oneplanar CLI.

    python3 perfbench/run.py --workload decide-dense --seed 1 --seconds 35 --trace 0

Runs one workload (decide-dense, td-pipeline or certify) in this process as
a closed loop with one client: each CLI call ``oneplanar.cli.main(argv)``
starts when the previous one has returned.  Set-up imports the package from
``src/`` of the checkout, draws the seeded corpus and writes its input
files.  The loop calls every instance once, then repeats passes over the
instances until ``--seconds`` have elapsed; an instance's time is the median
of its calls.  Argument parsing and file I/O of the CLI are inside the timed
span, interpreter start-up is not.  Every call is limited to ``LIMIT_S``
seconds and its outcome is checked outside the timed span.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the first untraced call of every instance is followed by
whole traced passes, and the last line holds their per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import corpus
import gate
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 5.0  # per call; finishing calls take < 2 s, timeouts > 30 s
SETUP_REPS = 7
REPEAT_S = 0.2  # untraced calls of one instance in a pass: at least this
REPEAT_MAX = 5  # long, at most this many

END_TO_END = [
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
REPORTED = [("failed_frac", "ratio"), ("wrong_outcomes", "count")]


class InstanceTimeout(BaseException):
    """Raised by SIGALRM inside a call that overran the limit.  A
    BaseException, so no ``except Exception`` in the program swallows it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout


def import_program():
    """Import ``oneplanar`` afresh from the checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "oneplanar" / "cli.py").is_file():
        raise SystemExit(f"error: no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "oneplanar" or m.startswith("oneplanar.")]:
        del sys.modules[name]
    import oneplanar.cli
    if not Path(oneplanar.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit("error: oneplanar imported from outside the checkout")
    return oneplanar.cli


def setup(workload: str, seed: int, tiny: bool, work: Path):
    """Import, draw the corpus and write its inputs SETUP_REPS times; the
    median of the repetitions is the set-up time.  The first repetition
    creates the input files and the others rewrite them, which is steadier
    on a shared disk than creating them afresh every time."""
    times = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        cli = import_program()
        instances = corpus.build(workload, seed, tiny)
        corpus.write_inputs(instances, work)
        times.append(time.perf_counter() - started)
    # The harness's own objects (pool, corpus) are frozen out of the
    # program's garbage collections, so they do not slow its calls.
    gc.collect()
    gc.freeze()
    return cli, instances, statistics.median(times)


def call(cli, argv: list[str], limit: float) -> tuple[str, int, str, float]:
    """One timed CLI call: (status, exit code, stdout, seconds)."""
    out = io.StringIO()
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        return "timeout", -1, "", time.perf_counter() - started
    except SystemExit as err:  # argparse usage errors
        code = err.code if isinstance(err.code, int) else 2
    except Exception:  # the program crashed: record it, keep going
        return "error", -1, traceback.format_exc(), \
            time.perf_counter() - started
    return "done", code, out.getvalue(), time.perf_counter() - started


def percentile(samples: list[float], q: float, band: float = 0.02) -> float:
    """The q-th percentile, as the mean of the samples whose nearest-rank
    positions lie within q +- band; averaging neighbouring ranks damps the
    timing noise of single calls.  Failed instances are +inf, so a band
    that reaches them is +inf."""
    ordered = sorted(samples)
    lo = max(0, math.ceil((q - band) * len(ordered)) - 1)
    hi = min(len(ordered), math.ceil((q + band) * len(ordered)))
    return statistics.fmean(ordered[lo:hi])


class Loop:
    """Runs passes over the corpus, keeps the time of every finished call
    and judges every outcome."""

    def __init__(self, cli, instances, limit, seed):
        self.cli, self.instances = cli, instances
        self.limit = limit
        self.order = random.Random(seed)
        self.times: list[list[float]] = [[] for _ in instances]
        self.traced: list[list[float]] = [[] for _ in instances]
        self.failed: dict[int, float] = {}  # instance -> its failed call's s
        self.first: dict[int, tuple[dict, str | None]] = {}
        self.wrong: dict[int, str] = {}
        self.unexpected: list[str] = []
        self.calls = 0

    def one_pass(self, tracer=None, deadline: float = math.inf) -> None:
        """Call every instance that has not failed, in a fresh seeded order
        so that calls of similar cost are spread over the run; stop early
        at ``deadline``.  Untraced, a cheap instance is called back to back
        until its calls in this pass reach REPEAT_S or REPEAT_MAX calls, so
        single-call noise does not set its time.  Traced passes call every
        instance once, so that their counts repeat exactly.  A failed
        instance is not called again."""
        indices = [i for i in range(len(self.instances))
                   if i not in self.failed]
        self.order.shuffle(indices)
        for i in indices:
            if time.perf_counter() >= deadline:
                break
            spent, calls = 0.0, 0
            while i not in self.failed and (
                    calls == 0
                    or (not tracer and spent < REPEAT_S
                        and calls < REPEAT_MAX)):
                spent += self.one_call(i, tracer)
                calls += 1

    def one_call(self, i: int, tracer) -> float:
        """Call instance i once, record and judge the call; its seconds."""
        inst = self.instances[i]
        if tracer:
            tracer.begin(i)
        status, code, stdout, secs = call(self.cli, inst.args, self.limit)
        if tracer:
            tracer.end(status == "done")
        self.calls += 1
        if status == "done":
            (self.traced if tracer else self.times)[i].append(secs)
            self.judge(i, inst, code, stdout)
        else:
            self.failed[i] = secs
            if inst.id not in corpus.RECORDED_TIMEOUTS or \
                    status != "timeout":
                self.unexpected.append(f"{inst.id}: {status} {stdout}")
        return secs

    def judge(self, i, inst, code, stdout) -> None:
        seen = gate.observe(inst, code, stdout)
        if i not in self.first:  # full check once, then require repeats
            self.first[i] = (seen, gate.check(inst, seen))
        first, reason = self.first[i]
        if seen != first:
            reason = "outcome changed between calls"
        if reason:
            self.wrong.setdefault(i, f"{inst.id}: {reason}")

    def latencies(self) -> list[float]:
        """Median time of each instance's calls; +inf when one failed."""
        return [math.inf if i in self.failed else statistics.median(t)
                for i, t in enumerate(self.times)]

    def instances_per_s(self) -> float:
        """Instances completed per second of one pass over the corpus, each
        instance taking its median time (a failed one, its failed call)."""
        spent = sum(self.failed[i] if i in self.failed
                    else statistics.median(t)
                    for i, t in enumerate(self.times))
        return (len(self.instances) - len(self.failed)) / spent

    def trace_overhead(self) -> float:
        """Traced over untraced instances_per_s, on instances with both."""
        both = [(u, t) for u, t in zip(self.times, self.traced) if u and t]
        return (sum(statistics.median(u) for u, _ in both)
                / sum(statistics.median(t) for _, t in both))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, limit: float = LIMIT_S,
                 tamper=None) -> dict:
    """Set up, measure and print; returns the final result object.
    ``tamper`` may edit the corpus before measuring (used by smoke.py)."""
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    try:
        cli, instances, setup_s = setup(workload, seed, tiny, work)
        if tamper:
            tamper(instances)
        os.chdir(work)
        loop = Loop(cli, instances, limit, seed)
        started = time.perf_counter()
        loop.one_pass()  # every instance once, untraced
        if trace:
            tracer = Tracer()
            tracer.install()
            passes = 0
            while passes == 0 or time.perf_counter() - started < seconds:
                loop.one_pass(tracer)
                passes += 1
        else:
            while time.perf_counter() - started < seconds:
                loop.one_pass(deadline=started + seconds)
    finally:
        if tracer:
            tracer.uninstall()
        signal.signal(signal.SIGALRM, previous)
        gc.unfreeze()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    latencies = loop.latencies()
    count = len(instances)
    values = {
        "setup_s": setup_s,
        "instances_per_s": loop.instances_per_s(),
        "latency_p50_ms": 1000 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "failed_frac": (len(loop.failed) + len(loop.wrong)) / count,
        "wrong_outcomes": len(loop.wrong),
    }
    print(f"workload {workload}, seed {seed}: closed loop, 1 client, "
          f"{count} instances, {loop.calls} calls in "
          f"{time.perf_counter() - started:.1f} s, limit {limit:g} s per call")
    for name, unit in END_TO_END + REPORTED:
        print(f"{name} {values[name]:.6g} {unit}")
    for line in list(loop.wrong.values()) + loop.unexpected:
        print(f"FAILED {line}")
    if tracer:
        metrics = tracer.metrics(passes, loop.trace_overhead())
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        tracer.dump(ROOT / ".perfbench" / f"trace-{workload}-{seed}.jsonl")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": not loop.wrong and not loop.unexpected,
              "attempted": loop.calls,
              "failed": len(loop.wrong) + len(loop.unexpected),
              "metrics": metrics}
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
