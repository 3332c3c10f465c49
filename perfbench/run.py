#!/usr/bin/env python3
"""Seeded benchmark of heq's public API: analyze, the verify path and the oracle.

One process, one thread, closed loop: each call starts when the previous one
has returned.  Every instance is built with a known answer (workloads.py) and
every output passes the correctness gate (gate.py).  A run repeats passes over
the workload's instance set until --seconds have elapsed.  Every timing is
scaled to a fixed host speed with the reference clock (refclock.py), and
each operation reports the sum over instances of each instance's scaled
mean over its passes.

    python3 perfbench/run.py --workload parabolic --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 prints the end-to-end metrics; --trace 1 wraps heq's layer
boundaries (spans.py) and prints per-layer self times and size counts.  The
last line of standard output is the JSON result; the line before it holds
the environment, the output digest and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import gate
import workloads as wl
from refclock import REF_SECONDS, RefClock
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LONG_LENGTHS = (32, 38, 44, 50, 56, 62)

# workload -> (full instance set, reduced set for --smoke)
WORKLOADS = {
    "small_batch": (lambda rng: wl.small_batch(rng, 500),
                    lambda rng: wl.small_batch(rng, 10)),
    "parabolic": (lambda rng: wl.parabolic(rng, (100, 200, 400)),
                  lambda rng: wl.parabolic(rng, (20, 40))),
    "long_words": (lambda rng: wl.long_words(rng, LONG_LENGTHS, 8),
                   lambda rng: wl.long_words(rng, (10, 12, 14, 16), 4)),
    "oracle": (lambda rng: wl.oracle(rng, 8, 2),
               lambda rng: wl.oracle(rng, 5, 2)),
}

OPS = ("analyze", "verify", "oracle")

# span name -> per-layer metric; bench.* spans are the benchmark's own glue
SPAN_METRICS = {
    "words.decompose": "words.decompose_s",
    "schreier.build": "schreier.build_s",
    "freewords.rewrite": "freewords.rewrite_s",
    "stallings.presentation": "stallings.presentation_s",
    "equations.reduce": "equations.reduce_s",
    "equations.evaluate": "equations.evaluate_s",
    "equations.substitute": "equations.substitute_s",
    "pipeline.analyze": "pipeline.analyze_self_s",
    "pipeline.serialize": "pipeline.serialize_s",
    "pipeline.from_dict": "pipeline.from_dict_s",
    "pipeline.verify": "pipeline.verify_self_s",
    "enumeration.search": "enumeration.search_s",
    "enumeration.evaluate": "enumeration.recheck_s",
    "enumeration.reduce": "enumeration.recheck_s",
}
COUNT_METRICS = ("words.letters", "schreier.index", "schreier.generators",
                 "freewords.v_letters", "stallings.rank", "stallings.relators",
                 "equations.ideal_letters", "enumeration.candidates",
                 "enumeration.witnesses", "psl2.products")

SETUP_REPEATS = 9
SHORT_OP = 0.005
SHORT_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import heq; "
    "heq.analyze([heq.ProjMat2(2, -1, -1, 1), heq.ProjMat2(2, -5, 1, -2)], "
    "heq.ProjMat2(5, 3, 3, 2)); print('ready', flush=True); "
    "sys.path.insert(0, sys.argv[2]); import refclock; print(refclock.time_reference())"
)


def load_heq():
    """Import heq from this checkout's src/, and from nowhere else."""
    if not (SRC / "heq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no heq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heq

    if Path(heq.__file__).resolve().parent != (SRC / "heq").resolve():
        sys.exit(f"perfbench: imported heq from {heq.__file__}, not {SRC}")
    return heq


def measure_setup() -> tuple[float, float]:
    """(scaled, wall) time of a fresh interpreter that imports heq and runs
    the first call (the first worked example).

    The child times the reference itself once it is ready, so the scale
    comes from the same process and moment as the set-up; the parent's own
    reference ticks can come from another CPU."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(120, proc.kill)  # a hung child ends readline()
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        end = perf_counter()
        ref = proc.stdout.readline()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode or ready.strip() != "ready":
        raise RuntimeError(f"set-up child failed with code {proc.returncode}")
    return (end - start) * REF_SECONDS / float(ref), end - start


def commit() -> str:
    """HEAD of the checkout's git metadata, or 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report_counts(report, witnesses) -> Counter:
    ctx = report.ctx
    return Counter({
        "words.letters": sum(map(len, ctx.h_words)) + len(ctx.g_word),
        "schreier.index": report.index,
        "schreier.generators": len(report.w_words),
        "freewords.v_letters": sum(map(len, report.v_words)),
        "stallings.rank": report.presentation.rank,
        "stallings.relators": len(report.presentation.relators),
        "equations.ideal_letters": sum(map(len, report.ideal_words)),
        "enumeration.witnesses": len(witnesses),
    })


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


class Outcome:
    """What one pass did with one instance."""

    def __init__(self):
        self.times: dict[str, list[tuple[float, float]]] = {op: [] for op in OPS}
        self.untraced_analyze: tuple[float, float] | None = None
        self.window: tuple[float, float] = (0.0, 0.0)
        self.problems: dict[str, list[str]] = {op: [] for op in OPS}
        self.analysis_digest: str | None = None
        self.witnesses: tuple = ()
        self.counts: Counter = Counter()
        self.layers: Counter = Counter()      # self time per per-layer metric
        self.layer_time: Counter = Counter()  # self time per (root span, layer)
        self.backend: str | None = None


def timed(fn, intervals: list, repeat: bool):
    """Call fn and append its (start, end) to intervals.  With repeat, an
    operation that returns within SHORT_OP seconds is called again, up to
    SHORT_REPEATS calls, and every call counts as a sample: a 2 ms call
    alone would leave too few samples to average contention out."""
    start = perf_counter()
    result = fn()
    intervals.append((start, perf_counter()))
    while repeat and len(intervals) < SHORT_REPEATS and perf_counter() - intervals[0][0] < SHORT_OP:
        start = perf_counter()
        fn()
        intervals.append((start, perf_counter()))
    return result


def run_instance(heq, inst: wl.Instance, deep: bool, tracer: Tracer | None,
                 clock: RefClock) -> Outcome:
    """analyze, then to_dict -> JSON -> from_dict -> verify, then the oracle.

    The reference clock ticks before each operation when a tick is due, and
    never inside one.  Short operations are repeated only when untraced, so
    that a traced pass holds one call of each."""
    out = Outcome()
    pipeline, enumeration = heq.pipeline, heq.enumeration
    hs = [heq.ProjMat2(*m) for m in inst.hs]
    g = heq.ProjMat2(*inst.g)
    repeat = tracer is None
    if tracer is not None:
        clock.tick_if_due()
        start = perf_counter()
        pipeline.analyze(hs, g)
        out.untraced_analyze = (start, perf_counter())
    span = tracer.span if tracer is not None else (lambda name: nullcontext())

    def verify_path():
        with span("bench.verify"):
            with span("pipeline.serialize"):
                data = json.loads(json.dumps(report.to_dict()))
            return data, pipeline.verify(pipeline.AnalysisReport.from_dict(data))

    clock.tick_if_due()
    window_start = perf_counter()
    with tracer.installed(heq) if tracer is not None else nullcontext():
        try:
            report = timed(lambda: pipeline.analyze(hs, g), out.times["analyze"], repeat)
        except Exception as exc:  # a failed operation is counted, not fatal
            for op in OPS:
                out.problems[op].append(f"analyze raised {exc!r}")
            return out
        out.problems["analyze"] += gate.analysis_problems(inst, report, deep)

        try:
            clock.tick_if_due()
            data, result = timed(verify_path, out.times["verify"], repeat)
            out.problems["verify"] += gate.verification_problems(result)
        except Exception as exc:
            out.problems["verify"].append(f"verify path raised {exc!r}")
            data = None

        try:
            clock.tick_if_due()
            found = timed(lambda: enumeration.enumerate_kernel(report.ctx, inst.oracle_len),
                          out.times["oracle"], repeat)
            out.witnesses = found.witnesses
            out.backend = found.backend
            out.problems["oracle"] += gate.oracle_problems(inst, found.witnesses, deep)
        except Exception as exc:
            out.problems["oracle"].append(f"oracle raised {exc!r}")
    out.window = (window_start, perf_counter())

    texts = [e["text"] for e in data["equations"]] if data else None
    out.analysis_digest = digest([report.verdict, texts])
    out.counts = report_counts(report, out.witnesses)
    if tracer is not None:
        for (root, name), secs in tracer.self_times().items():
            if name in SPAN_METRICS:
                out.layers[SPAN_METRICS[name]] += secs
                out.layer_time[root, name.split(".")[0]] += secs
        out.counts["enumeration.candidates"] = tracer.counts()["enumeration.evaluate"]
        out.counts["psl2.products"] = tracer.products
        tracer.clear()
    return out


class Measurement:
    """Passes over one instance set, with the gate's bookkeeping.

    Timings are kept per instance and per pass as (start, end) and scaled
    with the reference clock once the run is over; an instance's cost is its
    scaled mean over its passes.  Set-up is measured between passes, in
    fresh interpreters, and reported as the median.
    """

    def __init__(self, heq, instances: list[wl.Instance], traced: bool):
        self.heq = heq
        self.instances = instances
        self.tracer = Tracer() if traced else None
        self.clock = RefClock()
        self.samples = {op: [[] for _ in instances] for op in OPS}
        self.untraced = [[] for _ in instances]        # traced runs only
        self.layers = [[] for _ in instances]          # per-pass (window, Counter of self times)
        self.layer_time: Counter = Counter()           # (root span, layer) -> seconds
        self.setup_times: list[tuple[float, float]] = []  # (scaled, wall)
        self.first_counts: Counter | None = None
        self.first_outputs: list[tuple] | None = None
        self.backends: set[str] = set()
        self.passes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, stop_at: float) -> None:
        """One pass over the instances.  Every pass after the first stops
        at stop_at, even part-way; the size counts are compared only for a
        whole pass."""
        deep = self.passes == 0
        outcomes = []
        for inst in self.instances:
            if not deep and perf_counter() >= stop_at:
                break
            outcomes.append(run_instance(self.heq, inst, deep, self.tracer, self.clock))
        outputs = [(out.analysis_digest, out.witnesses) for out in outcomes]
        counts = sum((out.counts for out in outcomes), Counter())
        if deep:
            family = gate.family_problems(self.instances, {
                inst.name: out.witnesses for inst, out in zip(self.instances, outcomes)})
            for inst, out in zip(self.instances, outcomes):
                out.problems["oracle"] += family.get(inst.name, [])
            self.first_counts, self.first_outputs = counts, outputs
        else:
            for out, ref, now in zip(outcomes, self.first_outputs, outputs):
                if now[0] != ref[0]:
                    out.problems["analyze"].append("report differs from the first pass")
                if now[1] != ref[1]:
                    out.problems["oracle"].append("witnesses differ from the first pass")
            if len(outcomes) == len(self.instances):
                self.attempted += 1  # the size counts, checked as one operation
                if counts != self.first_counts:
                    self.failures.append(
                        f"pass {self.passes}: size counts differ from the first pass")
        for i, (inst, out) in enumerate(zip(self.instances, outcomes)):
            for op in OPS:
                self.attempted += 1
                self.samples[op][i].extend(out.times[op])
                if out.problems[op]:
                    self.failures.append(f"pass {self.passes} {inst.name} {op}: "
                                         + "; ".join(out.problems[op]))
            if out.untraced_analyze is not None:
                self.untraced[i].append(out.untraced_analyze)
            if self.tracer is not None:
                self.layers[i].append((out.window, out.layers))
                self.layer_time.update(out.layer_time)
            if out.backend:
                self.backends.add(out.backend)
        self.passes += 1

    def run(self, seconds: float, setups: int, max_passes: int | None = None) -> None:
        deadline = perf_counter() + seconds
        while True:
            if len(self.setup_times) < setups:
                self.setup_times.append(measure_setup())
            self.run_pass(deadline)
            if perf_counter() >= deadline or (max_passes and self.passes >= max_passes):
                break
        while len(self.setup_times) < setups:
            self.setup_times.append(measure_setup())
        self.clock.tick()  # closes the last operation's interval

    def per_instance(self, op: str, scaled: bool = True) -> list[float]:
        """Each instance's mean time for op over its passes, scaled or wall."""
        return [self.clock.scaled_mean(s) if scaled else statistics.mean(e - b for b, e in s)
                for s in self.samples[op] if s]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        analyze_ms = [t * 1e3 for t in self.per_instance("analyze")]
        return {
            "analyze_s": (sum(self.per_instance("analyze")), "s"),
            "verify_s": (sum(self.per_instance("verify")), "s"),
            "analyze_p50_ms": (statistics.median(analyze_ms), "ms"),
            "analyze_p99_ms": (statistics.quantiles(analyze_ms, n=100, method="inclusive")[98], "ms"),
            "oracle_s": (sum(self.per_instance("oracle")), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(t for t, _ in self.setup_times), "s"),
            "correct_frac": (1 - len(self.failures) / self.attempted, "frac"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        out = {}
        for metric in dict.fromkeys(SPAN_METRICS.values()):
            out[metric] = (sum(
                self.clock.scaled_mean([w for w, _ in passes], [c[metric] for _, c in passes])
                for passes in self.layers if passes), "s")
        for metric in COUNT_METRICS:
            out[metric] = (self.first_counts[metric], "count")
        untraced = sum(self.clock.scaled_mean(s) for s in self.untraced if s)
        out["trace.overhead_ratio"] = (sum(self.per_instance("analyze")) / untraced, "ratio")
        return out

    def layer_share(self, root: str | None = None) -> dict[str, float]:
        """Each layer's share of the traced self time, under one root span
        (pipeline.analyze, bench.verify, enumeration.search) or all."""
        by_layer: Counter = Counter()
        for (r, layer), secs in self.layer_time.items():
            if root is None or r == root:
                by_layer[layer] += secs
        total = sum(by_layer.values())
        return {k: round(v / total, 4) for k, v in by_layer.most_common()} if total else {}

    def info(self) -> dict:
        return {
            "instances": len(self.instances),
            "passes": self.passes,
            "latency_samples": len(self.per_instance("analyze")),
            "wall_s": {op: round(sum(self.per_instance(op, scaled=False)), 6) for op in OPS},
            "setup_wall_s": (round(statistics.median(w for _, w in self.setup_times), 6)
                             if self.setup_times else None),
            "ref_ms": {"median": round(statistics.median(self.clock.ref) * 1e3, 4),
                       "min": round(min(self.clock.ref) * 1e3, 4),
                       "max": round(max(self.clock.ref) * 1e3, 4)},
            "digest": digest(self.first_outputs),
            "counts": dict(sorted(self.first_counts.items())),
            "failures": self.failures[:20],
            "backend": sorted(self.backends),
            "layer_share": self.layer_share(),
            "analyze_layer_share": self.layer_share("pipeline.analyze"),
        }


def warm_up(heq) -> None:
    """One untimed round trip, so lazy imports and regex compiles are paid."""
    ctx_g = heq.ProjMat2(*wl.WORKED_G[wl.ALGEBRAIC])
    report = heq.analyze([heq.ProjMat2(*m) for m in wl.WORKED_H], ctx_g)
    heq.verify(heq.AnalysisReport.from_dict(json.loads(json.dumps(report.to_dict()))))
    heq.enumerate_kernel(report.ctx, 3)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }


def run_workload(heq, name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> tuple[Measurement, dict]:
    full, reduced = WORKLOADS[name]
    instances = (reduced if smoke else full)(random.Random(f"{name}:{seed}"))
    m = Measurement(heq, instances, traced)
    setups = 0 if traced else (1 if smoke else SETUP_REPEATS)
    m.run(seconds, setups, max_passes=1 if smoke else None)
    return m, dict(workload=name, seed=seed, trace=int(traced), **m.info())


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def smoke(heq, seed: int) -> int:
    """Every workload at reduced size, untraced and traced, through the gate."""
    attempted = failed = 0
    for name in WORKLOADS:
        for traced in (False, True):
            m, info = run_workload(heq, name, seed, 0, traced, smoke=True)
            print(json.dumps(info))
            attempted += m.attempted
            failed += len(m.failures)
            metrics = m.per_layer() if traced else m.end_to_end()
            for key, (value, _) in metrics.items():
                if not value >= -1e-9:  # NaN or a negative self time
                    failed += 1
                    print(f"bad metric {name} {key}={value}")
    print(result_line(failed == 0, attempted, failed, {}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at reduced size; exit 1 on any failure")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    heq = load_heq()
    if args.smoke:
        return smoke(heq, args.seed)
    warm_up(heq)
    m, info = run_workload(heq, args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = m.per_layer() if args.trace else m.end_to_end()
    print(json.dumps({"env": environment(), **info}))
    print(result_line(not m.failures, m.attempted, len(m.failures), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
