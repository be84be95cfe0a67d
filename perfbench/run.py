"""flp benchmark: one closed-loop client calling the library in-process.

Usage, from the root of a checkout (``flp`` is imported from ``src/``)::

    python3 perfbench/run.py --workload sp-suite --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py``):

* ``sp-suite``: ``sp_scan`` over the acceptance suite's SP mix plus a few
  manipulable-baseline scans.
* ``sweep-large``: ``approx_ratio`` at the largest enumerated shapes; the
  brute-force optimum dominates.
* ``sweep-small``: ``approx_ratio`` over the small acceptance shapes, half of
  them one ``perturb`` step away; per-call fixed costs dominate.

Each pass sets up from scratch (imports ``flp`` afresh, generates the pass's
instances, warms up), then times every op and checks every output with the
gate in ``workloads.check``.  Whole passes run until ``--seconds`` have gone
by.  ``--trace 0`` reports the end-to-end metrics, each as its worst value
over the run's passes: on a shared host the CPU's speed can change by more
than half within seconds as other tenants come and go, and a pass's worst
figure repeats across runs far better than a median or mean over the run.

``--trace 1`` builds each pass under the tracer, runs it untraced, then runs
the same ops traced.  It reports per-layer metrics per traced pass, the
tracing overhead (traced over untraced op time) and the share of op time
that no wrapped call covers.

A line of run information goes to stdout first; the last line of stdout is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  The pass-0
output digest of the default seed is pinned in ``digests.json``; a run of
that seed with another digest is not correct.  Exits 2, printing no result,
when ``src/flp`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0


def import_flp():
    """Import ``flp`` from this checkout's ``src``, dropping any earlier import
    so that each set-up pays for the whole import."""
    for name in [n for n in sys.modules if n == "flp" or n.startswith("flp.")]:
        del sys.modules[name]
    flp = importlib.import_module("flp")
    if Path(flp.__file__).resolve().parent != SRC / "flp":
        raise ImportError(f"flp imported from {flp.__file__}, not from {SRC}")
    return flp


def set_up(workload: str, seed: int, index: int):
    """Import ``flp`` afresh, generate pass ``index`` and warm up on the first
    op of each (kind, mechanism, variant) group; returns the module, the ops
    and the seconds taken."""
    t0 = time.perf_counter()
    flp = import_flp()
    ops = workloads.build_pass(flp, workload, seed, index)
    for op in workloads.warmup_ops(ops):
        workloads.call(flp, op)
    return flp, ops, time.perf_counter() - t0


class Run:
    """Op and failure counts of one run, and the digest of its first pass."""

    def __init__(self) -> None:
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.digest = ""

    @staticmethod
    def time_ops(flp, ops, tracer=None):
        """Run and time every op of one pass; returns the outputs (or the
        exceptions raised) and each op's time in ns."""
        timer, call = time.perf_counter_ns, workloads.call
        outs = []
        latency_ns = []
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = timer()
            try:
                out = call(flp, op)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            dt = timer() - t0
            if tracer is not None:
                tracer.end_op(dt)
            latency_ns.append(dt)
            outs.append(out)
        return outs, latency_ns

    def gate(self, flp, ops, outs) -> None:
        """Check every output of a pass; the first pass sets the digest."""
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                ok = False
                name = type(out).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
            else:
                try:
                    ok = workloads.check(flp, op, out)
                except Exception:  # a malformed output fails the gate
                    ok = False
            self.failed += not ok
        self.attempted += len(ops)
        if self.passes == 0:
            lines = [workloads.digest_line(op, out) for op, out in zip(ops, outs)]
            self.digest = workloads.digest(lines)
        self.passes += 1


def measure(workload: str, seed: int, seconds: float):
    """Untraced passes, each set up from scratch.  Each figure is its worst
    value over the passes: the longest set-up, the lowest throughput, the
    highest p50 and p90 latency."""
    set_up(workload, seed, 0)  # one-time costs: bytecode, first imports
    run = Run()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        flp, ops, setup_s = set_up(workload, seed, run.passes)
        gc.collect()
        outs, lat = run.time_ops(flp, ops)
        run.gate(flp, ops, outs)
        deciles = statistics.quantiles(lat, n=10)
        passes.append(
            (setup_s, len(lat) / (sum(lat) / 1e9), deciles[4] / 1e6, deciles[8] / 1e6,
             sum(x > deciles[8] for x in lat))
        )
    setup_s, rate, p50, p90, above_p90 = zip(*passes)
    metrics = {
        "setup_s": (max(setup_s), "s"),
        "ops_per_s": (min(rate), "1/s"),
        "op_ms_p50": (max(p50), "ms"),
        "op_ms_p90": (max(p90), "ms"),
        "pass_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = {
        "samples_per_pass": len(ops),
        "samples_above_p90": min(above_p90),
        # Per pass: set-up s, ops/s, p50 ms, p90 ms.
        "pass_figures": [[round(x, 4) for x in p[:4]] for p in passes],
    }
    return flp, run, metrics, info, True


def measure_traced(workload: str, seed: int, seconds: float):
    """Each round builds a pass under the tracer, runs it untraced, then runs
    the same ops again traced; per-layer figures are per traced pass."""
    flp, _, _ = set_up(workload, seed, 0)
    gc.collect()
    run = Run()
    tracer = tracing.Tracer(flp)
    plain_ns = rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        with tracer:
            ops = workloads.build_pass(flp, workload, seed, rounds)
        outs, lat = run.time_ops(flp, ops)
        plain_ns += sum(lat)
        run.gate(flp, ops, outs)
        with tracer:
            outs, _ = run.time_ops(flp, ops, tracer)
        run.gate(flp, ops, outs)
        rounds += 1
    metrics = {}
    for label in tracing.LABELS:
        metrics[f"{label}.calls"] = (tracer.calls[label] / rounds, "count/pass")
        metrics[f"{label}.self_ms"] = (tracer.self_ns[label] / 1e6 / rounds, "ms/pass")
    for name, count in tracer.counts.items():
        metrics[name] = (count / rounds, "count/pass")
    evaluated = tracer.counts["verification.sp_scan.deviations_evaluated"]
    tried = evaluated + tracer.counts["verification.sp_scan.deviations_skipped"]
    metrics["verification.sp_scan.evaluated_ratio"] = (evaluated / tried if tried else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (tracer.op_ns / plain_ns, "ratio")
    metrics["trace.uncovered_ratio"] = (tracer.uncovered_ns / tracer.op_ns, "ratio")
    info = {"traced_passes": rounds, "overcovered_ops": tracer.overcovered_ops}
    return flp, run, metrics, info, tracer.overcovered_ops == 0


def git_sha() -> str:
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


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pinned_digest(workload: str) -> str | None:
    return json.loads((HERE / "digests.json").read_text())[workload]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flp" / "__init__.py").is_file():
        print(f"error: no flp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    measure_fn = measure_traced if args.trace else measure
    flp, run, metrics, info, trace_ok = measure_fn(args.workload, args.seed, args.seconds)
    refuted = workloads.baseline_refuted(flp)
    pinned = pinned_digest(args.workload) if args.seed == DEFAULT_SEED else None
    digest_ok = pinned is None or pinned == run.digest
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "passes": run.passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "errors": run.errors,
        "digest": run.digest,
        "digest_pinned": pinned,
        "baseline_refuted": refuted,
        **info,
    }
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": run.failed == 0 and refuted and digest_ok and trace_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
