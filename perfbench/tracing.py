"""Per-layer timing wrappers for the traced benchmark run.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces the
public callables below with timing wrappers wherever an ``flp`` module binds
them (the defining module, every module that imported the name, and the
package namespace), plus two ``Instance`` methods on the class, so calls
between layers are timed at the boundary they cross.  ``uninstall`` puts the
originals back.

A span's self time is its duration minus the durations of the wrapped calls
it made.  The benchmark brackets each op with ``begin_op``/``end_op``; the
part of an op covered by no wrapped call is its *uncovered* time (loop and
wrapper overhead, plus any code reached without crossing a wrapper).
"""

from __future__ import annotations

import math
import sys
from time import perf_counter_ns

# (module, attribute) of each wrapped function; its label is "<module>.<name>".
FUNCTIONS = (
    ("generators", "generate"),
    ("generators", "perturb"),
    ("model", "order_stats"),
    ("model", "social_cost"),
    ("model", "expected_social_cost"),
    ("mechanisms", "apply"),
    ("solver", "brute_force_optimal"),
    ("solver", "fast_optimal_sum"),
    ("verification", "approx_ratio"),
    ("verification", "sp_scan"),
)
# (label, attribute) of each wrapped ``flp.model.Instance`` method.
METHODS = (
    ("model.instance_validation", "__post_init__"),
    ("model.with_location", "with_location"),
)

LABELS = (
    "generators.generate",
    "generators.perturb",
    "model.instance_validation",
    "model.with_location",
    "model.order_stats",
    "model.social_cost",
    "model.expected_social_cost",
    "mechanisms.apply",
    "solver.brute_force_optimal.sum",
    "solver.brute_force_optimal.max",
    "solver.fast_optimal_sum",
    "verification.approx_ratio",
    "verification.sp_scan",
)
COUNTERS = (
    "solver.sets_enumerated",
    "verification.sp_scan.deviations_evaluated",
    "verification.sp_scan.deviations_skipped",
)


class Tracer:
    def __init__(self, flp) -> None:
        self._flp = flp
        self.calls = dict.fromkeys(LABELS, 0)
        self.self_ns = dict.fromkeys(LABELS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        # Each open span's running total of child durations; [0] is the root.
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []
        self.op_ns = 0
        self.uncovered_ns = 0
        self.overcovered_ops = 0

    def _wrap(self, fn, label, after=None):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack

        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                child = stack.pop()
                calls[name] += 1
                self_ns[name] += dur - child
                stack[-1] += dur
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_sets(self, args, result) -> None:
        inst = args[0]
        self.counts["solver.sets_enumerated"] += math.comb(inst.n, inst.k)

    def _count_deviations(self, args, result) -> None:
        self.counts["verification.sp_scan.deviations_evaluated"] += result.evaluated
        self.counts["verification.sp_scan.deviations_skipped"] += result.skipped

    def install(self) -> None:
        flp = self._flp
        modules = [m for n, m in sys.modules.items() if n == "flp" or n.startswith("flp.")]
        for module_name, name in FUNCTIONS:
            original = getattr(getattr(flp, module_name), name)
            label, after = f"{module_name}.{name}", None
            if name == "brute_force_optimal":
                label = lambda args: f"solver.brute_force_optimal.{args[0].variant.value}"
                after = self._count_sets
            elif name == "sp_scan":
                after = self._count_deviations
            wrapper = self._wrap(original, label, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        cls = flp.model.Instance
        for label, attr in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, label))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_op(self) -> None:
        self._stack.append(0)

    def end_op(self, op_ns: int) -> None:
        covered = self._stack.pop()
        self.op_ns += op_ns
        self.uncovered_ns += op_ns - covered
        if covered > op_ns:
            self.overcovered_ops += 1
