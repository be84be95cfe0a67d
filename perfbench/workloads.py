"""Workload mixes, the per-op correctness gate and the output digest.

A workload is a fixed table of op shapes.  One *pass* generates a fresh
instance for every row of the table with ``flp.generators.generate`` and runs
one op per instance, so every pass has the same mix while no two passes share
an instance (a result cache inside the library cannot turn later passes into
lookups).  An op is one public library call, made the way the CLI makes it:
``sp_scan(mech, inst)`` as in ``verify-sp``, or ``approx_ratio(mech, inst)``
as in ``ratio-sweep``, optionally after one ``perturb`` step as ``search``'s
hill-climb does.

Mechanisms, variants and families are named by their CLI strings because the
benchmark re-imports ``flp`` for every set-up; each pass resolves them against
the module objects it was given.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

FAMILIES = ("uniform-int", "uniform-grid", "clustered", "coincident")

# tests/test_acceptance.py::SP_SUITE, (mechanism, variant, n, k, family, count),
# with every count divided by SP_SUITE_SCALE: 140 of its 7,000 scans per pass,
# in the same shapes and proportions.
SP_SUITE_SCALE = 50
SP_SUITE = (
    ("two-medians", "sum", 2, 2, "uniform-int", 150),
    ("two-medians", "sum", 4, 2, "uniform-int", 250),
    ("two-medians", "sum", 4, 2, "coincident", 200),
    ("two-medians", "sum", 4, 2, "uniform-grid", 200),
    ("two-medians", "sum", 6, 2, "clustered", 200),
    ("median-right", "sum", 3, 2, "uniform-int", 200),
    ("median-right", "sum", 3, 2, "coincident", 150),
    ("median-right", "sum", 5, 2, "uniform-grid", 150),
    ("median-right", "max", 3, 2, "uniform-int", 200),
    ("median-right", "max", 5, 2, "clustered", 150),
    ("median-right", "max", 4, 2, "coincident", 150),
    ("median-left", "sum", 3, 2, "uniform-int", 200),
    ("median-left", "sum", 3, 2, "coincident", 150),
    ("median-left", "sum", 4, 2, "uniform-grid", 150),
    ("median-left", "max", 3, 2, "uniform-int", 200),
    ("median-left", "max", 5, 2, "clustered", 150),
    ("median-left", "max", 4, 2, "coincident", 150),
    ("uniform", "max", 3, 2, "uniform-int", 350),
    ("uniform", "max", 3, 2, "coincident", 200),
    ("uniform", "max", 3, 2, "uniform-grid", 150),
    ("uniform", "max", 5, 2, "uniform-int", 150),
    ("uniform", "max", 5, 2, "clustered", 150),
    ("reverse-proportional", "sum", 3, 2, "uniform-int", 350),
    ("reverse-proportional", "sum", 3, 2, "coincident", 250),
    ("reverse-proportional", "sum", 3, 2, "uniform-grid", 200),
    ("reverse-proportional", "sum", 5, 2, "clustered", 200),
    ("median-ball", "sum", 3, 2, "uniform-int", 150),
    ("median-ball", "sum", 4, 3, "coincident", 100),
    ("median-ball", "sum", 5, 3, "uniform-grid", 100),
    ("median-ball", "sum", 6, 4, "uniform-int", 100),
    ("median-ball", "sum", 7, 5, "clustered", 50),
    ("median-ball", "max", 3, 2, "uniform-int", 150),
    ("median-ball", "max", 4, 3, "coincident", 100),
    ("median-ball", "max", 5, 3, "uniform-grid", 100),
    ("median-ball", "max", 6, 4, "uniform-int", 100),
    ("median-ball", "max", 7, 5, "clustered", 50),
    ("auto-sum", "sum", 3, 2, "uniform-int", 300),
    ("auto-sum", "sum", 4, 2, "uniform-int", 200),
    ("auto-sum", "sum", 3, 2, "coincident", 200),
    ("auto-sum", "sum", 4, 2, "uniform-grid", 150),
    ("auto-sum", "sum", 6, 2, "clustered", 150),
)

# The manipulable baseline as the negative control: scans that may end early
# on a violation, each of which the gate re-verifies.
SP_BASELINE = (
    ("opt-sum-baseline", "sum", 3, 2, "uniform-int", 2),
    ("opt-sum-baseline", "sum", 5, 2, "uniform-grid", 1),
    ("opt-sum-baseline", "sum", 4, 3, "clustered", 1),
    ("opt-sum-baseline", "sum", 7, 3, "coincident", 1),
)

# Ratio ops at the largest shapes where the enumerated optimum stays within a
# fraction of a second; (mechanism, variant, n, k), one instance per family.
# Each mechanism's smallest shape comes first, since set-up warms up on it.
SWEEP_LARGE = (
    ("median-right", "max", 10, 2),
    ("median-right", "max", 11, 2),
    ("median-right", "max", 12, 2),
    ("median-right", "max", 13, 2),
    ("median-right", "max", 14, 2),
    ("uniform", "max", 11, 2),
    ("uniform", "max", 13, 2),
    ("median-ball", "max", 10, 2),
    ("median-ball", "max", 11, 3),
    ("median-ball", "max", 12, 3),
    ("median-ball", "max", 12, 4),
    ("median-ball", "max", 13, 3),
    ("median-ball", "max", 14, 4),
    ("auto-sum", "sum", 30, 2),
    ("auto-sum", "sum", 31, 2),
    ("auto-sum", "sum", 36, 2),
    ("auto-sum", "sum", 37, 2),
    ("auto-sum", "sum", 40, 2),
    ("auto-sum", "sum", 41, 2),
    ("median-ball", "sum", 30, 2),
    ("median-ball", "sum", 35, 2),
    ("median-ball", "sum", 39, 2),
    ("median-ball", "sum", 33, 3),
    ("median-ball", "sum", 37, 3),
    ("median-ball", "sum", 39, 3),
    ("median-ball", "sum", 41, 3),
)

MECHANISMS = (
    "two-medians",
    "median-right",
    "median-left",
    "uniform",
    "reverse-proportional",
    "median-ball",
    "auto-sum",
    "opt-sum-baseline",
)


def applies(mech: str, variant: str, n: int, k: int) -> bool:
    """Whether ``mech`` accepts every instance of this shape (README table)."""
    if mech == "opt-sum-baseline":
        return variant == "sum"
    if mech == "median-ball":
        return True
    if k != 2:
        return False
    if mech == "two-medians":
        return n % 2 == 0
    if mech in ("uniform", "reverse-proportional"):
        return n % 2 == 1
    if mech == "median-left":
        return n >= 3
    return True


# The c2-c5 acceptance shapes: n 2-9, k 2-5, both variants, every mechanism
# whose precondition holds.
SWEEP_SMALL = tuple(
    (mech, variant, n, k)
    for variant in ("sum", "max")
    for n in range(2, 10)
    for k in range(2, min(5, n) + 1)
    for mech in MECHANISMS
    if applies(mech, variant, n, k)
)

WORKLOADS = ("sp-suite", "sweep-large", "sweep-small")


@dataclass(frozen=True)
class Op:
    """One library call.  ``move`` is an (agent, delta) step applied with
    ``flp.generators.perturb`` before the ratio is taken."""

    kind: str
    mech: object
    inst: object
    move: tuple[int, Fraction] | None = None


def _rows(workload: str) -> list[tuple[str, str, str, int, int, str, int]]:
    """(kind, mechanism, variant, n, k, family, count) for one pass."""
    if workload == "sp-suite":
        return [
            ("sp", mech, variant, n, k, family, count // SP_SUITE_SCALE)
            for mech, variant, n, k, family, count in SP_SUITE
        ] + [("sp", *row) for row in SP_BASELINE]
    table = SWEEP_LARGE if workload == "sweep-large" else SWEEP_SMALL
    return [
        ("ratio", mech, variant, n, k, family, 1)
        for mech, variant, n, k in table
        for family in FAMILIES
    ]


def _seed(*parts: object) -> int:
    text = ":".join(str(p) for p in ("perfbench", *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def build_pass(flp, workload: str, seed: int, index: int) -> list[Op]:
    """The ops of pass ``index``; the same (workload, seed, index) always gives
    the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for row, (kind, mech, variant, n, k, family, count) in enumerate(_rows(workload)):
        spec = flp.GenSpec(
            flp.Family(family),
            n=n,
            k=k,
            variant=flp.Variant(variant),
            seed=_seed(workload, seed, index, row),
            lo=0,
            hi=max(4, 2 * n),
            denominator=10,
        )
        mech_id = flp.MechanismId(mech)
        ops.extend(Op(kind, mech_id, inst) for inst in flp.generators.generate(spec, count))
    if workload == "sweep-small":
        # Every instance is also taken one hill-climb step away: a random
        # agent moves by +-span/2^j, j in 0..3, as in worst_ratio_search.
        rng = random.Random(_seed(workload, seed, index, "moves"))
        moved = []
        for op in ops:
            locs = op.inst.locations
            step = Fraction(max(locs) - min(locs) or 1, 2 ** rng.randrange(4))
            agent = rng.randrange(len(locs))
            moved.append(Op("ratio", op.mech, op.inst, (agent, rng.choice((step, -step)))))
        ops = [op for pair in zip(ops, moved) for op in pair]
    return ops


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The first op of each (kind, mechanism, variant) group."""
    seen: dict[tuple, Op] = {}
    for op in ops:
        seen.setdefault((op.kind, op.mech, op.inst.variant), op)
    return list(seen.values())


def call(flp, op: Op):
    """Run one op through the library's public entry points, looked up by
    module attribute at call time so that timing wrappers see the call."""
    if op.kind == "sp":
        return flp.verification.sp_scan(op.mech, op.inst)
    inst = op.inst
    if op.move is not None:
        inst = flp.generators.perturb(inst, *op.move)
    return flp.verification.approx_ratio(op.mech, inst)


def _reverified(flp, mech, inst, v) -> bool:
    """Recompute a reported violation with the checked ``expected_agent_cost``."""
    if v.true_location != inst.locations[v.agent]:
        return False
    honest = flp.expected_agent_cost(inst, flp.apply(mech, inst), v.agent, v.true_location)
    moved = inst.with_location(v.agent, v.misreport)
    deviated = flp.expected_agent_cost(
        moved, flp.apply(mech, moved), v.agent, v.true_location
    )
    return honest == v.honest_cost and deviated == v.deviated_cost and deviated < honest


def check(flp, op: Op, out) -> bool:
    """The correctness gate: True when ``out`` is a right answer for ``op``.

    SP scans: a strategyproof mechanism never yields a violation, and every
    baseline violation re-verifies.  Ratios: the report is for the op's
    instance, ratio = mechanism cost / optimum exactly, 1 <= ratio <= the
    declared ceiling, and a sum-variant optimum equals ``fast_optimal_sum``.
    """
    if op.kind == "sp":
        v = out.violation
        if v is None:
            return True
        return not flp.is_strategyproof(op.mech) and _reverified(flp, op.mech, op.inst, v)
    inst = op.inst
    if op.move is not None:
        agent, delta = op.move
        inst = inst.with_location(agent, inst.locations[agent] + delta)
    if out.mechanism is not op.mech or out.instance != inst:
        return False
    if out.opt_cost == 0:
        exact = out.mech_cost == 0 and out.ratio == 1
    else:
        exact = out.ratio == Fraction(out.mech_cost) / out.opt_cost
    bound = flp.declared_bound(op.mech, inst.variant, inst.n, inst.k)
    if not exact or out.ratio < 1 or (bound is not None and out.ratio > bound):
        return False
    return inst.variant is not flp.Variant.SUM or (
        out.opt_cost == flp.fast_optimal_sum(inst).cost
    )


def baseline_refuted(flp) -> bool:
    """The frozen negative control: the baseline is refuted on (0, 1, 3)."""
    mech = flp.MechanismId.OPT_SUM_BASELINE
    inst = flp.Instance((0, 1, 3), 2, flp.Variant.SUM)
    v = flp.sp_scan(mech, inst).violation
    return v is not None and _reverified(flp, mech, inst, v)


def digest_line(op: Op, out) -> str:
    """Exact, tie-break-independent text of one output: the SP verdict, or
    the mechanism cost, optimum and ratio (never the chosen solution)."""
    inst = op.inst
    head = f"{op.kind} {op.mech.value} {inst.variant.value} {inst.n} {inst.k}"
    if isinstance(out, Exception):
        return f"{head} error {type(out).__name__}"
    if op.kind == "sp":
        return f"{head} {'violation' if out.violation is not None else 'clean'}"
    return f"{head} {out.mech_cost} {out.opt_cost} {out.ratio}"


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
