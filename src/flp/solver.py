"""Optimal solvers: exhaustive enumeration and a median-window fast path.

``brute_force_optimal`` is the ground-truth oracle: it evaluates the exact
social cost of every feasible solution, guarded by an enumeration budget.
``fast_optimal_sum`` exploits the structure of the SUM variant, where an
optimal solution is a run of consecutive sorted agents covering a median;
the two must always agree on cost, which the test suite checks at scale.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    EnumerationBudgetError,
    InputError,
    InvariantError,
    UnsupportedVariantError,
)
from .model import (
    Coord,
    Instance,
    Solution,
    Variant,
    order_stats,
    social_cost,
)

DEFAULT_BUDGET = math.comb(20, 6)
"""Default cap on enumerated solutions: every instance with n <= 20 and
k <= 6 fits, since C(n, k) <= C(20, 6) there."""

BUDGET_ENV_VAR = "FLP_BUDGET"


@dataclass(frozen=True, slots=True)
class OptResult:
    """An optimal solution together with its exact social cost."""

    solution: Solution
    cost: Coord


def enumeration_budget() -> int:
    """The active enumeration cap; the FLP_BUDGET env var overrides the default."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise InputError(
            f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise InputError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def brute_force_optimal(inst: Instance) -> OptResult:
    """Exhaustive optimum for either variant.

    Host sets are enumerated as combinations of agents in stable sorted
    order, i.e. lexicographically over sorted positions, and ties go to the
    first one: the all-leftmost window wins among equals.  Raises
    EnumerationBudgetError when C(n, k) exceeds :func:`enumeration_budget`.
    """
    n, k = inst.n, inst.k
    cap = enumeration_budget()
    count = math.comb(n, k)
    if count > cap:
        hint = (
            "; fast_optimal_sum solves the sum variant without enumeration"
            if inst.variant is Variant.SUM
            else ""
        )
        raise EnumerationBudgetError(
            f"C({n}, {k}) = {count} solutions exceeds the enumeration budget "
            f"of {cap}{hint}"
        )

    locs = inst.locations
    order = order_stats(inst)
    best_combo: tuple[int, ...] | None = None
    best_cost: Coord = 0
    if inst.variant is Variant.SUM:
        # Social cost of a solution is the sum over hosts of that host's
        # total distance to all agents, so precompute those totals once.
        host_total = {i: sum(abs(x - locs[i]) for x in locs) for i in range(n)}
        for combo in itertools.combinations(order, k):
            cost: Coord = 0
            for i in combo:
                cost += host_total[i]
            if best_combo is None or cost < best_cost:
                best_combo, best_cost = combo, cost
    else:
        for combo in itertools.combinations(order, k):
            cost = 0
            for x in locs:
                worst: Coord = 0
                for i in combo:
                    d = abs(x - locs[i])
                    if d > worst:
                        worst = d
                cost += worst
            if best_combo is None or cost < best_cost:
                best_combo, best_cost = combo, cost
    if best_combo is None:
        raise InvariantError(f"no host set enumerated for n={n}, k={k}")
    return OptResult(Solution(frozenset(best_combo)), best_cost)


def require_sum_variant(variant: Variant) -> None:
    """Raise UnsupportedVariantError unless ``variant`` is SUM."""
    if variant is not Variant.SUM:
        raise UnsupportedVariantError(
            "fast_optimal_sum only handles the sum variant; use "
            "brute_force_optimal for max"
        )


def optimal_sum_window(xs: Sequence[Coord], k: int) -> tuple[int, ...]:
    """Sorted positions of an optimal SUM-variant solution for the sorted
    reports ``xs``.

    For k = 2: the two medians when n is even; the median plus its nearer
    neighbour when n is odd (distance ties go left).  For larger k: the
    cheapest window of k consecutive positions that covers a median
    position, leftmost window first on ties.
    """
    n = len(xs)
    lo, hi = (n - 1) // 2, n // 2
    if k == 2:
        if n % 2 == 0:
            return (lo, hi)
        if xs[lo] - xs[lo - 1] <= xs[lo + 1] - xs[lo]:
            return (lo - 1, lo)
        return (lo, lo + 1)
    # min keeps the first of equal keys, i.e. the leftmost window.
    start = min(
        range(max(0, lo - k + 1), min(hi, n - k) + 1),
        key=lambda s: sum(abs(x - xs[p]) for p in range(s, s + k) for x in xs),
    )
    return tuple(range(start, start + k))


def fast_optimal_sum(inst: Instance) -> OptResult:
    """Optimal SUM-variant solution without enumerating all subsets: the
    positions chosen by :func:`optimal_sum_window`, mapped to agents through
    the stable sort order."""
    require_sum_variant(inst.variant)
    order = order_stats(inst)
    locs = inst.locations
    positions = optimal_sum_window([locs[i] for i in order], inst.k)
    sol = Solution(frozenset(order[p] for p in positions))
    return OptResult(sol, social_cost(inst, sol))
