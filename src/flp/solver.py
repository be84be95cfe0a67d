"""Optimal solvers: an exact window scan and a median-window fast path.

``brute_force_optimal`` is the ground truth: under either variant it prices
every window of k consecutive sorted reports exactly, through one prefix-sum
array.  ``fast_optimal_sum`` only tries the SUM-variant windows that cover a
median; the two must always agree on cost, which the test suite checks at
scale against an enumeration oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .errors import InvariantError, UnsupportedVariantError
from .model import (
    Coord,
    Instance,
    Solution,
    Variant,
    order_stats,
    social_cost,
)


@dataclass(frozen=True, slots=True)
class OptResult:
    """An optimal solution together with its exact social cost."""

    solution: Solution
    cost: Coord


def brute_force_optimal(inst: Instance) -> OptResult:
    """Exact optimum for either variant, in O(n) after the sort.

    Some optimal host set is a window of k consecutive stable sorted
    positions, so the n - k + 1 windows are priced from one prefix-sum array.
    Ties go to the first optimal host set in lexicographic order over sorted
    positions (the order in which enumerating all C(n, k) host sets would
    meet them).  Under sum that set is a window of coordinates, not always of
    positions: on (0, 0, 1, 2, 2) with k = 2 it is {0, 2}.
    """
    n, k = inst.n, inst.k
    if k > n:
        raise InvariantError(f"no host set of {k} agents among n={n}")
    locs = inst.locations
    order = order_stats(inst)
    xs = [locs[i] for i in order]
    prefix: list[Coord] = [0]
    for x in xs:
        prefix.append(prefix[-1] + x)
    total = prefix[n]
    if inst.variant is Variant.SUM:
        # A host set costs its hosts' total distances to all agents.
        totals = [x * (2 * p - n) - 2 * prefix[p] + total for p, x in enumerate(xs)]
        runs = list(accumulate(totals, initial=0))
    best, cost, mid = 0, None, 0
    for s in range(n - k + 1):
        if inst.variant is Variant.SUM:
            price = runs[s + k] - runs[s]
        else:
            # An agent pays its distance to the farther window end: agents
            # before mid pay xb - x, the rest pay x - xa.
            xa, xb = xs[s], xs[s + k - 1]
            while mid < n and 2 * xs[mid] <= xa + xb:
                mid += 1
            price = mid * xb - 2 * prefix[mid] + total - (n - mid) * xa
        if cost is None or price < cost:
            best, cost = s, price
    # Cost depends only on coordinates, so the window's reports equal to its
    # first one take their earliest positions; under max the first cheapest
    # window never starts inside such a run.
    first = bisect_left(xs, xs[best], 0, best)
    end = bisect_right(xs, xs[best], best, best + k)
    positions = [*range(first, first + end - best), *range(end, best + k)]
    return OptResult(Solution(frozenset(order[p] for p in positions)), cost)


def require_sum_variant(variant: Variant, name: str) -> None:
    """Raise UnsupportedVariantError, naming the caller ``name``, unless
    ``variant`` is SUM."""
    if variant is not Variant.SUM:
        raise UnsupportedVariantError(
            f"{name} only handles the sum variant, got {variant.value}"
        )


def optimal_sum_window(xs: Sequence[Coord], k: int) -> tuple[int, ...]:
    """Sorted positions of an optimal SUM-variant solution for the sorted
    reports ``xs``.

    For k = 2: the two medians when n is even; the median plus its nearer
    neighbour when n is odd (distance ties go left).  For larger k: the
    cheapest window of k consecutive positions that covers a median
    position, leftmost window first on ties.  A window costs the sum of its
    hosts' totals T(p) = sum of |x - xs[p]| over all reports; T is summed
    once at the first host and stepped right with
    T(p + 1) = T(p) + (xs[p + 1] - xs[p]) * (2p + 2 - n), so the scan takes
    O(n + k).
    """
    n = len(xs)
    lo, hi = (n - 1) // 2, n // 2
    if k == 2:
        if n % 2 == 0:
            return (lo, hi)
        if xs[lo] - xs[lo - 1] <= xs[lo + 1] - xs[lo]:
            return (lo - 1, lo)
        return (lo, lo + 1)
    first, last = max(0, lo - k + 1), min(hi, n - k)
    host = sum(abs(x - xs[first]) for x in xs)  # T(first)
    totals = [host]
    for p in range(first, last + k - 1):
        host += (xs[p + 1] - xs[p]) * (2 * p + 2 - n)
        totals.append(host)
    price = cost = sum(totals[:k])
    start = first
    for s in range(first + 1, last + 1):
        price += totals[s - first + k - 1] - totals[s - first - 1]
        if price < cost:  # strict: the leftmost window keeps a tie
            start, cost = s, price
    return tuple(range(start, start + k))


def fast_optimal_sum(inst: Instance) -> OptResult:
    """Optimal SUM-variant solution from the median windows alone: the
    positions chosen by :func:`optimal_sum_window`, mapped to agents through
    the stable sort order."""
    require_sum_variant(inst.variant, "fast_optimal_sum")
    order = order_stats(inst)
    locs = inst.locations
    positions = optimal_sum_window([locs[i] for i in order], inst.k)
    sol = Solution(frozenset(order[p] for p in positions))
    return OptResult(sol, social_cost(inst, sol))
