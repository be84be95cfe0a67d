"""Optimal solvers: an exact rule per variant and a median-window fast path.

``brute_force_optimal`` is the ground truth: it prices host sets exactly over
the sorted reports, through one prefix-sum array.  ``fast_optimal_sum``
exploits the structure of the SUM variant, where an optimal solution is a run
of consecutive sorted agents covering a median; the two must always agree on
cost, which the test suite checks at scale against an enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Exact optimum for either variant, in O(n log n) for sum and O(n^2)
    for max.

    Ties go to the first optimal host set in lexicographic order over stable
    sorted positions (the order in which enumerating all C(n, k) host sets
    would meet them), so the all-leftmost choice wins among equals.
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
        # Social cost is the sum over hosts of each host's total distance to
        # all agents, so the k smallest totals win; the stable sort keeps the
        # leftmost positions among equal totals.
        totals = [x * (2 * p - n) - 2 * prefix[p] + total for p, x in enumerate(xs)]
        positions = sorted(sorted(range(n), key=totals.__getitem__)[:k])
        cost = sum(totals[p] for p in positions)
    else:
        # An agent's cost is its distance to the farther of the outermost
        # hosts a < b, so only that pair matters: hosts a .. a+k-2 plus b is
        # the first host set with those ends, and pairs are scanned in order.
        best: tuple[int, int] | None = None
        cost = 0
        for a in range(n - k + 1):
            xa = xs[a]
            mid = a + 1
            for b in range(a + k - 1, n):
                xb = xs[b]
                while mid < n and 2 * xs[mid] <= xa + xb:
                    mid += 1
                # Agents before mid pay xb - x, the rest pay x - xa.
                pair = mid * xb - 2 * prefix[mid] + total - (n - mid) * xa
                if best is None or pair < cost:
                    best, cost = (a, b), pair
        a, b = best  # k <= n leaves at least the pair (0, n - 1)
        positions = [*range(a, a + k - 1), b]
    return OptResult(Solution(frozenset(order[p] for p in positions)), cost)


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
