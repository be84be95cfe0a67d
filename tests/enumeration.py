"""Enumeration oracle for the optimum: tries every host set, used by the
solver tests and acceptance criterion 6.

Host sets are combinations of agents in stable sorted order, i.e.
lexicographic over sorted positions, and ties go to the first one met, which
is the tie-break ``brute_force_optimal`` promises.  Costs come straight from
a table of agent-to-host distances, not from the cost model, kept in
integers by scaling every report by the common denominator.
"""

import itertools
import math
from fractions import Fraction

from flp import Instance, OptResult, Solution, Variant, order_stats


def enumerated_optimum(inst: Instance) -> OptResult:
    """First minimum-cost host set over all C(n, k) of them, with its cost."""
    scale = math.lcm(*(Fraction(x).denominator for x in inst.locations))
    locs = [int(x * scale) for x in inst.locations]
    dist = [[abs(x - h) for x in locs] for h in locs]  # dist[host][agent]
    if inst.variant is Variant.SUM:
        # Under sum a host set costs the sum of its hosts' totals.
        totals = [sum(row) for row in dist]

        def price(combo):
            return sum(totals[h] for h in combo)

    else:

        def price(combo):
            return sum(map(max, *(dist[h] for h in combo)))

    best = None
    best_cost = 0
    for combo in itertools.combinations(order_stats(inst), inst.k):
        cost = price(combo)
        if best is None or cost < best_cost:
            best, best_cost = combo, cost
    return OptResult(Solution(frozenset(best)), Fraction(best_cost, scale))
