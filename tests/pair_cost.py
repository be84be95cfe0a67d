"""Closed-form cost of a median-adjacent pair: an oracle for the generic cost
evaluator, used by the model tests and acceptance criterion 8.

For an odd-n sum-variant instance with median m and left/right sorted
neighbour x, opening {m, x} costs 2 * sum_i d(i, m) + d(m, x).
"""

import enum

from flp import Coord, InputError, Instance, Solution, order_stats, social_cost


class Side(enum.Enum):
    """Selects the left or right neighbour of the low median."""

    LEFT = "left"
    RIGHT = "right"


def median_pair(inst: Instance, side: Side) -> tuple[int, int]:
    """(median agent, its ``side`` sorted neighbour) of an odd-n instance."""
    order = order_stats(inst)
    m = (inst.n - 1) // 2
    return order[m], order[m - 1 if side is Side.LEFT else m + 1]


def lemma_pair_cost(inst: Instance, side: Side) -> Coord:
    """Closed form 2 * sum_i d(i, m) + d(m, x) for the pair {median, neighbour}.

    For the SUM variant this equals ``social_cost`` of that pair exactly.
    Requires odd n >= 3 and k = 2.
    """
    n = inst.n
    if n % 2 == 0:
        raise InputError(f"pair cost formula needs an odd number of agents, got n={n}")
    if inst.k != 2:
        raise InputError(f"pair cost formula is defined for k=2, got k={inst.k}")
    median, neighbour = median_pair(inst, side)
    m = inst.locations[median]
    total: Coord = 0
    for loc in inst.locations:
        total += abs(loc - m)
    return 2 * total + abs(m - inst.locations[neighbour])


def lemma_pair_cost_consistent(inst: Instance) -> bool:
    """True when the closed-form pair cost matches the generic evaluator for
    both median-adjacent pairs of an odd sum-variant instance."""
    return all(
        lemma_pair_cost(inst, side)
        == social_cost(inst, Solution(frozenset(median_pair(inst, side))))
        for side in Side
    )
