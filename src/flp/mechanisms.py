"""Facility placement mechanisms mapping reported locations to lotteries.

Every mechanism returns a :class:`~flp.model.Lottery`; deterministic rules
return a point mass.  Mechanisms only read the reported profile, never the
variant-specific costs, except for the optimal-cost baseline, which is the
deliberately manipulable negative control used to validate the refuter.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from .errors import InputError, MechanismPreconditionError
from .model import Coord, Instance, Lottery, Solution, Variant, exact_div, order_stats
from .solver import optimal_sum_window, require_sum_variant


class MechanismId(enum.Enum):
    """Stable identifiers, doubling as the CLI spelling of each mechanism."""

    TWO_MEDIANS = "two-medians"
    MEDIAN_RIGHT = "median-right"
    MEDIAN_LEFT = "median-left"
    UNIFORM = "uniform"
    REVERSE_PROPORTIONAL = "reverse-proportional"
    MEDIAN_BALL = "median-ball"
    AUTO_SUM = "auto-sum"
    OPT_SUM_BASELINE = "opt-sum-baseline"


Outcomes = tuple[tuple[tuple[int, ...], Coord], ...]
"""A rule's lottery: (sorted positions, weight) pairs.  Position p is the
(p+1)-th smallest report; an outcome's probability is weight / denominator."""

RuleOutput = tuple[Coord, Outcomes]
Rule = Callable[[Sequence[Coord], int, Variant], RuleOutput]
"""A mechanism written over the sorted reports ``xs``, the facility count k
and the variant.  It returns the denominator and the outcomes, or raises
when its precondition fails.  The weights are integers whenever the reports
are; they sum to the denominator."""


def _require_k2(k: int, name: str) -> None:
    if k != 2:
        raise MechanismPreconditionError(f"{name} requires k=2, got k={k}")


def _odd_n_median(xs: Sequence[Coord], k: int, name: str) -> int:
    """Position of the median for rules that need k=2 and odd n >= 3."""
    _require_k2(k, name)
    if len(xs) % 2 == 0:
        raise MechanismPreconditionError(
            f"{name} requires an odd number of agents, got n={len(xs)}"
        )
    return (len(xs) - 1) // 2


def _two_medians(xs: Sequence[Coord], k: int, variant: Variant) -> RuleOutput:
    """Open both median agents.  Needs k=2 and even n (odd n has one median)."""
    _require_k2(k, "two-medians")
    n = len(xs)
    if n % 2 != 0:
        raise MechanismPreconditionError(
            f"two-medians requires an even number of agents, got n={n}"
        )
    return 1, (((n // 2 - 1, n // 2), 1),)


def _median_right(xs: Sequence[Coord], k: int, variant: Variant) -> RuleOutput:
    """Open the low median and its right sorted neighbour.  Needs k=2."""
    _require_k2(k, "median-right")
    m = (len(xs) - 1) // 2
    return 1, (((m, m + 1), 1),)


def _median_left(xs: Sequence[Coord], k: int, variant: Variant) -> RuleOutput:
    """Open the low median and its left sorted neighbour.  Needs k=2 and n >= 3."""
    _require_k2(k, "median-left")
    m = (len(xs) - 1) // 2
    if m == 0:
        raise MechanismPreconditionError(
            f"median-left requires the median to have a left neighbour, got n={len(xs)}"
        )
    return 1, (((m - 1, m), 1),)


def _uniform(xs: Sequence[Coord], k: int, variant: Variant) -> RuleOutput:
    """Open {left neighbour, median} or {median, right neighbour}, each with
    probability 1/2.  Needs k=2 and odd n >= 3."""
    m = _odd_n_median(xs, k, "uniform")
    return 2, (((m - 1, m), 1), ((m, m + 1), 1))


def _reverse_proportional(xs: Sequence[Coord], k: int, variant: Variant) -> RuleOutput:
    """Randomise between the two median-adjacent pairs with probabilities
    inversely proportional to their gap from the median.

    With l, m, r the median's left neighbour, the median, and its right
    neighbour: pick {l, m} with probability d(m, r) / d(l, r) and {m, r}
    with probability d(l, m) / d(l, r), so the nearer neighbour is the more
    likely partner.  If l and r coincide with m, both pairs cost the same
    and the split is 1/2 each.  Needs k=2 and odd n >= 3.
    """
    m = _odd_n_median(xs, k, "reverse-proportional")
    gap_l = xs[m] - xs[m - 1]
    gap_r = xs[m + 1] - xs[m]
    if gap_l + gap_r == 0:
        return _uniform(xs, k, variant)
    return gap_l + gap_r, (((m - 1, m), gap_r), ((m, m + 1), gap_l))


def _median_ball(xs: Sequence[Coord], k: int, variant: Variant) -> RuleOutput:
    """Open a window of k consecutive sorted agents balanced around the low
    median: (k-1)/2 on each side for odd k, one fewer on the left for even
    k.  At the ends of the line the window shifts inward so it keeps k
    agents; it always still contains the median.  Works for any 2 <= k <= n.
    """
    n = len(xs)
    start = max(0, min((n - 1) // 2 - (k - 1) // 2, n - k))
    return 1, ((tuple(range(start, start + k)), 1),)


def _auto_sum(xs: Sequence[Coord], k: int, variant: Variant) -> RuleOutput:
    """Parity dispatch for k=2: two-medians on even n (cost-optimal for the
    sum variant), reverse-proportional on odd n."""
    _require_k2(k, "auto-sum")
    if len(xs) % 2 == 0:
        return _two_medians(xs, k, variant)
    return _reverse_proportional(xs, k, variant)


def _opt_sum_baseline(xs: Sequence[Coord], k: int, variant: Variant) -> RuleOutput:
    """Point mass on the exact sum-variant optimum.  Cost-perfect but
    manipulable; kept as the refuter's negative control.  Sum variant only."""
    require_sum_variant(variant, "opt-sum-baseline")
    return 1, ((optimal_sum_window(xs, k), 1),)


_RULES: dict[MechanismId, Rule] = {
    MechanismId.TWO_MEDIANS: _two_medians,
    MechanismId.MEDIAN_RIGHT: _median_right,
    MechanismId.MEDIAN_LEFT: _median_left,
    MechanismId.UNIFORM: _uniform,
    MechanismId.REVERSE_PROPORTIONAL: _reverse_proportional,
    MechanismId.MEDIAN_BALL: _median_ball,
    MechanismId.AUTO_SUM: _auto_sum,
    MechanismId.OPT_SUM_BASELINE: _opt_sum_baseline,
}


def position_rule(mech: MechanismId | str) -> Rule:
    """The rule behind ``mech``; accepts the id or its CLI spelling."""
    if not isinstance(mech, MechanismId):
        try:
            mech = MechanismId(mech)
        except ValueError:
            known = ", ".join(m.value for m in MechanismId)
            raise InputError(f"unknown mechanism {mech!r} (known: {known})") from None
    return _RULES[mech]


def apply(mech: MechanismId | str, inst: Instance) -> Lottery:
    """Run ``mech`` on ``inst``, raising MechanismPreconditionError (or, for
    the baseline on a max instance, UnsupportedVariantError) when it does
    not apply.

    The rule sees the reports in stable sorted order, so coincident reports
    resolve by agent index; its positions map back to agents through
    :func:`~flp.model.order_stats`.  The returned lottery passes
    :class:`~flp.model.Lottery`'s checks, so a rule whose weights do not sum
    to its denominator raises InvariantError.
    """
    rule = position_rule(mech)
    order = order_stats(inst)
    locs = inst.locations
    den, outcomes = rule([locs[i] for i in order], inst.k, inst.variant)
    return Lottery(
        tuple(
            (
                Solution(frozenset(order[p] for p in positions)),
                1 if weight == den else exact_div(weight, den),
            )
            for positions, weight in outcomes
        )
    )

