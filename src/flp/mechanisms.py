"""Facility placement mechanisms mapping reported locations to lotteries.

Every mechanism returns a :class:`~flp.model.Lottery`; deterministic rules
return a point mass.  Mechanisms only read the reported profile, never the
variant-specific costs, except for the optimal-cost baseline, which is the
deliberately manipulable negative control used to validate the refuter.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InputError, MechanismPreconditionError
from .model import Coord, Instance, Lottery, Solution, Variant, order_stats
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
Rule = Callable[[Sequence[Coord], int], RuleOutput]
"""A mechanism written over the sorted reports ``xs`` and the facility
count k.  It returns the denominator and the outcomes, and never raises on
a shape that passes :func:`position_rule`.  The weights are integers
whenever the reports are; they sum to the denominator.  An order-only
mechanism's rule ignores ``xs``: its outcomes depend on n and k alone."""


def _windows(n: int, k: int, offsets: Sequence[int]) -> RuleOutput:
    """An equal-weight lottery with one window per offset: k consecutive
    sorted positions starting (k-1)//2 left of the low median, moved right
    by the offset.  With offset 0 and k <= n, or offset -1, k=2 and n >= 3,
    the window lies on the line and holds the low median."""
    base = (n - 1) // 2 - (k - 1) // 2
    starts = (base + offset for offset in offsets)
    return len(offsets), tuple((tuple(range(s, s + k)), 1) for s in starts)


def _reverse_proportional(xs: Sequence[Coord], k: int) -> RuleOutput:
    """Randomise between the two median-adjacent pairs with probabilities
    inversely proportional to their gap from the median.

    With l, m, r the median's left neighbour, the median, and its right
    neighbour: pick {l, m} with probability d(m, r) / d(l, r) and {m, r}
    with probability d(l, m) / d(l, r), so the nearer neighbour is the more
    likely partner.  If l and r coincide with m, both pairs cost the same
    and the split is 1/2 each (odd n).
    """
    m = (len(xs) - 1) // 2
    gap_l = xs[m] - xs[m - 1]
    gap_r = xs[m + 1] - xs[m]
    if gap_l + gap_r == 0:
        return _windows(len(xs), k, (-1, 0))
    return gap_l + gap_r, (((m - 1, m), gap_r), ((m, m + 1), gap_l))


def _auto_sum(xs: Sequence[Coord], k: int) -> RuleOutput:
    """Parity dispatch: two-medians on even n (cost-optimal for the sum
    variant), reverse-proportional on odd n."""
    if len(xs) % 2 == 0:
        return _windows(len(xs), k, (0,))
    return _reverse_proportional(xs, k)


def _opt_sum_baseline(xs: Sequence[Coord], k: int) -> RuleOutput:
    """Point mass on the exact sum-variant optimum.  Cost-perfect but
    manipulable; kept as the refuter's negative control."""
    return 1, ((optimal_sum_window(xs, k), 1),)


_MECHANISMS: dict[
    MechanismId, tuple[Rule | tuple[int, ...], bool, int | None, int, bool]
] = {
    # id: (rule, or an order-only mechanism's window offsets, needs k=2,
    # required n % 2 or None, smallest n, sum only)
    MechanismId.TWO_MEDIANS: ((0,), True, 0, 2, False),
    MechanismId.MEDIAN_RIGHT: ((0,), True, None, 2, False),
    MechanismId.MEDIAN_LEFT: ((-1,), True, None, 3, False),
    MechanismId.UNIFORM: ((-1, 0), True, 1, 2, False),
    MechanismId.REVERSE_PROPORTIONAL: (_reverse_proportional, True, 1, 2, False),
    MechanismId.MEDIAN_BALL: ((0,), False, None, 2, False),
    MechanismId.AUTO_SUM: (_auto_sum, True, None, 2, False),
    MechanismId.OPT_SUM_BASELINE: (_opt_sum_baseline, False, None, 2, True),
}


def as_mechanism_id(mech: MechanismId | str) -> MechanismId:
    """``mech`` itself, or the id whose CLI spelling it is; InputError
    naming the known ids otherwise."""
    if isinstance(mech, MechanismId):
        return mech
    try:
        return MechanismId(mech)
    except ValueError:
        known = ", ".join(m.value for m in MechanismId)
        raise InputError(f"unknown mechanism {mech!r} (known: {known})") from None


def position_rule(mech: MechanismId | str, n: int, k: int, variant: Variant) -> Rule:
    """The rule behind ``mech`` (the id or its CLI spelling) for n agents,
    k facilities and ``variant``.  The returned rule is only valid for
    sorted reports of that shape.

    Preconditions depend on this shape alone, so every profile of it runs
    through the returned rule unchecked.  They are checked in order: the
    variant (UnsupportedVariantError), then k, the parity of n and the
    smallest n (MechanismPreconditionError).  An order-only mechanism's
    outcomes are fixed here, once per shape.
    """
    mech = as_mechanism_id(mech)
    rule, needs_k2, parity, min_n, sum_only = _MECHANISMS[mech]
    if sum_only:
        require_sum_variant(variant, mech.value)
    if needs_k2 and k != 2:
        raise MechanismPreconditionError(f"{mech.value} requires k=2, got k={k}")
    if parity is not None and n % 2 != parity:
        raise MechanismPreconditionError(
            f"{mech.value} requires an {('even', 'odd')[parity]} number of agents, "
            f"got n={n}"
        )
    if n < min_n:
        # Only median-left has a smallest n above 2.
        raise MechanismPreconditionError(
            f"{mech.value} requires the median to have a left neighbour, got n={n}"
        )
    if not isinstance(rule, tuple):
        return rule
    outcome = _windows(n, k, rule)
    return lambda xs, k: outcome


def apply(mech: MechanismId | str, inst: Instance) -> Lottery:
    """Run ``mech`` on ``inst``, raising as :func:`position_rule` does when
    it does not apply.

    The rule sees the reports in stable sorted order, so coincident reports
    resolve by agent index; its positions map back to agents through
    :func:`~flp.model.order_stats`.  The returned lottery passes
    :class:`~flp.model.Lottery`'s checks, so a rule whose weights do not sum
    to its denominator raises InvariantError.
    """
    rule = position_rule(mech, inst.n, inst.k, inst.variant)
    order = order_stats(inst)
    locs = inst.locations
    den, outcomes = rule([locs[i] for i in order], inst.k)
    return Lottery(
        tuple(
            (
                Solution(frozenset(order[p] for p in positions)),
                1 if weight == den else Fraction(weight, den),
            )
            for positions, weight in outcomes
        )
    )
