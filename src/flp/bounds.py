"""Declared worst-case approximation bounds and strategyproofness claims.

Each entry gives the guaranteed ceiling on expected-social-cost / optimum for
a (mechanism, variant) pair as an exact function of n and k, or None when no
guarantee is claimed (sweeping such a pair never trips the bound check).
The same rows, minus the optimal-cost baseline, are the pairs claimed to be
strategyproof.

The reverse-proportional guarantee is an irrational constant; comparisons use
:data:`RP_BOUND`, a fixed rational over-approximation accurate to 12 digits,
so an exact ratio that meets the true bound always passes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .mechanisms import MechanismId
from .model import Variant

RP_BOUND = Fraction(1_055_728_090_001, 10**12)
"""Rational over-approximation (12 correct digits) of the tight
reverse-proportional constant, which is approximately 1.0557280900."""

BoundFn = Callable[[int, int], Optional[Fraction]]


def _one(n: int, k: int) -> Fraction:
    return Fraction(1)


def _median_pair_sum(n: int, k: int) -> Fraction:
    # Even n: the mechanism opens the two medians, which is sum-optimal.
    return Fraction(1) if n % 2 == 0 else Fraction(n, n - 1)


def _median_pair_sum_odd_only(n: int, k: int) -> Optional[Fraction]:
    return Fraction(n, n - 1) if n % 2 == 1 else None


def _median_pair_max(n: int, k: int) -> Fraction:
    return Fraction(2) if n % 2 == 0 else Fraction(2 * n, n - 1)


def _median_pair_max_odd_only(n: int, k: int) -> Optional[Fraction]:
    return Fraction(2 * n, n - 1) if n % 2 == 1 else None


def _uniform_max(n: int, k: int) -> Fraction:
    return Fraction(3 * n - 1, 2 * n - 2)


def _rp_bound(n: int, k: int) -> Fraction:
    return RP_BOUND


def _auto_sum(n: int, k: int) -> Fraction:
    return Fraction(1) if n % 2 == 0 else RP_BOUND


def _ball_sum(n: int, k: int) -> Fraction:
    return Fraction(2)


def _ball_max(n: int, k: int) -> Fraction:
    return Fraction(k + 1)


BOUND_TABLE: dict[tuple[MechanismId, Variant], BoundFn] = {
    (MechanismId.TWO_MEDIANS, Variant.SUM): _one,
    (MechanismId.MEDIAN_RIGHT, Variant.SUM): _median_pair_sum,
    (MechanismId.MEDIAN_RIGHT, Variant.MAX): _median_pair_max,
    (MechanismId.MEDIAN_LEFT, Variant.SUM): _median_pair_sum_odd_only,
    (MechanismId.MEDIAN_LEFT, Variant.MAX): _median_pair_max_odd_only,
    (MechanismId.UNIFORM, Variant.MAX): _uniform_max,
    (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM): _rp_bound,
    (MechanismId.MEDIAN_BALL, Variant.SUM): _ball_sum,
    (MechanismId.MEDIAN_BALL, Variant.MAX): _ball_max,
    (MechanismId.AUTO_SUM, Variant.SUM): _auto_sum,
    (MechanismId.OPT_SUM_BASELINE, Variant.SUM): _one,
}


def declared_bound(
    mech: MechanismId, variant: Variant, n: int, k: int
) -> Optional[Fraction]:
    """The guaranteed ratio ceiling for this configuration, or None if the
    mechanism makes no claim for this variant (or this parity of n)."""
    fn = BOUND_TABLE.get((mech, variant))
    return None if fn is None else fn(n, k)


def is_strategyproof(mech: MechanismId, variant: Variant | None = None) -> bool:
    """Whether ``mech`` is claimed strategyproof (in expectation) under
    ``variant``, or under some variant when ``variant`` is omitted.

    The claim covers exactly the pairs with a :data:`BOUND_TABLE` row, except
    the optimal-cost baseline, which is deliberately manipulable so that the
    manipulation search has a known-positive target.
    """
    if mech is MechanismId.OPT_SUM_BASELINE:
        return False
    if variant is None:
        return any(m is mech for m, _ in BOUND_TABLE)
    return (mech, variant) in BOUND_TABLE
