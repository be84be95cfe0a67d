"""Declared worst-case approximation bounds and strategyproofness claims.

Each row gives the guaranteed ceiling on expected-social-cost / optimum for
a (mechanism, variant) pair at even n and at odd n: an exact constant, an
exact function of (n, k), or None when no guarantee is claimed (sweeping
such a configuration never trips the bound check).
The same rows, minus the optimal-cost baseline, are the pairs claimed to be
strategyproof.

Every ceiling is exact, :data:`RP_BOUND` = 10 - 4*sqrt(5) too: compare with ``>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Callable, Optional, Union

from .mechanisms import MechanismId, as_mechanism_id
from .model import Variant, require


@total_ordering
@dataclass(frozen=True)
class Surd:
    """The irrational a + b*sqrt(c), for rational b != 0 and non-square int c > 0.
    Compares exactly with any int or Fraction, in either order; equals none."""

    a: Fraction
    b: Fraction
    c: int

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        u, b = self.a - other, self.b  # self > other iff u + b*sqrt(c) > 0
        if u * b >= 0:  # u and b agree in sign, or one is 0
            return u + b > 0
        return (u * u - b * b * self.c) * u > 0  # the larger of u*u, b*b*c wins

    def __str__(self) -> str:
        return f"{self.a} {'-' if self.b < 0 else '+'} {abs(self.b)}*sqrt({self.c})"


RP_BOUND = Surd(Fraction(10), Fraction(-4), 5)
"""The tight reverse-proportional ceiling 10 - 4*sqrt(5) ~ 1.0557280900."""

# "Surd" by name: typing caches each Union, and the class would pin every re-import.
_Ceiling = Union[Fraction, "Surd", Callable[[int, int], Fraction], None]
"""A ratio ceiling: a constant, a function of (n, k), or None for no claim."""

BOUND_TABLE: dict[tuple[MechanismId, Variant], tuple[_Ceiling, _Ceiling]] = {
    # (mechanism, variant): (ceiling at even n, ceiling at odd n)
    (MechanismId.TWO_MEDIANS, Variant.SUM): (Fraction(1), Fraction(1)),
    (MechanismId.MEDIAN_RIGHT, Variant.SUM): (
        Fraction(1),
        lambda n, k: Fraction(n, n - 1),
    ),
    (MechanismId.MEDIAN_RIGHT, Variant.MAX): (
        Fraction(2),
        lambda n, k: Fraction(2 * n, n - 1),
    ),
    (MechanismId.MEDIAN_LEFT, Variant.SUM): (None, lambda n, k: Fraction(n, n - 1)),
    (MechanismId.MEDIAN_LEFT, Variant.MAX): (
        None,
        lambda n, k: Fraction(2 * n, n - 1),
    ),
    (MechanismId.UNIFORM, Variant.MAX): (
        lambda n, k: Fraction(3 * n - 1, 2 * n - 2),
        lambda n, k: Fraction(3 * n - 1, 2 * n - 2),
    ),
    (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM): (RP_BOUND, RP_BOUND),
    (MechanismId.MEDIAN_BALL, Variant.SUM): (Fraction(2), Fraction(2)),
    (MechanismId.MEDIAN_BALL, Variant.MAX): (
        lambda n, k: Fraction(k + 1),
        lambda n, k: Fraction(k + 1),
    ),
    (MechanismId.AUTO_SUM, Variant.SUM): (Fraction(1), RP_BOUND),
    (MechanismId.OPT_SUM_BASELINE, Variant.SUM): (Fraction(1), Fraction(1)),
}


def declared_bound(
    mech: MechanismId | str, variant: Variant, n: int, k: int
) -> Optional[Fraction | Surd]:
    """The guaranteed ratio ceiling for this configuration, or None if the
    mechanism makes no claim for this variant (or this parity of n)."""
    key = (as_mechanism_id(mech), require(variant, Variant, "variant"))
    require(n, int, "n")
    require(k, int, "k")
    row = BOUND_TABLE.get(key)
    ceiling = None if row is None else row[n % 2]
    return ceiling(n, k) if callable(ceiling) else ceiling


def is_strategyproof(mech: MechanismId | str, variant: Variant | None = None) -> bool:
    """Whether ``mech`` is claimed strategyproof (in expectation) under
    ``variant``, or under some variant when ``variant`` is omitted.

    The claim covers exactly the pairs with a :data:`BOUND_TABLE` row, except
    the optimal-cost baseline, which is deliberately manipulable so that the
    manipulation search has a known-positive target.
    """
    mech = as_mechanism_id(mech)
    if variant is None:
        claimed = any(m is mech for m, _ in BOUND_TABLE)
    else:
        claimed = (mech, require(variant, Variant, "variant")) in BOUND_TABLE
    return claimed and mech is not MechanismId.OPT_SUM_BASELINE
