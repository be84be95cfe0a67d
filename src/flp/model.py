"""Core model: instances, solutions, lotteries, and exact cost evaluation.

Facilities live on the real line and may only be opened at locations reported
by the agents themselves.  All arithmetic is exact: coordinates, costs, and
probabilities are rational numbers represented as Python ``int`` or
``fractions.Fraction`` (both exact, totally ordered, and freely mixable).
Floats are rejected at every entry point.

Agent indices are 0-based positions into ``Instance.locations``.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TypeVar, Union

from .errors import InfeasibleError, InputError, InvariantError, ParseError

_T = TypeVar("_T")

Coord = Union[int, Fraction]
"""An exact rational number.  ``int`` is kept as-is for speed; a ``Fraction``
with denominator 1 is normalised to ``int`` on entry."""


class Variant(enum.Enum):
    """How an agent aggregates its distances to the k open facilities."""

    SUM = "sum"
    MAX = "max"


def as_coord(value: object) -> Coord:
    """Coerce ``value`` to an exact rational coordinate.

    Accepts ``int``, ``Fraction``, and strings in decimal ("1.5", "0.2361")
    or ratio ("3/2", "-1/2") form.  Decimal strings parse exactly, never
    through binary floating point.  Floats are rejected.
    """
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            shown = repr(value[:40])  # quote no more than 40 characters
            if len(value) > 40:
                shown += f"... ({len(value):,} characters)"
            if "set_int_max_str_digits" in str(exc):  # Python's int/str limit
                raise ParseError(f"cannot parse {shown}: {exc}") from None
            raise ParseError(f"cannot parse {shown} as a rational number") from exc
    elif isinstance(value, float):
        raise InputError(
            f"refusing float {value!r}: pass an int, Fraction, or string so the "
            "value stays exact"
        )
    return _require_coord(value, "coordinate")


def coord_str(value: Coord) -> str:
    """Canonical text form of a coordinate ("3", "-1/2").  Round-trips through
    :func:`as_coord` without value change.  Python's int/str digit limit
    applies; a longer value raises InputError."""
    try:
        return str(value)
    except ValueError:
        raise InputError(
            f"exact value exceeds the {sys.get_int_max_str_digits()}-digit int/str "
            "conversion limit; lift it with sys.set_int_max_str_digits(0)"
        ) from None


def _require_coord(value: object, what: str) -> Coord:
    if type(value) is int:  # the common case; bool has type bool, not int
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an exact rational, got {value!r}")
    return value


def require(value: _T, kind: type, what: str, least: int | None = None) -> _T:
    """``value`` itself, once it is a ``kind`` (a bool is no int) and, when
    ``least`` is given, at least ``least``; InputError naming ``what``
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "aeiou" else "a"
        raise InputError(f"{what} must be {article} {kind.__name__}, got {value!r}")
    if least is not None and value < least:
        raise InputError(f"{what} must be >= {least}, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class Instance:
    """A profile of reported locations plus the number of facilities to open.

    ``locations`` preserves the reported order; sorting is a view computed by
    :func:`order_stats`.  Requires n >= 2 agents and 2 <= k <= n facilities
    (facilities must sit at distinct agent indices, so k > n is infeasible).
    """

    locations: tuple[Coord, ...]
    k: int
    variant: Variant

    def __post_init__(self) -> None:
        clean = tuple(_require_coord(x, "coordinate") for x in self.locations)
        object.__setattr__(self, "locations", clean)
        n = len(clean)
        if n < 2:
            raise InfeasibleError(f"need at least 2 agents, got {n}")
        require(self.k, int, "k")
        if self.k < 2:
            raise InfeasibleError(f"need at least 2 facilities, got k={self.k}")
        if self.k > n:
            raise InfeasibleError(f"infeasible: k exceeds n (k={self.k}, n={n})")
        require(self.variant, Variant, "variant")

    @property
    def n(self) -> int:
        return len(self.locations)

    def with_location(self, agent: int, value: Coord) -> "Instance":
        """Copy of this instance where ``agent`` reports ``value`` instead."""
        self.check_agent(agent)
        locs = list(self.locations)
        locs[agent] = _require_coord(value, "coordinate")
        return Instance(tuple(locs), self.k, self.variant)

    def check_agent(self, agent: int) -> None:
        require(agent, int, "agent index")
        if not 0 <= agent < len(self.locations):
            raise InputError(
                f"agent index {agent} out of range for n={len(self.locations)}"
            )


@dataclass(frozen=True, slots=True)
class Solution:
    """A set of k distinct agent indices hosting the facilities."""

    hosts: frozenset[int]

    def __post_init__(self) -> None:
        if not isinstance(self.hosts, frozenset):
            object.__setattr__(self, "hosts", frozenset(self.hosts))
        if not self.hosts:
            raise InvariantError("a solution must open at least one facility")
        for h in self.hosts:
            if type(h) is not int or h < 0:
                raise InputError(f"host must be a nonnegative agent index, got {h!r}")

    def sorted_hosts(self) -> tuple[int, ...]:
        return tuple(sorted(self.hosts))

    def coords(self, inst: Instance) -> tuple[Coord, ...]:
        """Host coordinates sorted by (coordinate, agent index), for display."""
        hosts = sorted(self.hosts, key=lambda i: (inst.locations[i], i))
        return tuple(inst.locations[i] for i in hosts)


def check_feasible(inst: Instance, sol: Solution) -> None:
    """Raise unless ``sol`` opens exactly ``inst.k`` facilities at valid agents."""
    if len(sol.hosts) != inst.k:
        raise InputError(
            f"solution opens {len(sol.hosts)} facilities, instance requires k={inst.k}"
        )
    n = len(inst.locations)
    for h in sol.hosts:
        if h >= n:
            raise InputError(f"host index {h} out of range for n={n}")


Prob = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Lottery:
    """A probability distribution over solutions with exact probabilities.

    Zero-probability outcomes are dropped at construction, so a lottery whose
    mass collapses onto one solution compares equal to the point mass.
    """

    support: tuple[tuple[Solution, Prob], ...]

    def __post_init__(self) -> None:
        total: Prob = 0
        seen: set[frozenset[int]] = set()
        cleaned: list[tuple[Solution, Prob]] = []
        for sol, p in self.support:
            p = _require_coord(p, "probability")
            if p < 0:
                raise InvariantError(f"negative probability {p} in lottery")
            if p == 0:
                continue
            if sol.hosts in seen:
                raise InvariantError(
                    f"duplicate solution {sorted(sol.hosts)} in lottery support"
                )
            seen.add(sol.hosts)
            cleaned.append((sol, p))
            total += p
        if total != 1:
            raise InvariantError(f"lottery probabilities sum to {total}, expected 1")
        object.__setattr__(self, "support", tuple(cleaned))


def point_cost(
    point: Coord, coords: Sequence[Coord], hosts: Iterable[int], variant: Variant
) -> Coord:
    """Cost a single point pays toward facilities at ``coords[h]`` for each
    ``h`` in ``hosts``: the sum (SUM) or the maximum (MAX) of the distances."""
    if variant is Variant.SUM:
        total: Coord = 0
        for h in hosts:
            total += abs(point - coords[h])
        return total
    worst: Coord = 0
    for h in hosts:
        d = abs(point - coords[h])
        if d > worst:
            worst = d
    return worst


def social_cost(inst: Instance, sol: Solution) -> Coord:
    """Total cost: sum of every agent's cost toward ``sol``."""
    check_feasible(inst, sol)
    locs, variant = inst.locations, inst.variant
    total: Coord = 0
    for loc in locs:
        total += point_cost(loc, locs, sol.hosts, variant)
    return total


def expected_social_cost(inst: Instance, lottery: Lottery) -> Coord:
    """Probability-weighted social cost of a lottery over solutions."""
    total: Coord = 0
    for sol, p in lottery.support:
        total += p * social_cost(inst, sol)
    return total


def expected_agent_cost(
    inst: Instance, lottery: Lottery, agent: int, true_location: Coord
) -> Coord:
    """Expected cost of ``agent`` measured from ``true_location``.

    ``inst`` may be a deviated profile; the cost is still evaluated from the
    agent's true location, which is what a manipulation check compares.
    """
    inst.check_agent(agent)
    point = _require_coord(true_location, "true_location")
    total: Coord = 0
    for sol, p in lottery.support:
        check_feasible(inst, sol)
        total += p * point_cost(point, inst.locations, sol.hosts, inst.variant)
    return total


def order_stats(inst: Instance) -> tuple[int, ...]:
    """Agent indices sorted by (coordinate, agent index); Python's stable sort
    realises exactly that tie-break."""
    locs = inst.locations
    return tuple(sorted(range(len(locs)), key=locs.__getitem__))
