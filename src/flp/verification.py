"""Strategyproofness refutation, approximation ratios, and regression fixtures.

The manipulation check here is a *refuter*: it can prove a mechanism
manipulable on an instance by exhibiting a deviation whose expected cost,
measured from the agent's true location, strictly drops.  Finding nothing
proves nothing, but every violation it returns is re-verified directly on
the original instance before being reported.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .bounds import RP_BOUND, exceeds_bound
from .errors import InputError, InvariantError
from .generators import Family, GenSpec, generate, perturb
from .mechanisms import (
    MechanismId,
    Outcomes,
    Rule,
    apply,
    as_mechanism_id,
    fixed_outcomes,
    position_rule,
)
from .model import (
    Coord,
    Instance,
    Variant,
    as_coord,
    expected_agent_cost,
    expected_social_cost,
    point_cost,
    require,
)
from .solver import brute_force_optimal


@dataclass(frozen=True, slots=True)
class SpViolation:
    """A certified profitable deviation: deviated_cost < honest_cost, where
    both expected costs are measured from the agent's true location and the
    deviated cost is evaluated on the misreported instance."""

    agent: int
    true_location: Coord
    misreport: Coord
    honest_cost: Coord
    deviated_cost: Coord


@dataclass(frozen=True, slots=True)
class SpScan:
    """Outcome of scanning one instance: the first violation found (if any),
    ``evaluated``, the number of (agent, candidate misreport) pairs decided
    up to and including it, and ``skipped``, which is always 0 (a deviation
    keeps n, k and the variant, so the mechanism's precondition holds on
    it) and stays for the record format."""

    violation: SpViolation | None
    evaluated: int
    skipped: int


@dataclass(frozen=True, slots=True)
class RatioReport:
    """Exact mechanism cost, optimal cost, and their ratio for one instance."""

    mechanism: MechanismId
    instance: Instance
    mech_cost: Coord
    opt_cost: Coord
    ratio: Fraction


@dataclass(frozen=True, slots=True)
class RegressionResult:
    name: str
    passed: bool
    details: str


def _scan_scale(inst: Instance, grid_points: int) -> int:
    """D = lcm(location denominators) * 2 * (grid_points - 1), or without
    the last factor when there is no grid step: multiplying by D puts every
    location, midpoint, outer point and grid point on an integer."""
    lcm_den = math.lcm(*(x.denominator for x in inst.locations))
    return lcm_den * 2 * max(grid_points - 1, 1)


def _div_exact(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InvariantError(
            f"scan scale leaves {num}/{den} fractional; it must clear every "
            "denominator"
        )
    return quotient


def _scaled_candidates(
    inst: Instance, grid_points: int
) -> tuple[int, tuple[int, ...], set[int]]:
    """The scan scale D, the locations times D, and the agent-independent
    candidates times D: midpoints of consecutive distinct sorted coordinates,
    the two outer points, and the uniform grid."""
    require(grid_points, int, "grid_points", 0)
    scale = _scan_scale(inst, grid_points)
    locs = tuple(_div_exact(x.numerator * scale, x.denominator) for x in inst.locations)
    distinct = sorted(set(locs))
    cands = {_div_exact(a + b, 2) for a, b in zip(distinct, distinct[1:])}
    lo, hi = distinct[0], distinct[-1]
    span = hi - lo or scale  # a unit span when all reports coincide
    outer_lo, outer_hi = lo - span, hi + span
    cands.update((outer_lo, outer_hi))
    if grid_points >= 2:
        step = _div_exact(outer_hi - outer_lo, grid_points - 1)
        cands.update(range(outer_lo, outer_hi + 1, step))
    return scale, locs, cands


def _weighted_cost(
    point: int, xs: list[int], outcomes: Outcomes, variant: Variant
) -> int:
    """Expected cost of ``point`` under a rule's outcomes on the sorted
    reports ``xs``, times the rule's denominator."""
    total = 0
    for positions, weight in outcomes:
        total += weight * point_cost(point, xs, positions, variant)
    return total


def _floor(
    point: int, xs: list[int], gap: int, positions: tuple[int, ...], variant: Variant
) -> tuple[int, bool]:
    """The cost of ``point`` toward the hosts at ``positions`` other than
    the open slot ``gap`` of ``xs``, and whether ``positions`` holds it.

    Every host but the slot is fixed within a gap, so an outcome that opens
    the slot costs its floor combined with d = |point - x| for a misreport
    x: floor + d under sum, max(floor, d) under max; any other outcome
    costs its floor."""
    hosts = [p for p in positions if p != gap]
    return point_cost(point, xs, hosts, variant), len(hosts) < len(positions)


def _first_profit_fixed(
    point: int,
    xs: list[int],
    gap: int,
    block: list[int],
    outcomes: Outcomes,
    variant: Variant,
    honest_cost: int,
) -> int | None:
    """Index of the first misreport in the ascending ``block`` that, put
    into the open slot ``gap`` of ``xs``, lowers the weighted cost of
    ``point`` under the shape's fixed ``outcomes`` below ``honest_cost``;
    None if none does.

    The weights fold into a few integers once per gap, and a misreport's
    cost is then nondecreasing in d = |point - x|: base + slope·d under sum,
    base + Σ w·max(floor, d) under max.  So the profitable misreports left
    of ``point`` form a suffix of that part of the block, and those right of
    it a prefix of the rest: one bisection finds the first on the left, and
    failing that only the first one on the right needs pricing."""
    base = 0
    opened = []  # (weight, floor) of each outcome that opens the slot
    for positions, weight in outcomes:
        floor, opens = _floor(point, xs, gap, positions, variant)
        if opens:
            opened.append((weight, floor))
        else:
            base += weight * floor
    if variant is Variant.SUM:
        room = honest_cost - base - sum(w * f for w, f in opened)
        slope = sum(w for w, _ in opened)

        def profits(x: int) -> bool:
            return slope * abs(point - x) < room

    else:

        def profits(x: int) -> bool:
            d = abs(point - x)
            cost = base
            for w, f in opened:
                cost += w * (f if f > d else d)
            return cost < honest_cost

    split = bisect_left(block, point)
    first = bisect_left(block, True, 0, split, key=profits)
    if first < split:
        return first
    if split < len(block) and profits(block[split]):
        return split
    return None


def _first_profit_by_rule(
    point: int,
    xs: list[int],
    gap: int,
    block: list[int],
    rule: Rule,
    k: int,
    variant: Variant,
    honest_cost: int,
    honest_den: int,
) -> int | None:
    """As :func:`_first_profit_fixed`, for a rule whose outcomes read the
    reports: ``rule`` runs on each misreport, and each outcome's floor is
    priced once per gap; costs are compared as cross-multiplied integers."""
    is_sum = variant is Variant.SUM
    floors: dict[tuple[int, ...], tuple[int, bool]] = {}
    for i, x in enumerate(block):
        xs[gap] = x
        den, outcomes = rule(xs, k)
        d = abs(point - x)
        total = 0
        for positions, weight in outcomes:
            priced = floors.get(positions)
            if priced is None:
                priced = floors[positions] = _floor(point, xs, gap, positions, variant)
            floor, opens = priced
            if opens:
                floor = floor + d if is_sum else max(floor, d)
            total += weight * floor
        if total * honest_den < honest_cost * den:
            return i
    return None


def sp_scan(mech: MechanismId, inst: Instance, grid_points: int = 200) -> SpScan:
    """Scan every (agent, candidate misreport) pair for a profitable deviation.

    Agents are visited in index order and candidates in ascending order; the
    first strict expected-cost decrease ends the scan.  ``evaluated`` counts
    the candidates decided, that one included.  The mechanism's
    precondition is checked once, on the instance's shape, which every
    deviation shares.

    Internally, agents share one candidate superset (their own current report
    is skipped, so the per-agent difference is immaterial), and the scan
    runs on integers: locations and candidates are multiplied by the scale
    of :func:`_scan_scale` (mechanisms commute with positive rescaling).
    Each agent's candidates are walked gap by gap between its sorted other
    reports: all candidates in one gap take the same sorted position, so
    the deviated profile is built once per gap with one open slot, and each
    outcome's cost toward the other hosts is priced once per gap (see
    :func:`_floor`).  When the shape fixes the outcomes, a misreport's cost
    only grows with its distance from the true location, so each gap is
    decided by two bisections (:func:`_first_profit_fixed`) instead of
    pricing every candidate; ``evaluated`` still counts the candidates up
    to the first profitable one, as a linear walk would.  Any hit is
    re-verified at original scale through the validated
    :func:`~flp.mechanisms.apply` path before it is reported, so a returned
    violation is always genuine.
    """
    k, variant = inst.k, inst.variant
    scale, locs, cands = _scaled_candidates(inst, grid_points)
    rule = position_rule(mech, inst.n, k, variant)
    fixed = fixed_outcomes(mech, inst.n, k, variant)
    superset = sorted(cands.union(locs))
    honest_xs = sorted(locs)
    honest_den, honest = rule(honest_xs, k)

    evaluated = 0
    for agent, true_here in enumerate(locs):
        honest_cost = _weighted_cost(true_here, honest_xs, honest, variant)
        others = list(honest_xs)
        others.remove(true_here)
        own_gap = bisect_right(others, true_here)
        start = 0
        for gap in range(len(others) + 1):
            # Candidates in [others[gap-1], others[gap]) land at position gap.
            end = bisect_left(superset, others[gap]) if gap < len(others) else None
            block = superset[start:end]
            start += len(block)
            if gap == own_gap:
                block.remove(true_here)
            if not block:
                continue
            xs = others[:gap] + [true_here] + others[gap:]
            if fixed is None:
                hit = _first_profit_by_rule(
                    true_here, xs, gap, block, rule, k, variant, honest_cost, honest_den
                )
            else:
                hit = _first_profit_fixed(
                    true_here, xs, gap, block, fixed[1], variant, honest_cost
                )
            if hit is None:
                evaluated += len(block)
                continue
            evaluated += hit + 1
            misreport = as_coord(Fraction(block[hit], scale))
            return SpScan(
                _certify_violation(mech, inst, agent, misreport), evaluated, 0
            )
    return SpScan(None, evaluated, 0)


def _certify_violation(
    mech: MechanismId, inst: Instance, agent: int, misreport: Coord
) -> SpViolation:
    """Recompute both expected costs on the unscaled instance and insist the
    decrease is real; protects the scan's rescaling shortcut."""
    true_location = inst.locations[agent]
    honest_cost = expected_agent_cost(inst, apply(mech, inst), agent, true_location)
    deviated = inst.with_location(agent, misreport)
    deviated_cost = expected_agent_cost(
        deviated, apply(mech, deviated), agent, true_location
    )
    if not deviated_cost < honest_cost:
        raise InvariantError(
            f"scaled scan flagged agent {agent} misreporting {misreport}, but the "
            f"deviation does not profit at original scale "
            f"({deviated_cost} >= {honest_cost})"
        )
    return SpViolation(agent, true_location, misreport, honest_cost, deviated_cost)


def approx_ratio(mech: MechanismId | str, inst: Instance) -> RatioReport:
    """Exact expected-social-cost / optimum for one instance.

    A zero optimum only happens when all reports coincide, where every
    solution (hence every mechanism) also costs zero; the ratio is 1 there.
    """
    lottery = apply(mech, inst)
    mech_cost = expected_social_cost(inst, lottery)
    opt = brute_force_optimal(inst)
    if opt.cost == 0:
        if mech_cost != 0:
            raise InvariantError(
                f"positive mechanism cost {mech_cost} on a zero-optimum instance"
            )
        ratio = Fraction(1)
    else:
        ratio = Fraction(mech_cost, opt.cost)
    if ratio < 1:
        raise InvariantError(
            f"mechanism cost {mech_cost} below the optimum {opt.cost}"
        )
    return RatioReport(as_mechanism_id(mech), inst, mech_cost, opt.cost, ratio)


_CLIMB_STARTS = 5  # how many of the best samples worst_ratio_search climbs from


def worst_ratio_search(
    mech: MechanismId,
    variant: Variant,
    n: int,
    k: int,
    trials: int,
    seed: int = 0,
    perturb_rounds: int = 10,
) -> RatioReport:
    """Seeded search for a high-ratio instance: random sampling followed by
    greedy coordinate hill-climbing with halving rational steps from the
    five highest-ratio samples.

    Deterministic for fixed arguments.  Returns the best report seen; a lower
    bound witness, never an upper-bound claim.
    """
    spec = GenSpec(
        Family.UNIFORM_INT, n=n, k=k, variant=variant, seed=seed, lo=0, hi=max(8, 2 * n)
    )
    position_rule(mech, n, k, variant)  # refuse the shape before the counts
    require(trials, int, "trials", 1)
    require(perturb_rounds, int, "perturb_rounds", 0)
    reports = [approx_ratio(mech, inst) for inst in generate(spec, trials)]
    reports.sort(key=lambda r: r.ratio, reverse=True)
    best = reports[0]
    for start in reports[:_CLIMB_STARTS]:
        climbed = _hill_climb(mech, start, perturb_rounds)
        if climbed.ratio > best.ratio:
            best = climbed
    return best


def _hill_climb(mech: MechanismId, start: RatioReport, rounds: int) -> RatioReport:
    best = start
    locs = start.instance.locations
    span = max(locs) - min(locs)
    step: Coord = span if span > 0 else 1
    for _ in range(rounds):
        moved = True
        guard = 0
        while moved and guard < 20:
            moved = False
            guard += 1
            for agent in range(best.instance.n):
                for delta in (step, -step):
                    candidate = perturb(best.instance, agent, delta)
                    report = approx_ratio(mech, candidate)
                    if report.ratio > best.ratio:
                        best = report
                        moved = True
        step = Fraction(step, 2)
    return best


# (name, mechanism, instance, lo, hi): the exact ratio must lie in [lo, hi],
# or be at least lo where hi is None.
_RATIO_FIXTURES = (
    (
        "sum-det-3/2",
        MechanismId.MEDIAN_RIGHT,
        Instance((0, 0, 1), 2, Variant.SUM),
        Fraction(3, 2),
        Fraction(3, 2),
    ),
    (
        "sum-rand-1.0557",
        MechanismId.REVERSE_PROPORTIONAL,
        Instance((0, Fraction(2361, 10000), 1), 2, Variant.SUM),
        Fraction(10557, 10000),
        RP_BOUND,
    ),
    ("max-det-3", MechanismId.MEDIAN_RIGHT, Instance((0, 0, 1), 2, Variant.MAX), 3, 3),
    ("max-rand-2", MechanismId.UNIFORM, Instance((0, 0, 1), 2, Variant.MAX), 2, 2),
    (
        "sum-k-lower",
        MechanismId.MEDIAN_BALL,
        Instance((0, 1, 1, Fraction(1001, 1000)), 3, Variant.SUM),
        Fraction(5, 3) - Fraction(1, 100),
        None,
    ),
    (
        "max-k-lower",
        MechanismId.MEDIAN_BALL,
        Instance((0, 1, 1, 1), 3, Variant.MAX),
        4,
        4,
    ),
)

_STRUCTURE_FIXTURE = "max-structure-counterexample"

REGRESSION_NAMES = tuple(row[0] for row in _RATIO_FIXTURES) + (_STRUCTURE_FIXTURE,)


def _check_ratio(
    name: str, mech: MechanismId, inst: Instance, lo: Coord, hi: Coord | None
) -> RegressionResult:
    ratio = approx_ratio(mech, inst).ratio
    locs = ", ".join(str(x) for x in inst.locations)
    if lo == hi:
        want = str(lo)
        shown = str(ratio)
    else:
        want = f">= {lo}" if hi is None else f"within [{lo}, {hi}]"
        shown = f"{ratio} ~ {float(ratio):.10f}"
    return RegressionResult(
        name,
        lo <= ratio and (hi is None or not exceeds_bound(ratio, hi)),
        f"{mech.value} k={inst.k} {inst.variant.value} ratio on ({locs}): {shown} "
        f"(want {want})",
    )


def _fixture_max_structure() -> RegressionResult:
    # For the max variant the two-medians window can be strictly beaten by an
    # off-median pair; this instance certifies the gap.
    inst = Instance((Fraction(-1, 2), 0, 1, 2), 2, Variant.MAX)
    opt = brute_force_optimal(inst)
    medians_cost = expected_social_cost(inst, apply(MechanismId.TWO_MEDIANS, inst))
    ok = (
        opt.cost == 5
        and opt.solution.coords(inst) == (Fraction(-1, 2), 0)
        and medians_cost == Fraction(11, 2)
        and opt.cost < medians_cost
    )
    return RegressionResult(
        _STRUCTURE_FIXTURE,
        ok,
        f"max optimum on (-1/2, 0, 1, 2): cost {opt.cost} at "
        f"{[str(c) for c in opt.solution.coords(inst)]}, two-medians cost "
        f"{medians_cost} (want 5 at ['-1/2', '0'] beating 11/2)",
    )


def run_regressions(only: str | None = None) -> list[RegressionResult]:
    """Run the pinned lower-bound fixtures; ``only`` selects one by name."""
    if only is not None and only not in REGRESSION_NAMES:
        raise InputError(
            f"unknown regression {only!r}; known: {', '.join(REGRESSION_NAMES)}"
        )
    results = [_check_ratio(*row) for row in _RATIO_FIXTURES if only in (None, row[0])]
    if only in (None, _STRUCTURE_FIXTURE):
        results.append(_fixture_max_structure())
    return results
