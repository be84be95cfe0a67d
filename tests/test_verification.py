"""Verification-layer tests: misreport candidates, the manipulation scanner,
exact approximation ratios, the worst-case search, and pinned regressions.

The scanner's integer-rescaling fast path is checked against a naive
reference implementation written here from the definitions (per-agent
candidates built in exact rationals, public cost API, no rescaling): both
must scan the same candidates and flag the same first violation or both
none.
"""

import ast
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from bisect import bisect_right
from fractions import Fraction as F
from pathlib import Path

import pytest

import flp
from flp import (
    Family,
    FlpError,
    GenSpec,
    InfeasibleError,
    InputError,
    InvariantError,
    Instance,
    MechanismId,
    MechanismPreconditionError,
    RatioReport,
    REGRESSION_NAMES,
    RP_BOUND,
    UnsupportedVariantError,
    Variant,
    apply,
    approx_ratio,
    expected_agent_cost,
    expected_social_cost,
    generate,
    run_regressions,
    sp_scan,
    worst_ratio_search,
)
import flp.verification as verification
from flp.bounds import exceeds_bound
from flp.mechanisms import fixed_outcomes, position_rule
from flp.verification import (
    _certify_violation,
    _check_ratio,
    _first_profit_by_rule,
    _first_profit_fixed,
    _scaled_candidates,
    _weighted_cost,
)


def sum_inst(*locs, k=2):
    return Instance(tuple(locs), k, Variant.SUM)


def max_inst(*locs, k=2):
    return Instance(tuple(locs), k, Variant.MAX)


def reference_candidates(inst, agent, grid_points):
    """Misreport candidates for ``agent``, from the definition in exact
    rationals: every other agent's report, the midpoints of consecutive
    distinct reports, the two outer points one span beyond the extremes
    (span 1 when all reports coincide), and a uniform grid of
    ``grid_points`` values from the lower outer point to the upper one.
    Returned sorted ascending."""
    locs = [F(x) for x in inst.locations]
    distinct = sorted(set(locs))
    lo, hi = distinct[0], distinct[-1]
    span = hi - lo or 1
    outer_lo, outer_hi = lo - span, hi + span
    cands = {x for i, x in enumerate(locs) if i != agent}
    cands.update((a + b) / 2 for a, b in zip(distinct, distinct[1:]))
    cands.update((outer_lo, outer_hi))
    if grid_points >= 2:
        step = (outer_hi - outer_lo) / (grid_points - 1)
        cands.update(outer_lo + i * step for i in range(grid_points))
    return tuple(sorted(cands))


class TestCandidateMisreports:
    def test_structural_candidates_without_grid(self):
        # Others' coords {0, 1}, midpoints {1/2, 3/2}, outer {-2, 4}.
        got = reference_candidates(sum_inst(0, 1, 2), 2, grid_points=0)
        assert got == (-2, 0, F(1, 2), 1, F(3, 2), 4)

    def test_own_coordinate_not_required(self):
        got = reference_candidates(sum_inst(0, 1, 2), 2, grid_points=0)
        assert 2 not in got

    def test_coincident_pair_uses_unit_span(self):
        got = reference_candidates(sum_inst(5, 5), 0, grid_points=0)
        assert got == (4, 5, 6)

    def test_grid_covers_outer_range(self):
        got = reference_candidates(sum_inst(0, 1, 3), 0, grid_points=200)
        assert got[0] == -3 and got[-1] == 6
        assert len(got) == len(set(got))
        assert list(got) == sorted(got)
        assert len(got) >= 200

    def test_single_grid_point_is_left_edge(self):
        with_one = reference_candidates(sum_inst(0, 1, 2), 0, grid_points=1)
        without = reference_candidates(sum_inst(0, 1, 2), 0, grid_points=0)
        assert with_one == without  # outer_lo is already a candidate

    def test_negative_grid_rejected(self):
        with pytest.raises(InputError, match="grid_points must be >= 0, got -1"):
            sp_scan(MechanismId.MEDIAN_RIGHT, sum_inst(0, 1), grid_points=-1)

    def test_all_exact_rationals(self):
        for x in reference_candidates(sum_inst(0, F(1, 3), 2), 1, grid_points=200):
            assert isinstance(x, F)


class TestSpScan:
    def test_baseline_is_manipulable(self):
        v = sp_scan(MechanismId.OPT_SUM_BASELINE, sum_inst(0, 1, 3)).violation
        assert v is not None
        assert v.agent == 2 and v.true_location == 3
        assert v.honest_cost == 5
        assert v.deviated_cost < v.honest_cost
        # Recompute both sides through the public API.
        inst = sum_inst(0, 1, 3)
        honest = expected_agent_cost(
            inst, apply(MechanismId.OPT_SUM_BASELINE, inst), 2, 3
        )
        dev = inst.with_location(2, v.misreport)
        deviated = expected_agent_cost(
            dev, apply(MechanismId.OPT_SUM_BASELINE, dev), 2, 3
        )
        assert (honest, deviated) == (v.honest_cost, v.deviated_cost)

    def test_baseline_specific_deviation_profits(self):
        # Agent at 3 pretends to sit at 3/2: facilities move to {1, 3/2} and
        # its true cost drops from 5 to 7/2.
        inst = sum_inst(0, 1, 3)
        dev = inst.with_location(2, F(3, 2))
        lot = apply(MechanismId.OPT_SUM_BASELINE, dev)
        assert expected_agent_cost(dev, lot, 2, 3) == F(7, 2) < 5

    def test_baseline_found_with_coarse_grid(self):
        scan = sp_scan(MechanismId.OPT_SUM_BASELINE, sum_inst(0, 1, 3), grid_points=50)
        assert scan.violation is not None

    def test_median_right_not_refuted(self):
        assert sp_scan(MechanismId.MEDIAN_RIGHT, sum_inst(0, 1, 2)).violation is None

    def test_reverse_proportional_not_refuted(self):
        mech = MechanismId.REVERSE_PROPORTIONAL
        assert sp_scan(mech, sum_inst(0, 1, 3)).violation is None

    def test_reverse_proportional_boundary_deviation_is_neutral(self):
        # Agent at 3 misreporting 2 changes the lottery but not its own
        # expected cost (both equal 4): no profit, hence no violation.
        inst = sum_inst(0, 1, 3)
        mech = MechanismId.REVERSE_PROPORTIONAL
        honest = expected_agent_cost(inst, apply(mech, inst), 2, 3)
        dev = inst.with_location(2, 2)
        deviated = expected_agent_cost(dev, apply(mech, dev), 2, 3)
        assert honest == deviated == 4

    def test_honest_precondition_failure_propagates(self):
        with pytest.raises(MechanismPreconditionError):
            sp_scan(MechanismId.TWO_MEDIANS, sum_inst(0, 1, 2))

    def test_median_left_on_two_agents_raises(self):
        with pytest.raises(MechanismPreconditionError, match="left neighbour"):
            sp_scan(MechanismId.MEDIAN_LEFT, sum_inst(0, 1))

    def test_baseline_on_max_instance_raises(self):
        with pytest.raises(UnsupportedVariantError, match="opt-sum-baseline"):
            sp_scan(MechanismId.OPT_SUM_BASELINE, max_inst(0, 1, 2))

    def test_evaluated_counts_all_pairs(self):
        # Superset for (0, 1, 2) without grid: {-2, 0, 1/2, 1, 3/2, 2, 4};
        # each of the 3 agents skips its own report: 3 * 6 evaluations.
        scan = sp_scan(MechanismId.MEDIAN_RIGHT, sum_inst(0, 1, 2), grid_points=0)
        assert scan.violation is None
        assert scan.evaluated == 18
        assert scan.skipped == 0

    def test_certifier_rejects_false_positives(self):
        with pytest.raises(InvariantError):
            _certify_violation(MechanismId.MEDIAN_RIGHT, sum_inst(0, 1, 2), 0, 1)


def naive_first_violation(mech, inst, grid_points):
    """Reference scanner: per-agent candidates, public API, no rescaling.

    Returns the first profitable deviation as (agent, misreport, honest
    cost, deviated cost), or None, together with the number of deviations
    cost-compared up to and including it.
    """
    honest = apply(mech, inst)
    evaluated = 0
    for agent in range(inst.n):
        true_loc = inst.locations[agent]
        honest_cost = expected_agent_cost(inst, honest, agent, true_loc)
        for x in reference_candidates(inst, agent, grid_points):
            if x == true_loc:
                continue
            dev = inst.with_location(agent, x)
            evaluated += 1
            deviated_cost = expected_agent_cost(dev, apply(mech, dev), agent, true_loc)
            if deviated_cost < honest_cost:
                return (agent, x, honest_cost, deviated_cost), evaluated
    return None, evaluated


def assert_scan_candidates_match_reference(inst, grid_points):
    """For every agent, the scan tries its scaled candidates and every
    report, skipping the agent's own: that is the reference set."""
    scale, locs, cands = _scaled_candidates(inst, grid_points)
    scanned = {F(c, scale) for c in cands.union(locs)}
    for agent, own in enumerate(inst.locations):
        want = set(reference_candidates(inst, agent, grid_points)) - {own}
        assert scanned - {own} == want, (agent, grid_points)


class TestScannerMatchesReference:
    # Every mechanism under every variant it accepts, each on all four
    # families; the baseline also at k=3, where it scans median windows.
    # The sp-suite's wide median-ball windows, n=6 medians and uniform at
    # n=3 put the misreport's slot inside long windows and max floors.
    CASES = [
        (MechanismId.TWO_MEDIANS, Variant.SUM, 4, 2),
        (MechanismId.TWO_MEDIANS, Variant.SUM, 6, 2),
        (MechanismId.TWO_MEDIANS, Variant.MAX, 4, 2),
        (MechanismId.MEDIAN_RIGHT, Variant.SUM, 3, 2),
        (MechanismId.MEDIAN_RIGHT, Variant.MAX, 4, 2),
        (MechanismId.MEDIAN_LEFT, Variant.SUM, 4, 2),
        (MechanismId.MEDIAN_LEFT, Variant.MAX, 3, 2),
        (MechanismId.UNIFORM, Variant.SUM, 3, 2),
        (MechanismId.UNIFORM, Variant.MAX, 3, 2),
        (MechanismId.UNIFORM, Variant.MAX, 5, 2),
        (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM, 3, 2),
        (MechanismId.REVERSE_PROPORTIONAL, Variant.MAX, 5, 2),
        (MechanismId.MEDIAN_BALL, Variant.SUM, 5, 3),
        (MechanismId.MEDIAN_BALL, Variant.SUM, 7, 5),
        (MechanismId.MEDIAN_BALL, Variant.MAX, 5, 3),
        (MechanismId.MEDIAN_BALL, Variant.MAX, 6, 4),
        (MechanismId.MEDIAN_BALL, Variant.MAX, 7, 5),
        (MechanismId.AUTO_SUM, Variant.SUM, 3, 2),
        (MechanismId.AUTO_SUM, Variant.SUM, 6, 2),
        (MechanismId.AUTO_SUM, Variant.MAX, 4, 2),
        (MechanismId.OPT_SUM_BASELINE, Variant.SUM, 3, 2),
        (MechanismId.OPT_SUM_BASELINE, Variant.SUM, 4, 2),
        (MechanismId.OPT_SUM_BASELINE, Variant.SUM, 5, 3),
    ]

    @pytest.mark.parametrize("mech,variant,n,k", CASES, ids=lambda c: str(c))
    def test_same_outcome_as_reference(self, mech, variant, n, k):
        for family in Family:
            spec = GenSpec(
                family, n=n, k=k, variant=variant, seed=17, lo=0, hi=4, denominator=4
            )
            for inst in generate(spec, 3):
                # Thirds give every family denominators > 1, so the scan's
                # integer rescaling is genuinely exercised.
                inst = Instance(tuple(F(x, 3) for x in inst.locations), k, variant)
                for grid_points in (0, 1, 2, 40):
                    assert_scan_candidates_match_reference(inst, grid_points)
                scan = sp_scan(mech, inst, grid_points=40)
                v = scan.violation
                got = (
                    None
                    if v is None
                    else (v.agent, v.misreport, v.honest_cost, v.deviated_cost)
                )
                want, evaluated = naive_first_violation(mech, inst, grid_points=40)
                assert (got, scan.evaluated, scan.skipped) == (want, evaluated, 0)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_gap_pricing_matches_the_filled_profile(variant):
    # A misreport priced from its gap's floors costs what it costs on the
    # profile with the misreport inserted: the index returned for a gap's
    # whole ascending block is the first misreport whose filled-profile cost
    # is below the honest cost, for an honest cost at and just above each
    # candidate's cost in turn.  The blocks lie left of the point, right of
    # it, and around it in its own gap (without the point, as in sp_scan),
    # so a bisection that misreads either side's order fails here.  The slot
    # holds a far-off value, which the pricing must not read.
    rng = random.Random(variant.value)
    for _ in range(150):
        n = rng.randint(2, 7)
        k = rng.randint(2, min(n, 4))
        others = sorted(rng.randint(0, 6) for _ in range(n - 1))
        point = rng.randint(-1, 7)
        blocks = [[] for _ in range(n)]
        for x in range(-2, 9):
            if x != point:
                blocks[bisect_right(others, x)].append(x)
        for mech in MechanismId:
            try:
                rule = position_rule(mech, n, k, variant)
            except FlpError:
                continue
            fixed = fixed_outcomes(mech, n, k, variant)
            for gap, block in enumerate(blocks):
                priced = []
                for x in block:
                    filled = others[:gap] + [x] + others[gap:]
                    d, outcomes = rule(filled, k)
                    priced.append((_weighted_cost(point, filled, outcomes, variant), d))
                # Costs over one common denominator, which the honest cost shares.
                den = math.lcm(1, *(d for _, d in priced))
                costs = [c * (den // d) for c, d in priced]
                xs = others[:gap] + [10**6] + others[gap:]
                for honest_cost in {c + e for c in costs for e in (0, 1)}:
                    want = next(
                        (i for i, c in enumerate(costs) if c < honest_cost), None
                    )
                    if fixed is None:
                        got = _first_profit_by_rule(
                            point, xs, gap, block, rule, k, variant, honest_cost, den
                        )
                    else:
                        got = _first_profit_fixed(
                            point, xs, gap, block, fixed[1], variant, honest_cost
                        )
                    assert got == want, (mech, n, k, others, point, block, honest_cost)


def test_public_surface_is_pinned():
    # A name added to or removed from flp.__all__ must show up here.
    assert sorted(flp.__all__) == [
        "Coord",
        "Family",
        "FlpError",
        "GenSpec",
        "InfeasibleError",
        "InputError",
        "Instance",
        "InvariantError",
        "Lottery",
        "MechanismId",
        "MechanismPreconditionError",
        "OptResult",
        "ParseError",
        "REGRESSION_NAMES",
        "RP_BOUND",
        "RatioReport",
        "RegressionResult",
        "Solution",
        "SpScan",
        "SpViolation",
        "UnsupportedVariantError",
        "Variant",
        "apply",
        "approx_ratio",
        "as_coord",
        "brute_force_optimal",
        "coord_str",
        "declared_bound",
        "dump_instance",
        "expected_agent_cost",
        "expected_social_cost",
        "fast_optimal_sum",
        "generate",
        "instance_digest",
        "instance_from_dict",
        "instance_to_dict",
        "is_strategyproof",
        "load_instance",
        "order_stats",
        "perturb",
        "run_regressions",
        "social_cost",
        "sp_scan",
        "worst_ratio_search",
    ]
    assert all(hasattr(flp, name) for name in flp.__all__)


def test_package_has_no_assert_statements():
    # python -O strips every assert, so invariants raise InvariantError.
    package = Path(flp.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_invariant_checks_survive_python_optimize():
    # Under -O every assert is stripped; these checks must raise regardless.
    script = textwrap.dedent(
        """
        import json
        from fractions import Fraction
        import flp.verification as v
        from flp import Instance, InvariantError, MechanismId, OptResult, Solution
        from flp import Variant, brute_force_optimal

        def fires(call):
            try:
                call()
            except InvariantError:
                return True
            return False

        mech = MechanismId.MEDIAN_RIGHT
        thirds = Instance((0, Fraction(1, 3), 1), 2, Variant.SUM)
        real_scale = v._scan_scale
        v._scan_scale = lambda inst, grid_points: 1
        scale = fires(lambda: v.sp_scan(mech, thirds))
        v._scan_scale = real_scale

        inst = Instance((0, 1, 3), 2, Variant.SUM)  # median-right costs 9
        def optimum(cost):
            return lambda inst: OptResult(Solution({0, 1}), cost)
        v.brute_force_optimal = optimum(0)
        zero_optimum = fires(lambda: v.approx_ratio(mech, inst))
        v.brute_force_optimal = optimum(10)
        ratio = fires(lambda: v.approx_ratio(mech, inst))

        # k > n slips past validation only when it is bypassed; no host set
        # exists then.
        empty = object.__new__(Instance)
        for name, value in (("locations", (0, 1)), ("k", 3), ("variant", Variant.SUM)):
            object.__setattr__(empty, name, value)
        no_host_set = fires(lambda: brute_force_optimal(empty))
        print(json.dumps([__debug__, scale, zero_optimum, ratio, no_host_set]))
        """
    )
    src = str(Path(flp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, True, True, True]


class TestApproxRatio:
    def test_median_right_sum(self):
        assert approx_ratio(MechanismId.MEDIAN_RIGHT, sum_inst(0, 0, 1)).ratio == F(
            3, 2
        )

    def test_median_right_max(self):
        assert approx_ratio(MechanismId.MEDIAN_RIGHT, max_inst(0, 0, 1)).ratio == 3

    def test_uniform_max(self):
        assert approx_ratio(MechanismId.UNIFORM, max_inst(0, 0, 1)).ratio == 2

    def test_median_ball_max(self):
        assert approx_ratio(MechanismId.MEDIAN_BALL, max_inst(0, 1, 1, 1, k=3)).ratio == 4

    def test_zero_optimum_defines_ratio_one(self):
        report = approx_ratio(MechanismId.MEDIAN_RIGHT, sum_inst(5, 5, 5))
        assert report.mech_cost == 0 and report.opt_cost == 0
        assert report.ratio == 1

    def test_report_is_internally_consistent(self):
        inst = sum_inst(0, 1, 3)
        report = approx_ratio(MechanismId.REVERSE_PROPORTIONAL, inst)
        mech_cost = expected_social_cost(
            inst, apply(MechanismId.REVERSE_PROPORTIONAL, inst)
        )
        assert report.mech_cost == mech_cost == F(22, 3)
        assert report.opt_cost == 7
        assert report.ratio == F(22, 21)

    def test_string_id_is_reported_as_the_enum(self):
        inst = sum_inst(0, 1, 3)
        report = approx_ratio("reverse-proportional", inst)
        assert report.mechanism is MechanismId.REVERSE_PROPORTIONAL
        assert report == approx_ratio(MechanismId.REVERSE_PROPORTIONAL, inst)


class TestWorstRatioSearch:
    def test_deterministic(self):
        a = worst_ratio_search(
            MechanismId.MEDIAN_RIGHT, Variant.SUM, n=3, k=2, trials=20, seed=4
        )
        b = worst_ratio_search(
            MechanismId.MEDIAN_RIGHT, Variant.SUM, n=3, k=2, trials=20, seed=4
        )
        assert a == b

    def test_median_right_sum_reaches_three_halves_neighbourhood(self):
        report = worst_ratio_search(
            MechanismId.MEDIAN_RIGHT, Variant.SUM, n=3, k=2, trials=60, seed=0
        )
        assert report.ratio >= F(149, 100)
        assert report.ratio <= F(3, 2)  # proven ceiling for n=3

    def test_reverse_proportional_approaches_its_bound(self):
        report = worst_ratio_search(
            MechanismId.REVERSE_PROPORTIONAL,
            Variant.SUM,
            n=3,
            k=2,
            trials=200,
            seed=0,
            perturb_rounds=12,
        )
        assert F(10556, 10000) <= report.ratio
        assert not exceeds_bound(report.ratio, RP_BOUND)

    def test_two_medians_is_optimal_for_even_sum(self):
        report = worst_ratio_search(
            MechanismId.TWO_MEDIANS, Variant.SUM, n=4, k=2, trials=40, seed=0
        )
        assert report.ratio == 1

    def test_trials_must_be_positive(self):
        with pytest.raises(InputError):
            worst_ratio_search(
                MechanismId.MEDIAN_RIGHT, Variant.SUM, n=3, k=2, trials=0
            )

    # The shape is refused before the counts are read, as in the CLI.
    @pytest.mark.parametrize(
        "mech,variant,n,k,error",
        [
            (MechanismId.MEDIAN_RIGHT, Variant.SUM, 3, 5, InfeasibleError),
            (MechanismId.TWO_MEDIANS, Variant.SUM, 3, 2, MechanismPreconditionError),
            (MechanismId.OPT_SUM_BASELINE, Variant.MAX, 3, 2, UnsupportedVariantError),
            (MechanismId.OPT_SUM_BASELINE, "sum", 3, 2, InputError),
        ],
    )
    @pytest.mark.parametrize("trials,rounds", [(0, 10), (1, -1)])
    def test_shape_checked_before_counts(
        self, mech, variant, n, k, error, trials, rounds
    ):
        with pytest.raises(error) as info:
            worst_ratio_search(mech, variant, n, k, trials, perturb_rounds=rounds)
        assert "trials" not in str(info.value) and "rounds" not in str(info.value)

    def test_returns_ratio_report(self):
        report = worst_ratio_search(
            MechanismId.MEDIAN_RIGHT, Variant.MAX, n=3, k=2, trials=10, seed=1
        )
        assert isinstance(report, RatioReport)
        assert report.ratio >= 1
        assert report.instance.n == 3


class TestRegressions:
    def test_all_fixtures_pass(self):
        results = run_regressions()
        assert [r.name for r in results] == list(REGRESSION_NAMES)
        assert len(results) == 7
        for r in results:
            assert r.passed, f"{r.name}: {r.details}"
            assert r.details  # human-readable evidence, never empty

    def test_only_filter(self):
        results = run_regressions(only="max-det-3")
        assert len(results) == 1 and results[0].name == "max-det-3"
        assert results[0].passed

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError, match="unknown regression"):
            run_regressions(only="made-up")

    def test_ratio_checker_bounds(self):
        inst = sum_inst(0, 0, 1)  # median-right ratio 3/2
        for lo, hi, passed in (
            (F(3, 2), F(3, 2), True),
            (1, F(7, 5), False),
            (F(7, 5), None, True),
            (F(8, 5), None, False),
        ):
            result = _check_ratio("probe", MechanismId.MEDIAN_RIGHT, inst, lo, hi)
            assert result.passed is passed

    @pytest.mark.parametrize(
        "ratio,passed",
        [
            (F(10557, 10000), True),
            # Below RP_BOUND, but above the true ceiling 10 - 4*sqrt(5).
            (F(10_557_280_900_009, 10**13), False),
            (RP_BOUND, False),
        ],
    )
    def test_ratio_checker_decides_the_rp_ceiling_exactly(
        self, monkeypatch, ratio, passed
    ):
        def report(mech, inst):
            return RatioReport(mech, inst, ratio, 1, ratio)

        monkeypatch.setattr(verification, "approx_ratio", report)
        name, mech, inst, lo, hi = next(
            row for row in verification._RATIO_FIXTURES if row[0] == "sum-rand-1.0557"
        )
        assert hi == RP_BOUND
        assert _check_ratio(name, mech, inst, lo, hi).passed is passed


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
