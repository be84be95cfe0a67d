"""Acceptance suite: nine end-to-end criteria, one test per criterion, plus a
static check that criterion 7 scans exactly the pairs claimed strategyproof.

Each criterion test prints exactly one PASS/FAIL line (run pytest with -s or
-rA to see them on success; they always appear on failure).  All arithmetic
is exact; stated decimal tolerances are enforced with rational comparisons.

Criteria:
  1. Frozen optimal values on the small max/sum instances are exact.
  2. Median + right-neighbour (sum): 3/2 fixture and the n/(n-1) odd-n bound
     over 2,000 random instances.
  3. Gap-weighted median lottery (sum): ratio within 1e-4 of 1.0557280900 on
     the near-worst-case fixture and at most 10 - 4*sqrt(5), decided
     exactly, over 2,000 random odd-n instances.
  4. Max-variant ratios: fixtures 3 and 2, plus sweeps against the declared
     even/odd bounds.
  5. Median window for k >= 2: max fixture 4, sum fixture >= 5/3 - 1/100,
     plus sweeps against the declared bounds (sum <= 2, max <= k+1).
  6. The exact optimum (cost and host set) and the fast sum solver (cost)
     agree with exhaustive enumeration on 10,000+ random instances per
     variant, n in [2, 9], k in [2, min(n, 5)].
  7. No (mechanism, variant) pair claimed strategyproof admits a profitable
     misreport across 1,000 seeded instances per mechanism (default
     candidate grid); the manipulable baseline is refuted, including the
     frozen 5 -> 7/2 deviation.
  8. The closed-form median-pair cost matches the generic evaluator on 5,000
     random odd-n instances.
  9. All seven pinned regression fixtures pass and sweep CSVs are
     byte-identical across reruns with the same seed.
"""

from fractions import Fraction as F

import pytest

from flp import (
    Family,
    GenSpec,
    Instance,
    MechanismId,
    RP_BOUND,
    Solution,
    Variant,
    apply,
    approx_ratio,
    brute_force_optimal,
    expected_agent_cost,
    fast_optimal_sum,
    generate,
    is_strategyproof,
    run_regressions,
    social_cost,
    sp_scan,
)
from flp.cli import ExitCode, main
from enumeration import enumerated_optimum
from pair_cost import lemma_pair_cost_consistent

FAMILIES = (
    Family.UNIFORM_INT,
    Family.UNIFORM_GRID,
    Family.CLUSTERED,
    Family.COINCIDENT,
)


def mixed_instances(variant, n, k, per_family, seed, hi=None, denominator=10):
    """Deterministic blend of all four generator families."""
    out = []
    for offset, family in enumerate(FAMILIES):
        spec = GenSpec(
            family,
            n=n,
            k=k,
            variant=variant,
            seed=seed + offset,
            lo=0,
            hi=hi if hi is not None else max(4, 2 * n),
            denominator=denominator,
        )
        out.extend(generate(spec, per_family))
    return out


def conclude(criterion, failures, detail):
    ok = not failures
    status = "PASS" if ok else "FAIL"
    suffix = detail if ok else f"{detail}; first failure: {failures[0]}"
    print(f"{status}: {criterion} — {suffix}")
    assert ok, f"{criterion}: {failures[:3]}"


def test_c1_exact_small_instance_optima():
    failures = []
    max_inst = Instance((F(-1, 2), 0, 1, 2), 2, Variant.MAX)
    opt = brute_force_optimal(max_inst)
    if opt.cost != 5:
        failures.append(f"max optimum {opt.cost} != 5")
    if opt.solution.coords(max_inst) != (F(-1, 2), 0):
        failures.append(f"max optimal pair {opt.solution.coords(max_inst)}")
    if social_cost(max_inst, Solution({1, 2})) != F(11, 2):
        failures.append("max cost of inner pair != 11/2")

    sum_inst = Instance((0, 1, 2), 2, Variant.SUM)
    if social_cost(sum_inst, Solution({0, 1})) != 5:
        failures.append("sum cost of left pair != 5")
    if social_cost(sum_inst, Solution({0, 2})) != 6:
        failures.append("sum cost of outer pair != 6")
    conclude(
        "criterion 1: frozen small-instance optima",
        failures,
        "max optimum 5 at (-1/2, 0), inner pair 11/2; sum pairs 5 and 6 (exact)",
    )


def test_c2_median_pair_sum_ratio_bound():
    failures = []
    fixture = approx_ratio(MechanismId.MEDIAN_RIGHT, Instance((0, 0, 1), 2, Variant.SUM))
    if fixture.ratio != F(3, 2):
        failures.append(f"fixture ratio {fixture.ratio} != 3/2")

    checked = 0
    worst = F(0)
    for n in (3, 5, 7, 9):
        bound = F(n, n - 1)
        for inst in mixed_instances(Variant.SUM, n, 2, per_family=125, seed=200 + n):
            ratio = approx_ratio(MechanismId.MEDIAN_RIGHT, inst).ratio
            checked += 1
            worst = max(worst, ratio)
            if ratio > bound:
                failures.append(f"n={n} locations={inst.locations} ratio={ratio}")
                break
    conclude(
        "criterion 2: median+right-neighbour sum bound",
        failures,
        f"fixture exactly 3/2; {checked} random odd-n instances <= n/(n-1) "
        f"(worst seen {worst})",
    )


def test_c3_gap_weighted_lottery_bound():
    failures = []
    target = F(10557280900, 10**10)
    tolerance = F(1, 10**4)
    fixture_inst = Instance((0, F(2361, 10000), 1), 2, Variant.SUM)
    ratio = approx_ratio(MechanismId.REVERSE_PROPORTIONAL, fixture_inst).ratio
    if abs(ratio - target) > tolerance:
        failures.append(f"fixture ratio {float(ratio):.10f} not within 1e-4 of target")

    checked = 0
    worst = F(0)
    for n in (3, 5, 7, 9):
        for inst in mixed_instances(Variant.SUM, n, 2, per_family=125, seed=300 + n):
            r = approx_ratio(MechanismId.REVERSE_PROPORTIONAL, inst).ratio
            checked += 1
            worst = max(worst, r)
            if r > RP_BOUND:
                failures.append(f"n={n} locations={inst.locations} ratio={r}")
                break
    conclude(
        "criterion 3: gap-weighted lottery bound",
        failures,
        f"fixture within 1e-4 of 1.0557280900 (got {float(ratio):.10f}); "
        f"{checked} random odd-n instances <= 10 - 4*sqrt(5) "
        f"(worst seen {float(worst):.10f})",
    )


def test_c4_max_variant_ratio_bounds():
    failures = []
    inst = Instance((0, 0, 1), 2, Variant.MAX)
    mr = approx_ratio(MechanismId.MEDIAN_RIGHT, inst).ratio
    uni = approx_ratio(MechanismId.UNIFORM, inst).ratio
    if mr != 3:
        failures.append(f"median-right max fixture {mr} != 3")
    if uni != 2:
        failures.append(f"uniform max fixture {uni} != 2")

    checked = 0
    for n in (2, 4, 6, 8):
        for i in mixed_instances(Variant.MAX, n, 2, per_family=63, seed=400 + n):
            checked += 1
            r = approx_ratio(MechanismId.MEDIAN_RIGHT, i).ratio
            if r > 2:
                failures.append(f"even n={n} {i.locations} ratio={r}")
                break
    for n in (3, 5, 7, 9):
        mr_bound = F(2 * n, n - 1)
        uni_bound = F(3 * n - 1, 2 * n - 2)
        for i in mixed_instances(Variant.MAX, n, 2, per_family=63, seed=410 + n):
            checked += 1
            r = approx_ratio(MechanismId.MEDIAN_RIGHT, i).ratio
            if r > mr_bound:
                failures.append(f"odd n={n} {i.locations} median-right ratio={r}")
                break
        for i in mixed_instances(Variant.MAX, n, 2, per_family=63, seed=420 + n):
            checked += 1
            r = approx_ratio(MechanismId.UNIFORM, i).ratio
            if r > uni_bound:
                failures.append(f"odd n={n} {i.locations} uniform ratio={r}")
                break
    conclude(
        "criterion 4: max-variant bounds",
        failures,
        f"fixtures exactly 3 and 2; {checked} instances within the declared "
        "even/odd ceilings",
    )


def test_c5_median_window_ratio_bounds():
    failures = []
    max_fix = approx_ratio(
        MechanismId.MEDIAN_BALL, Instance((0, 1, 1, 1), 3, Variant.MAX)
    ).ratio
    if max_fix != 4:
        failures.append(f"max fixture {max_fix} != 4")
    sum_fix = approx_ratio(
        MechanismId.MEDIAN_BALL, Instance((0, 1, 1, F(1001, 1000)), 3, Variant.SUM)
    ).ratio
    if sum_fix != F(5003, 3005):
        failures.append(f"sum fixture {sum_fix} != 5003/3005")
    if sum_fix < F(5, 3) - F(1, 100):
        failures.append(f"sum fixture {sum_fix} below 5/3 - 1/100")

    checked = 0
    for n in range(2, 10):
        for k in range(2, min(5, n) + 1):
            for i in mixed_instances(Variant.SUM, n, k, per_family=10, seed=500 + 10 * n + k):
                checked += 1
                r = approx_ratio(MechanismId.MEDIAN_BALL, i).ratio
                if r > 2:
                    failures.append(f"sum n={n} k={k} {i.locations} ratio={r}")
                    break
            for i in mixed_instances(Variant.MAX, n, k, per_family=10, seed=600 + 10 * n + k):
                checked += 1
                r = approx_ratio(MechanismId.MEDIAN_BALL, i).ratio
                if r > k + 1:
                    failures.append(f"max n={n} k={k} {i.locations} ratio={r}")
                    break
    conclude(
        "criterion 5: median-window bounds",
        failures,
        f"fixtures 4 (max) and 5003/3005 (sum, >= 5/3 - 1/100); {checked} "
        "instances within sum <= 2 and max <= k+1",
    )


def test_c6_fast_solver_matches_enumeration():
    failures = []
    checked = dict.fromkeys(Variant, 0)
    for variant in Variant:
        for n in range(2, 10):
            for k in range(2, min(5, n) + 1):
                for inst in mixed_instances(
                    variant, n, k, per_family=97, seed=700 + 10 * n + k
                ):
                    checked[variant] += 1
                    oracle = enumerated_optimum(inst)
                    exact = brute_force_optimal(inst)
                    if exact != oracle:
                        failures.append(
                            f"{variant.value} n={n} k={k} {inst.locations}: "
                            f"exact {exact} vs enumeration {oracle}"
                        )
                        break
                    if variant is Variant.SUM:
                        fast = fast_optimal_sum(inst)
                        if (
                            fast.cost != oracle.cost
                            or social_cost(inst, fast.solution) != fast.cost
                        ):
                            failures.append(
                                f"sum n={n} k={k} {inst.locations}: fast "
                                f"{fast.cost} vs enumeration {oracle.cost}"
                            )
                            break
    assert min(checked.values()) >= 10_000
    conclude(
        "criterion 6: exact and fast solvers equal enumeration",
        failures,
        f"{checked[Variant.SUM]} sum and {checked[Variant.MAX]} max random "
        "instances (n 2-9, k 2-5): exact host sets and costs, fast sum costs "
        "identical",
    )


# (mechanism, variant, n, k, family, count) — counts sum to 1,000 per mechanism.
SP_SUITE = (
    (MechanismId.TWO_MEDIANS, Variant.SUM, 2, 2, Family.UNIFORM_INT, 150),
    (MechanismId.TWO_MEDIANS, Variant.SUM, 4, 2, Family.UNIFORM_INT, 250),
    (MechanismId.TWO_MEDIANS, Variant.SUM, 4, 2, Family.COINCIDENT, 200),
    (MechanismId.TWO_MEDIANS, Variant.SUM, 4, 2, Family.UNIFORM_GRID, 200),
    (MechanismId.TWO_MEDIANS, Variant.SUM, 6, 2, Family.CLUSTERED, 200),
    (MechanismId.MEDIAN_RIGHT, Variant.SUM, 3, 2, Family.UNIFORM_INT, 200),
    (MechanismId.MEDIAN_RIGHT, Variant.SUM, 3, 2, Family.COINCIDENT, 150),
    (MechanismId.MEDIAN_RIGHT, Variant.SUM, 5, 2, Family.UNIFORM_GRID, 150),
    (MechanismId.MEDIAN_RIGHT, Variant.MAX, 3, 2, Family.UNIFORM_INT, 200),
    (MechanismId.MEDIAN_RIGHT, Variant.MAX, 5, 2, Family.CLUSTERED, 150),
    (MechanismId.MEDIAN_RIGHT, Variant.MAX, 4, 2, Family.COINCIDENT, 150),
    (MechanismId.MEDIAN_LEFT, Variant.SUM, 3, 2, Family.UNIFORM_INT, 200),
    (MechanismId.MEDIAN_LEFT, Variant.SUM, 3, 2, Family.COINCIDENT, 150),
    (MechanismId.MEDIAN_LEFT, Variant.SUM, 4, 2, Family.UNIFORM_GRID, 150),
    (MechanismId.MEDIAN_LEFT, Variant.MAX, 3, 2, Family.UNIFORM_INT, 200),
    (MechanismId.MEDIAN_LEFT, Variant.MAX, 5, 2, Family.CLUSTERED, 150),
    (MechanismId.MEDIAN_LEFT, Variant.MAX, 4, 2, Family.COINCIDENT, 150),
    (MechanismId.UNIFORM, Variant.MAX, 3, 2, Family.UNIFORM_INT, 350),
    (MechanismId.UNIFORM, Variant.MAX, 3, 2, Family.COINCIDENT, 200),
    (MechanismId.UNIFORM, Variant.MAX, 3, 2, Family.UNIFORM_GRID, 150),
    (MechanismId.UNIFORM, Variant.MAX, 5, 2, Family.UNIFORM_INT, 150),
    (MechanismId.UNIFORM, Variant.MAX, 5, 2, Family.CLUSTERED, 150),
    (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM, 3, 2, Family.UNIFORM_INT, 350),
    (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM, 3, 2, Family.COINCIDENT, 250),
    (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM, 3, 2, Family.UNIFORM_GRID, 200),
    (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM, 5, 2, Family.CLUSTERED, 200),
    (MechanismId.MEDIAN_BALL, Variant.SUM, 3, 2, Family.UNIFORM_INT, 150),
    (MechanismId.MEDIAN_BALL, Variant.SUM, 4, 3, Family.COINCIDENT, 100),
    (MechanismId.MEDIAN_BALL, Variant.SUM, 5, 3, Family.UNIFORM_GRID, 100),
    (MechanismId.MEDIAN_BALL, Variant.SUM, 6, 4, Family.UNIFORM_INT, 100),
    (MechanismId.MEDIAN_BALL, Variant.SUM, 7, 5, Family.CLUSTERED, 50),
    (MechanismId.MEDIAN_BALL, Variant.MAX, 3, 2, Family.UNIFORM_INT, 150),
    (MechanismId.MEDIAN_BALL, Variant.MAX, 4, 3, Family.COINCIDENT, 100),
    (MechanismId.MEDIAN_BALL, Variant.MAX, 5, 3, Family.UNIFORM_GRID, 100),
    (MechanismId.MEDIAN_BALL, Variant.MAX, 6, 4, Family.UNIFORM_INT, 100),
    (MechanismId.MEDIAN_BALL, Variant.MAX, 7, 5, Family.CLUSTERED, 50),
    (MechanismId.AUTO_SUM, Variant.SUM, 3, 2, Family.UNIFORM_INT, 300),
    (MechanismId.AUTO_SUM, Variant.SUM, 4, 2, Family.UNIFORM_INT, 200),
    (MechanismId.AUTO_SUM, Variant.SUM, 3, 2, Family.COINCIDENT, 200),
    (MechanismId.AUTO_SUM, Variant.SUM, 4, 2, Family.UNIFORM_GRID, 150),
    (MechanismId.AUTO_SUM, Variant.SUM, 6, 2, Family.CLUSTERED, 150),
)


def test_c7_no_profitable_misreports():
    per_mech = {}
    for mech, _, _, _, _, count in SP_SUITE:
        per_mech[mech] = per_mech.get(mech, 0) + count
    assert all(total == 1000 for total in per_mech.values())
    assert len(per_mech) == 7

    failures = []
    scanned = 0
    for mech, variant, n, k, family, count in SP_SUITE:
        spec = GenSpec(
            family,
            n=n,
            k=k,
            variant=variant,
            seed=800 + 10 * n + k,
            lo=0,
            hi=max(4, 2 * n),
            denominator=10,
        )
        for inst in generate(spec, count):
            scan = sp_scan(mech, inst)
            scanned += 1
            if scan.violation is not None:
                v = scan.violation
                failures.append(
                    f"{mech.value}/{variant.value} {inst.locations}: agent "
                    f"{v.agent} gains by reporting {v.misreport}"
                )
                break
        if failures:
            break

    # Negative control: the non-strategyproof baseline must be refuted.
    baseline_inst = Instance((0, 1, 3), 2, Variant.SUM)
    if sp_scan(MechanismId.OPT_SUM_BASELINE, baseline_inst).violation is None:
        failures.append("baseline refutation missing on (0, 1, 3)")
    deviated = baseline_inst.with_location(2, F(3, 2))
    dev_cost = expected_agent_cost(
        deviated, apply(MechanismId.OPT_SUM_BASELINE, deviated), 2, 3
    )
    honest_cost = expected_agent_cost(
        baseline_inst, apply(MechanismId.OPT_SUM_BASELINE, baseline_inst), 2, 3
    )
    if not (honest_cost == 5 and dev_cost == F(7, 2)):
        failures.append(
            f"baseline frozen deviation: honest {honest_cost}, deviated {dev_cost}"
        )
    conclude(
        "criterion 7: strategyproofness suite",
        failures,
        f"{scanned} scans across 7 mechanisms, no profitable misreport; "
        "baseline refuted (cost 5 -> 7/2 by reporting 3/2)",
    )


def test_c7_scans_exactly_the_claimed_pairs():
    scanned = {(mech, variant) for mech, variant, *_ in SP_SUITE}
    claimed = {(m, v) for m in MechanismId for v in Variant if is_strategyproof(m, v)}
    assert scanned == claimed


def test_c8_pair_cost_identity():
    failures = []
    checked = 0
    for n in (3, 5, 7, 9):
        for inst in mixed_instances(Variant.SUM, n, 2, per_family=315, seed=900 + n):
            checked += 1
            if not lemma_pair_cost_consistent(inst):
                failures.append(f"n={n} locations={inst.locations}")
                break
    assert checked >= 5_000
    conclude(
        "criterion 8: closed-form pair cost identity",
        failures,
        f"{checked} random odd-n instances, closed form == generic evaluator",
    )


def test_c9_regressions_and_determinism(tmp_path, capsys):
    failures = []
    results = run_regressions()
    if len(results) != 7 or not all(r.passed for r in results):
        failures.append(
            "fixtures: " + ", ".join(f"{r.name}={r.passed}" for r in results)
        )

    sweep_args = [
        "ratio-sweep",
        "--mech",
        "reverse-proportional",
        "--variant",
        "sum",
        "--n",
        "3",
        "--trials",
        "50",
        "--seed",
        "13",
        "--out",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code_a = main(sweep_args + [str(first)])
    code_b = main(sweep_args + [str(second)])
    capsys.readouterr()  # swallow CLI chatter; the files are the artifact
    if code_a != ExitCode.OK or code_b != ExitCode.OK:
        failures.append(f"sweep exit codes {code_a}, {code_b}")
    elif first.read_bytes() != second.read_bytes():
        failures.append("sweep CSVs differ across identical reruns")
    conclude(
        "criterion 9: regressions and deterministic output",
        failures,
        "7/7 pinned fixtures pass; identical seeds give byte-identical CSVs",
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
