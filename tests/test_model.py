"""Core model tests: parsing, validation, exact costs, order statistics.

Expected values were derived by independent hand/brute evaluation and are
frozen as exact rationals; property tests re-derive structural invariants
with a naive evaluator written from the cost definition alone.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flp import (
    Family,
    GenSpec,
    InfeasibleError,
    InputError,
    Instance,
    InvariantError,
    Lottery,
    ParseError,
    Solution,
    Variant,
    as_coord,
    coord_str,
    expected_agent_cost,
    expected_social_cost,
    generate,
    order_stats,
    social_cost,
)
from pair_cost import Side, lemma_pair_cost, lemma_pair_cost_consistent, median_pair


def sum_inst(*locs, k=2):
    return Instance(tuple(locs), k, Variant.SUM)


def max_inst(*locs, k=2):
    return Instance(tuple(locs), k, Variant.MAX)


def agent_cost(inst, sol, agent):
    """One agent's cost toward ``sol``, through the public expected-cost path."""
    lottery = Lottery(((sol, 1),))
    return expected_agent_cost(inst, lottery, agent, inst.locations[agent])


def naive_cost(locs, hosts, agent, variant):
    """Independent re-implementation straight from the cost definition."""
    ds = [abs(locs[agent] - locs[h]) for h in hosts]
    return sum(ds) if variant is Variant.SUM else max(ds)


coords = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=16),
)


@st.composite
def instances(draw, min_n=2, max_n=7, odd_only=False, variant=None, k=None):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if odd_only and n % 2 == 0:
        n = n + 1 if n < max_n else n - 1
    locs = tuple(draw(coords) for _ in range(n))
    kk = k if k is not None else draw(st.integers(min_value=2, max_value=n))
    var = variant if variant is not None else draw(st.sampled_from(list(Variant)))
    return Instance(locs, kk, var)


class TestCoordParsing:
    def test_decimal_string_is_exact(self):
        assert as_coord("0.2361") == F(2361, 10000)
        assert as_coord("1.5") == F(3, 2)
        assert as_coord("-0.25") == F(-1, 4)

    def test_ratio_string(self):
        assert as_coord("3/2") == F(3, 2)
        assert as_coord("-1/2") == F(-1, 2)

    def test_integers_stay_integers(self):
        assert as_coord("7") == 7
        assert as_coord(7) == 7
        assert as_coord(F(6, 2)) == 3
        assert isinstance(as_coord(F(6, 2)), int)

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            as_coord(0.5)

    def test_bool_rejected(self):
        with pytest.raises(InputError):
            as_coord(True)

    def test_malformed_strings(self):
        for bad in ("1.2.3", "abc", "1/0", "", "1 2"):
            with pytest.raises(ParseError):
                as_coord(bad)

    @given(coords)
    def test_coord_str_round_trips(self, c):
        assert as_coord(coord_str(c)) == c


class TestInstanceValidation:
    def test_too_few_agents(self):
        with pytest.raises(InfeasibleError):
            Instance((0,), 2, Variant.SUM)

    def test_too_few_facilities(self):
        with pytest.raises(InfeasibleError):
            Instance((0, 1, 2), 1, Variant.SUM)

    def test_k_exceeds_n(self):
        with pytest.raises(InfeasibleError, match="k exceeds n"):
            Instance((0, 1), 3, Variant.SUM)

    def test_float_coordinate_rejected(self):
        with pytest.raises(InputError):
            Instance((0.5, 1, 2), 2, Variant.SUM)

    def test_locations_normalised(self):
        inst = Instance((F(4, 2), 1), 2, Variant.SUM)
        assert inst.locations == (2, 1)
        assert isinstance(inst.locations[0], int)

    def test_with_location(self):
        inst = sum_inst(0, 1, 2)
        moved = inst.with_location(1, F(1, 2))
        assert moved.locations == (0, F(1, 2), 2)
        assert inst.locations == (0, 1, 2)  # original untouched
        with pytest.raises(InputError):
            inst.with_location(3, 0)


class TestAgentCost:
    def test_sum_variant(self):
        # agent at 2, facilities at 0 and 1: 2 + 1
        assert agent_cost(sum_inst(0, 1, 2), Solution({0, 1}), 2) == 3

    def test_max_variant(self):
        # agent at 2, facilities at -1/2 and 0: max(5/2, 2)
        inst = max_inst(F(-1, 2), 0, 1, 2)
        assert agent_cost(inst, Solution({0, 1}), 3) == F(5, 2)

    def test_agent_index_checked(self):
        lottery = Lottery(((Solution({0, 1}), 1),))
        with pytest.raises(InputError):
            expected_agent_cost(sum_inst(0, 1), lottery, 5, 0)

    def test_solution_size_checked(self):
        with pytest.raises(InputError):
            agent_cost(sum_inst(0, 1, 2), Solution({0, 1, 2}), 0)

    def test_host_range_checked(self):
        with pytest.raises(InputError):
            agent_cost(sum_inst(0, 1, 2), Solution({0, 9}), 0)

    @given(instances())
    @settings(max_examples=60)
    def test_matches_naive_evaluator(self, inst):
        hosts = tuple(range(inst.k))
        sol = Solution(set(hosts))
        for agent in range(inst.n):
            assert agent_cost(inst, sol, agent) == naive_cost(
                inst.locations, hosts, agent, inst.variant
            )


class TestSocialCost:
    def test_sum_values(self):
        inst = sum_inst(0, 1, 2)
        assert social_cost(inst, Solution({0, 1})) == 5
        assert social_cost(inst, Solution({0, 2})) == 6

    def test_max_values(self):
        inst = max_inst(F(-1, 2), 0, 1, 2)
        assert social_cost(inst, Solution({0, 1})) == 5
        assert social_cost(inst, Solution({1, 2})) == F(11, 2)

    def test_three_agent_pair_identities(self):
        # For x <= y <= z: SC{x,y} = 3 d(x,y) + 2 d(y,z); SC{y,z} = 2 d(x,y)
        # + 3 d(y,z); SC{x,z} = 3 d(x,y) + 3 d(y,z).
        for x, y, z in [(0, 1, 2), (0, 1, 3), (-2, F(1, 2), 4)]:
            inst = sum_inst(x, y, z)
            dxy, dyz = y - x, z - y
            assert social_cost(inst, Solution({0, 1})) == 3 * dxy + 2 * dyz
            assert social_cost(inst, Solution({1, 2})) == 2 * dxy + 3 * dyz
            assert social_cost(inst, Solution({0, 2})) == 3 * dxy + 3 * dyz

    @given(instances())
    @settings(max_examples=60)
    def test_equals_sum_of_agent_costs(self, inst):
        sol = Solution(set(range(inst.k)))
        assert social_cost(inst, sol) == sum(
            agent_cost(inst, sol, a) for a in range(inst.n)
        )


class TestCostInvariants:
    @given(instances(), st.integers(min_value=-10, max_value=10))
    @settings(max_examples=60)
    def test_translation_invariance(self, inst, shift):
        sol = Solution(set(range(inst.k)))
        shifted = Instance(
            tuple(x + shift for x in inst.locations), inst.k, inst.variant
        )
        assert social_cost(shifted, sol) == social_cost(inst, sol)

    @given(instances(), st.fractions(min_value=F(1, 5), max_value=5, max_denominator=6))
    @settings(max_examples=60)
    def test_scaling_equivariance(self, inst, scale):
        sol = Solution(set(range(inst.k)))
        scaled = Instance(
            tuple(x * scale for x in inst.locations), inst.k, inst.variant
        )
        assert social_cost(scaled, sol) == scale * social_cost(inst, sol)

    @given(instances())
    @settings(max_examples=60)
    def test_permutation_invariance(self, inst):
        # Reverse the agent order and remap the solution accordingly.
        n = inst.n
        reversed_inst = Instance(inst.locations[::-1], inst.k, inst.variant)
        sol = Solution(set(range(inst.k)))
        mapped = Solution({n - 1 - h for h in sol.hosts})
        assert social_cost(reversed_inst, mapped) == social_cost(inst, sol)

    @given(instances(variant=Variant.SUM))
    @settings(max_examples=60)
    def test_max_cost_sandwich(self, inst):
        # For every agent: max-cost <= sum-cost <= k * max-cost.
        as_max = Instance(inst.locations, inst.k, Variant.MAX)
        sol = Solution(set(range(inst.k)))
        for agent in range(inst.n):
            hi = agent_cost(as_max, sol, agent)
            lo = agent_cost(inst, sol, agent)
            assert hi <= lo <= inst.k * hi


class TestLottery:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvariantError):
            Lottery(((Solution({0, 1}), F(1, 2)), (Solution({1, 2}), F(1, 3))))

    def test_negative_probability_rejected(self):
        with pytest.raises(InvariantError):
            Lottery(((Solution({0, 1}), F(3, 2)), (Solution({1, 2}), F(-1, 2))))

    def test_duplicate_solutions_rejected(self):
        with pytest.raises(InvariantError):
            Lottery(((Solution({0, 1}), F(1, 2)), (Solution({1, 0}), F(1, 2))))

    def test_zero_probability_dropped(self):
        lot = Lottery(((Solution({0, 1}), 0), (Solution({1, 2}), 1)))
        assert len(lot.support) == 1
        assert lot.support[0][0] == Solution({1, 2})


class TestExpectedCosts:
    def test_expected_social_cost_sum(self):
        inst = sum_inst(0, 1, 2)
        lot = Lottery(((Solution({0, 1}), F(1, 2)), (Solution({1, 2}), F(1, 2))))
        assert expected_social_cost(inst, lot) == 5

    def test_expected_social_cost_max(self):
        inst = max_inst(0, 0, 1)
        lot = Lottery(((Solution({0, 1}), F(1, 2)), (Solution({1, 2}), F(1, 2))))
        assert expected_social_cost(inst, lot) == 2

    def test_expected_agent_cost_mixed(self):
        inst = sum_inst(0, 1, 3)
        lot = Lottery(((Solution({0, 1}), F(2, 3)), (Solution({1, 2}), F(1, 3))))
        assert expected_agent_cost(inst, lot, 2, 3) == 4

    def test_expected_agent_cost_point_mass(self):
        inst = sum_inst(0, 1, 2)
        lot = Lottery(((Solution({0, 1}), 1),))
        assert expected_agent_cost(inst, lot, 2, 2) == 3

    def test_true_location_differs_from_report(self):
        # Agent 2 reported 3 but truly sits at 0: cost measured from 0.
        inst = sum_inst(0, 1, 3)
        lot = Lottery(((Solution({1, 2}), 1),))
        assert expected_agent_cost(inst, lot, 2, 0) == 1 + 3

    @given(instances())
    @settings(max_examples=60)
    def test_point_mass_matches_social_cost(self, inst):
        sol = Solution(set(range(inst.k)))
        assert expected_social_cost(inst, Lottery(((sol, 1),))) == social_cost(
            inst, sol
        )


class TestOrderStats:
    def test_simple(self):
        assert order_stats(sum_inst(0, 1, 2)) == (0, 1, 2)

    def test_ties_break_by_original_index(self):
        assert order_stats(sum_inst(1, 0, 0)) == (1, 2, 0)

    def test_unsorted_input(self):
        assert order_stats(sum_inst(5, 2)) == (1, 0)
        assert order_stats(sum_inst(3, F(-1, 2), 2, 0)) == (1, 3, 2, 0)

    @given(instances())
    @settings(max_examples=60)
    def test_order_is_stable_sort(self, inst):
        order = order_stats(inst)
        assert sorted(order) == list(range(inst.n))
        keyed = [(inst.locations[i], i) for i in order]
        assert keyed == sorted(keyed)


class TestLemmaPairCost:
    def test_median_pair_follows_sorted_order(self):
        inst = sum_inst(3, 0, 0)  # sorted: agent 1, agent 2, agent 0
        assert median_pair(inst, Side.LEFT) == (2, 1)
        assert median_pair(inst, Side.RIGHT) == (2, 0)

    def test_fixed_values(self):
        inst = sum_inst(0, 1, 3)
        assert lemma_pair_cost(inst, Side.RIGHT) == 8
        assert lemma_pair_cost(inst, Side.LEFT) == 7

    def test_all_coincident(self):
        inst = sum_inst(5, 5, 5)
        assert lemma_pair_cost(inst, Side.LEFT) == 0
        assert lemma_pair_cost(inst, Side.RIGHT) == 0

    def test_even_n_rejected(self):
        with pytest.raises(InputError):
            lemma_pair_cost(sum_inst(0, 1, 2, 3), Side.LEFT)

    def test_k_must_be_two(self):
        with pytest.raises(InputError):
            lemma_pair_cost(sum_inst(0, 1, 2, k=3), Side.LEFT)

    def test_consistency_check_rejects_even_n(self):
        with pytest.raises(InputError, match="odd number"):
            lemma_pair_cost_consistent(sum_inst(0, 1))

    @given(instances(min_n=3, max_n=9, odd_only=True, variant=Variant.SUM, k=2))
    @settings(max_examples=80)
    def test_matches_social_cost_of_pair(self, inst):
        order = order_stats(inst)
        m = (inst.n - 1) // 2
        left = Solution({order[m - 1], order[m]})
        right = Solution({order[m], order[m + 1]})
        assert lemma_pair_cost(inst, Side.LEFT) == social_cost(inst, left)
        assert lemma_pair_cost(inst, Side.RIGHT) == social_cost(inst, right)

    def test_consistent_on_generated_instances(self):
        for family in (Family.UNIFORM_GRID, Family.COINCIDENT):
            spec = GenSpec(family, n=5, k=2, variant=Variant.SUM, seed=23)
            for inst in generate(spec, 20):
                assert lemma_pair_cost_consistent(inst)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
