"""Optimal-solver tests: the exact optimum, the fast sum solver, and their
equivalence.

Brute-force expectations below were hand-computed by listing every feasible
host set; both solvers are checked against those same frozen values and,
property-style, against the enumeration oracle on random instances.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flp import (
    Family,
    GenSpec,
    Instance,
    OptResult,
    Solution,
    UnsupportedVariantError,
    Variant,
    brute_force_optimal,
    fast_optimal_sum,
    generate,
    social_cost,
)
from flp.solver import optimal_sum_window
from enumeration import enumerated_optimum


def sum_inst(*locs, k=2):
    return Instance(tuple(locs), k, Variant.SUM)


def max_inst(*locs, k=2):
    return Instance(tuple(locs), k, Variant.MAX)


coords = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20, max_denominator=10),
)


@st.composite
def instances(draw, variant=None, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    locs = tuple(draw(coords) for _ in range(n))
    k = draw(st.integers(min_value=2, max_value=n))
    var = variant if variant is not None else draw(st.sampled_from(list(Variant)))
    return Instance(locs, k, var)


def all_solutions(inst):
    """Every feasible host set, independently of the solver's own loops."""
    return [
        Solution(frozenset(c)) for c in itertools.combinations(range(inst.n), inst.k)
    ]


class TestBruteForce:
    def test_sum_three_agents(self):
        inst = sum_inst(0, 1, 3)
        opt = brute_force_optimal(inst)
        assert opt.solution == Solution({0, 1})
        assert opt.cost == 7
        # Exhaustive cross-check of every candidate pair.
        assert sorted(social_cost(inst, s) for s in all_solutions(inst)) == [7, 8, 9]

    def test_max_prefers_far_left_pair(self):
        # Unique optimum places both facilities left of centre.
        inst = max_inst(F(-1, 2), 0, 1, 2)
        opt = brute_force_optimal(inst)
        assert opt.cost == 5
        assert opt.solution.coords(inst) == (F(-1, 2), 0)

    def test_sum_four_agents_two_medians(self):
        opt = brute_force_optimal(sum_inst(0, 1, 2, 3))
        assert opt.solution == Solution({1, 2})
        assert opt.cost == 8

    def test_tie_returns_first_in_enumeration_order(self):
        opt = brute_force_optimal(sum_inst(0, 0, 0, 0))
        assert opt.solution == Solution({0, 1})
        assert opt.cost == 0

    @pytest.mark.parametrize(
        "locs, variant, hosts, rival, cost",
        [
            # Sorted order is agents 1, 2 (at 0) then 0, 3 (at 3).  {1, 2}
            # and {0, 3} tie under both variants (every pair does under
            # sum); the first pair over sorted positions wins, not the first
            # by index.
            pytest.param((3, 0, 0, 3), Variant.SUM, (1, 2), (0, 3), 12, id="sum"),
            pytest.param((3, 0, 0, 3), Variant.MAX, (1, 2), (0, 3), 6, id="max"),
            # Under sum the first optimal set, sorted positions {0, 2}, is no
            # window; only its coordinates (0, 1) are, as is the window
            # {1, 2}.  Under max the first window {0, 1} wins outright.
            pytest.param(
                (0, 0, 1, 2, 2), Variant.SUM, (0, 2), (1, 2), 9, id="sum-coincident"
            ),
            pytest.param(
                (0, 0, 1, 2, 2), Variant.MAX, (0, 1), (3, 4), 5, id="max-coincident"
            ),
        ],
    )
    def test_unsorted_tie_goes_to_leftmost_sorted_positions(
        self, locs, variant, hosts, rival, cost
    ):
        inst = Instance(locs, 2, variant)
        opt = brute_force_optimal(inst)
        assert social_cost(inst, Solution(set(rival))) == opt.cost == cost
        assert opt.solution == Solution(set(hosts))

    def test_cost_matches_certificate(self):
        inst = max_inst(0, F(1, 3), 2, 5, k=3)
        opt = brute_force_optimal(inst)
        assert social_cost(inst, opt.solution) == opt.cost

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_k_equals_n_hosts_every_agent(self, variant):
        # One host set exists; the scan sees only the window 0 .. n-1.
        inst = Instance((7, 0, F(5, 2), 3), 4, variant)
        opt = brute_force_optimal(inst)
        assert opt.solution == Solution({0, 1, 2, 3})
        assert opt.cost == social_cost(inst, opt.solution)
        assert opt.cost == (43 if variant is Variant.SUM else F(45, 2))

    def test_max_tie_between_outer_pairs_takes_first_pair(self):
        # Windows 0 .. 2 and 1 .. 3 both cost 8; the first window wins.
        inst = max_inst(0, 1, 2, 3, k=3)
        opt = brute_force_optimal(inst)
        assert social_cost(inst, Solution({1, 2, 3})) == opt.cost == 8
        assert opt.solution == Solution({0, 1, 2})

    @pytest.mark.parametrize("value", ["1", "not-a-number"])
    def test_budget_variable_is_ignored(self, monkeypatch, value):
        # FLP_BUDGET once capped C(n, k); nothing reads it any more, so
        # neither a tiny nor a malformed value refuses or fails a shape.
        monkeypatch.setenv("FLP_BUDGET", value)
        inst = sum_inst(0, 1, 3)
        assert brute_force_optimal(inst) == OptResult(Solution({0, 1}), 7)

    @given(instances(max_n=6))
    @settings(max_examples=40)
    def test_returns_minimum_over_enumeration(self, inst):
        opt = brute_force_optimal(inst)
        costs = [social_cost(inst, s) for s in all_solutions(inst)]
        assert opt.cost == min(costs)
        assert social_cost(inst, opt.solution) == opt.cost
        assert opt == enumerated_optimum(inst)

    @pytest.mark.parametrize(
        "variant, n",
        [
            pytest.param(Variant.SUM, 200, id="sum"),
            pytest.param(Variant.MAX, 200, id="max"),
            pytest.param(Variant.MAX, 5000, id="max-5000"),
        ],
    )
    def test_large_shape_needs_no_enumeration(self, variant, n):
        # C(200, 6) is about 8e10 host sets and C(5000, 6) about 2e19.
        spec = GenSpec(
            Family.UNIFORM_GRID,
            n=n,
            k=6,
            variant=variant,
            seed=3,
            hi=50,
            denominator=10,
        )
        (inst,) = generate(spec, 1)
        opt = brute_force_optimal(inst)
        assert social_cost(inst, opt.solution) == opt.cost
        if variant is Variant.SUM:
            assert fast_optimal_sum(inst).cost == opt.cost


class TestFastOptimalSum:
    def test_odd_n_right_neighbour_farther(self):
        opt = fast_optimal_sum(sum_inst(0, 1, 3))
        assert opt.solution == Solution({0, 1})
        assert opt.cost == 7

    def test_odd_n_neighbour_tie_goes_left(self):
        opt = fast_optimal_sum(sum_inst(0, 1, 2))
        assert opt.solution == Solution({0, 1})
        assert opt.cost == 5

    def test_odd_n_right_neighbour_closer(self):
        opt = fast_optimal_sum(sum_inst(0, 1, F(3, 2)))
        assert opt.solution == Solution({1, 2})
        assert opt.cost == F(7, 2)

    def test_even_n_two_medians(self):
        opt = fast_optimal_sum(sum_inst(0, 1, 2, 3))
        assert opt.solution == Solution({1, 2})
        assert opt.cost == 8

    def test_two_agents(self):
        opt = fast_optimal_sum(sum_inst(5, 2))
        assert opt.solution == Solution({0, 1})
        assert opt.cost == 6

    def test_k_three_tie_takes_leftmost_window(self):
        # Windows {0,1,1} and {1,1,2} both cost 8; the left one wins.
        opt = fast_optimal_sum(sum_inst(0, 1, 1, 2, k=3))
        assert opt.solution == Solution({0, 1, 2})
        assert opt.cost == 8

    def test_k_equals_n(self):
        inst = sum_inst(0, 2, 7, k=3)
        opt = fast_optimal_sum(inst)
        assert opt.solution == Solution({0, 1, 2})
        assert opt.cost == social_cost(inst, opt.solution)

    def test_max_variant_unsupported(self):
        with pytest.raises(UnsupportedVariantError):
            fast_optimal_sum(max_inst(0, 1, 2))

    @given(instances(variant=Variant.SUM, max_n=7))
    @settings(max_examples=80)
    def test_matches_brute_force_cost(self, inst):
        fast = fast_optimal_sum(inst)
        brute = brute_force_optimal(inst)
        assert fast.cost == brute.cost
        assert social_cost(inst, fast.solution) == fast.cost

    def test_window_scan_matches_the_fresh_sum_oracle(self):
        # Every median-covering window priced by a fresh sum over all
        # reports, the first of equal prices kept; tie-heavy reports make
        # equal prices common, so a scan that keeps a later tie fails here.
        def oracle(xs, k):
            n = len(xs)
            lo, hi = (n - 1) // 2, n // 2
            start = min(
                range(max(0, lo - k + 1), min(hi, n - k) + 1),
                key=lambda s: sum(abs(x - xs[p]) for p in range(s, s + k) for x in xs),
            )
            return tuple(range(start, start + k))

        rng = random.Random(3)
        for n in range(3, 41):
            for k in range(3, min(n, 8) + 1):
                for spread in (1, 4):
                    ints = sorted(rng.randint(0, spread) for _ in range(n))
                    fracs = sorted(F(rng.randint(0, 2 * spread), 2) for _ in range(n))
                    for xs in (ints, fracs, [-x for x in reversed(ints)]):
                        assert optimal_sum_window(xs, k) == oracle(xs, k), (xs, k)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
