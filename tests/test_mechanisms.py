"""Mechanism tests: frozen outcomes on small profiles plus structural
invariants (validity, feasibility, symmetry, equivariance) on random ones.

Each frozen lottery below was derived by hand from the mechanism's rule and
double-checked by exact expected-cost arithmetic.
"""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flp import (
    InputError,
    Instance,
    InvariantError,
    Lottery,
    MechanismId,
    MechanismPreconditionError,
    Solution,
    UnsupportedVariantError,
    Variant,
    apply,
    expected_social_cost,
    is_strategyproof,
)
from flp.mechanisms import fixed_outcomes, position_rule


def sum_inst(*locs, k=2):
    return Instance(tuple(locs), k, Variant.SUM)


def max_inst(*locs, k=2):
    return Instance(tuple(locs), k, Variant.MAX)


def outcome_coords(inst, lottery):
    """Lottery as a set of (sorted coordinate tuple, probability) pairs —
    the label-free view used for symmetry checks."""
    return {(sol.coords(inst), p) for sol, p in lottery.support}


coords = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20, max_denominator=10),
)


@st.composite
def profiles(draw, min_n=2, max_n=7, parity=None, max_k=None):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if parity == "odd" and n % 2 == 0:
        n = n + 1 if n < max_n else n - 1
    if parity == "even" and n % 2 == 1:
        n = n + 1 if n < max_n else n - 1
    locs = tuple(draw(coords) for _ in range(n))
    if max_k is None:
        k = 2
    else:
        k = draw(st.integers(min_value=2, max_value=min(max_k, n)))
    return locs, k


class TestTwoMedians:
    def test_four_agents(self):
        inst = sum_inst(0, 1, 2, 3)
        lot = apply(MechanismId.TWO_MEDIANS, inst)
        assert len(lot.support) == 1
        assert lot.support[0][0] == Solution({1, 2})

    def test_two_agents(self):
        lot = apply(MechanismId.TWO_MEDIANS, sum_inst(5, 2))
        assert lot.support[0][0].coords(sum_inst(5, 2)) == (2, 5)

    def test_odd_n_rejected(self):
        with pytest.raises(MechanismPreconditionError, match="even number"):
            apply(MechanismId.TWO_MEDIANS, sum_inst(0, 1, 2))

    def test_k_must_be_two(self):
        with pytest.raises(MechanismPreconditionError, match="k=2"):
            apply(MechanismId.TWO_MEDIANS, sum_inst(0, 1, 2, 3, k=3))


class TestMedianRight:
    def test_basic(self):
        lot = apply(MechanismId.MEDIAN_RIGHT, sum_inst(0, 1, 2))
        assert lot.support[0][0] == Solution({1, 2})

    def test_coincident_median(self):
        inst = sum_inst(0, 0, 1)
        lot = apply(MechanismId.MEDIAN_RIGHT, inst)
        assert lot.support[0][0].coords(inst) == (0, 1)

    def test_two_agents(self):
        lot = apply(MechanismId.MEDIAN_RIGHT, sum_inst(5, 2))
        assert lot.support[0][0] == Solution({0, 1})

    def test_k_must_be_two(self):
        with pytest.raises(MechanismPreconditionError):
            apply(MechanismId.MEDIAN_RIGHT, sum_inst(0, 1, 2, k=3))


class TestMedianLeft:
    def test_basic(self):
        lot = apply(MechanismId.MEDIAN_LEFT, sum_inst(0, 1, 2))
        assert lot.support[0][0] == Solution({0, 1})

    def test_coincident(self):
        inst = sum_inst(0, 0, 1)
        lot = apply(MechanismId.MEDIAN_LEFT, inst)
        assert lot.support[0][0].coords(inst) == (0, 0)

    def test_two_agents_rejected(self):
        with pytest.raises(MechanismPreconditionError, match="left neighbour"):
            apply(MechanismId.MEDIAN_LEFT, sum_inst(0, 1))


class TestUniformLeftRight:
    def test_equal_split(self):
        inst = sum_inst(0, 1, 2)
        lot = apply(MechanismId.UNIFORM, inst)
        assert outcome_coords(inst, lot) == {((0, 1), F(1, 2)), ((1, 2), F(1, 2))}

    def test_expected_max_cost(self):
        inst = max_inst(0, 0, 1)
        assert expected_social_cost(inst, apply(MechanismId.UNIFORM, inst)) == 2

    def test_even_n_rejected(self):
        with pytest.raises(MechanismPreconditionError, match="odd"):
            apply(MechanismId.UNIFORM, sum_inst(0, 1, 2, 3))


class TestReverseProportional:
    def test_probabilities_reverse_proportional_to_gaps(self):
        inst = sum_inst(0, 1, 3)
        lot = apply(MechanismId.REVERSE_PROPORTIONAL, inst)
        assert outcome_coords(inst, lot) == {((0, 1), F(2, 3)), ((1, 3), F(1, 3))}
        assert expected_social_cost(inst, lot) == F(22, 3)

    def test_zero_gap_collapses_to_point_mass(self):
        inst = sum_inst(0, 0, 1)
        lot = apply(MechanismId.REVERSE_PROPORTIONAL, inst)
        assert len(lot.support) == 1
        assert lot.support[0][0].coords(inst) == (0, 0)

    def test_all_coincident_splits_evenly(self):
        inst = sum_inst(5, 5, 5)
        lot = apply(MechanismId.REVERSE_PROPORTIONAL, inst)
        assert sorted(p for _, p in lot.support) == [F(1, 2), F(1, 2)]
        assert expected_social_cost(inst, lot) == 0

    def test_even_n_rejected(self):
        with pytest.raises(MechanismPreconditionError, match="odd"):
            apply(MechanismId.REVERSE_PROPORTIONAL, sum_inst(0, 1))

    @given(profiles(min_n=3, max_n=9, parity="odd"))
    @settings(max_examples=60)
    def test_probabilities_match_definition(self, profile):
        locs, k = profile
        inst = Instance(locs, 2, Variant.SUM)
        lot = apply(MechanismId.REVERSE_PROPORTIONAL, inst)
        xs = sorted(locs)
        s = (len(xs) - 1) // 2
        gap_left = xs[s] - xs[s - 1]  # median to its left neighbour
        gap_right = xs[s + 1] - xs[s]  # median to its right neighbour
        span = gap_left + gap_right
        if span == 0:
            expected = {F(1, 2)}
        else:
            expected = {
                p for p in (F(gap_right, span), F(gap_left, span)) if p != 0
            }
        assert {p for _, p in lot.support} == expected


class TestMedianBall:
    def test_odd_k_centers_on_median(self):
        inst = max_inst(0, 1, 1, 1, k=3)
        lot = apply(MechanismId.MEDIAN_BALL, inst)
        assert lot.support[0][0].coords(inst) == (0, 1, 1)

    def test_even_k_extends_right(self):
        inst = sum_inst(0, 1, 2, 3, 4, 5, k=4)
        lot = apply(MechanismId.MEDIAN_BALL, inst)
        assert lot.support[0][0].coords(inst) == (1, 2, 3, 4)

    def test_k_equals_n_takes_everyone(self):
        inst = sum_inst(3, 1, 2, k=3)
        lot = apply(MechanismId.MEDIAN_BALL, inst)
        assert lot.support[0][0] == Solution({0, 1, 2})

    @pytest.mark.parametrize(
        "mech, variant",
        [
            (mech, variant)
            for mech in MechanismId
            for variant in Variant
            if not (mech is MechanismId.OPT_SUM_BASELINE and variant is Variant.MAX)
        ],
        ids=lambda x: x.value,
    )
    def test_window_is_contiguous_and_contains_median(self, mech, variant):
        # Every mechanism opens k consecutive stable sorted positions that
        # contain the low median, on every shape it accepts.
        shapes = [
            (n, k)
            for n in range(2, 9)
            for k in range(2, n + 1)
            if _README_PRECONDITIONS[mech](n, k) is None
        ]

        @given(st.sampled_from(shapes), st.lists(coords, min_size=8, max_size=8))
        @settings(max_examples=60)
        def run(shape, pool):
            n, k = shape
            locs = tuple(pool[:n])
            lot = apply(mech, Instance(locs, k, variant))
            order = sorted(range(n), key=lambda i: (locs[i], i))
            for sol, _ in lot.support:
                positions = sorted(order.index(h) for h in sol.hosts)
                assert positions == list(range(positions[0], positions[0] + k))
                assert positions[0] <= (n - 1) // 2 <= positions[-1]

        run()

    @pytest.mark.parametrize(
        "mech, parity, halves",
        [
            (MechanismId.MEDIAN_BALL, None, (MechanismId.MEDIAN_RIGHT,)),
            (MechanismId.TWO_MEDIANS, "even", (MechanismId.MEDIAN_RIGHT,)),
            (
                MechanismId.UNIFORM,
                "odd",
                (MechanismId.MEDIAN_LEFT, MechanismId.MEDIAN_RIGHT),
            ),
        ],
        ids=["median-ball", "two-medians-even-n", "uniform-odd-n"],
    )
    def test_k2_matches_median_right(self, mech, parity, halves):
        # At k=2, median-ball and (even n) two-medians are median-right, and
        # uniform (odd n) is median-left or median-right at 1/2 each.
        @given(profiles(min_n=2, max_n=8, parity=parity))
        @settings(max_examples=60)
        def run(profile):
            locs, _ = profile
            inst = Instance(locs, 2, Variant.SUM)
            expect = {
                apply(part, inst).support[0][0]: F(1, len(halves)) for part in halves
            }
            assert dict(apply(mech, inst).support) == expect

        run()


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("mech", list(MechanismId), ids=lambda m: m.value)
def test_fixed_outcomes_are_the_rule_on_every_profile(mech, variant):
    # The shape's fixed outcomes are what the rule gives any sorted reports;
    # only the rules that read the reports have none.
    reads_reports = {MechanismId.REVERSE_PROPORTIONAL, MechanismId.OPT_SUM_BASELINE}
    rng = random.Random(f"{mech.value}:{variant.value}")
    for n in range(2, 10):
        for k in range(2, min(n, 5) + 1):
            try:
                rule = position_rule(mech, n, k, variant)
            except (MechanismPreconditionError, UnsupportedVariantError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    fixed_outcomes(mech, n, k, variant)
                continue
            fixed = fixed_outcomes(mech, n, k, variant)
            if mech in reads_reports or (mech is MechanismId.AUTO_SUM and n % 2):
                assert fixed is None, (n, k)
                continue
            for _ in range(20):
                xs = sorted(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
                assert fixed == rule(xs, k), (n, k, xs)


class TestAutoSum:
    def test_even_delegates_to_two_medians(self):
        inst = sum_inst(0, 1, 2, 3)
        assert (
            apply(MechanismId.AUTO_SUM, inst).support
            == apply(MechanismId.TWO_MEDIANS, inst).support
        )

    def test_odd_delegates_to_reverse_proportional(self):
        inst = sum_inst(0, 1, 3)
        assert (
            apply(MechanismId.AUTO_SUM, inst).support
            == apply(MechanismId.REVERSE_PROPORTIONAL, inst).support
        )

    def test_k_must_be_two(self):
        with pytest.raises(MechanismPreconditionError):
            apply(MechanismId.AUTO_SUM, sum_inst(0, 1, 2, k=3))


class TestOptSumBaseline:
    def test_point_mass_on_optimum(self):
        inst = sum_inst(0, 1, 3)
        lot = apply(MechanismId.OPT_SUM_BASELINE, inst)
        assert len(lot.support) == 1
        assert lot.support[0][0] == Solution({0, 1})

    def test_max_variant_unsupported(self):
        with pytest.raises(UnsupportedVariantError):
            apply(MechanismId.OPT_SUM_BASELINE, max_inst(0, 1, 2))

    def test_not_marked_strategyproof(self):
        assert not is_strategyproof(MechanismId.OPT_SUM_BASELINE)
        assert not any(
            is_strategyproof(MechanismId.OPT_SUM_BASELINE, v) for v in Variant
        )
        assert all(
            is_strategyproof(m)
            for m in MechanismId
            if m is not MechanismId.OPT_SUM_BASELINE
        )


class TestStrategyproofClaims:
    def test_refuted_max_pairs_are_unclaimed(self):
        # Both are manipulable under max (see the verify-sp refutation test).
        for mech in (MechanismId.REVERSE_PROPORTIONAL, MechanismId.AUTO_SUM):
            assert not is_strategyproof(mech, Variant.MAX)
            assert is_strategyproof(mech, Variant.SUM)

    def test_claims_follow_the_declared_bound_rows(self):
        assert is_strategyproof(MechanismId.MEDIAN_LEFT, Variant.MAX)
        assert is_strategyproof(MechanismId.UNIFORM, Variant.MAX)
        assert not is_strategyproof(MechanismId.UNIFORM, Variant.SUM)
        assert not is_strategyproof(MechanismId.TWO_MEDIANS, Variant.MAX)


class TestApply:
    def test_accepts_enum_and_string(self):
        inst = sum_inst(0, 1, 2)
        assert apply(MechanismId.MEDIAN_RIGHT, inst) == apply("median-right", inst)

    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown mechanism"):
            apply("nearest-neighbour", sum_inst(0, 1))

    def test_rule_weights_over_the_denominator_raise(self, monkeypatch):
        import flp.mechanisms as mechanisms

        def overweight(xs, k):
            return 2, (((0, 1), 1), ((1, 2), 2))

        row = mechanisms._MECHANISMS[MechanismId.UNIFORM]
        monkeypatch.setitem(
            mechanisms._MECHANISMS, MechanismId.UNIFORM, (overweight, *row[1:])
        )
        with pytest.raises(InvariantError, match="sum to 3/2"):
            apply(MechanismId.UNIFORM, sum_inst(0, 1, 2))

    def test_every_id_dispatches(self):
        even = sum_inst(0, 1, 2, 3)
        odd = sum_inst(0, 1, 2)
        for mech in MechanismId:
            inst = even if mech is MechanismId.TWO_MEDIANS else odd
            lot = apply(mech, inst)
            assert sum(p for _, p in lot.support) == 1


def _k2_then(n_check):
    """A k=2 precondition followed by a check on n alone."""
    return lambda n, k: "k=2" if k != 2 else n_check(n)


# The README's "preconditions" column: the message fragment of the first
# failed check at (n, k), or None where the mechanism runs.  The baseline
# also refuses the max variant outright.
_README_PRECONDITIONS = {
    MechanismId.TWO_MEDIANS: _k2_then(lambda n: "even number" if n % 2 else None),
    MechanismId.MEDIAN_RIGHT: _k2_then(lambda n: None),
    MechanismId.MEDIAN_LEFT: _k2_then(lambda n: "left neighbour" if n < 3 else None),
    MechanismId.UNIFORM: _k2_then(lambda n: None if n % 2 else "odd number"),
    MechanismId.REVERSE_PROPORTIONAL: _k2_then(
        lambda n: None if n % 2 else "odd number"
    ),
    MechanismId.MEDIAN_BALL: lambda n, k: None,
    MechanismId.AUTO_SUM: _k2_then(lambda n: None),
    MechanismId.OPT_SUM_BASELINE: lambda n, k: None,
}


@pytest.mark.parametrize("mech", list(MechanismId), ids=lambda m: m.value)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_preconditions_match_readme_column(mech, variant):
    for n in range(2, 13):
        for k in range(2, min(n, 5) + 1):
            inst = Instance(tuple(F(i * i, 3) for i in range(n)), k, variant)
            if mech is MechanismId.OPT_SUM_BASELINE and variant is Variant.MAX:
                with pytest.raises(UnsupportedVariantError, match="sum variant"):
                    apply(mech, inst)
                continue
            fragment = _README_PRECONDITIONS[mech](n, k)
            if fragment is None:
                lot = apply(mech, inst)
                assert sum(p for _, p in lot.support) == 1, (n, k)
                assert all(len(sol.hosts) == k for sol, _ in lot.support), (n, k)
            else:
                with pytest.raises(MechanismPreconditionError) as exc:
                    apply(mech, inst)
                message = str(exc.value)
                assert message.startswith(f"{mech.value} requires"), (n, k)
                assert fragment in message, (n, k, message)


def _applicable_instance_strategy(mech):
    """Profile strategy satisfying ``mech``'s preconditions."""
    if mech is MechanismId.TWO_MEDIANS:
        return profiles(min_n=2, max_n=8, parity="even")
    if mech in (MechanismId.UNIFORM, MechanismId.REVERSE_PROPORTIONAL):
        return profiles(min_n=3, max_n=9, parity="odd")
    if mech is MechanismId.MEDIAN_LEFT:
        return profiles(min_n=3, max_n=8)
    if mech is MechanismId.MEDIAN_BALL:
        return profiles(min_n=2, max_n=8, max_k=6)
    return profiles(min_n=2, max_n=8)


ALL_MECHS = list(MechanismId)


class TestStructuralInvariants:
    @pytest.mark.parametrize("mech", ALL_MECHS, ids=lambda m: m.value)
    def test_lottery_is_valid_and_feasible(self, mech):
        @given(_applicable_instance_strategy(mech))
        @settings(max_examples=40)
        def run(profile):
            locs, k = profile
            if mech is MechanismId.AUTO_SUM:
                k = 2
            inst = Instance(locs, k, Variant.SUM)
            lot = apply(mech, inst)
            # Re-validate through the public constructor.
            Lottery(lot.support)
            for sol, _ in lot.support:
                assert len(sol.hosts) == inst.k
                assert all(0 <= h < inst.n for h in sol.hosts)

        run()

    @pytest.mark.parametrize("mech", ALL_MECHS, ids=lambda m: m.value)
    def test_relabeling_agents_preserves_outcomes(self, mech):
        @given(_applicable_instance_strategy(mech), st.randoms(use_true_random=False))
        @settings(max_examples=40)
        def run(profile, rng):
            locs, k = profile
            if mech is MechanismId.AUTO_SUM:
                k = 2
            inst = Instance(locs, k, Variant.SUM)
            perm = list(range(len(locs)))
            rng.shuffle(perm)
            permuted = Instance(tuple(locs[i] for i in perm), k, Variant.SUM)
            assert outcome_coords(inst, apply(mech, inst)) == outcome_coords(
                permuted, apply(mech, permuted)
            )

        run()

    @pytest.mark.parametrize("mech", ALL_MECHS, ids=lambda m: m.value)
    def test_translation_and_positive_scaling_equivariance(self, mech):
        @given(
            _applicable_instance_strategy(mech),
            st.integers(min_value=-8, max_value=8),
            st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
        )
        @settings(max_examples=40)
        def run(profile, shift, scale):
            locs, k = profile
            if mech is MechanismId.AUTO_SUM:
                k = 2
            inst = Instance(locs, k, Variant.SUM)
            mapped = Instance(
                tuple(scale * x + shift for x in locs), k, Variant.SUM
            )
            base = outcome_coords(inst, apply(mech, inst))
            expect = {
                (tuple(scale * c + shift for c in cs), p) for cs, p in base
            }
            assert outcome_coords(mapped, apply(mech, mapped)) == expect

        run()


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
