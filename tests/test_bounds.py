"""Declared-bound table tests: exact values per (mechanism, variant, n, k),
None where no guarantee is claimed, and the rational over-approximation of
the irrational reverse-proportional constant.
"""

from fractions import Fraction as F

import pytest

from flp import (
    InputError,
    MechanismId,
    RP_BOUND,
    Variant,
    declared_bound,
    is_strategyproof,
)
from flp.bounds import exceeds_bound


class TestDeclaredValues:
    def test_two_medians_sum_is_optimal(self):
        assert declared_bound(MechanismId.TWO_MEDIANS, Variant.SUM, 4, 2) == 1

    def test_two_medians_max_makes_no_claim(self):
        assert declared_bound(MechanismId.TWO_MEDIANS, Variant.MAX, 4, 2) is None

    def test_median_right_sum(self):
        assert declared_bound(MechanismId.MEDIAN_RIGHT, Variant.SUM, 4, 2) == 1
        assert declared_bound(MechanismId.MEDIAN_RIGHT, Variant.SUM, 3, 2) == F(3, 2)
        assert declared_bound(MechanismId.MEDIAN_RIGHT, Variant.SUM, 9, 2) == F(9, 8)

    def test_median_right_max(self):
        assert declared_bound(MechanismId.MEDIAN_RIGHT, Variant.MAX, 4, 2) == 2
        assert declared_bound(MechanismId.MEDIAN_RIGHT, Variant.MAX, 3, 2) == 3
        assert declared_bound(MechanismId.MEDIAN_RIGHT, Variant.MAX, 5, 2) == F(5, 2)

    def test_median_left_claims_odd_n_only(self):
        assert declared_bound(MechanismId.MEDIAN_LEFT, Variant.SUM, 3, 2) == F(3, 2)
        assert declared_bound(MechanismId.MEDIAN_LEFT, Variant.SUM, 4, 2) is None
        assert declared_bound(MechanismId.MEDIAN_LEFT, Variant.MAX, 5, 2) == F(5, 2)
        assert declared_bound(MechanismId.MEDIAN_LEFT, Variant.MAX, 6, 2) is None

    def test_uniform(self):
        assert declared_bound(MechanismId.UNIFORM, Variant.MAX, 3, 2) == F(8, 4)
        assert declared_bound(MechanismId.UNIFORM, Variant.MAX, 5, 2) == F(14, 8)
        assert declared_bound(MechanismId.UNIFORM, Variant.SUM, 3, 2) is None

    def test_reverse_proportional(self):
        assert (
            declared_bound(MechanismId.REVERSE_PROPORTIONAL, Variant.SUM, 3, 2)
            == RP_BOUND
        )
        assert (
            declared_bound(MechanismId.REVERSE_PROPORTIONAL, Variant.MAX, 3, 2) is None
        )

    def test_median_ball(self):
        assert declared_bound(MechanismId.MEDIAN_BALL, Variant.SUM, 9, 5) == 2
        assert declared_bound(MechanismId.MEDIAN_BALL, Variant.MAX, 9, 5) == 6
        assert declared_bound(MechanismId.MEDIAN_BALL, Variant.MAX, 4, 2) == 3

    def test_auto_sum_follows_parity(self):
        assert declared_bound(MechanismId.AUTO_SUM, Variant.SUM, 4, 2) == 1
        assert declared_bound(MechanismId.AUTO_SUM, Variant.SUM, 5, 2) == RP_BOUND

    def test_baseline(self):
        assert declared_bound(MechanismId.OPT_SUM_BASELINE, Variant.SUM, 3, 2) == 1
        assert declared_bound(MechanismId.OPT_SUM_BASELINE, Variant.MAX, 3, 2) is None

    @pytest.mark.parametrize("mech", list(MechanismId), ids=lambda m: m.value)
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_every_claim_is_a_rational_at_least_one(self, mech, variant):
        for n, k in ((2, 2), (3, 2), (6, 4), (9, 5)):
            bound = declared_bound(mech, variant, n, k)
            assert bound is None or (isinstance(bound, F) and bound >= 1)


# The README's "declared ratio ceiling" column, one entry per claimed
# (mechanism, variant) pair; every other pair claims nothing.
_README_CEILINGS = {
    (MechanismId.TWO_MEDIANS, Variant.SUM): lambda n, k: 1,
    (MechanismId.MEDIAN_RIGHT, Variant.SUM): lambda n, k: (
        1 if n % 2 == 0 else F(n, n - 1)
    ),
    (MechanismId.MEDIAN_RIGHT, Variant.MAX): lambda n, k: (
        2 if n % 2 == 0 else F(2 * n, n - 1)
    ),
    (MechanismId.MEDIAN_LEFT, Variant.SUM): lambda n, k: (
        None if n % 2 == 0 else F(n, n - 1)
    ),
    (MechanismId.MEDIAN_LEFT, Variant.MAX): lambda n, k: (
        None if n % 2 == 0 else F(2 * n, n - 1)
    ),
    (MechanismId.UNIFORM, Variant.MAX): lambda n, k: F(3 * n - 1, 2 * n - 2),
    (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM): lambda n, k: (
        F(1_055_728_090_001, 10**12)
    ),
    (MechanismId.MEDIAN_BALL, Variant.SUM): lambda n, k: 2,
    (MechanismId.MEDIAN_BALL, Variant.MAX): lambda n, k: k + 1,
    (MechanismId.AUTO_SUM, Variant.SUM): lambda n, k: (
        1 if n % 2 == 0 else F(1_055_728_090_001, 10**12)
    ),
    (MechanismId.OPT_SUM_BASELINE, Variant.SUM): lambda n, k: 1,
}


@pytest.mark.parametrize("mech", list(MechanismId), ids=lambda m: m.value)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_declared_bound_matches_readme_column(mech, variant):
    ceiling = _README_CEILINGS.get((mech, variant), lambda n, k: None)
    for n in range(2, 13):
        for k in range(2, min(n, 5) + 1):
            want = ceiling(n, k)
            got = declared_bound(mech, variant, n, k)
            assert got == want and (want is None or isinstance(got, F)), (n, k)


@pytest.mark.parametrize("mech", list(MechanismId), ids=lambda m: m.value)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_cli_spelling_reads_the_same_row(mech, variant):
    for n in range(2, 13):
        for k in range(2, min(n, 5) + 1):
            got = declared_bound(mech.value, variant, n, k)
            assert got == declared_bound(mech, variant, n, k), (n, k)
    assert is_strategyproof(mech.value, variant) == is_strategyproof(mech, variant)
    assert is_strategyproof(mech.value) == is_strategyproof(mech)


def test_unknown_spelling_raises_input_error():
    with pytest.raises(InputError, match="unknown mechanism 'nope'.*two-medians"):
        declared_bound("nope", Variant.SUM, 3, 2)
    with pytest.raises(InputError, match="unknown mechanism"):
        is_strategyproof("nope", Variant.SUM)


class TestRpBoundConstant:
    def test_strictly_exceeds_the_irrational_constant(self):
        # RP_BOUND > 10 - 4*sqrt(5)  <=>  (10 - RP_BOUND)^2 < 80,
        # checked without ever leaving rational arithmetic.
        assert 0 < 10 - RP_BOUND
        assert (10 - RP_BOUND) ** 2 < 80

    def test_tight_to_eleven_decimal_places(self):
        slack = F(1, 10**11)
        assert (10 - RP_BOUND + slack) ** 2 > 80

    def test_matches_twelve_digit_decimal(self):
        assert RP_BOUND == F(1_055_728_090_001, 10**12)


class TestExceedsBound:
    # 10 - 4*sqrt(5) = 1.05572809000084...; this ratio lies between it and
    # RP_BOUND, so comparing against RP_BOUND would let it pass.
    BETWEEN = F(10_557_280_900_009, 10**13)

    def test_reverse_proportional_ceiling_is_decided_exactly(self):
        assert self.BETWEEN < RP_BOUND and (10 - self.BETWEEN) ** 2 < 80
        assert exceeds_bound(self.BETWEEN, RP_BOUND)
        assert exceeds_bound(RP_BOUND, RP_BOUND)
        assert not exceeds_bound(F(10557, 10000), RP_BOUND)
        assert not exceeds_bound(F(1), RP_BOUND)
        assert exceeds_bound(F(19), RP_BOUND)  # (10 - 19)^2 >= 80, but 19 > 10

    def test_other_ceilings_are_exact(self):
        assert not exceeds_bound(F(3, 2), F(3, 2))
        assert exceeds_bound(F(3, 2) + F(1, 10**30), F(3, 2))
        assert not exceeds_bound(self.BETWEEN, self.BETWEEN)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
