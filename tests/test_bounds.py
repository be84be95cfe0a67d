"""Declared-bound table tests: exact values per (mechanism, variant, n, k),
None where no guarantee is claimed, and exact comparison of rationals with
the irrational reverse-proportional ceiling 10 - 4*sqrt(5).
"""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import flp
from flp import (
    InputError,
    MechanismId,
    RP_BOUND,
    Variant,
    declared_bound,
    is_strategyproof,
)
from flp.bounds import Surd


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
            # Every ceiling is a rational but the exact 10 - 4*sqrt(5).
            exact = isinstance(bound, F) or bound is RP_BOUND
            assert bound is None or (exact and bound >= 1)


# The README's "declared ratio ceiling" column, one entry per claimed
# (mechanism, variant) pair; every other pair claims nothing.
_TEN_MINUS_4_ROOT_5 = Surd(F(10), F(-4), 5)
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
    (MechanismId.REVERSE_PROPORTIONAL, Variant.SUM): lambda n, k: _TEN_MINUS_4_ROOT_5,
    (MechanismId.MEDIAN_BALL, Variant.SUM): lambda n, k: 2,
    (MechanismId.MEDIAN_BALL, Variant.MAX): lambda n, k: k + 1,
    (MechanismId.AUTO_SUM, Variant.SUM): lambda n, k: (
        1 if n % 2 == 0 else _TEN_MINUS_4_ROOT_5
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
            exact = isinstance(got, (F, Surd))
            assert got == want and (want is None or exact), (n, k)


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


# 10 - 4*sqrt(5) = 1.05572809000084121436...; rationals within 10^-12 of it.
_NEAR_CEILING = st.integers(-(10**8), 10**8).map(
    lambda i: F(105_572_809_000_084_121_436, 10**20) + F(i, 10**20)
)


class TestExactCeiling:
    @given(st.one_of(st.integers(-30, 30), st.fractions(-30, 30), _NEAR_CEILING))
    def test_every_operator_in_both_orders(self, r):
        # r <= 10 - 4*sqrt(5)  <=>  r <= 10 and (10 - r)^2 >= 80, and no
        # rational equals the irrational ceiling.
        below = r <= 10 and (10 - r) ** 2 >= 80
        assert (r < RP_BOUND) is (r <= RP_BOUND) is below
        assert (RP_BOUND > r) is (RP_BOUND >= r) is below
        assert (r > RP_BOUND) is (r >= RP_BOUND) is (not below)
        assert (RP_BOUND < r) is (RP_BOUND <= r) is (not below)
        assert (r == RP_BOUND) is (RP_BOUND == r) is False
        assert (r != RP_BOUND) is (RP_BOUND != r) is True

    def test_ratios_near_the_reverse_proportional_ceiling(self):
        # Between the ceiling and its former 12-digit rational stand-in.
        assert F(10_557_280_900_009, 10**13) > RP_BOUND
        assert F(1_055_728_090_001, 10**12) > RP_BOUND
        assert F(10557, 10000) <= RP_BOUND and 1 <= RP_BOUND
        assert 19 > RP_BOUND  # (10 - 19)^2 >= 80, but 19 > 10

    def test_benchmark_gate_comparison_is_exact(self):
        # The benchmark's correctness gate tests `out.ratio > bound`.
        rp = declared_bound(MechanismId.REVERSE_PROPORTIONAL, Variant.SUM, 3, 2)
        assert F(10_557_280_900_009, 10**13) > rp
        assert not F(10557, 10000) > rp

    def test_rational_ceilings_compare_plainly(self):
        bound = declared_bound(MechanismId.MEDIAN_RIGHT, Variant.SUM, 3, 2)
        assert not F(3, 2) > bound
        assert F(3, 2) + F(1, 10**30) > bound

    def test_text(self):
        assert str(RP_BOUND) == "10 - 4*sqrt(5)"
        assert str(Surd(F(1, 2), F(3), 2)) == "1/2 + 3*sqrt(2)"

    def test_floats_and_surds_do_not_compare(self):
        with pytest.raises(TypeError):
            RP_BOUND < 1.5
        with pytest.raises(TypeError):
            RP_BOUND < Surd(F(1), F(1), 2)


def _decimal(q):
    return Decimal(q.numerator) / Decimal(q.denominator)


_small = st.fractions(-50, 50, max_denominator=1000)


@given(
    _small,
    _small.filter(lambda b: b != 0),
    st.integers(2, 200).filter(lambda c: math.isqrt(c) ** 2 != c),
    st.one_of(_small, st.integers(-(10**9), 10**9)),
    st.booleans(),
)
def test_random_surds_match_a_decimal_oracle(a, b, c, r, near):
    surd = Surd(a, b, c)
    with localcontext() as ctx:
        ctx.prec = 60
        value = _decimal(a) + _decimal(b) * Decimal(c).sqrt()
        if near:  # a rational within about 10^-30 of the surd
            r = F(value.quantize(Decimal(1).scaleb(-30))) + F(r) / 10**40
        diff = value - _decimal(F(r))
        assume(abs(diff) > Decimal(10) ** -45)
    above = diff > 0  # surd > r
    assert (surd > r) is (r < surd) is (surd >= r) is (r <= surd) is above
    assert (surd < r) is (r > surd) is (surd <= r) is (r >= surd) is (not above)


def test_a_fresh_import_releases_the_previous_one():
    # typing caches every Union it builds, so one that held Surd would keep
    # each earlier import of flp alive; the benchmark re-imports flp per pass.
    script = (
        "import gc, importlib, sys\n"
        "for _ in range(4):\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'flp']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('flp')\n"
        "gc.collect()\n"
        "print(sum(getattr(o, '__qualname__', '') == 'declared_bound'"
        " for o in gc.get_objects()))\n"
    )
    env = dict(os.environ)
    src = str(Path(flp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
