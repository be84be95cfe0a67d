"""Argument checks at the library's entry points: a count, index or seed
that is a float or a bool, a count below its minimum, and a variant or
family that is not the enum all raise InputError naming the argument.
"""

import pytest

from flp import (
    Family,
    GenSpec,
    InputError,
    Instance,
    MechanismId,
    Variant,
    declared_bound,
    generate,
    is_strategyproof,
    perturb,
    sp_scan,
    worst_ratio_search,
)
from flp.mechanisms import fixed_outcomes, position_rule

MR = MechanismId.MEDIAN_RIGHT
BALL = MechanismId.MEDIAN_BALL
SUM, MAX = Variant.SUM, Variant.MAX
INST = Instance((0, 1, 3), 2, Variant.SUM)


def spec(**kw):
    args = dict(family=Family.UNIFORM_INT, n=3, k=2, variant=Variant.SUM, seed=1)
    return GenSpec(**{**args, **kw})


# (id, call with the argument, the argument's name, its minimum, a good value)
INT_ARGS = [
    ("Instance-k", lambda v: Instance((0, 1, 3), v, Variant.SUM), "k", None, 2),
    ("check_agent", INST.check_agent, "agent index", None, 0),
    ("perturb-agent", lambda v: perturb(INST, v, 1), "agent index", None, 0),
    ("GenSpec-n", lambda v: spec(n=v), "n", None, 3),
    ("GenSpec-k", lambda v: spec(k=v), "k", None, 2),
    ("GenSpec-seed", lambda v: spec(seed=v), "seed", None, 1),
    ("GenSpec-denominator", lambda v: spec(denominator=v), "denominator", 1, 10),
    ("generate-count", lambda v: generate(spec(), v), "count", 0, 2),
    (
        "worst_ratio_search-trials",
        lambda v: worst_ratio_search(MR, Variant.SUM, 3, 2, trials=v),
        "trials",
        1,
        2,
    ),
    (
        "worst_ratio_search-perturb_rounds",
        lambda v: worst_ratio_search(MR, Variant.SUM, 3, 2, 2, perturb_rounds=v),
        "perturb_rounds",
        0,
        1,
    ),
    ("sp_scan-grid_points", lambda v: sp_scan(MR, INST, v), "grid_points", 0, 3),
    ("declared_bound-n", lambda v: declared_bound(MR, SUM, v, 2), "n", None, 3),
    ("declared_bound-k", lambda v: declared_bound(MR, SUM, 3, v), "k", None, 2),
    ("position_rule-n", lambda v: position_rule(MR.value, v, 2, SUM), "n", None, 3),
    ("position_rule-k", lambda v: position_rule(MR.value, 3, v, SUM), "k", None, 2),
    ("position_rule-ball-n", lambda v: position_rule(BALL, v, 1, MAX), "n", None, 2),
    ("fixed_outcomes-n", lambda v: fixed_outcomes(BALL, v, 3, MAX), "n", None, 4),
    ("fixed_outcomes-k", lambda v: fixed_outcomes(BALL, 4, v, MAX), "k", None, 3),
]

# (id, call with the argument, the argument's name, a good value)
GRID = Family.UNIFORM_GRID
ENUM_ARGS = [
    ("Instance-variant", lambda v: Instance((0, 1, 3), 2, v), "variant", SUM),
    ("GenSpec-variant", lambda v: spec(variant=v), "variant", SUM),
    ("GenSpec-family", lambda v: spec(family=v), "family", GRID),
    ("declared_bound", lambda v: declared_bound(MR, v, 3, 2), "variant", SUM),
    ("is_strategyproof", lambda v: is_strategyproof(MR, v), "variant", SUM),
    (
        "is_strategyproof-baseline",
        lambda v: is_strategyproof(MechanismId.OPT_SUM_BASELINE, v),
        "variant",
        SUM,
    ),
]

BAD = [
    pytest.param(call, bad, f"{what} must be an int, got {bad!r}", id=f"{name}-{bad!r}")
    for name, call, what, _, good in INT_ARGS
    for bad in (float(good), True)
] + [
    pytest.param(call, bad, f"{what} must be >= {least}, got {bad}", id=f"{name}-{bad}")
    for name, call, what, least, _ in INT_ARGS
    if least is not None
    for bad in [least - 1]
] + [
    pytest.param(
        call,
        bad,
        f"{what} must be a {type(good).__name__}, got {bad!r}",
        id=f"{name}-{bad!r}",
    )
    for name, call, what, good in ENUM_ARGS
    for bad in (good.value, 1.5, True)  # good.value is the CLI spelling
]


@pytest.mark.parametrize("call,bad,message", BAD)
def test_bad_argument_raises_input_error(call, bad, message):
    with pytest.raises(InputError) as excinfo:
        call(bad)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "call,good",
    [pytest.param(row[1], row[-1], id=row[0]) for row in INT_ARGS + ENUM_ARGS],
)
def test_good_argument_passes(call, good):
    call(good)  # the table's calls fail on the bad value alone


def test_is_strategyproof_accepts_no_variant():
    assert is_strategyproof(MR, None) is True
    assert is_strategyproof(MechanismId.OPT_SUM_BASELINE, None) is False
