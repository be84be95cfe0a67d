"""Facility location on a line where facilities may only be opened at agent
locations.

The package provides exact (rational-arithmetic) cost evaluation for the sum
and max cost variants, optimal solvers, a family of placement mechanisms with
declared approximation bounds, a strategyproofness refuter, seeded instance
generators, and a CLI (``flp``).
"""

from .bounds import RP_BOUND, declared_bound, is_strategyproof
from .errors import (
    FlpError,
    InfeasibleError,
    InputError,
    InvariantError,
    MechanismPreconditionError,
    ParseError,
    UnsupportedVariantError,
)
from .fileio import (
    dump_instance,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)
from .generators import Family, GenSpec, generate, perturb
from .mechanisms import MechanismId, apply
from .model import (
    Coord,
    Instance,
    Lottery,
    Solution,
    Variant,
    as_coord,
    coord_str,
    expected_agent_cost,
    expected_social_cost,
    order_stats,
    social_cost,
)
from .solver import (
    OptResult,
    brute_force_optimal,
    fast_optimal_sum,
)
from .verification import (
    REGRESSION_NAMES,
    RatioReport,
    RegressionResult,
    SpScan,
    SpViolation,
    approx_ratio,
    run_regressions,
    sp_scan,
    worst_ratio_search,
)

__version__ = "0.1.0"

__all__ = [
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
