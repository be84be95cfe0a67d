"""Command-line interface.

Subcommands: solve, mech, verify-sp, ratio-sweep, search, regress.  Results
go to stdout (or --out) as JSON or CSV; diagnostics go to stderr.  Exit
codes are part of the contract:

  0  success
  1  input, parse, or internal error
  2  infeasible instance or configuration (e.g. k exceeds n)
  3  mechanism precondition not met
  4  a strategyproofness violation was found
  5  a sweep ratio exceeded the mechanism's declared bound
  6  a regression fixture failed
"""

from __future__ import annotations

import argparse
import enum
import sys
from typing import Any, Callable, TextIO

from .bounds import declared_bound, is_strategyproof
from .errors import (
    FlpError,
    InfeasibleError,
    InvariantError,
    MechanismPreconditionError,
    UnsupportedVariantError,
)
from .fileio import (
    RESULT_FORMAT,
    RESULT_VERSION,
    float_15,
    instance_digest,
    load_instance,
    lottery_to_list,
    write_record,
    write_sweep_csv,
)
from .generators import Family, GenSpec, generate
from .mechanisms import MechanismId, apply, position_rule
from .model import Coord, Instance, Variant, coord_str, require
from .solver import brute_force_optimal, fast_optimal_sum
from .verification import approx_ratio, run_regressions, sp_scan, worst_ratio_search


class ExitCode(enum.IntEnum):
    OK = 0
    ERROR = 1
    INFEASIBLE = 2
    PRECONDITION = 3
    SP_VIOLATION = 4
    BOUND_EXCEEDED = 5
    REGRESSION_FAILED = 6


_EXIT_CODES = (
    # The first row whose classes match an error gives its exit code;
    # any other error exits ExitCode.ERROR.
    ((InfeasibleError,), ExitCode.INFEASIBLE),
    ((MechanismPreconditionError, UnsupportedVariantError), ExitCode.PRECONDITION),
)


def _record(command: str, **fields: Any) -> dict[str, Any]:
    return dict(format=RESULT_FORMAT, version=RESULT_VERSION, command=command, **fields)


def _emit(write: Callable[[Any, TextIO], None], payload: Any, out: str | None) -> None:
    """Write ``payload`` with ``write`` to the path ``out``, or to stdout."""
    if out is None:
        write(payload, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fp:
            write(payload, fp)


def _duals(**values: Coord) -> dict[str, Any]:
    """Each value twice, in argument order: the exact string under its own
    key and the 15-digit decimal under ``<key>_float``."""
    fields: dict[str, Any] = {}
    for key, value in values.items():
        fields[key], fields[f"{key}_float"] = coord_str(value), float_15(value)
    return fields


def _instance_header(inst: Instance) -> dict[str, Any]:
    return {
        "instance_digest": instance_digest(inst),
        "variant": inst.variant.value,
        "n": inst.n,
        "k": inst.k,
        "locations": [coord_str(x) for x in inst.locations],
    }


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    opt = brute_force_optimal(inst)
    cross_check: dict[str, Any] = {}
    if inst.variant is Variant.SUM:
        fast = fast_optimal_sum(inst)
        if fast.cost != opt.cost:
            raise InvariantError(
                f"median-window solver cost {fast.cost} disagrees with "
                f"optimal cost {opt.cost}"
            )
        fast_coords = [coord_str(c) for c in fast.solution.coords(inst)]
        cross_check = dict(fast_solver_agrees=True, fast_solver_coordinates=fast_coords)
    record = _record(
        "solve",
        **_instance_header(inst),
        optimal_agents=list(opt.solution.sorted_hosts()),
        optimal_coordinates=[coord_str(c) for c in opt.solution.coords(inst)],
        **_duals(optimal_cost=opt.cost),
        **cross_check,
    )
    _emit(write_record, record, args.out)
    return ExitCode.OK


def cmd_mech(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    mech = MechanismId(args.mech)
    lottery = apply(mech, inst)
    report = approx_ratio(mech, inst)
    record = _record(
        "mech",
        mechanism=mech.value,
        strategyproof_by_design=is_strategyproof(mech, inst.variant),
        **_instance_header(inst),
        lottery=lottery_to_list(inst, lottery),
        **_duals(
            expected_social_cost=report.mech_cost,
            optimal_cost=report.opt_cost,
            ratio=report.ratio,
        ),
    )
    _emit(write_record, record, args.out)
    return ExitCode.OK


def _gen_spec(args: argparse.Namespace, mech: MechanismId) -> GenSpec:
    """The generation spec, once ``mech`` is known to run on its shape: a
    shape the mechanism refuses fails here, before any instance is made."""
    spec = GenSpec(
        family=Family(args.family),
        n=args.n,
        k=args.k,
        variant=Variant(args.variant),
        seed=args.seed,
    )
    position_rule(mech, spec.n, spec.k, spec.variant)
    return spec


def cmd_verify_sp(args: argparse.Namespace) -> int:
    mech = MechanismId(args.mech)
    spec = _gen_spec(args, mech)
    require(args.grid_points, int, "grid_points", 0)
    instances = generate(spec, args.trials)
    scans = []
    for inst in instances:  # stop at the first violation
        scans.append(sp_scan(mech, inst, args.grid_points))
        if scans[-1].violation is not None:
            break
    v = scans[-1].violation if scans else None
    violation = None if v is None else {
        "seed_index": len(scans) - 1,
        **_instance_header(instances[len(scans) - 1]),
        "agent": v.agent,
        "true_location": coord_str(v.true_location),
        "misreport": coord_str(v.misreport),
        **_duals(honest_cost=v.honest_cost, deviated_cost=v.deviated_cost),
    }
    record = _record(
        "verify-sp",
        mechanism=mech.value,
        family=spec.family.value,
        variant=spec.variant.value,
        n=args.n,
        k=args.k,
        seed=args.seed,
        grid_points=args.grid_points,
        trials_requested=args.trials,
        instances_checked=len(scans),
        deviations_evaluated=sum(scan.evaluated for scan in scans),
        deviations_skipped=sum(scan.skipped for scan in scans),
        violation=violation,
    )
    _emit(write_record, record, args.out)
    if violation is not None:
        print(
            f"strategyproofness violation: {mech.value} on seed index "
            f"{violation['seed_index']}, agent {violation['agent']} gains by "
            f"reporting {violation['misreport']}",
            file=sys.stderr,
        )
        return ExitCode.SP_VIOLATION
    return ExitCode.OK


def cmd_ratio_sweep(args: argparse.Namespace) -> int:
    mech = MechanismId(args.mech)
    spec = _gen_spec(args, mech)
    reports = [approx_ratio(mech, inst) for inst in generate(spec, args.trials)]
    _emit(write_sweep_csv, reports, args.out)
    bound = declared_bound(mech, spec.variant, args.n, args.k)
    worst = max(reports, key=lambda r: r.ratio, default=None)  # first maximal
    if bound is not None and worst is not None and worst.ratio > bound:
        print(
            f"bound exceeded: {mech.value} reached ratio {worst.ratio} "
            f"(> declared {bound}) on locations "
            f"{[coord_str(x) for x in worst.instance.locations]}",
            file=sys.stderr,
        )
        return ExitCode.BOUND_EXCEEDED
    return ExitCode.OK


def cmd_search(args: argparse.Namespace) -> int:
    mech = MechanismId(args.mech)
    report = worst_ratio_search(
        mech,
        Variant(args.variant),
        args.n,
        args.k,
        trials=args.trials,
        seed=args.seed,
        perturb_rounds=args.rounds,
    )
    record = _record(
        "search",
        mechanism=mech.value,
        **_instance_header(report.instance),
        trials=args.trials,
        seed=args.seed,
        rounds=args.rounds,
        **_duals(
            mech_cost=report.mech_cost,
            opt_cost=report.opt_cost,
            ratio=report.ratio,
        ),
    )
    _emit(write_record, record, args.out)
    return ExitCode.OK


def cmd_regress(args: argparse.Namespace) -> int:
    results = run_regressions(args.only)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.details}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} regression fixtures passed")
    return ExitCode.OK if passed == len(results) else ExitCode.REGRESSION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flp",
        description=(
            "Facility location on a line with facilities restricted to agent "
            "locations: exact solving, mechanisms, and manipulation checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mech_ids = [m.value for m in MechanismId]
    family_ids = [f.value for f in Family]

    def add_gen_flags(p: argparse.ArgumentParser, default_trials: int) -> None:
        p.add_argument("--variant", required=True, choices=["sum", "max"])
        p.add_argument("--n", type=int, required=True, help="number of agents")
        p.add_argument("--k", type=int, default=2, help="facilities to open")
        p.add_argument("--trials", type=int, default=default_trials)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="exact optimum of an instance file")
    p.add_argument("--instance", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("mech", help="run one mechanism on an instance file")
    p.add_argument("--mech", required=True, choices=mech_ids)
    p.add_argument("--instance", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_mech)

    p = sub.add_parser(
        "verify-sp", help="search seeded instances for profitable misreports"
    )
    p.add_argument("--mech", required=True, choices=mech_ids)
    add_gen_flags(p, default_trials=100)
    p.add_argument("--grid-points", type=int, default=200, dest="grid_points")
    p.add_argument("--family", choices=family_ids, default="uniform-int")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_verify_sp)

    p = sub.add_parser(
        "ratio-sweep", help="CSV of exact ratios over seeded instances"
    )
    p.add_argument("--mech", required=True, choices=mech_ids)
    add_gen_flags(p, default_trials=100)
    p.add_argument("--family", choices=family_ids, default="uniform-int")
    p.add_argument("--out", metavar="PATH", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_ratio_sweep)

    p = sub.add_parser(
        "search", help="hunt for high-ratio instances by sampling plus hill-climb"
    )
    p.add_argument("--mech", required=True, choices=mech_ids)
    add_gen_flags(p, default_trials=200)
    p.add_argument("--rounds", type=int, default=10, help="halving refinement rounds")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("regress", help="run the pinned regression fixtures")
    p.add_argument("--only", metavar="NAME", help="run a single fixture by name")
    p.set_defaults(func=cmd_regress)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # print every exact value in full
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep 2 reserved
        # for infeasibility and fold usage problems into the generic error code.
        return ExitCode.OK if exc.code == 0 else ExitCode.ERROR
    try:
        if getattr(args, "out", None) is not None:
            # Fail on an unwritable path before any work; appending never
            # truncates, and the result is written only once it is complete.
            open(args.out, "a", encoding="utf-8").close()
        return int(args.func(args))
    except (FlpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            (code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)),
            ExitCode.ERROR,
        )


if __name__ == "__main__":
    sys.exit(main())
