"""Command-line interface tests: JSON/CSV output contents, exit-code
contract, and deterministic reruns.

Exit codes under test: 0 success, 1 input/parse error, 2 infeasible,
3 mechanism precondition, 4 strategyproofness violation, 5 declared bound
exceeded, 6 regression failure.
"""

import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

import flp.cli as cli
import flp.verification as verification
from flp import Instance, Variant, dump_instance
from flp.cli import ExitCode, main
from flp.fileio import SWEEP_COLUMNS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_sweep(text):
    """A sweep CSV's data rows as dicts, and the exact ratio of its summary
    row (None without data rows), which must be the largest ratio."""
    header, *lines = csv.reader(io.StringIO(text))
    assert tuple(header) == SWEEP_COLUMNS
    rows = [dict(zip(SWEEP_COLUMNS, fields, strict=True)) for fields in lines]
    if not rows:
        return rows, None
    summary = rows.pop()
    assert summary["seed_index"] == "max"
    max_ratio = F(summary["ratio"])
    assert max_ratio == max(F(row["ratio"]) for row in rows)
    return rows, max_ratio


def write_instance(tmp_path, locs, k, variant, name="inst.json"):
    path = str(tmp_path / name)
    dump_instance(Instance(tuple(locs), k, variant), path)
    return path


@pytest.fixture
def max_counterexample(tmp_path):
    return write_instance(tmp_path, (F(-1, 2), 0, 1, 2), 2, Variant.MAX)


@pytest.fixture
def sum_triple(tmp_path):
    return write_instance(tmp_path, (0, 1, 3), 2, Variant.SUM)


_D = 10**3000


@pytest.fixture(
    params=[
        # Costs of 5 * 10^400 are exact but have no double approximation.
        (("0", "1e400", "2e400"), (0, 10**400, 2 * 10**400), 5 * 10**400, None),
        # A value past Python's default 4,300-digit int/str conversion limit.
        (("0", "1e5000", "3"), (0, 10**5000, 3), 2 * 10**5000 + 3, None),
        # The same value written out: a literal past the limit.
        (("0", "1" + "0" * 5000, "3"), (0, 10**5000, 3), 2 * 10**5000 + 3, None),
        # Every literal is short enough to parse, but the costs'
        # denominators have 6,001 digits; their doubles underflow to 0.
        (
            (f"1/{_D + 1}", "0", f"1/{_D + 3}"),
            (F(1, _D + 1), 0, F(1, _D + 3)),
            F(3, _D + 1) - F(1, _D + 3),
            0.0,
        ),
    ],
    ids=["1e400", "1e5000", "5001-digit-literal", "3000-digit-denominators"],
)
def huge_triple(tmp_path, request):
    """(instance path, location values, optimal sum cost, the double of
    every cost on the instance)."""
    literals, values, opt_cost, cost_float = request.param
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {
                "format": "flp-instance",
                "version": 1,
                "variant": "sum",
                "k": 2,
                "locations": list(literals),
            }
        )
    )
    return str(path), values, opt_cost, cost_float


class TestSolve:
    def test_max_counterexample_values(self, max_counterexample, capsys):
        code, out, _ = run_cli(["solve", "--instance", max_counterexample], capsys)
        assert code == ExitCode.OK
        record = json.loads(out)
        assert record["command"] == "solve"
        assert record["optimal_cost"] == "5"
        assert record["optimal_cost_float"] == 5.0
        assert record["optimal_coordinates"] == ["-1/2", "0"]
        assert "fast_solver_agrees" not in record  # max variant: no fast path

    def test_sum_cross_checks_fast_solver(self, sum_triple, capsys):
        code, out, _ = run_cli(["solve", "--instance", sum_triple], capsys)
        assert code == ExitCode.OK
        record = json.loads(out)
        assert record["optimal_cost"] == "7"
        assert record["fast_solver_agrees"] is True
        assert record["fast_solver_coordinates"] == ["0", "1"]

    def test_out_file(self, sum_triple, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            ["solve", "--instance", sum_triple, "--out", str(out_path)], capsys
        )
        assert code == ExitCode.OK and out == ""
        assert json.loads(out_path.read_text())["optimal_cost"] == "7"

    def test_infeasible_instance_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "flp-instance",
                    "version": 1,
                    "variant": "sum",
                    "k": 5,
                    "locations": ["0", "1", "2"],
                }
            )
        )
        code, _, err = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == ExitCode.INFEASIBLE
        assert "k exceeds n" in err

    def test_broken_json_exits_1_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "flp-instance"\n "version": 1}')
        code, _, err = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == ExitCode.ERROR
        assert "line 2" in err

    def test_float_location_exits_1_with_hint(self, tmp_path, capsys):
        path = tmp_path / "floaty.json"
        path.write_text(
            json.dumps(
                {
                    "format": "flp-instance",
                    "version": 1,
                    "variant": "sum",
                    "k": 2,
                    "locations": [0, 0.1, 1],
                }
            )
        )
        code, _, err = run_cli(["solve", "--instance", str(path)], capsys)
        assert code == ExitCode.ERROR
        assert "locations[1]" in err and "exact" in err

    def test_cost_beyond_double_range_has_null_float(self, huge_triple, capsys):
        path, _, opt_cost, cost_float = huge_triple
        code, out, err = run_cli(["solve", "--instance", path], capsys)
        assert code == ExitCode.OK and err == ""
        record = json.loads(out)
        assert record["optimal_cost"] == str(opt_cost)
        assert record["optimal_cost_float"] == cost_float

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["solve", "--instance", str(tmp_path / "nope.json")], capsys
        )
        assert code == ExitCode.ERROR
        assert "cannot read" in err

    def test_fast_solver_disagreement_exits_1(self, sum_triple, capsys, monkeypatch):
        wrong = cli.fast_optimal_sum

        def off_by_one(inst):
            fast = wrong(inst)
            return type(fast)(fast.solution, fast.cost + 1)

        monkeypatch.setattr(cli, "fast_optimal_sum", off_by_one)
        code, out, err = run_cli(["solve", "--instance", sum_triple], capsys)
        assert code == ExitCode.ERROR and out == ""
        assert err == (
            "error: median-window solver cost 8 disagrees with optimal cost 7\n"
        )


class TestMech:
    def test_reverse_proportional_record(self, sum_triple, capsys):
        code, out, _ = run_cli(
            ["mech", "--mech", "reverse-proportional", "--instance", sum_triple],
            capsys,
        )
        assert code == ExitCode.OK
        record = json.loads(out)
        assert record["expected_social_cost"] == "22/3"
        assert record["optimal_cost"] == "7"
        assert record["ratio"] == "22/21"
        assert record["strategyproof_by_design"] is True
        probs = {
            tuple(e["coordinates"]): e["probability"] for e in record["lottery"]
        }
        assert probs == {("0", "1"): "2/3", ("1", "3"): "1/3"}

    def test_unclaimed_variant_is_not_strategyproof_by_design(self, tmp_path, capsys):
        triple = write_instance(tmp_path, (0, 1, 3), 2, Variant.MAX)
        code, out, _ = run_cli(
            ["mech", "--mech", "reverse-proportional", "--instance", triple], capsys
        )
        assert code == ExitCode.OK
        assert json.loads(out)["strategyproof_by_design"] is False

    def test_median_right_matches_optimum(self, tmp_path, capsys):
        triple = write_instance(tmp_path, (0, 1, 2), 2, Variant.SUM)
        code, out, _ = run_cli(
            ["mech", "--mech", "median-right", "--instance", triple], capsys
        )
        assert code == ExitCode.OK
        record = json.loads(out)
        assert record["expected_social_cost"] == "5"
        assert record["ratio"] == "1"
        assert record["ratio_float"] == 1.0

    def test_precondition_failure_exits_3(self, tmp_path, capsys):
        even = write_instance(tmp_path, (0, 1, 2, 3), 2, Variant.SUM)
        code, _, err = run_cli(
            ["mech", "--mech", "uniform", "--instance", even], capsys
        )
        assert code == ExitCode.PRECONDITION
        assert "odd" in err

    def test_baseline_on_max_instance_exits_3(self, max_counterexample, capsys):
        code, _, err = run_cli(
            ["mech", "--mech", "opt-sum-baseline", "--instance", max_counterexample],
            capsys,
        )
        assert code == ExitCode.PRECONDITION
        assert err == "error: opt-sum-baseline only handles the sum variant, got max\n"

    def test_cost_beyond_double_range_has_null_float(self, huge_triple, capsys):
        path, values, opt_cost, cost_float = huge_triple
        code, out, err = run_cli(
            ["mech", "--mech", "median-right", "--instance", path], capsys
        )
        assert code == ExitCode.OK and err == ""
        record = json.loads(out)
        assert record["locations"] == [str(x) for x in values]
        # median-right opens the two rightmost of three agents.
        low, mid, high = sorted(values)
        mech_cost = (high - low) + (mid - low) + 2 * (high - mid)
        assert record["expected_social_cost"] == str(mech_cost)
        assert record["expected_social_cost_float"] == cost_float
        assert record["optimal_cost"] == str(opt_cost)
        assert record["optimal_cost_float"] == cost_float
        ratio = F(mech_cost) / opt_cost  # 1, or just under 3/2 at 1e5000
        assert (record["ratio"], record["ratio_float"]) == (str(ratio), float(ratio))

    def test_duals_pair_exact_string_and_decimal(self):
        fields = cli._duals(b=F(2, 3), a=5, c=F(10**400, 3))
        assert list(fields) == ["b", "b_float", "a", "a_float", "c", "c_float"]
        assert fields == {
            "b": "2/3",
            "b_float": 0.666666666666667,
            "a": "5",
            "a_float": 5.0,
            "c": f"{10**400}/3",
            "c_float": None,
        }

    def test_unknown_mechanism_exits_1(self, sum_triple, capsys):
        code, _, _ = run_cli(
            ["mech", "--mech", "bogus", "--instance", sum_triple], capsys
        )
        assert code == ExitCode.ERROR


class TestVerifySp:
    def test_baseline_violation_exits_4(self, capsys):
        code, out, err = run_cli(
            [
                "verify-sp",
                "--mech",
                "opt-sum-baseline",
                "--variant",
                "sum",
                "--n",
                "3",
                "--trials",
                "40",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == ExitCode.SP_VIOLATION
        record = json.loads(out)
        v = record["violation"]
        assert v is not None
        assert F(v["deviated_cost"]) < F(v["honest_cost"])
        assert "strategyproofness violation" in err

    def test_reverse_proportional_max_violation_exits_4(self, capsys):
        # No strategyproofness claim covers reverse-proportional under max.
        code, out, _ = run_cli(
            [
                "verify-sp",
                "--mech",
                "reverse-proportional",
                "--variant",
                "max",
                "--n",
                "5",
                "--trials",
                "20",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == ExitCode.SP_VIOLATION
        v = json.loads(out)["violation"]
        assert (v["seed_index"], v["locations"]) == (0, ["1", "3", "9", "6", "10"])
        assert (v["agent"], v["true_location"], v["misreport"]) == (0, "1", "622/199")
        assert (v["honest_cost"], v["deviated_cost"]) == ("13/2", "7561/1169")

    def test_median_right_clean_exits_0(self, capsys):
        code, out, _ = run_cli(
            [
                "verify-sp",
                "--mech",
                "median-right",
                "--variant",
                "sum",
                "--n",
                "3",
                "--trials",
                "20",
                "--grid-points",
                "60",
            ],
            capsys,
        )
        assert code == ExitCode.OK
        record = json.loads(out)
        assert record["violation"] is None
        assert record["instances_checked"] == 20
        assert record["deviations_evaluated"] > 0

    def test_zero_trials_is_vacuous_success(self, capsys):
        code, out, _ = run_cli(
            [
                "verify-sp",
                "--mech",
                "median-right",
                "--variant",
                "sum",
                "--n",
                "3",
                "--trials",
                "0",
            ],
            capsys,
        )
        assert code == ExitCode.OK
        assert json.loads(out)["instances_checked"] == 0

    def test_infeasible_shape_exits_2(self, capsys):
        code, _, err = run_cli(
            [
                "verify-sp",
                "--mech",
                "median-ball",
                "--variant",
                "sum",
                "--n",
                "3",
                "--k",
                "5",
                "--trials",
                "5",
            ],
            capsys,
        )
        assert code == ExitCode.INFEASIBLE

    def test_two_medians_on_odd_n_exits_3(self, capsys):
        code, _, _ = run_cli(
            [
                "verify-sp",
                "--mech",
                "two-medians",
                "--variant",
                "sum",
                "--n",
                "3",
                "--trials",
                "5",
            ],
            capsys,
        )
        assert code == ExitCode.PRECONDITION


class TestRatioSweep:
    def run_sweep(self, tmp_path, capsys, name="sweep.csv", seed="0", mech="median-right"):
        out_path = tmp_path / name
        code, _, err = run_cli(
            [
                "ratio-sweep",
                "--mech",
                mech,
                "--variant",
                "sum",
                "--n",
                "3",
                "--trials",
                "25",
                "--seed",
                seed,
                "--out",
                str(out_path),
            ],
            capsys,
        )
        return code, out_path, err

    def test_ratios_within_declared_bound(self, tmp_path, capsys):
        code, out_path, _ = self.run_sweep(tmp_path, capsys)
        assert code == ExitCode.OK
        rows, max_ratio = read_sweep(out_path.read_text())
        assert len(rows) == 25
        assert max_ratio is not None and max_ratio <= F(3, 2)  # n/(n-1) for n=3
        for row in rows:
            assert F(row["ratio"]) >= 1

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        _, first, _ = self.run_sweep(tmp_path, capsys, name="a.csv")
        _, second, _ = self.run_sweep(tmp_path, capsys, name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        _, first, _ = self.run_sweep(tmp_path, capsys, name="a.csv", seed="0")
        _, second, _ = self.run_sweep(tmp_path, capsys, name="b.csv", seed="9")
        assert first.read_bytes() != second.read_bytes()

    def test_stdout_when_no_out_flag(self, capsys):
        code, out, _ = run_cli(
            [
                "ratio-sweep",
                "--mech",
                "two-medians",
                "--variant",
                "sum",
                "--n",
                "4",
                "--trials",
                "10",
            ],
            capsys,
        )
        assert code == ExitCode.OK
        rows, max_ratio = read_sweep(out)
        assert len(rows) == 10
        assert max_ratio == 1  # two-medians is sum-optimal on even n

    def test_bound_violation_exits_5(self, tmp_path, capsys, monkeypatch):
        # Pretend median-right declares a bound of 1; any tie-heavy draw
        # then exceeds it and the sweep must fail loudly.  Seed indices 1
        # and 16 both reach 3/2; the message names the first of them.
        monkeypatch.setattr(cli, "declared_bound", lambda *a: F(1))
        code, _, err = self.run_sweep(tmp_path, capsys)
        assert code == ExitCode.BOUND_EXCEEDED
        assert err == (
            "bound exceeded: median-right reached ratio 3/2 (> declared 1) on "
            "locations ['5', '9', '5']\n"
        )

    # sha256 of the whole CSV, seed 3: pins every byte of the rows and of
    # the summary row.  median-left on even n declares no ceiling.
    @pytest.mark.parametrize(
        "mech,variant,n,k,trials,family,digest",
        [
            ("median-right", "sum", "3", "2", "20", "uniform-int",
             "1cd6835bb47265745713b7cb40aa6431837dcb37f25d3547a5c686779603a8ae"),
            ("two-medians", "max", "4", "2", "10", "uniform-grid",
             "8a2a88c546211f2d19141c7389a57ea9593cd5d4427812f4643273d2970c286d"),
            ("median-ball", "sum", "5", "3", "10", "clustered",
             "407b0db792f5d76afc8367d48dc0f05e7d2b067eb5c0af10c73d2956408117e4"),
            ("median-ball", "max", "6", "3", "10", "coincident",
             "fabb8f58e55aa4bbfc4370fff4f149b05078819a86e36bf4bf00a05fcb86747e"),
            ("median-left", "sum", "4", "2", "10", "uniform-int",
             "05667f058555d32491782fb22dd27e64e56396b123141dab7d06e50b79beb313"),
            ("uniform", "max", "5", "2", "0", "uniform-int",
             "ede7f5291ea08bc0950b13fcf4d331c28400589e12aa0b15abfebe350ad5092e"),
        ],
    )
    def test_sweep_bytes_are_pinned(
        self, mech, variant, n, k, trials, family, digest, tmp_path, capsys
    ):
        args = [
            "ratio-sweep", "--mech", mech, "--variant", variant, "--n", n,
            "--k", k, "--trials", trials, "--family", family, "--seed", "3",
        ]
        code, out, err = run_cli(args, capsys)
        assert code == ExitCode.OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        out_path = tmp_path / "sweep.csv"
        code, printed, _ = run_cli([*args, "--out", str(out_path)], capsys)
        assert code == ExitCode.OK and printed == ""
        assert out_path.read_bytes() == out.encode()

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "x.csv"
        args = ["--mech", "median-right", "--variant", "sum", "--n", "3"]
        code, out, err = run_cli(["ratio-sweep", *args, "--out", str(missing)], capsys)
        assert code == ExitCode.ERROR and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not missing.parent.exists()

    def test_max_variant_bound_checked(self, tmp_path, capsys):
        out_path = tmp_path / "max.csv"
        code, _, _ = run_cli(
            [
                "ratio-sweep",
                "--mech",
                "uniform",
                "--variant",
                "max",
                "--n",
                "5",
                "--trials",
                "20",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == ExitCode.OK
        _, max_ratio = read_sweep(out_path.read_text())
        assert max_ratio is not None and max_ratio <= F(14, 8)  # (3n-1)/(2n-2)

    def test_large_max_shape_is_solved(self, capsys):
        # C(25, 7) = 480,700 host sets; the optimum never enumerates them.
        code, out, _ = run_cli(
            [
                "ratio-sweep",
                "--mech",
                "median-ball",
                "--variant",
                "max",
                "--n",
                "25",
                "--k",
                "7",
                "--trials",
                "1",
            ],
            capsys,
        )
        assert code == ExitCode.OK
        rows, max_ratio = read_sweep(out)
        assert len(rows) == 1
        assert 1 <= max_ratio <= 8  # median-ball's max ceiling k + 1

    def test_large_sum_shape_is_solved(self, capsys):
        # C(30, 6) = 593,775 host sets, far past the old C(20, 6) limit.
        code, out, _ = run_cli(
            [
                "ratio-sweep",
                "--mech",
                "median-ball",
                "--variant",
                "sum",
                "--n",
                "30",
                "--k",
                "6",
                "--trials",
                "1",
            ],
            capsys,
        )
        assert code == ExitCode.OK
        rows, max_ratio = read_sweep(out)
        assert len(rows) == 1
        assert rows[0]["mech_cost"] == rows[0]["opt_cost"]
        assert max_ratio == 1


class TestSearch:
    def test_search_record(self, capsys):
        code, out, _ = run_cli(
            [
                "search",
                "--mech",
                "median-right",
                "--variant",
                "sum",
                "--n",
                "3",
                "--trials",
                "30",
                "--rounds",
                "6",
            ],
            capsys,
        )
        assert code == ExitCode.OK
        record = json.loads(out)
        assert F(record["ratio"]) >= 1
        assert len(record["locations"]) == 3


class TestShapeRefusedBeforeGenerating:
    @pytest.fixture(autouse=True)
    def no_generation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("instances generated for a refused shape")

        monkeypatch.setattr(cli, "generate", refuse)
        monkeypatch.setattr(verification, "generate", refuse)

    # With 0 trials every command exits 3 too: the mechanism cannot run on
    # this shape at all.
    @pytest.mark.parametrize(
        "command,trials",
        [
            ("verify-sp", "0"),
            ("verify-sp", "100000"),
            ("ratio-sweep", "0"),
            ("ratio-sweep", "100000"),
            ("search", "0"),
            ("search", "100000"),
        ],
    )
    def test_precondition_exits_3(self, command, trials, capsys):
        args = ["--mech", "two-medians", "--variant", "sum", "--n", "3"]
        code, out, err = run_cli([command, *args, "--trials", trials], capsys)
        assert code == ExitCode.PRECONDITION and out == ""
        assert err == "error: two-medians requires an even number of agents, got n=3\n"

    # A negative grid is refused before generating, even with 0 trials, but
    # only once the shape is known to be feasible and accepted.
    @pytest.mark.parametrize(
        "mech,n,k,want",
        [
            ("median-right", "3", "2", ExitCode.ERROR),
            ("two-medians", "3", "2", ExitCode.PRECONDITION),
            ("median-right", "3", "5", ExitCode.INFEASIBLE),
        ],
    )
    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_negative_grid_points(self, mech, n, k, want, trials, capsys):
        args = ["--mech", mech, "--variant", "sum", "--n", n, "--k", k]
        code, out, err = run_cli(
            ["verify-sp", *args, "--grid-points", "-1", "--trials", trials], capsys
        )
        assert code == want and out == ""
        if want == ExitCode.ERROR:
            assert err == "error: grid_points must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["verify-sp", "ratio-sweep", "search"])
    @pytest.mark.parametrize("n,k", [("1", "2"), ("3", "5")])
    def test_infeasible_shape_still_exits_2(self, command, n, k, capsys):
        args = ["--mech", "two-medians", "--variant", "sum", "--n", n, "--k", k]
        code, _, err = run_cli([command, *args], capsys)
        assert code == ExitCode.INFEASIBLE and err.startswith("error: ")

    @pytest.mark.parametrize(
        "flags,want",
        [
            (["--n", "3", "--k", "5"], ExitCode.INFEASIBLE),
            (["--n", "4"], ExitCode.ERROR),
        ],
    )
    @pytest.mark.parametrize("counts", [["--trials", "0"], ["--rounds", "-1"]])
    def test_search_checks_shape_before_counts(self, flags, want, counts, capsys):
        args = ["search", "--mech", "two-medians", "--variant", "sum", *flags]
        code, out, _ = run_cli([*args, *counts], capsys)
        assert code == want and out == ""


class TestOutCheckedFirst:
    """An unwritable --out fails before any instance is read or generated."""

    GEN = ["--mech", "median-right", "--variant", "sum", "--n", "3"]

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(cli, "generate", refuse)
        monkeypatch.setattr(verification, "generate", refuse)
        monkeypatch.setattr(cli, "load_instance", refuse)

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--instance", "inst.json"],
            ["mech", "--mech", "median-right", "--instance", "inst.json"],
            ["verify-sp", *GEN],
            ["ratio-sweep", *GEN],
            ["search", *GEN],
        ],
        ids=lambda command: command[0],
    )
    def test_missing_directory_exits_1(self, command, tmp_path, capsys):
        missing = tmp_path / "missing" / "out"
        code, out, err = run_cli([*command, "--out", str(missing)], capsys)
        assert code == ExitCode.ERROR and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not missing.parent.exists()


class TestOutFile:
    def test_failed_run_keeps_an_existing_file(self, tmp_path, capsys):
        out_path = tmp_path / "kept.json"
        out_path.write_text("earlier result\n")
        args = ["solve", "--instance", str(tmp_path / "nope.json")]
        code, _, _ = run_cli([*args, "--out", str(out_path)], capsys)
        assert code == ExitCode.ERROR
        assert out_path.read_text() == "earlier result\n"

    def test_failed_run_leaves_an_empty_new_file(self, tmp_path, capsys):
        out_path = tmp_path / "new.json"
        args = ["solve", "--instance", str(tmp_path / "nope.json")]
        code, _, _ = run_cli([*args, "--out", str(out_path)], capsys)
        assert code == ExitCode.ERROR
        assert out_path.read_text() == ""

    def test_out_may_be_the_instance(self, sum_triple, capsys):
        args = ["solve", "--instance", sum_triple, "--out", sum_triple]
        code, out, _ = run_cli(args, capsys)
        assert code == ExitCode.OK and out == ""
        with open(sum_triple, encoding="utf-8") as fp:
            assert json.load(fp)["optimal_cost"] == "7"


class TestReadmeExamples:
    """The values README.md's CLI section shows; demo.json is (0, 1, 3)
    under sum with k=2.  Its reverse-proportional max call is pinned in
    TestVerifySp."""

    def test_solve(self, sum_triple, capsys):
        code, out, _ = run_cli(["solve", "--instance", sum_triple], capsys)
        assert code == ExitCode.OK
        assert json.loads(out) == {
            "format": "flp-result",
            "version": 1,
            "command": "solve",
            "instance_digest": "1521cf30a8b6",
            "variant": "sum",
            "n": 3,
            "k": 2,
            "locations": ["0", "1", "3"],
            "optimal_agents": [0, 1],
            "optimal_coordinates": ["0", "1"],
            "optimal_cost": "7",
            "optimal_cost_float": 7.0,
            "fast_solver_agrees": True,
            "fast_solver_coordinates": ["0", "1"],
        }

    def test_mech(self, sum_triple, capsys):
        args = ["mech", "--mech", "reverse-proportional", "--instance", sum_triple]
        code, out, _ = run_cli(args, capsys)
        assert code == ExitCode.OK
        record = json.loads(out)
        assert [(e["coordinates"], e["probability"]) for e in record["lottery"]] == [
            (["0", "1"], "2/3"),
            (["1", "3"], "1/3"),
        ]
        assert (record["expected_social_cost"], record["optimal_cost"]) == ("22/3", "7")
        assert record["ratio"] == "22/21"

    def test_verify_sp_baseline(self, capsys):
        args = ["--mech", "opt-sum-baseline", "--variant", "sum", "--n", "3"]
        args += ["--trials", "40", "--seed", "1"]
        code, out, _ = run_cli(["verify-sp", *args], capsys)
        assert code == ExitCode.SP_VIOLATION
        v = json.loads(out)["violation"]
        assert (v["seed_index"], v["locations"]) == (0, ["1", "3", "9"])
        assert (v["agent"], v["true_location"], v["misreport"]) == (2, "9", "407/199")
        assert (v["honest_cost"], v["deviated_cost"]) == ("14", "2578/199")

    def test_regress(self, capsys):
        code, out, _ = run_cli(["regress"], capsys)
        assert code == ExitCode.OK
        lines = out.splitlines()
        # The lines the README prints in full.
        for line in [
            "PASS sum-det-3/2: median-right k=2 sum ratio on (0, 0, 1): 3/2 (want 3/2)",
            "PASS max-det-3: median-right k=2 max ratio on (0, 0, 1): 3 (want 3)",
            "PASS max-rand-2: uniform k=2 max ratio on (0, 0, 1): 2 (want 2)",
            "PASS max-k-lower: median-ball k=3 max ratio on (0, 1, 1, 1): 4 (want 4)",
            "7/7 regression fixtures passed",
        ]:
            assert line in lines


class TestRegress:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run_cli(["regress"], capsys)
        assert code == ExitCode.OK
        assert "7/7 regression fixtures passed" in out
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_only_one_fixture(self, capsys):
        code, out, _ = run_cli(["regress", "--only", "max-det-3"], capsys)
        assert code == ExitCode.OK
        assert "1/1 regression fixtures passed" in out

    def test_unknown_fixture_exits_1(self, capsys):
        code, _, err = run_cli(["regress", "--only", "nope"], capsys)
        assert code == ExitCode.ERROR
        assert "unknown regression" in err

    def test_failing_fixture_exits_6(self, capsys, monkeypatch):
        from flp.verification import RegressionResult

        monkeypatch.setattr(
            cli,
            "run_regressions",
            lambda only=None: [RegressionResult("synthetic", False, "boom")],
        )
        code, out, _ = run_cli(["regress"], capsys)
        assert code == ExitCode.REGRESSION_FAILED
        assert "FAIL synthetic" in out


class TestRecordKeyOrder:
    """JSON records are compared byte for byte, so their key order is
    part of the format."""

    HEAD = ["format", "version", "command"]
    INSTANCE = ["instance_digest", "variant", "n", "k", "locations"]

    def record(self, args, capsys):
        code, out, _ = run_cli(args, capsys)
        assert code in (ExitCode.OK, ExitCode.SP_VIOLATION)
        return json.loads(out)

    SOLVED = HEAD + INSTANCE + [
        "optimal_agents", "optimal_coordinates", "optimal_cost", "optimal_cost_float"
    ]

    def test_solve_max(self, max_counterexample, capsys):
        record = self.record(["solve", "--instance", max_counterexample], capsys)
        assert list(record) == self.SOLVED

    def test_solve_sum(self, sum_triple, capsys):
        record = self.record(["solve", "--instance", sum_triple], capsys)
        assert list(record) == self.SOLVED + [
            "fast_solver_agrees", "fast_solver_coordinates"
        ]

    def test_mech(self, sum_triple, capsys):
        record = self.record(
            ["mech", "--mech", "median-right", "--instance", sum_triple], capsys
        )
        assert list(record) == self.HEAD + [
            "mechanism", "strategyproof_by_design", *self.INSTANCE, "lottery",
            "expected_social_cost", "expected_social_cost_float", "optimal_cost",
            "optimal_cost_float", "ratio", "ratio_float",
        ]

    def test_verify_sp(self, capsys):
        args = ["verify-sp", "--variant", "sum", "--n", "3", "--trials", "5"]
        record = self.record([*args, "--mech", "opt-sum-baseline"], capsys)
        assert list(record) == self.HEAD + [
            "mechanism", "family", "variant", "n", "k", "seed", "grid_points",
            "trials_requested", "instances_checked", "deviations_evaluated",
            "deviations_skipped", "violation",
        ]
        assert list(record["violation"]) == ["seed_index", *self.INSTANCE] + [
            "agent", "true_location", "misreport", "honest_cost",
            "honest_cost_float", "deviated_cost", "deviated_cost_float",
        ]

    def test_search(self, capsys):
        args = ["--variant", "sum", "--n", "3", "--trials", "3", "--rounds", "1"]
        record = self.record(["search", "--mech", "median-right", *args], capsys)
        assert list(record) == self.HEAD + ["mechanism", *self.INSTANCE] + [
            "trials", "seed", "rounds", "mech_cost", "mech_cost_float",
            "opt_cost", "opt_cost_float", "ratio", "ratio_float",
        ]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == ExitCode.ERROR

    def test_missing_required_flag(self, capsys):
        assert main(["verify-sp", "--variant", "sum", "--n", "3"]) == ExitCode.ERROR

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == ExitCode.OK

    @pytest.mark.parametrize(
        "command", ["solve", "mech", "verify-sp", "ratio-sweep", "search", "regress"]
    )
    def test_subcommand_help_exits_0(self, command, capsys):
        assert main([command, "--help"]) == ExitCode.OK
        assert capsys.readouterr().out.startswith(f"usage: flp {command}")


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flp", "regress", "--only", "max-det-3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS max-det-3" in proc.stdout


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
