"""Serialization tests: exact JSON instance round-trips, strict validation
with field-accurate errors, 15-digit decimal display fields, the sweep CSV
format, and Python's int/str digit limit outside the CLI.
"""

import csv
import io
import json
import sys
from fractions import Fraction as F

import pytest

from flp import (
    InfeasibleError,
    InputError,
    Instance,
    Lottery,
    MechanismId,
    ParseError,
    Solution,
    Variant,
    approx_ratio,
    as_coord,
    coord_str,
    dump_instance,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)
from flp.fileio import (
    SWEEP_COLUMNS,
    float_15,
    lottery_to_list,
    write_record,
    write_sweep_csv,
)


def sample_instance():
    return Instance((F(-1, 2), 0, 1, 2), 2, Variant.MAX)


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        inst = sample_instance()
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "inst.json")
        inst = Instance((0, F(2361, 10000), 1), 2, Variant.SUM)
        dump_instance(inst, path)
        assert load_instance(path) == inst

    def test_serialized_form_is_stringly_exact(self):
        data = instance_to_dict(sample_instance())
        assert data["locations"] == ["-1/2", "0", "1", "2"]
        assert data["format"] == "flp-instance" and data["version"] == 1

    def test_digest_is_stable_and_sensitive(self):
        a = instance_digest(sample_instance())
        assert a == instance_digest(sample_instance())
        assert len(a) == 12 and all(c in "0123456789abcdef" for c in a)
        other = Instance((F(-1, 2), 0, 1, 3), 2, Variant.MAX)
        assert instance_digest(other) != a


class TestStrictParsing:
    def base(self):
        return {
            "format": "flp-instance",
            "version": 1,
            "variant": "sum",
            "k": 2,
            "locations": ["0", "1", "2"],
        }

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            instance_from_dict([1, 2, 3])

    def test_format_checked(self):
        bad = self.base() | {"format": "something-else"}
        with pytest.raises(ParseError, match="'format'"):
            instance_from_dict(bad)

    def test_version_checked(self):
        bad = self.base() | {"version": 2}
        with pytest.raises(ParseError, match="version"):
            instance_from_dict(bad)

    def test_variant_checked(self):
        bad = self.base() | {"variant": "median"}
        with pytest.raises(ParseError, match="'variant'"):
            instance_from_dict(bad)

    def test_k_must_be_integer(self):
        for bad_k in ("2", 2.0, True, None):
            bad = self.base() | {"k": bad_k}
            with pytest.raises(ParseError, match="'k'"):
                instance_from_dict(bad)

    def test_float_location_names_index(self):
        bad = self.base() | {"locations": ["0", 0.5, "2"]}
        with pytest.raises(ParseError, match=r"locations\[1\].*float"):
            instance_from_dict(bad)

    def test_malformed_location_string_names_index(self):
        bad = self.base() | {"locations": ["0", "1", "2/0"]}
        with pytest.raises(ParseError, match=r"locations\[2\]"):
            instance_from_dict(bad)

    def test_integer_locations_accepted(self):
        data = self.base() | {"locations": [0, 1, 2]}
        assert instance_from_dict(data).locations == (0, 1, 2)

    def test_k_exceeding_n_is_infeasible_not_parse_error(self):
        bad = self.base() | {"k": 7}
        with pytest.raises(InfeasibleError):
            instance_from_dict(bad)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "flp-instance",\n  "version": ]')
        with pytest.raises(ParseError, match="line 2 column"):
            load_instance(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_instance(str(tmp_path / "absent.json"))


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)
class TestDigitLimit:
    """Outside the CLI, Python's default 4,300-digit int/str limit holds."""

    HUGE = Instance((0, 10**5000, 3), 2, Variant.SUM)

    @pytest.fixture(autouse=True)
    def default_limit(self):
        sys.set_int_max_str_digits(4300)

    def test_coord_str_names_the_limit(self):
        with pytest.raises(InputError, match=r"sys\.set_int_max_str_digits"):
            coord_str(10**5000)
        with pytest.raises(InputError, match="4300-digit"):
            coord_str(F(1, 10**5000))

    def test_digest_raises_input_error(self):
        with pytest.raises(InputError, match="int/str conversion limit"):
            instance_digest(self.HUGE)

    def test_dump_leaves_no_file(self, tmp_path):
        path = tmp_path / "huge.json"
        with pytest.raises(InputError, match="int/str conversion limit"):
            dump_instance(self.HUGE, str(path))
        assert not path.exists()

    def test_long_literal_names_the_limit_not_the_digits(self, tmp_path):
        literal = "1" + "0" * 4301
        with pytest.raises(ParseError) as info:
            as_coord(literal)
        message = str(info.value)
        shown = f"{literal[:40]!r}... (4,302 characters)"
        assert message.startswith(f"cannot parse {shown}: ")
        assert "4300" in message and "sys.set_int_max_str_digits" in message
        assert len(message) < 250
        path = tmp_path / "long.json"
        doc = {"format": "flp-instance", "version": 1, "variant": "sum", "k": 2}
        path.write_text(json.dumps({**doc, "locations": ["0", literal, "3"]}))
        with pytest.raises(ParseError) as info:
            load_instance(str(path))
        assert str(info.value) == f"{path}: locations[1]: {message}"

    @pytest.mark.parametrize(
        "literal", ["x" * 41, "1/" + "2" * 5000], ids=["41-chars", "5002-chars"]
    )
    def test_long_malformed_literal_is_not_echoed(self, literal):
        with pytest.raises(ParseError) as info:
            as_coord(literal + "/0")
        assert str(info.value) == (
            f"cannot parse {literal[:40]!r}... ({len(literal) + 2:,} characters) "
            "as a rational number"
        )

    def test_lifted_limit_round_trips(self, tmp_path):
        sys.set_int_max_str_digits(0)
        path = str(tmp_path / "huge.json")
        dump_instance(self.HUGE, path)
        assert load_instance(path) == self.HUGE
        assert coord_str(10**5000) == "1" + "0" * 5000


class TestDualRepresentation:
    def test_float_15_values(self):
        assert float_15(F(2, 3)) == 0.666666666666667
        assert float_15(5) == 5.0

    def test_float_15_rounds_to_15_significant_digits(self):
        assert float_15(F(1, 3)) == 0.333333333333333
        assert float_15(F(22, 21)) == 1.04761904761905

    def test_float_15_outside_double_range_is_none(self):
        assert float_15(10**400) is None
        assert float_15(-(10**400)) is None
        # Within range, but 15 significant digits round it past the largest double.
        assert float_15(int(sys.float_info.max)) is None
        assert float_15(F(1, 10**400)) == 0.0
        assert float_15(F(10**400, 3)) is None

    def test_lottery_entries_sorted_and_dual(self):
        lot = Lottery(((Solution({1, 2}), F(1, 3)), (Solution({0, 1}), F(2, 3))))
        # As strings "10" < "9" and "-2" < "-3"; entries follow the numbers.
        for locs in ((0, 1, 3), (9, 10, 11), (-3, -2, -1)):
            inst = Instance(locs, 2, Variant.SUM)
            entries = lottery_to_list(inst, lot)
            assert [e["coordinates"] for e in entries] == [
                [str(locs[0]), str(locs[1])],
                [str(locs[1]), str(locs[2])],
            ]
            assert entries[0]["probability"] == "2/3"
            assert entries[0]["probability_float"] == 0.666666666666667
            assert entries[1]["agents"] == [1, 2]


class TestRecordsAndSweeps:
    def test_write_record_emits_pretty_json_with_newline(self):
        out = io.StringIO()
        write_record({"a": 1}, out)
        text = out.getvalue()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1}

    def rows(self):
        return [
            approx_ratio(MechanismId.MEDIAN_RIGHT, Instance(locs, 2, Variant.SUM))
            for locs in ((0, 0, 1), (0, 1, 2))  # ratios 3/2 and 1
        ]

    def test_sweep_round_trip(self):
        out = io.StringIO()
        write_sweep_csv(self.rows(), out)
        text = out.getvalue()
        assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS)
        header, *rows, summary = csv.reader(io.StringIO(text))
        assert tuple(header) == SWEEP_COLUMNS
        assert [len(row) for row in rows] == [len(SWEEP_COLUMNS)] * 2
        assert rows[0][SWEEP_COLUMNS.index("ratio")] == "3/2"
        assert summary == ["max", "", "", "", "", "", "3/2", "1.5"]

    def test_sweep_uses_unix_line_endings(self):
        out = io.StringIO()
        write_sweep_csv(self.rows(), out)
        assert "\r" not in out.getvalue()

    def test_empty_sweep_has_no_summary(self):
        out = io.StringIO()
        write_sweep_csv([], out)
        assert out.getvalue() == ",".join(SWEEP_COLUMNS) + "\n"


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
