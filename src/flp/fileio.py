"""Versioned text formats: instance files, result records, and sweep CSVs.

Instance files are JSON with coordinates carried as strings, so values
round-trip exactly (no binary floating point on either side).  Result
records report every numeric quantity twice: the exact rational string and
a 15-significant-digit decimal for humans.  Writers are deterministic:
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence, TextIO

from .errors import ParseError
from .model import Coord, Instance, Lottery, Variant, as_coord, coord_str

if TYPE_CHECKING:
    from .verification import RatioReport

INSTANCE_FORMAT = "flp-instance"
INSTANCE_VERSION = 1
RESULT_FORMAT = "flp-result"
RESULT_VERSION = 1

SWEEP_COLUMNS = (
    "seed_index",
    "n",
    "k",
    "variant",
    "mech_cost",
    "opt_cost",
    "ratio",
    "ratio_float",
)


def float_15(value: Coord) -> float | None:
    """Decimal approximation with 15 significant digits (display only), or
    None when ``value`` lies outside the double range."""
    try:
        shown = float(f"{float(Fraction(value)):.15g}")
    except OverflowError:
        return None
    return shown if math.isfinite(shown) else None  # 15 digits can round up


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    return {
        "format": INSTANCE_FORMAT,
        "version": INSTANCE_VERSION,
        "variant": inst.variant.value,
        "k": inst.k,
        "locations": [coord_str(x) for x in inst.locations],
    }


def instance_digest(inst: Instance) -> str:
    """Short stable content hash of the canonical instance serialization."""
    canon = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def instance_from_dict(data: object, where: str = "instance") -> Instance:
    """Strictly validate a parsed JSON document; errors name the bad field."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level must be a JSON object")
    fmt = data.get("format")
    if fmt != INSTANCE_FORMAT:
        raise ParseError(
            f"{where}: 'format' must be {INSTANCE_FORMAT!r}, got {fmt!r}"
        )
    version = data.get("version")
    if version != INSTANCE_VERSION:
        raise ParseError(
            f"{where}: unsupported version {version!r} (this build reads "
            f"version {INSTANCE_VERSION})"
        )
    raw_variant = data.get("variant")
    if raw_variant not in ("sum", "max"):
        raise ParseError(f"{where}: 'variant' must be 'sum' or 'max', got {raw_variant!r}")
    k = data.get("k")
    if isinstance(k, bool) or not isinstance(k, int):
        raise ParseError(f"{where}: 'k' must be an integer, got {k!r}")
    raw_locations = data.get("locations")
    if not isinstance(raw_locations, list):
        raise ParseError(f"{where}: 'locations' must be a list")
    locations: list[Coord] = []
    for i, raw in enumerate(raw_locations):
        if isinstance(raw, float):
            raise ParseError(
                f"{where}: locations[{i}] is a JSON float ({raw!r}); write it as "
                "a string such as \"1/10\" or \"0.1\" to keep it exact"
            )
        if isinstance(raw, bool) or not isinstance(raw, (str, int)):
            raise ParseError(
                f"{where}: locations[{i}] must be a string or integer, got {raw!r}"
            )
        try:
            locations.append(as_coord(raw))
        except ParseError as exc:
            raise ParseError(f"{where}: locations[{i}]: {exc}") from None
    return Instance(tuple(locations), k, Variant(raw_variant))


def load_instance(path: str) -> Instance:
    """Read an instance file; parse errors carry line/column, model errors
    (e.g. k exceeding n) propagate as InfeasibleError."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            try:
                data = json.load(fp)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                    f"{exc.msg}"
                ) from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return instance_from_dict(data, where=path)


def dump_instance(inst: Instance, path: str) -> None:
    """Write ``inst`` as an instance file.  Serialised first, so a value that
    cannot become text leaves no file behind."""
    text = json.dumps(instance_to_dict(inst), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def lottery_to_list(inst: Instance, lottery: Lottery) -> list[dict[str, Any]]:
    # Deterministic entry order: by exact coordinates, then by agent indices.
    support = sorted((s.coords(inst), s.sorted_hosts(), p) for s, p in lottery.support)
    return [
        {
            "agents": list(hosts),
            "coordinates": [coord_str(c) for c in coords],
            "probability": coord_str(p),
            "probability_float": float_15(p),
        }
        for coords, hosts, p in support
    ]


def write_record(record: dict[str, Any], out: TextIO) -> None:
    json.dump(record, out, indent=2)
    out.write("\n")


def write_sweep_csv(reports: Sequence[RatioReport], out: TextIO) -> None:
    """Write one ratio-sweep row per report plus a final max-ratio summary row.

    Report i is the row with seed_index i.  The summary row repeats the
    maximum ratio in the ratio columns and labels seed_index as "max".
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for idx, r in enumerate(reports):
        inst = r.instance
        exact = (coord_str(r.mech_cost), coord_str(r.opt_cost), coord_str(r.ratio))
        row = (idx, inst.n, inst.k, inst.variant.value, *exact, float_15(r.ratio))
        writer.writerow([str(value) for value in row])
    if reports:
        top = max(r.ratio for r in reports)
        writer.writerow(["max", "", "", "", "", "", coord_str(top), float_15(top)])
