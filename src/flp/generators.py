"""Seeded random instance families on rational lattices.

Each instance's coordinates are drawn with a private ``random.Random`` seeded
by a hash of (master seed, family, instance index), so generation is
reproducible, order-independent, and safe to fan out across workers: asking
for instance #7 always yields the same profile no matter what was generated
before it.  Coordinates stay on small rational lattices; no floats anywhere.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError, InputError
from .model import Coord, Instance, Variant, as_coord


_CLUSTERS = 2
"""Number of integer centres in the clustered family."""
_SPREAD = Fraction(1, 2)
"""Largest distance of a clustered agent from its centre."""


class Family(enum.Enum):
    """Instance families, from generic to deliberately degenerate."""

    UNIFORM_INT = "uniform-int"
    UNIFORM_GRID = "uniform-grid"
    CLUSTERED = "clustered"
    COINCIDENT = "coincident"


@dataclass(frozen=True, slots=True)
class GenSpec:
    """Parameters of one generation run.

    ``lo``/``hi`` bound the coordinate range.  ``denominator`` sets the
    lattice for non-integer families, and every draw descends from ``seed``.
    """

    family: Family
    n: int
    k: int
    variant: Variant
    seed: int
    lo: Coord = 0
    hi: Coord = 10
    denominator: int = 100

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise InputError(f"family must be a Family, got {self.family!r}")
        if not isinstance(self.variant, Variant):
            raise InputError(f"variant must be a Variant, got {self.variant!r}")
        object.__setattr__(self, "lo", as_coord(self.lo))
        object.__setattr__(self, "hi", as_coord(self.hi))
        if self.lo > self.hi:
            raise InputError(f"invalid range: lo={self.lo} > hi={self.hi}")
        if self.denominator < 1:
            raise InputError(f"denominator must be >= 1, got {self.denominator}")
        if self.n < 2:
            raise InfeasibleError(f"need at least 2 agents, got n={self.n}")
        if not 2 <= self.k <= self.n:
            raise InfeasibleError(
                f"infeasible generation spec: need 2 <= k <= n, got k={self.k}, "
                f"n={self.n}"
            )


def _derive_seed(master: int, family: str, index: int) -> int:
    """Stable 64-bit per-instance seed from (master, family, index)."""
    digest = hashlib.sha256(f"flp:{master}:{family}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _lattice_draw(rng: random.Random, lo: Coord, hi: Coord, denom: int) -> Coord:
    """Uniform draw from the denominator-``denom`` lattice within [lo, hi]."""
    lo_num = math.ceil(lo * denom)
    hi_num = math.floor(hi * denom)
    if lo_num > hi_num:
        raise InputError(
            f"range [{lo}, {hi}] contains no lattice point with denominator {denom}"
        )
    num = rng.randint(lo_num, hi_num)
    return num if denom == 1 else as_coord(Fraction(num, denom))


def _draw_locations(spec: GenSpec, rng: random.Random) -> list[Coord]:
    if spec.family is Family.UNIFORM_INT:
        return [_lattice_draw(rng, spec.lo, spec.hi, 1) for _ in range(spec.n)]

    if spec.family is Family.UNIFORM_GRID:
        return [
            _lattice_draw(rng, spec.lo, spec.hi, spec.denominator)
            for _ in range(spec.n)
        ]

    if spec.family is Family.CLUSTERED:
        centres = [_lattice_draw(rng, spec.lo, spec.hi, 1) for _ in range(_CLUSTERS)]
        jitter_cap = math.floor(_SPREAD * spec.denominator)
        locs: list[Coord] = []
        for _ in range(spec.n):
            centre = rng.choice(centres)
            num = rng.randint(-jitter_cap, jitter_cap) if jitter_cap > 0 else 0
            locs.append(as_coord(centre + Fraction(num, spec.denominator)))
        return locs

    if spec.family is Family.COINCIDENT:
        # At least ceil(n/2) agents share one coordinate; the rest sit on a
        # half-step lattice nearby, so ties and near-ties are common.
        shared = _lattice_draw(rng, spec.lo, spec.hi, 1)
        dup_count = (spec.n + 1) // 2
        locs = [shared] * dup_count
        for _ in range(spec.n - dup_count):
            offset = Fraction(rng.randint(-2, 2), 2)
            locs.append(as_coord(shared + offset))
        rng.shuffle(locs)
        return locs

    raise InputError(f"unknown family {spec.family!r}")


def generate(spec: GenSpec, count: int) -> list[Instance]:
    """Generate ``count`` instances for ``spec``, deterministically."""
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    out = []
    for index in range(count):
        rng = random.Random(_derive_seed(spec.seed, spec.family.value, index))
        out.append(Instance(tuple(_draw_locations(spec, rng)), spec.k, spec.variant))
    return out


def perturb(inst: Instance, agent: int, delta: object) -> Instance:
    """Shift one agent's report by ``delta`` (any exact rational literal)."""
    inst.check_agent(agent)
    step = as_coord(delta)
    return inst.with_location(agent, inst.locations[agent] + step)
