"""Instance generator tests: reproducibility, family shape guarantees, and
exact-rational lattices.
"""

import math
from fractions import Fraction as F

import pytest

from flp import (
    Family,
    GenSpec,
    InfeasibleError,
    InputError,
    Instance,
    Variant,
    generate,
    order_stats,
    perturb,
)


def spec(family, n=5, k=2, variant=Variant.SUM, seed=7, **kw):
    return GenSpec(family, n, k, variant, seed, **kw)


class TestDeterminism:
    def test_same_spec_same_instances(self):
        s = spec(Family.UNIFORM_GRID, seed=11)
        assert generate(s, 10) == generate(s, 10)

    def test_index_stability_across_counts(self):
        # Instance #i never depends on how many others were requested.
        s = spec(Family.CLUSTERED, seed=3)
        assert generate(s, 10)[:4] == generate(s, 4)

    def test_different_seeds_differ(self):
        a = generate(spec(Family.UNIFORM_GRID, seed=1), 8)
        b = generate(spec(Family.UNIFORM_GRID, seed=2), 8)
        assert a != b

    def test_different_families_differ(self):
        a = generate(spec(Family.UNIFORM_INT, seed=5), 8)
        b = generate(spec(Family.COINCIDENT, seed=5), 8)
        assert a != b


class TestFamilies:
    def test_uniform_int_range_and_type(self):
        for inst in generate(spec(Family.UNIFORM_INT, n=6, lo=-3, hi=4), 25):
            assert all(isinstance(x, int) and -3 <= x <= 4 for x in inst.locations)

    def test_uniform_grid_lattice(self):
        s = spec(Family.UNIFORM_GRID, denominator=10, lo=0, hi=2)
        for inst in generate(s, 25):
            for x in inst.locations:
                assert 0 <= x <= 2
                assert F(x).denominator in (1, 2, 5, 10)  # divides 10

    def test_clustered_stays_near_centres(self):
        s = spec(Family.CLUSTERED, n=8, lo=0, hi=10, denominator=4)
        for inst in generate(s, 25):
            for x in inst.locations:
                assert -F(1, 2) <= x <= 10 + F(1, 2)
                assert F(x).denominator in (1, 2, 4)

    def test_coincident_majority_shares_a_point(self):
        for n in (2, 3, 6, 9):
            s = spec(Family.COINCIDENT, n=n, k=2)
            for inst in generate(s, 20):
                counts = {}
                for x in inst.locations:
                    counts[x] = counts.get(x, 0) + 1
                assert max(counts.values()) >= math.ceil(n / 2)

    def test_instances_carry_spec_shape(self):
        s = spec(Family.UNIFORM_INT, n=6, k=3, variant=Variant.MAX)
        for inst in generate(s, 5):
            assert inst.n == 6 and inst.k == 3 and inst.variant is Variant.MAX


class TestPerturb:
    def test_moves_one_agent(self):
        inst = Instance((0, 1, 2), 2, Variant.SUM)
        moved = perturb(inst, 1, "1/2")
        assert moved.locations == (0, F(3, 2), 2)
        assert inst.locations == (0, 1, 2)

    def test_negative_delta(self):
        inst = Instance((0, 1, 2), 2, Variant.SUM)
        assert perturb(inst, 0, -2).locations == (-2, 1, 2)

    def test_shift_past_a_neighbour_reorders_downstream(self):
        inst = Instance((0, 1, 2), 2, Variant.SUM)
        moved = perturb(inst, 1, -3)
        assert moved.locations == (0, -2, 2)
        assert order_stats(moved) == (1, 0, 2)  # agent 0 is now the median

    def test_float_delta_rejected(self):
        with pytest.raises(InputError):
            perturb(Instance((0, 1), 2, Variant.SUM), 0, 0.5)

    def test_agent_out_of_range(self):
        with pytest.raises(InputError):
            perturb(Instance((0, 1), 2, Variant.SUM), 5, 1)


class TestGenSpecValidation:
    def test_lo_above_hi(self):
        with pytest.raises(InputError, match="invalid range"):
            spec(Family.UNIFORM_INT, lo=3, hi=1)

    def test_k_exceeds_n(self):
        with pytest.raises(InfeasibleError):
            spec(Family.UNIFORM_INT, n=3, k=4)

    def test_n_too_small(self):
        with pytest.raises(InfeasibleError):
            spec(Family.UNIFORM_INT, n=1, k=2)

    def test_family_must_be_enum(self):
        with pytest.raises(InputError):
            spec("uniform-int")

    def test_variant_must_be_enum(self):
        with pytest.raises(InputError, match="variant must be a Variant, got 'sum'"):
            spec(Family.UNIFORM_INT, variant="sum")

    def test_bounds_parse_strings(self):
        s = spec(Family.UNIFORM_GRID, lo="-1/2", hi="3/2", denominator=4)
        for inst in generate(s, 10):
            assert all(-F(1, 2) <= x <= F(3, 2) for x in inst.locations)

    def test_empty_lattice_range(self):
        s = spec(Family.UNIFORM_GRID, lo="1/3", hi="2/5", denominator=1)
        with pytest.raises(InputError, match="no lattice point"):
            generate(s, 1)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
