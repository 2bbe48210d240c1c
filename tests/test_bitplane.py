"""Unit and property tests for two's-complement / sign-magnitude bit planes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core.bitplane import (
    column_weights,
    count_redundant_columns,
    from_bitplanes,
    from_sign_magnitude_planes,
    int_range,
    redundant_columns,
    remove_redundant_columns,
    to_bitplanes,
    to_sign_magnitude_planes,
)


class TestIntRange:
    def test_eight_bit(self):
        assert int_range(8) == (-128, 127)

    def test_four_bit(self):
        assert int_range(4) == (-8, 7)

    def test_two_bit(self):
        assert int_range(2) == (-2, 1)

    def test_rejects_one_bit(self):
        with pytest.raises(ValueError):
            int_range(1)


class TestColumnWeights:
    def test_signed_msb_is_negative(self):
        weights = column_weights(8)
        assert weights[0] == -128
        assert weights[-1] == 1

    def test_unsigned(self):
        assert list(column_weights(4, signed=False)) == [8, 4, 2, 1]

    def test_signed_four_bit(self):
        assert list(column_weights(4)) == [-8, 4, 2, 1]


class TestTwosComplement:
    def test_paper_example_minus_57(self):
        planes = to_bitplanes(np.array([-57]), 8)[0]
        assert list(planes) == [1, 1, 0, 0, 0, 1, 1, 1]

    def test_paper_example_13(self):
        planes = to_bitplanes(np.array([13]), 8)[0]
        assert list(planes) == [0, 0, 0, 0, 1, 1, 0, 1]

    def test_zero(self):
        assert to_bitplanes(np.array([0]), 8).sum() == 0

    def test_minus_one_is_all_ones(self):
        assert to_bitplanes(np.array([-1]), 8).sum() == 8

    def test_extreme_values(self):
        planes = to_bitplanes(np.array([-128, 127]), 8)
        assert list(planes[0]) == [1, 0, 0, 0, 0, 0, 0, 0]
        assert list(planes[1]) == [0, 1, 1, 1, 1, 1, 1, 1]

    def test_roundtrip_full_range(self):
        values = np.arange(-128, 128)
        assert np.array_equal(from_bitplanes(to_bitplanes(values, 8)), values)

    def test_roundtrip_preserves_shape(self, int8_matrix):
        planes = to_bitplanes(int8_matrix, 8)
        assert planes.shape == int8_matrix.shape + (8,)
        assert np.array_equal(from_bitplanes(planes), int8_matrix)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            to_bitplanes(np.array([200]), 8)

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            to_bitplanes(np.array([1.5]), 8)

    def test_other_widths(self):
        for bits in (4, 6, 12):
            lo, hi = int_range(bits)
            values = np.arange(lo, hi + 1)
            assert np.array_equal(from_bitplanes(to_bitplanes(values, bits)), values)

    @given(
        npst.arrays(
            dtype=np.int64,
            shape=npst.array_shapes(min_dims=1, max_dims=2, max_side=32),
            elements=st.integers(-128, 127),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        assert np.array_equal(from_bitplanes(to_bitplanes(values, 8)), values)


class TestSignMagnitude:
    def test_paper_example_minus_57(self):
        planes = to_sign_magnitude_planes(np.array([-57]), 8)[0]
        assert list(planes) == [1, 0, 1, 1, 1, 0, 0, 1]

    def test_positive_has_zero_sign(self):
        planes = to_sign_magnitude_planes(np.array([57]), 8)[0]
        assert planes[0] == 0

    def test_roundtrip(self):
        values = np.arange(-127, 128)
        planes = to_sign_magnitude_planes(values, 8)
        assert np.array_equal(from_sign_magnitude_planes(planes), values)

    def test_rejects_minimum_code(self):
        with pytest.raises(ValueError):
            to_sign_magnitude_planes(np.array([-128]), 8)

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            to_sign_magnitude_planes(np.array([0.5]), 8)

    def test_small_weights_have_more_zero_bits(self, int8_matrix):
        # The sign-magnitude representation of Gaussian-like weights is
        # sparser than two's complement (the basis of BitWave and Figure 3).
        clipped = np.where(int8_matrix == -128, -127, int8_matrix)
        twos = to_bitplanes(clipped, 8).mean()
        sign_mag = to_sign_magnitude_planes(clipped, 8).mean()
        assert sign_mag < twos

    @given(st.lists(st.integers(-127, 127), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        array = np.array(values)
        planes = to_sign_magnitude_planes(array, 8)
        assert np.array_equal(from_sign_magnitude_planes(planes), array)


class TestRedundantColumns:
    def test_all_small_values(self):
        # Values in [-16, 15] fit in 5 bits: 3 redundant columns of an 8-bit word.
        group = to_bitplanes(np.array([3, -5, 15, -16]), 8)
        assert count_redundant_columns(group) == 3

    def test_large_value_blocks_redundancy(self):
        group = to_bitplanes(np.array([3, -5, 100]), 8)
        assert count_redundant_columns(group) == 0

    def test_paper_figure4_group(self):
        group = to_bitplanes(np.array([-11, 2, -57, 13]), 8)
        assert count_redundant_columns(group) == 1

    def test_cap(self):
        group = to_bitplanes(np.array([0, 1, -1]), 8)
        assert count_redundant_columns(group, max_redundant=3) == 3

    def test_zero_group_never_removes_all_columns(self):
        group = to_bitplanes(np.zeros(4, dtype=np.int64), 8)
        assert count_redundant_columns(group) <= 6

    def test_remove_preserves_value(self):
        values = np.array([-11, 2, -57, 13])
        group = to_bitplanes(values, 8)
        count = count_redundant_columns(group)
        reduced = remove_redundant_columns(group, count)
        assert reduced.shape == (4, 8 - count)
        assert np.array_equal(from_bitplanes(reduced), values)

    def test_remove_zero_is_copy(self):
        group = to_bitplanes(np.array([1, 2]), 8)
        out = remove_redundant_columns(group, 0)
        assert np.array_equal(out, group)
        assert out is not group

    def test_remove_too_many_raises(self):
        group = to_bitplanes(np.array([3, -5, 100]), 8)
        with pytest.raises(ValueError):
            remove_redundant_columns(group, 1)

    def test_negative_count_raises(self):
        group = to_bitplanes(np.array([1]), 8)
        with pytest.raises(ValueError):
            remove_redundant_columns(group, -1)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            count_redundant_columns(np.zeros((2, 2, 8), dtype=np.uint8))

    @given(st.lists(st.integers(-128, 127), min_size=2, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_removal_roundtrip_property(self, values):
        array = np.array(values)
        group = to_bitplanes(array, 8)
        count = count_redundant_columns(group)
        reduced = remove_redundant_columns(group, count)
        assert np.array_equal(from_bitplanes(reduced), array)

    @given(st.data(), st.integers(3, 8), st.integers(1, 5), st.integers(0, 32))
    @settings(max_examples=120, deadline=None)
    def test_batched_redundant_columns_match_plane_count(self, data, bits, num_groups, size):
        # The arithmetic batched kernel must agree with the definitional
        # bit-plane count, group by group.
        lo, hi = int_range(bits)
        flat = data.draw(
            st.lists(st.integers(lo, hi), min_size=num_groups * size, max_size=num_groups * size)
        )
        groups = np.array(flat, dtype=np.int64).reshape(num_groups, size)
        expected = [count_redundant_columns(to_bitplanes(g, bits)) for g in groups]
        batched = redundant_columns(groups, bits)
        assert batched.dtype == np.int64
        assert batched.tolist() == expected
