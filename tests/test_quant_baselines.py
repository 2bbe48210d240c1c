"""Tests for the compression baselines: BitWave bit-flip, MX, NoisyQuant, ANT, Olive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import kl_divergence
from repro.core.binary_pruning import prune_tensor
from repro.core.encoding import PruningStrategy
from repro.quant.ant_datatype import (
    ant_quantize,
    ant_quantize_reference,
    datatype_codebook,
)
from repro.quant.bitflip import bitflip_group, bitflip_tensor
from repro.quant.microscaling import microscaling_quantize
from repro.quant.noisyquant import noisyquant_quantize
from repro.quant.olive import olive_quantize


class TestBitFlip:
    def test_zero_columns_is_identity(self, int8_matrix):
        result = bitflip_tensor(int8_matrix, 0)
        assert np.array_equal(result.values, int8_matrix)

    def test_group_level_inherent_vs_forced(self):
        # A group of small values has inherent zero columns: pruning them is free.
        group = np.array([1, -2, 3, -4, 5, -6, 7, 0])
        values, inherent, forced = bitflip_group(group, 3)
        assert inherent == 3
        assert forced == 0
        assert np.array_equal(values, group)

    def test_forced_columns_truncate_magnitudes(self):
        group = np.array([127, -127, 100, -100])
        values, inherent, forced = bitflip_group(group, 2)
        assert inherent == 0
        assert forced == 2
        assert np.all(np.abs(values) <= np.abs(group))
        assert np.all(np.abs(values) % 4 == 0)

    def test_only_zero_direction_loses_levels(self, int8_matrix):
        # The zero-column-only restriction removes quantization levels, which
        # is the weakness Figure 1(b)/Figure 6 highlight relative to BBS.
        bitwave = bitflip_tensor(int8_matrix, 4, keep_original=False).values
        bbs = prune_tensor(
            int8_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT, keep_original=False
        ).values
        assert len(np.unique(bitwave)) < len(np.unique(bbs))
        assert kl_divergence(int8_matrix, bitwave) > kl_divergence(int8_matrix, bbs)

    def test_sensitive_channels_untouched(self, int8_matrix):
        sensitive = np.zeros(int8_matrix.shape[0], dtype=bool)
        sensitive[:8] = True
        result = bitflip_tensor(int8_matrix, 3, sensitive_channels=sensitive)
        assert np.array_equal(result.values[:8], int8_matrix[:8])

    def test_effective_bits(self, int8_matrix):
        result = bitflip_tensor(int8_matrix, 3)
        assert result.effective_bits() == pytest.approx((5 * 32 + 8) / 32)

    def test_handles_minimum_code(self):
        group = np.full(8, -128)
        values, _, _ = bitflip_group(group, 2)
        assert values.min() >= -128

    def test_rejects_bad_column_count(self):
        with pytest.raises(ValueError):
            bitflip_group(np.zeros(8, dtype=np.int64), 8)

    @pytest.mark.parametrize("num_columns", [-1, 8, 9])
    def test_tensor_rejects_out_of_range_column_count(self, int8_matrix, num_columns):
        # Pruning the sign column (or a negative count) is not sign-magnitude
        # bit-flip; the tensor entry point rejects it like the group one.
        with pytest.raises(ValueError, match=r"num_columns must be in \[0, 7\]"):
            bitflip_tensor(int8_matrix, num_columns)
        with pytest.raises(ValueError, match=r"num_columns must be in \[0, 3\]"):
            bitflip_tensor(np.clip(int8_matrix, -8, 7), 4, bits=4)

    def test_storage_bits_counts_every_group(self, int8_matrix):
        from repro.core.encoding import group_storage_bits

        sensitive = np.zeros(int8_matrix.shape[0], dtype=bool)
        sensitive[::5] = True
        for num_columns in (0, 3, 7):
            result = bitflip_tensor(int8_matrix, num_columns, sensitive_channels=sensitive)
            channels, num_groups = result.inherent_zero_columns.shape
            expected = sum(
                32 * 8 if sensitive[channel] else group_storage_bits(32, num_columns, 8)
                for channel in range(channels)
                for _ in range(num_groups)
            )
            assert result.storage_bits() == expected

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            bitflip_tensor(np.zeros((2, 32)), 2)

    @given(st.lists(st.integers(-127, 127), min_size=4, max_size=32), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_magnitude_never_increases_property(self, values, columns):
        group = np.array(values)
        pruned, _, _ = bitflip_group(group, columns)
        assert np.all(np.abs(pruned) <= np.abs(group))
        assert np.all(np.sign(pruned) * np.sign(group) >= 0)


class TestMicroscaling:
    def test_effective_bits(self, int8_matrix):
        result = microscaling_quantize(int8_matrix, 6, 32)
        assert result.effective_bits() == pytest.approx(6.25)

    def test_preserves_integer_domain(self, int8_matrix):
        result = microscaling_quantize(int8_matrix, 6, 32)
        assert np.issubdtype(result.values.dtype, np.integer)
        assert result.values.min() >= -128 and result.values.max() <= 127

    def test_outlier_crushes_small_values(self):
        # The documented MX weakness: one large value per block forces small
        # values to zero.
        block = np.zeros((1, 32), dtype=np.int64)
        block[0, 0] = 127
        block[0, 1:] = 1
        result = microscaling_quantize(block, element_bits=4, block_size=32)
        assert result.values[0, 0] != 0
        assert np.count_nonzero(result.values[0, 1:]) == 0

    def test_error_decreases_with_element_bits(self, int8_matrix):
        errors = [
            microscaling_quantize(int8_matrix, bits, 32).mse() for bits in (4, 6, 8)
        ]
        assert errors[0] >= errors[1] >= errors[2]

    def test_zero_block(self):
        result = microscaling_quantize(np.zeros((2, 32), dtype=np.int64), 6, 32)
        assert np.all(result.values == 0)

    def test_rejects_bad_args(self, int8_matrix):
        with pytest.raises(ValueError):
            microscaling_quantize(int8_matrix, 1, 32)
        with pytest.raises(ValueError):
            microscaling_quantize(int8_matrix, 6, 0)
        with pytest.raises(ValueError):
            microscaling_quantize(np.zeros(8), 6, 4)


class TestNoisyQuant:
    def test_better_or_equal_than_plain_quantization(self, int8_matrix):
        result = noisyquant_quantize(int8_matrix, 6)
        plain = noisyquant_quantize(int8_matrix, 6, amplitude_candidates=(0.0,))
        assert result.mse() <= plain.mse() + 1e-9

    def test_deterministic_given_seed(self, int8_matrix):
        a = noisyquant_quantize(int8_matrix, 6, seed=3)
        b = noisyquant_quantize(int8_matrix, 6, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_effective_bits(self, int8_matrix):
        assert noisyquant_quantize(int8_matrix, 6).effective_bits() == 6.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            noisyquant_quantize(np.zeros(8))


class TestAnt:
    def test_codebook_sizes(self):
        for datatype in ("int", "pot", "flint"):
            codebook = datatype_codebook(datatype, 6)
            assert len(codebook) <= 64
            assert np.all(np.diff(codebook) > 0)
            assert codebook.max() == 1.0 and codebook.min() == -1.0

    def test_unknown_datatype(self):
        with pytest.raises(ValueError):
            datatype_codebook("posit", 6)

    def test_pot_is_powers_of_two(self):
        codebook = datatype_codebook("pot", 4)
        positive = codebook[codebook > 0]
        assert np.allclose(np.log2(positive), np.round(np.log2(positive)))

    def test_quantize_reduces_levels(self, int8_matrix):
        result = ant_quantize(int8_matrix, 6)
        assert result.mse() > 0
        assert len(result.chosen_datatypes) == int8_matrix.shape[0]

    def test_adaptive_choice_not_worse_than_int_only(self, int8_matrix):
        adaptive = ant_quantize(int8_matrix, 6)
        int_only = ant_quantize(int8_matrix, 6, datatypes=("int",))
        assert adaptive.mse() <= int_only.mse() + 1e-9

    def test_rejects_tiny_bits(self, int8_matrix):
        with pytest.raises(ValueError):
            ant_quantize(int8_matrix, 2)

    @pytest.mark.parametrize("quantize", [ant_quantize, ant_quantize_reference])
    @pytest.mark.parametrize(
        "weights",
        [
            np.array([[1000, -500, 3, 0]], dtype=np.int16),
            np.array([[200, 1]], dtype=np.uint8),
            np.array([[-129, 0]], dtype=np.int64),
        ],
        ids=["int16", "uint8", "int64"],
    )
    def test_rejects_integers_outside_int8(self, quantize, weights):
        with pytest.raises(ValueError, match="8-bit"):
            quantize(weights, 6)

    @pytest.mark.parametrize("quantize", [ant_quantize, ant_quantize_reference])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, quantize, bad):
        with pytest.raises(ValueError, match="finite"):
            quantize(np.array([[0.5, bad, -0.25]]), 6)

    @pytest.mark.parametrize("quantize", [ant_quantize, ant_quantize_reference])
    @pytest.mark.parametrize("datatypes", [(), ("int", "posit")])
    def test_rejects_empty_or_unknown_datatypes(self, quantize, int8_matrix, datatypes):
        with pytest.raises(ValueError):
            quantize(int8_matrix, 6, datatypes=datatypes)

    def test_channel_max_128_clips_to_the_int8_word(self):
        # 127 / 128 snaps to the code 1.0 and would reconstruct as +128.
        result = ant_quantize(np.array([[-128, 127]]), 3, datatypes=("int",))
        assert result.values.tolist() == [[-128, 127]]


class TestOlive:
    def test_outliers_preserved_victims_zeroed(self):
        channel = np.ones((1, 32), dtype=np.int64) * 3
        channel[0, 10] = 120  # a clear outlier
        result = olive_quantize(channel, 4, outlier_percentile=90.0)
        assert abs(result.values[0, 10]) > 20          # outlier keeps large magnitude
        assert result.values[0, 11] == 0               # its victim is sacrificed

    def test_effective_bits(self, int8_matrix):
        assert olive_quantize(int8_matrix, 4).effective_bits() == 4.0

    def test_outlier_fraction_reported(self, int8_matrix):
        result = olive_quantize(int8_matrix, 4)
        assert 0.0 <= result.outlier_fraction <= 0.2

    def test_worse_than_bbs_moderate_on_gaussian_weights(self, int8_matrix):
        # The Figure 17 ordering: BBS moderate (4.25 bits) beats Olive (4 bits).
        olive = olive_quantize(int8_matrix, 4, keep_original=True)
        bbs = prune_tensor(int8_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert bbs.mse() < olive.mse()

    def test_rejects_bad_percentile(self, int8_matrix):
        with pytest.raises(ValueError):
            olive_quantize(int8_matrix, 4, outlier_percentile=10.0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            olive_quantize(np.zeros(8))
