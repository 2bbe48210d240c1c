"""Tests for the ablation studies and the command-line interface.

Each ablation class checks a narrow sweep and, where the trend should hold
across it, the ablation's full default sweep.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.eval import EXPERIMENTS
from repro.eval.ablations import (
    beta_ablation,
    channel_alignment_ablation,
    constant_bits_ablation,
    group_size_ablation,
    sub_group_ablation,
)


class TestGroupSizeAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return group_size_ablation(group_sizes=(8, 32, 128), num_columns=4)

    @pytest.fixture(scope="class")
    def default_sweep(self):
        return group_size_ablation()

    def test_metadata_amortizes_with_group_size(self, result, default_sweep):
        rows = {row["group_size"]: row for row in result["rows"]}
        assert rows[8]["effective_bits"] > rows[32]["effective_bits"] > rows[128]["effective_bits"]
        # The limit is 8 - 4 = 4 bits/weight.
        assert rows[128]["effective_bits"] > 4.0
        bits = [row["effective_bits"] for row in default_sweep["rows"]]
        assert bits == sorted(bits, reverse=True)

    def test_error_grows_with_group_size(self, result):
        rows = {row["group_size"]: row for row in result["rows"]}
        assert rows[8]["mse"] <= rows[128]["mse"] + 1e-9

    def test_paper_choice_is_balanced(self, result):
        rows = {row["group_size"]: row for row in result["rows"]}
        # Group 32 keeps the effective bits within 0.3 of the 4-bit asymptote
        # (group 8 wastes a full extra bit on metadata) while its error stays
        # well below the largest group's regime.
        assert rows[32]["effective_bits"] - 4.0 < 0.3
        assert rows[8]["effective_bits"] - 4.0 >= 0.9
        assert rows[32]["mse"] < rows[128]["mse"]


class TestConstantBitsAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return constant_bits_ablation(constant_bits=(2, 4, 6, 7))

    @pytest.fixture(scope="class")
    def default_sweep(self):
        return constant_bits_ablation()

    def test_error_monotonically_non_increasing(self, result, default_sweep):
        for sweep in (result, default_sweep):
            errors = [row["mse"] for row in sweep["rows"]]
            assert all(errors[i + 1] <= errors[i] + 1e-9 for i in range(len(errors) - 1))

    def test_six_bits_is_near_saturation(self, result):
        rows = {row["constant_bits"]: row for row in result["rows"]}
        # Going from 6 to 7 bits buys almost nothing (the paper's rationale).
        assert rows[7]["mse"] >= 0.98 * rows[6]["mse"]
        # Going from 2 to 6 bits helps measurably.
        assert rows[6]["mse"] <= rows[2]["mse"]


class TestBetaAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return beta_ablation(betas=(0.0, 0.10, 0.40))

    @pytest.fixture(scope="class")
    def default_sweep(self):
        return beta_ablation()

    def test_more_sensitive_channels_mean_less_error_more_bits(self, result, default_sweep):
        for sweep in (result, default_sweep):
            rows = {row["beta"]: row for row in sweep["rows"]}
            assert rows[0.40]["mse"] <= rows[0.0]["mse"]
            assert rows[0.40]["effective_bits"] >= rows[0.0]["effective_bits"]

    def test_sensitive_fraction_at_least_beta(self, result):
        for row in result["rows"]:
            assert row["sensitive_fraction"] >= row["beta"] - 1e-9


class TestSubGroupAblation:
    def test_sub_group_8_optimized_minimizes_area(self):
        rows = sub_group_ablation()["rows"]  # the default sweep: 16, 8, 4, 2
        optimized = {row["sub_group"]: row for row in rows if row["optimized"]}
        assert min(optimized, key=lambda k: optimized[k]["area_um2"]) == 8

    def test_optimization_always_reduces_area(self):
        rows = sub_group_ablation(sub_groups=(16, 8))["rows"]
        by_config = {(row["sub_group"], row["optimized"]): row for row in rows}
        for sub_group in (16, 8):
            assert (
                by_config[(sub_group, True)]["area_um2"]
                < by_config[(sub_group, False)]["area_um2"]
            )


class TestChannelAlignmentAblation:
    def test_narrow_layers_pay_more_overhead(self):
        rows = channel_alignment_ablation(layer_widths=(32, 2048))["rows"]
        by_width = {row["layer_channels"]: row for row in rows}
        assert by_width[32]["overhead"] >= by_width[2048]["overhead"]

    def test_aligned_fraction_never_below_unaligned(self):
        for row in channel_alignment_ablation()["rows"]:
            assert row["aligned_fraction"] >= row["unaligned_fraction"] - 1e-9


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure12" in output and "ablations" in output

    def test_every_experiment_registered(self):
        assert len(EXPERIMENTS) == 16  # 10 figures + 6 tables

    def test_table5_command(self, capsys):
        assert main(["table5"]) == 0
        output = capsys.readouterr().out
        assert "BitVert" in output and "regenerated" in output

    def test_figure3_command_with_model_subset(self, capsys):
        assert main(["figure3", "--models", "ViT-Small"]) == 0
        output = capsys.readouterr().out
        assert "ViT-Small" in output

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--models", "ResNet-50"],
            ["table1", "--seed", "3"],
            ["table4", "--jobs", "4"],
            ["figure3", "--jobs", "2"],
        ],
    )
    def test_flag_the_experiment_does_not_take_fails(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])
