"""Ablations of the design choices DESIGN.md calls out, at their defaults.

These do not correspond to a specific paper figure; they regenerate the
trade-off curves behind the paper's fixed hyper-parameters (group size 32,
6-bit BBS constant, 10 %/20 % sensitive channels, PE sub-group 8, CH = 32)
over each ablation's full default sweep and check the trend it shows.
"""

from __future__ import annotations

from repro.eval.ablations import (
    beta_ablation,
    channel_alignment_ablation,
    constant_bits_ablation,
    group_size_ablation,
    sub_group_ablation,
)


def _print(result):
    print()
    print(result["table"])
    return result


def test_ablation_group_size():
    result = _print(group_size_ablation())
    bits = [row["effective_bits"] for row in result["rows"]]
    assert bits == sorted(bits, reverse=True)


def test_ablation_constant_bits():
    result = _print(constant_bits_ablation())
    errors = [row["mse"] for row in result["rows"]]
    assert errors[-1] <= errors[0] + 1e-9


def test_ablation_beta():
    result = _print(beta_ablation())
    rows = sorted(result["rows"], key=lambda row: row["beta"])
    assert rows[-1]["mse"] <= rows[0]["mse"] + 1e-9


def test_ablation_sub_group():
    result = _print(sub_group_ablation())
    optimized = {row["sub_group"]: row["area_um2"] for row in result["rows"] if row["optimized"]}
    assert min(optimized, key=optimized.get) == 8


def test_ablation_channel_alignment():
    result = _print(channel_alignment_ablation())
    for row in result["rows"]:
        assert row["aligned_fraction"] >= row["unaligned_fraction"] - 1e-9
