"""Paper claims on the compression-quality results, at evaluation scale.

Covers Figure 1 (motivation), Figure 3 (sparsity statistics over six
models), Figure 6 (KL divergence of the pruning strategies), Figure 11 /
Tables II-III (accuracy-proxy comparisons over every model the experiment
defaults to) and Table I (benchmark summary).  ``tests/test_experiments.py``
checks the same claims on reduced model subsets; these run each experiment
with its default configuration and print the regenerated rows, so ``pytest
benchmarks -s`` shows the same series the paper reports.  Timing is
``perfbench``'s job, not these tests'.
"""

from __future__ import annotations

from repro.eval import experiments as exp


def _run_and_print(function, *args, **kwargs):
    result = function(*args, **kwargs)
    print()
    print(result["table"])
    return result


def test_figure1_motivation():
    result = _run_and_print(exp.figure1_motivation)
    by_method = {row["method"]: row for row in result["rows"]}
    bbs = [row for name, row in by_method.items() if name.startswith("BBS")][0]
    assert bbs["kl_divergence"] == min(row["kl_divergence"] for row in result["rows"])


def test_figure3_sparsity():
    result = _run_and_print(exp.figure3_sparsity_comparison)
    for row in result["rows"]:
        assert row["bbs"] >= 0.5
        assert row["value"] < 0.1


def test_figure6_kl_divergence():
    result = _run_and_print(exp.figure6_kl_divergence)
    for row in result["rows"]:
        assert row["zero_point_shift_norm_kl"] < row["zero_column_norm_kl"]
        assert row["rounded_average_norm_kl"] < row["zero_column_norm_kl"]


def test_table1_models():
    result = _run_and_print(exp.table1_models)
    assert len(result["rows"]) == 7


def test_figure11_accuracy():
    result = _run_and_print(exp.figure11_accuracy)
    models = {row["model"] for row in result["rows"]}
    for model in models:
        subset = {row["method"]: row for row in result["rows"] if row["model"] == model}
        assert subset["bbs_mod"]["mean_kl"] < subset["ptq4"]["mean_kl"]
        assert subset["bbs_mod"]["mean_kl"] < subset["bitwave4"]["mean_kl"]
    if result["mlp_rows"]:
        by_method = {row["method"]: row for row in result["mlp_rows"]}
        assert (
            by_method["BBS moderate"]["accuracy_loss_vs_fp32"]
            <= by_method["PTQ (4-bit)"]["accuracy_loss_vs_fp32"] + 1e-9
        )


def test_table2_ant():
    result = _run_and_print(exp.table2_ant_comparison)
    assert all(row["bbs_better"] for row in result["rows"])


def test_table3_ptq():
    result = _run_and_print(exp.table3_ptq_comparison)
    for model in ("ViT-Small", "ViT-Base"):
        subset = {row["method"]: row for row in result["rows"] if row["model"] == model}
        assert subset["BBS (mod)"]["mean_kl"] < subset["Microscaling (6-bit)"]["mean_kl"]
