"""Tests for the experiment harness (reduced configurations of every table/figure)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import CONSERVATIVE_PRESET
from repro.core.memo import clear_memo, memo_disabled, memo_stats
from repro.eval import experiments as exp
from repro.eval.benchmarks import ACCELERATOR_NAMES, BENCHMARK_MODEL_NAMES, BenchmarkSuite
from repro.eval.reporting import format_table, geometric_mean
from repro.nn.trainer import MLPClassifier


@pytest.fixture(scope="module")
def small_suite() -> BenchmarkSuite:
    return BenchmarkSuite(seed=0, max_channels=64, max_reduction=256)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text.splitlines()[1]
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_missing_keys(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "b" in text

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])


class TestBenchmarkSuite:
    def test_model_and_weight_caching(self, small_suite):
        first = small_suite.weights("ViT-Small")
        second = small_suite.weights("ViT-Small")
        assert first is second

    def test_accelerator_lineup_complete(self, small_suite):
        accelerators = small_suite.accelerators()
        assert set(accelerators) == set(ACCELERATOR_NAMES)

    def test_benchmark_names_match_table1(self):
        assert len(BENCHMARK_MODEL_NAMES) == 7


class TestMotivationAndSparsityExperiments:
    def test_figure1_bbs_preserves_levels_and_kl(self):
        result = exp.figure1_motivation()
        by_method = {row["method"]: row for row in result["rows"]}
        ptq = by_method["PTQ INT5"]
        bbs = [row for name, row in by_method.items() if name.startswith("BBS")][0]
        zero_col = [row for name, row in by_method.items() if "zero columns" in name][0]
        # Figure 1's claims: BBS has the lowest KL divergence and keeps nearly
        # all quantization levels; PTQ loses most levels.
        assert bbs["kl_divergence"] < zero_col["kl_divergence"] < ptq["kl_divergence"]
        assert bbs["quantization_levels"] > zero_col["quantization_levels"]
        assert bbs["mse"] < zero_col["mse"]

    def test_figure3_sparsity_pattern(self):
        result = exp.figure3_sparsity_comparison(models=["ResNet-50", "ViT-Base"])
        for row in result["rows"]:
            assert row["value"] < 0.1
            assert 0.4 < row["bit_twos_complement"] < 0.6
            assert row["bit_sign_magnitude"] > row["bit_twos_complement"]
            assert row["bbs"] >= 0.5

    def test_figure6_binary_pruning_beats_zero_column(self):
        result = exp.figure6_kl_divergence()
        for row in result["rows"]:
            assert row["zero_column_norm_kl"] == pytest.approx(1.0)
            assert row["rounded_average_norm_kl"] < 1.0
            assert row["zero_point_shift_norm_kl"] < 1.0


class TestAccuracyExperiments:
    def test_table1_matches_published_numbers(self):
        rows = exp.table1_models()["rows"]
        by_model = {row["model"]: row for row in rows}
        assert by_model["ResNet-50"]["fp32_accuracy"] == 76.13
        assert by_model["BERT-SST2"]["int8_accuracy"] == 91.63
        assert len(rows) == 7

    def test_figure11_bbs_preserves_distribution_better(self):
        result = exp.figure11_accuracy(models=["ResNet-34"], seed=0)
        by_method = {row["method"]: row for row in result["rows"]}
        assert by_method["bbs_mod"]["mean_kl"] < by_method["bitwave4"]["mean_kl"]
        assert by_method["bbs_mod"]["mean_kl"] < by_method["ptq4"]["mean_kl"]
        # Conservative pruning perturbs the weights less than moderate pruning.
        assert by_method["bbs_cons"]["mean_mse"] < by_method["bbs_mod"]["mean_mse"]
        # Effective bit widths follow the paper (cons > mod).
        assert by_method["bbs_cons"]["effective_bits"] > by_method["bbs_mod"]["effective_bits"]
        # End-to-end MLP: moderate BBS loses no more accuracy than 4-bit PTQ.
        mlp_loss = {row["method"]: row["accuracy_loss_vs_fp32"] for row in result["mlp_rows"]}
        assert mlp_loss["BBS moderate"] <= mlp_loss["PTQ (4-bit)"] + 1e-9

    def test_warm_figure11_only_looks_things_up(self, monkeypatch):
        first = exp.json_payload(exp.figure11_accuracy(models=["ResNet-34"], seed=0))

        def recompute(*args, **kwargs):
            raise AssertionError("a warm figure 11 must not recompute")

        monkeypatch.setattr(exp, "accuracy_under_compression", recompute)
        monkeypatch.setattr(exp, "make_classification_dataset", recompute)
        monkeypatch.setattr(MLPClassifier, "_train", recompute)
        second = exp.json_payload(exp.figure11_accuracy(models=["ResNet-34"], seed=0))
        assert second == first

    def test_table2_bbs_beats_ant(self):
        rows = exp.table2_ant_comparison()["rows"]
        for row in rows:
            assert row["bbs_better"]
            assert row["bbs_mod_bits"] < 8.0

    def test_table3_bbs_on_pareto(self):
        rows = exp.table3_ptq_comparison()["rows"]
        for model in ("ViT-Small", "ViT-Base"):
            subset = {row["method"]: row for row in rows if row["model"] == model}
            assert subset["BBS (mod)"]["mean_kl"] < subset["Microscaling (6-bit)"]["mean_kl"]
            assert subset["BBS (mod)"]["mean_kl"] < subset["NoisyQuant (6-bit)"]["mean_kl"]


#: Figure 11's MLP study shrunk to a few milliseconds of training.
SMALL_STUDY = replace(
    exp.FIGURE11_MLP_STUDY,
    num_samples=300,
    num_features=8,
    num_classes=3,
    hidden_sizes=(16,),
    epochs=2,
)


def _with_conservative_preset(study, preset):
    compressors = tuple(
        (label, method, preset if label == "BBS conservative" else argument)
        for label, method, argument in study.compressors
    )
    return replace(study, compressors=compressors)


class TestMLPStudyMemo:
    def test_repeat_is_an_evaluations_hit_with_identical_rows(self):
        clear_memo()
        with memo_disabled():
            cold = exp._mlp_study(SMALL_STUDY)
        first = exp._mlp_study(SMALL_STUDY)
        before = memo_stats()["evaluations"]
        second = exp._mlp_study(SMALL_STUDY)
        after = memo_stats()["evaluations"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert first == second == cold
        assert [row["method"] for row in cold] == [
            label for label, _, _ in SMALL_STUDY.compressors
        ]

    @pytest.mark.parametrize(
        "changed",
        [
            replace(SMALL_STUDY, seed=1),
            _with_conservative_preset(SMALL_STUDY, replace(CONSERVATIVE_PRESET, num_columns=3)),
        ],
        ids=["seed", "preset"],
    )
    def test_changed_seed_or_preset_is_a_miss(self, changed):
        clear_memo()
        exp._mlp_study(SMALL_STUDY)
        before = memo_stats()["evaluations"]
        rows = exp._mlp_study(changed)
        after = memo_stats()["evaluations"]
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + 1
        with memo_disabled():
            assert rows == exp._mlp_study(changed)

    def test_mutating_returned_rows_does_not_poison_later_hits(self):
        clear_memo()
        first = exp._mlp_study(SMALL_STUDY)
        expected = [dict(row) for row in first]
        first[0]["test_accuracy"] = -1.0
        first.append({"method": "extra"})
        hit = exp._mlp_study(SMALL_STUDY)
        assert hit == expected
        hit[1]["method"] = "renamed"
        hit.pop()
        assert exp._mlp_study(SMALL_STUDY) == expected
        assert memo_stats()["evaluations"]["hits"] == 2

    def test_memo_disabled_always_computes(self, monkeypatch):
        clear_memo()
        runs = []
        run = exp._run_mlp_study
        monkeypatch.setattr(exp, "_run_mlp_study", lambda study: runs.append(study) or run(study))
        memoized = exp._mlp_study(SMALL_STUDY)
        with memo_disabled():
            assert exp._mlp_study(SMALL_STUDY) == memoized
            assert exp._mlp_study(SMALL_STUDY) == memoized
        assert len(runs) == 3
        stats = memo_stats()["evaluations"]
        assert (stats["hits"], stats["misses"], stats["stores"]) == (0, 1, 1)


class TestAcceleratorExperiments:
    @pytest.fixture(scope="class")
    def fig12(self, small_suite):
        return exp.figure12_speedup(models=["ResNet-50", "ViT-Small"], suite=small_suite)

    def test_figure12_orderings(self, fig12):
        geomean = [row for row in fig12["rows"] if row["model"] == "Geomean"][0]
        assert geomean["Stripes"] == pytest.approx(1.0)
        assert geomean["BitVert (moderate)"] > geomean["BitVert (conservative)"]
        assert geomean["BitVert (conservative)"] > geomean["BitWave"]
        assert geomean["BitWave"] > geomean["Bitlet"] > 1.0
        assert 2.0 < geomean["BitVert (moderate)"] < 3.6

    def test_figure13_energy_orderings(self, fig12, small_suite):
        result = exp.figure13_energy(
            models=["ResNet-50", "ViT-Small"], suite=small_suite, results=fig12["results"]
        )
        geomeans = {
            row["accelerator"]: row["norm_energy"]
            for row in result["rows"]
            if row["model"] == "Geomean"
        }
        assert geomeans["SparTen"] == pytest.approx(1.0)
        assert geomeans["BitVert (moderate)"] < geomeans["BitWave"] < 1.0
        assert geomeans["BitWave"] < geomeans["Stripes"]

    def test_figure14_load_balance(self, small_suite):
        result = exp.figure14_load_balance(
            models=["ResNet-50"], column_counts=(2, 32), suite=small_suite
        )
        by_columns = {row["pe_columns"]: row for row in result["rows"]}
        # Unstructured schemes lose speedup at higher parallelism; BitVert
        # remains the fastest at every width.
        assert by_columns[32]["Bitlet"] <= by_columns[2]["Bitlet"] + 1e-9
        assert by_columns[32]["Pragmatic"] <= by_columns[2]["Pragmatic"] + 1e-9
        for columns in (2, 32):
            row = by_columns[columns]
            assert row["BitVert"] > row["BitWave"] > 0
            assert row["BitVert"] > row["Pragmatic"]

    def test_figure15_breakdown(self, small_suite):
        result = exp.figure15_stall_breakdown(
            models=["ResNet-50"], column_counts=(32,), suite=small_suite
        )
        by_accel = {row["accelerator"]: row for row in result["rows"]}
        for row in result["rows"]:
            assert row["useful"] + row["intra_pe_stall"] + row["inter_pe_stall"] == pytest.approx(1.0)
        assert by_accel["BitVert"]["useful"] > by_accel["BitWave"]["useful"]
        assert by_accel["BitVert"]["inter_pe_stall"] <= by_accel["Bitlet"]["inter_pe_stall"]


class TestHardwareTables:
    def test_table4_design_space(self):
        rows = exp.table4_pe_design_space()["rows"]
        by_config = {(row["sub_group"], row["optimized"]): row for row in rows}
        assert by_config[(8, True)]["model_area_um2"] == min(
            row["model_area_um2"] for row in rows
        )
        assert len(rows) == 6

    def test_table5_comparison(self):
        rows = exp.table5_pe_comparison()["rows"]
        by_name = {row["accelerator"]: row for row in rows}
        assert by_name["Bitlet"]["model_area_ratio"] > 2.5
        assert by_name["Stripes"]["model_area_ratio"] == pytest.approx(1.0)
        assert by_name["Bitlet"]["model_area_um2"] > by_name["Pragmatic"]["model_area_um2"]
        assert by_name["Stripes"]["model_area_um2"] < by_name["BitVert"]["model_area_um2"]

    def test_table6_perf_per_area(self):
        rows = exp.table6_olive_pe()["rows"]
        bitvert = [row for row in rows if row["pe"].startswith("BitVert")][0]
        assert bitvert["norm_perf"] == pytest.approx(4.0)
        assert bitvert["norm_perf_per_area"] > 1.2


class TestParetoAndLlm:
    def test_figure16_bitvert_on_pareto(self, small_suite):
        result = exp.figure16_pareto(suite=small_suite)
        rows = result["rows"]
        bitvert_rows = [row for row in rows if row["design"].startswith("BitVert")]
        others = [row for row in rows if not row["design"].startswith("BitVert")]
        best_other_edp = min(row["norm_edp"] for row in others)
        # At least one BitVert configuration has both lower EDP than every
        # baseline and a small accuracy-loss proxy.
        assert any(row["norm_edp"] < best_other_edp for row in bitvert_rows)
        assert all(0.0 <= row["norm_edp"] <= 1.0 for row in rows)

    def test_figure17_llm_orderings(self):
        result = exp.figure17_llm()
        by_method = {row["method"]: row for row in result["rows"]}
        cons = by_method["BBS conservative (6.25 bits)"]
        mod = by_method["BBS moderate (4.25 bits)"]
        olive = by_method["Olive (4 bits)"]
        # Figure 17: conservative BBS is nearly lossless; moderate BBS beats
        # Olive at a similar footprint.
        assert cons["output_distortion"] < mod["output_distortion"]
        assert mod["output_distortion"] < olive["output_distortion"]
        assert np.isclose(mod["effective_bits"], 4.25)
