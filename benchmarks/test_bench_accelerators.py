"""Paper claims on the accelerator-level results, at evaluation scale.

Covers Figure 12 (speedup over Stripes), Figure 13 (energy normalized to
SparTen), Figure 14 (load balance vs PE columns), Figure 15 (stall breakdown),
Tables IV/V/VI (PE area/power), Figure 16 (EDP-accuracy Pareto) and Figure 17
(LLM weight compression).  The simulations run on the evaluation suite
(128 channels, reduction 1024) over more models than
``tests/test_experiments.py`` uses: three for the speedup and energy sweeps,
each experiment's defaults elsewhere (``repro all`` without ``--fast`` sweeps
all seven).  Timing is ``perfbench``'s job, not these tests'.
"""

from __future__ import annotations

import pytest

from repro.eval import experiments as exp
from repro.eval.benchmarks import BenchmarkSuite
from repro.eval.reporting import format_table

#: One CNN, one vision transformer and one language model.
SWEEP_MODELS = ["ResNet-50", "ViT-Small", "BERT-MRPC"]


@pytest.fixture(scope="module")
def suite() -> BenchmarkSuite:
    return BenchmarkSuite(seed=0, max_channels=128, max_reduction=1024)


@pytest.fixture(scope="module")
def sweep_results(suite):
    """Figure 12 results shared with the Figure 13 check."""
    return exp.figure12_speedup(models=SWEEP_MODELS, suite=suite)


def test_figure12_speedup(sweep_results):
    print()
    print(sweep_results["table"])
    geomean = [row for row in sweep_results["rows"] if row["model"] == "Geomean"][0]
    assert geomean["BitVert (moderate)"] > geomean["BitVert (conservative)"]
    assert geomean["BitVert (conservative)"] > geomean["BitWave"] > 1.0
    assert geomean["BitVert (moderate)"] > 2.0


def test_figure13_energy(suite, sweep_results):
    result = exp.figure13_energy(
        models=SWEEP_MODELS, suite=suite, results=sweep_results["results"]
    )
    print()
    geomeans = [row for row in result["rows"] if row["model"] == "Geomean"]
    print(format_table(geomeans, title="Figure 13 (geomean, normalized to SparTen)"))
    by_accel = {row["accelerator"]: row["norm_energy"] for row in geomeans}
    assert by_accel["SparTen"] == pytest.approx(1.0)
    assert by_accel["BitVert (moderate)"] < by_accel["BitWave"] < by_accel["Stripes"]


def test_figure14_load_balance(suite):
    result = exp.figure14_load_balance(suite=suite)
    print()
    print(result["table"])
    for model in {row["model"] for row in result["rows"]}:
        subset = sorted(
            (row for row in result["rows"] if row["model"] == model),
            key=lambda row: row["pe_columns"],
        )
        # Unstructured designs lose speedup with more PE columns; BitVert wins everywhere.
        assert subset[-1]["Bitlet"] <= subset[0]["Bitlet"] + 1e-9
        assert subset[-1]["Pragmatic"] <= subset[0]["Pragmatic"] + 1e-9
        for row in subset:
            assert row["BitVert"] >= row["BitWave"]


def test_figure15_stall_breakdown(suite):
    result = exp.figure15_stall_breakdown(suite=suite)
    print()
    print(result["table"])
    for model in {row["model"] for row in result["rows"]}:
        for columns in {row["pe_columns"] for row in result["rows"]}:
            subset = {
                row["accelerator"]: row
                for row in result["rows"]
                if row["model"] == model and row["pe_columns"] == columns
            }
            assert subset["BitVert"]["useful"] >= subset["BitWave"]["useful"]


def test_table4_pe_design_space():
    result = exp.table4_pe_design_space()
    print()
    print(result["table"])
    areas = {
        (row["sub_group"], row["optimized"]): row["model_area_um2"] for row in result["rows"]
    }
    assert min(areas, key=areas.get) == (8, True)


def test_table5_pe_comparison():
    result = exp.table5_pe_comparison()
    print()
    print(result["table"])
    by_name = {row["accelerator"]: row for row in result["rows"]}
    assert by_name["Bitlet"]["model_area_um2"] > by_name["Pragmatic"]["model_area_um2"]
    assert by_name["Stripes"]["model_area_um2"] < by_name["BitVert"]["model_area_um2"]


def test_table6_olive_pe():
    result = exp.table6_olive_pe()
    print()
    print(result["table"])
    bitvert = [row for row in result["rows"] if row["pe"].startswith("BitVert")][0]
    assert bitvert["norm_perf_per_area"] > 1.2


def test_figure16_pareto(suite):
    result = exp.figure16_pareto(suite=suite)
    print()
    print(result["table"])
    bitvert_rows = [row for row in result["rows"] if row["design"].startswith("BitVert")]
    others = [row for row in result["rows"] if not row["design"].startswith("BitVert")]
    assert any(
        row["norm_edp"] < min(other["norm_edp"] for other in others) for row in bitvert_rows
    )


def test_figure17_llm():
    result = exp.figure17_llm()
    print()
    print(result["table"])
    by_method = {row["method"]: row for row in result["rows"]}
    assert (
        by_method["BBS moderate (4.25 bits)"]["output_distortion"]
        < by_method["Olive (4 bits)"]["output_distortion"]
    )
