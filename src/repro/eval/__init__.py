"""Experiment harness reproducing every table and figure of the evaluation."""

from . import ablations, experiments
from .ablations import run_all_ablations
from .benchmarks import ACCELERATOR_NAMES, BENCHMARK_MODEL_NAMES, BenchmarkSuite
from .experiments import (
    EXPERIMENTS,
    figure1_motivation,
    figure3_sparsity_comparison,
    figure6_kl_divergence,
    figure11_accuracy,
    figure12_speedup,
    figure13_energy,
    figure14_load_balance,
    figure15_stall_breakdown,
    figure16_pareto,
    figure17_llm,
    json_payload,
    run_all,
    run_experiment,
    table1_models,
    table2_ant_comparison,
    table3_ptq_comparison,
    table4_pe_design_space,
    table5_pe_comparison,
    table6_olive_pe,
)
from .reporting import format_table, geometric_mean

__all__ = [
    "ablations",
    "experiments",
    "run_all_ablations",
    "ACCELERATOR_NAMES",
    "BENCHMARK_MODEL_NAMES",
    "BenchmarkSuite",
    "EXPERIMENTS",
    "figure1_motivation",
    "figure3_sparsity_comparison",
    "figure6_kl_divergence",
    "figure11_accuracy",
    "figure12_speedup",
    "figure13_energy",
    "figure14_load_balance",
    "figure15_stall_breakdown",
    "figure16_pareto",
    "figure17_llm",
    "json_payload",
    "run_all",
    "run_experiment",
    "table1_models",
    "table2_ant_comparison",
    "table3_ptq_comparison",
    "table4_pe_design_space",
    "table5_pe_comparison",
    "table6_olive_pe",
    "format_table",
    "geometric_mean",
]
