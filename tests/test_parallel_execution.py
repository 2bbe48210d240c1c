"""Tests for the process-pool execution paths added in PR 2.

Covers the three fan-out layers: ``BenchmarkSuite.performances`` with
``jobs > 1``, the experiment-table tasks behind ``repro all --jobs``, and the
service worker pool's process mode.  Every parallel path must produce results
identical to its serial counterpart — all workloads are deterministic in
their inputs.
"""

from __future__ import annotations

import pytest

from repro.eval.benchmarks import BenchmarkSuite, performance_summary
from repro.eval import EXPERIMENTS, json_payload, table1_models
from repro.eval.experiments import _costliest_first, _run_task, _tasks
from repro.service import JobState, WorkerPool, build_default_registry


SMALL = dict(seed=0, max_channels=32, max_reduction=128)


class TestSuiteProcessPool:
    def test_parallel_matches_serial(self):
        serial = BenchmarkSuite(**SMALL).performances(
            ["ResNet-50"], ["Stripes", "Bitlet"]
        )
        parallel = BenchmarkSuite(**SMALL, jobs=2).performances(
            ["ResNet-50"], ["Stripes", "Bitlet"]
        )
        assert serial.keys() == parallel.keys()
        for model in serial:
            assert serial[model].keys() == parallel[model].keys()
            for accel in serial[model]:
                assert performance_summary(serial[model][accel]) == pytest.approx(
                    performance_summary(parallel[model][accel])
                )

    def test_jobs_field_does_not_change_config_digest(self):
        assert (
            BenchmarkSuite(**SMALL).config_digest()
            == BenchmarkSuite(**SMALL, jobs=4).config_digest()
        )


class TestSuiteTasks:
    def test_task_lists_cover_every_experiment_once(self):
        tasks = _tasks()
        # Every experiment runs exactly once, in table order.
        assert [name for task in tasks for name in task] == list(EXPERIMENTS)
        assert len(EXPERIMENTS) == 16
        # The --jobs submission order covers every task, costliest first.
        order = _costliest_first(tasks)
        assert sorted(order) == sorted(tasks)
        costs = [sum(EXPERIMENTS[name].cost_s for name in task) for task in order]
        assert costs == sorted(costs, reverse=True)
        # Figure 13 reuses Figure 12's simulations, so the two share a task.
        assert ("figure12", "figure13") in tasks

    def test_standalone_task_matches_serial_payload(self):
        payload = _run_task(("table1",), fast=True, seed=0)
        assert payload == {"table1": json_payload(table1_models())}


class TestProcessWorkerPool:
    def test_process_pool_runs_and_caches_jobs(self):
        params = {"rows": 8, "cols": 64, "seed": 1}
        with WorkerPool(build_default_registry(), max_workers=2, use_processes=True) as pool:
            job = pool.run("prune_tensor", params, timeout=120)
            assert job.state is JobState.DONE, job.error
            assert job.result["shape"] == [8, 64]
            again = pool.run("prune_tensor", params, timeout=120)
            assert again.cache_hit
            assert again.result == job.result
            assert pool.stats()["worker_kind"] == "process"

    def test_process_pool_captures_failures(self):
        with WorkerPool(build_default_registry(), max_workers=1, use_processes=True) as pool:
            job = pool.run("prune_tensor", {"rows": -1}, timeout=120)
            assert job.state is JobState.FAILED
            assert "rows and cols must be positive" in job.error

    def test_thread_pool_reports_kind(self):
        with WorkerPool(build_default_registry(), max_workers=1) as pool:
            assert pool.stats()["worker_kind"] == "thread"
