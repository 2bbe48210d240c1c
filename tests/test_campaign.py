"""Campaign engine tests: spec expansion, resumable execution, aggregation.

The resume tests pin the PR's core guarantee: a campaign interrupted after N
of M cells and resumed produces an aggregate report *byte-identical* to an
uninterrupted run, while the already-checkpointed cells are never recomputed.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignRunError,
    CampaignRunner,
    CampaignSpecError,
    expand_spec,
    load_spec,
    parse_spec,
    report_csv,
    run_campaign,
)
from repro.eval.reporting import flatten_scalars, rows_to_csv, summarize_rows
from repro.service.registry import build_default_registry


#: Two tiny grids (4 + 2 = 6 cells, all sub-second) forming a two-stage DAG.
SPEC = {
    "name": "unit",
    "description": "tiny campaign for the unit tests",
    "grids": [
        {
            "name": "pruning",
            "scenario": "prune_tensor",
            "params": {"rows": 16, "cols": 64, "seed": 0, "group_size": 16},
            "sweep": {
                "num_columns": [2, 4],
                "strategy": ["rounded_average", "zero_point_shift"],
            },
        },
        {
            "name": "quant",
            "scenario": "quantize_tensor",
            "params": {"rows": 16, "cols": 64, "backend": "microscaling"},
            "sweep": {"bits": [4, 6]},
            "depends_on": ["pruning"],
        },
    ],
}


@pytest.fixture(scope="module")
def registry():
    return build_default_registry()


@pytest.fixture(scope="module")
def plan(registry):
    return expand_spec(parse_spec(SPEC), registry=registry)


# --------------------------------------------------------------------------- #
# Spec parsing and expansion
# --------------------------------------------------------------------------- #


class TestSpec:
    def test_expansion_is_deterministic(self, registry):
        spec = parse_spec(SPEC)
        first = expand_spec(spec, registry=registry)
        second = expand_spec(spec, registry=registry)
        assert [job.digest for job in first.jobs] == [job.digest for job in second.jobs]
        assert first.spec_digest() == second.spec_digest()

    def test_cell_count_and_order(self, plan):
        assert len(plan.jobs) == 6
        assert [job.cell for job in plan.jobs[:4]] == [
            "pruning/0", "pruning/1", "pruning/2", "pruning/3",
        ]
        # Axes sweep in sorted key order: num_columns is the outer axis.
        assert plan.jobs[0].params["num_columns"] == 2
        assert plan.jobs[2].params["num_columns"] == 4
        assert plan.stage_order == ("pruning", "quant")

    def test_params_canonicalized_against_registry_defaults(self, plan, registry):
        # Defaults (e.g. beta/scale for prune_tensor) are folded in before
        # hashing, exactly like WorkerPool.submit canonicalizes jobs.
        job = plan.jobs[0]
        defaults = registry.get("prune_tensor").defaults
        assert set(defaults) <= set(job.params)

    def test_shards_partition_every_grid(self, plan):
        shards = [plan.shard(i, 3) for i in range(3)]
        digests = [d for shard in shards for d in (j.digest for j in shard.jobs)]
        assert sorted(digests) == sorted(job.digest for job in plan.jobs)
        for shard in shards:  # round-robin per grid, not over the flat list
            assert any(job.grid == "pruning" for job in shard.jobs)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda s: s.pop("grids"), "non-empty 'grids'"),
            (lambda s: s["grids"][0].pop("scenario"), "scenario"),
            (lambda s: s["grids"][0]["sweep"].update(num_columns=[]), "non-empty list"),
            (lambda s: s["grids"][0]["params"].update(num_columns=2), "both fixed"),
            (lambda s: s["grids"][1].update(depends_on=["nope"]), "unknown grid"),
            (lambda s: s["grids"][1].update(name="pruning"), "duplicate grid names"),
            (lambda s: s["grids"][0].update(scenario="campaign"), "nested"),
            (lambda s: s["grids"][0].update(typo=1), "unknown field"),
        ],
    )
    def test_malformed_specs_fail_loudly(self, mutate, match):
        raw = json.loads(json.dumps(SPEC))
        mutate(raw)
        with pytest.raises(CampaignSpecError, match=match):
            parse_spec(raw)

    def test_path_escaping_spec_names_are_rejected(self):
        # The name seeds the default run-dir path (runs/<name>-<digest>).
        for bad in ("../../tmp/x", "a/b", ".hidden", ""):
            raw = json.loads(json.dumps(SPEC))
            raw["name"] = bad
            with pytest.raises(CampaignSpecError, match="name"):
                parse_spec(raw)

    def test_dependency_cycles_are_rejected(self):
        raw = json.loads(json.dumps(SPEC))
        raw["grids"][0]["depends_on"] = ["quant"]
        with pytest.raises(CampaignSpecError, match="cycle"):
            parse_spec(raw)

    def test_unknown_scenario_and_param_rejected_at_expansion(self, registry):
        raw = json.loads(json.dumps(SPEC))
        raw["grids"][0]["scenario"] = "no_such_scenario"
        with pytest.raises(CampaignSpecError, match="no_such_scenario"):
            expand_spec(parse_spec(raw), registry=registry)
        raw = json.loads(json.dumps(SPEC))
        raw["grids"][0]["params"]["not_a_param"] = 1
        with pytest.raises(CampaignSpecError, match="not_a_param"):
            expand_spec(parse_spec(raw), registry=registry)

    def test_example_specs_are_valid(self, registry):
        for name in (
            "campaign_smoke.json",
            "campaign_quant_backends.json",
            "campaign_accelerator_sweep.json",
        ):
            plan = expand_spec(load_spec(f"examples/{name}"), registry=registry)
            assert len(plan.jobs) > 0


# --------------------------------------------------------------------------- #
# Aggregation helpers
# --------------------------------------------------------------------------- #


class TestAggregationHelpers:
    def test_flatten_scalars(self):
        flat = flatten_scalars({"a": {"b": [1, 2]}, "c": None, "d": 1.5})
        assert flat == {"a.b.0": 1, "a.b.1": 2, "c": None, "d": 1.5}

    def test_rows_to_csv_aligns_heterogeneous_rows(self):
        text = rows_to_csv([{"a": 1, "b": "x,y"}, {"b": 'say "hi"', "c": 2}])
        lines = text.splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == '1,"x,y",'
        assert lines[2] == ',"say ""hi""",2'

    def test_summarize_rows_skips_non_numeric_and_bools(self):
        summary = summarize_rows([{"x": 1.0, "ok": True, "s": "t"}, {"x": 3.0}])
        assert summary == {"x": {"count": 2, "min": 1.0, "mean": 2.0, "max": 3.0}}

    def test_rows_to_csv_round_trips_awkward_values(self):
        # Commas, embedded newlines, bare carriage returns, quotes, and None
        # must all survive csv.reader round-tripping.  The bare "\r" case is
        # the regression: with lineterminator="\n" the minimal-quoting writer
        # left it unquoted, producing CSV csv.reader refuses to parse.
        import csv
        import io

        rows = [
            {"a": "x,y", "b": "line1\nline2", "c": "cr\rhere", "d": 'say "hi"'},
            {"a": None, "b": 0.5, "c": "", "d": "plain"},
        ]
        text = rows_to_csv(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["a", "b", "c", "d"]
        assert parsed[1] == ["x,y", "line1\nline2", "cr\rhere", 'say "hi"']
        assert parsed[2] == ["", "0.5", "", "plain"]

    def test_rows_to_csv_plain_rows_are_unchanged(self):
        # The "\r" fallback must not alter the bytes of ordinary reports.
        assert rows_to_csv([{"a": 1, "b": "x"}]) == "a,b\n1,x\n"

    def test_report_csv_round_trips_awkward_metric_values(self):
        # Through the campaign report path: a cell whose result carries
        # awkward strings still yields report.csv that csv.reader can parse.
        import csv
        import io

        report = {
            "cells": [
                {
                    "cell": "g/0",
                    "grid": "g",
                    "scenario": "s",
                    "digest": "d0",
                    "params": {"label": "a,b"},
                    "result": {"note": 'x\nand "more"\rtext', "mse": None},
                }
            ]
        }
        parsed = list(csv.reader(io.StringIO(report_csv(report))))
        record = dict(zip(parsed[0], parsed[1], strict=True))
        assert record["params.label"] == "a,b"
        assert record["result.note"] == 'x\nand "more"\rtext'
        assert record["result.mse"] == ""


# --------------------------------------------------------------------------- #
# Execution, checkpointing, resume
# --------------------------------------------------------------------------- #


def run_full(tmp_path, name, **kwargs):
    runner = CampaignRunner(parse_spec(SPEC), tmp_path / name, **kwargs)
    runner.run()
    return runner


class TestRunner:
    def test_full_run_writes_report_and_checkpoints(self, tmp_path):
        runner = run_full(tmp_path, "full", jobs=2)
        stats = runner.stats
        assert stats["executed"] == 6 and stats["report_written"]
        assert len(list((runner.run_dir / "results").glob("*.json"))) == 6
        report = json.loads((runner.run_dir / "report.json").read_text())
        assert report["total_cells"] == 6
        assert [cell["cell"] for cell in report["cells"]][:2] == ["pruning/0", "pruning/1"]
        # Every cell carries its provenance digest and it matches the plan.
        by_cell = {job.cell: job.digest for job in runner.plan.jobs}
        for cell in report["cells"]:
            assert cell["digest"] == by_cell[cell["cell"]]
        csv_text = (runner.run_dir / "report.csv").read_text()
        assert csv_text == report_csv(report)
        assert len(csv_text.splitlines()) == 7  # header + 6 cells

    def test_interrupt_resume_is_byte_identical_and_skips_completed(self, tmp_path):
        reference = run_full(tmp_path, "reference", jobs=1)

        interrupted = CampaignRunner(parse_spec(SPEC), tmp_path / "resumed", max_jobs=4)
        stats = interrupted.run()
        assert stats["interrupted"] and stats["executed"] == 4
        assert not (tmp_path / "resumed" / "report.json").exists()

        resumed = CampaignRunner.resume(tmp_path / "resumed", jobs=2)
        stats = resumed.run()
        # The 4 checkpointed cells are skipped, only the remaining 2 run.
        assert stats["executed"] == 2
        assert stats["skipped_checkpointed"] == 4
        assert stats["pool"]["executed"] == 2  # worker pool never saw the rest
        assert stats["report_written"]

        assert (
            (tmp_path / "resumed" / "report.json").read_bytes()
            == (reference.run_dir / "report.json").read_bytes()
        )
        assert (
            (tmp_path / "resumed" / "report.csv").read_bytes()
            == (reference.run_dir / "report.csv").read_bytes()
        )

    def test_resume_over_indented_checkpoints_is_byte_identical(self, tmp_path):
        reference = run_full(tmp_path, "reference", jobs=1)
        interrupted = CampaignRunner(parse_spec(SPEC), tmp_path / "resumed", max_jobs=4)
        interrupted.run()
        checkpoints = sorted((tmp_path / "resumed" / "results").glob("*.json"))
        assert len(checkpoints) == 4
        for path in checkpoints:
            text = path.read_text()
            assert text.count("\n") == 1  # written compact, one line
            # Rewrite as earlier versions did: indented.
            indented = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            path.write_text(indented)

        stats = CampaignRunner.resume(tmp_path / "resumed", jobs=2).run()
        assert stats["executed"] == 2 and stats["skipped_checkpointed"] == 4
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "resumed" / name).read_bytes() == (
                reference.run_dir / name
            ).read_bytes()

    def test_resume_on_complete_run_recomputes_nothing(self, tmp_path):
        runner = run_full(tmp_path, "noop", jobs=1)
        again = CampaignRunner.resume(runner.run_dir)
        stats = again.run()
        assert stats["executed"] == 0
        assert stats["skipped_checkpointed"] == 6
        assert stats["pool"]["executed"] == 0

    def test_sharded_runs_combine_into_identical_report(self, tmp_path):
        reference = run_full(tmp_path, "unsharded")
        spec = parse_spec(SPEC)
        for index in range(2):
            CampaignRunner(
                spec, tmp_path / "sharded", shard_index=index, shard_count=2
            ).run()
        assert (
            (tmp_path / "sharded" / "report.json").read_bytes()
            == (reference.run_dir / "report.json").read_bytes()
        )

    def test_changed_spec_in_same_run_dir_is_rejected(self, tmp_path):
        runner = run_full(tmp_path, "dir")
        changed = json.loads(json.dumps(SPEC))
        changed["grids"][0]["params"]["seed"] = 99
        with pytest.raises(CampaignSpecError, match="different campaign"):
            CampaignRunner(parse_spec(changed), runner.run_dir).run()

    def test_failed_cells_raise_but_keep_checkpoints(self, tmp_path):
        raw = json.loads(json.dumps(SPEC))
        # rows=-1 makes every cell of the second grid fail validation.
        raw["grids"][1]["params"]["rows"] = -1
        runner = CampaignRunner(parse_spec(raw), tmp_path / "failing")
        with pytest.raises(CampaignRunError, match="campaign cell"):
            runner.run()
        assert runner.stats["failed"] == 2
        # The healthy first grid is fully checkpointed for a later resume.
        assert len(list((runner.run_dir / "results").glob("*.json"))) == 4

    def test_dependent_grid_waits_for_failed_dependency(self, tmp_path):
        raw = json.loads(json.dumps(SPEC))
        raw["grids"][0]["params"]["rows"] = -1  # first grid fails
        runner = CampaignRunner(parse_spec(raw), tmp_path / "dep")
        with pytest.raises(CampaignRunError):
            runner.run()
        # The dependent quant grid never dispatched.
        assert runner.stats["executed"] == 0
        assert len(list((runner.run_dir / "results").glob("*.json"))) == 0


class TestWalk:
    """The one grid walk, driven by a stub executor: no pool, no HTTP."""

    @staticmethod
    def stub(runner, calls, failing=()):
        def run_grid(grid_name, pending):
            calls.append((grid_name, [job.cell for job in pending]))
            failures = []
            for job in pending:
                if grid_name in failing:
                    failures.append((job, "stub failure"))
                else:
                    runner.checkpoint(job, {"cell": job.cell})
            return failures

        return run_grid

    def test_max_jobs_cut_then_second_walk_skips_checkpoints(self, tmp_path):
        runner = CampaignRunner(parse_spec(SPEC), tmp_path / "walk")
        runner.prepare_run_dir()
        calls = []
        stats, failures = runner.walk(runner.plan, self.stub(runner, calls), max_jobs=3)
        assert calls == [("pruning", ["pruning/0", "pruning/1", "pruning/2"])]
        assert stats["executed"] == 3 and stats["interrupted"]
        assert not stats["report_written"] and not failures

        calls.clear()
        stats, failures = runner.walk(runner.plan, self.stub(runner, calls))
        assert calls == [("pruning", ["pruning/3"]), ("quant", ["quant/0", "quant/1"])]
        assert stats["skipped_checkpointed"] == 3 and stats["executed"] == 3
        assert not stats["interrupted"] and stats["report_written"]
        assert (runner.run_dir / "report.json").is_file()

    def test_failed_grid_keeps_its_dependents_pending(self, tmp_path):
        runner = CampaignRunner(parse_spec(SPEC), tmp_path / "walk")
        runner.prepare_run_dir()
        calls = []
        stats, failures = runner.walk(
            runner.plan, self.stub(runner, calls, failing={"pruning"})
        )
        assert [grid for grid, _ in calls] == ["pruning"]
        assert stats["failed"] == len(failures) == 4 and stats["executed"] == 0
        assert not stats["report_written"]
        with pytest.raises(CampaignRunError, match="4 campaign cell"):
            runner.finish(stats, failures)
        assert json.loads((runner.run_dir / "state.json").read_text())["failed"] == 4


# --------------------------------------------------------------------------- #
# Service and registry integration
# --------------------------------------------------------------------------- #


class TestCampaignScenario:
    def test_registry_campaign_scenario_returns_report(self, registry):
        report = registry.run("campaign", {"spec": SPEC})
        assert report["campaign"] == "unit"
        assert report["total_cells"] == 6
        json.dumps(report, allow_nan=False)  # strict JSON

    def test_run_campaign_matches_runner_output(self, tmp_path, registry):
        report = run_campaign(SPEC, jobs=2)
        runner = run_full(tmp_path, "cmp")
        assert report == runner.build_report()

    def test_registry_campaign_rejects_non_dict_spec(self, registry):
        with pytest.raises(ValueError, match="spec"):
            registry.run("campaign", {"spec": "not-a-dict"})

    def test_quantize_tensor_backends_report_uniform_metrics(self, registry):
        for backend in ("ant", "bitflip", "microscaling", "noisyquant", "olive", "ptq"):
            result = registry.run(
                "quantize_tensor", {"backend": backend, "rows": 16, "cols": 64}
            )
            assert result["backend"] == backend
            assert result["mse"] >= 0.0
            assert result["effective_bits"] > 0.0

    def test_quantize_tensor_bitflip_respects_word_width(self, registry):
        # The swept 'bits' axis must change the bitflip computation, not just
        # the report label (it sets the PTQ word width being column-pruned).
        params = {"backend": "bitflip", "rows": 16, "cols": 64, "num_columns": 2}
        narrow = registry.run("quantize_tensor", {**params, "bits": 4})
        wide = registry.run("quantize_tensor", {**params, "bits": 8})
        assert narrow["effective_bits"] < wide["effective_bits"]
        assert narrow["mse"] != wide["mse"]

    def test_quantize_tensor_rejects_bad_inputs(self, registry):
        with pytest.raises(ValueError, match="backend"):
            registry.run("quantize_tensor", {"backend": "fp4"})
        with pytest.raises(ValueError, match="scale"):
            registry.run("quantize_tensor", {"scale": 0.0})


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


class TestCampaignCli:
    def test_run_interrupt_resume_report_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        run_dir = tmp_path / "run"

        assert main([
            "campaign", "run", str(spec_path),
            "--run-dir", str(run_dir), "--max-jobs", "3",
        ]) == 0
        assert "resume" in capsys.readouterr().out

        assert main(["campaign", "resume", str(run_dir), "--jobs", "2"]) == 0
        assert "report" in capsys.readouterr().out

        assert main(["campaign", "report", str(run_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_cells"] == 6

    def test_report_on_incomplete_run_fails(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        run_dir = tmp_path / "partial"
        assert main([
            "campaign", "run", str(spec_path),
            "--run-dir", str(run_dir), "--max-jobs", "1",
        ]) == 0
        assert main(["campaign", "report", str(run_dir)]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_bad_spec_path_is_an_error_not_a_traceback(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["campaign", "run", str(tmp_path / "missing.json")]) == 1
        assert "error" in capsys.readouterr().err
