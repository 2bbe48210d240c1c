"""Campaign execution: sharded runs over the worker pool, with checkpoints.

A campaign run owns a *run directory*::

    <run_dir>/
      spec.json            # the campaign spec, verbatim (resume re-reads it)
      manifest.json        # the expanded plan: every cell + its digest
      results/<digest>.json  # one checkpoint per completed job
      state.json           # last run's wall-clock stats (not part of the report)
      report.json          # aggregate report (written once all cells exist)
      report.csv           # the same cells as one rectangular table

:meth:`CampaignRunner.walk` is the one grid walk, shared by local and
dispatched runs: it visits the grid DAG in topological order, leaves the
dependents of a failed grid pending, applies the ``max_jobs`` budget, and
writes the report once the manifest is checkpointed.  Executing a grid's
cells is the executor's job.  The local executor (:meth:`CampaignRunner.run`)
ships them to the worker threads of a :class:`repro.service.workers.WorkerPool`
— so a campaign is sharded across workers exactly like service traffic, and
identical cells inside one run collapse onto a single computation through
the pool's content-hash :class:`~repro.core.cache.ResultCache`.  The endpoint
executor lives in :mod:`repro.campaign.dispatch`.

Checkpoints make runs resumable: a cell whose ``results/<digest>.json``
already exists is never recomputed — killing a campaign after N of M jobs
and resuming runs exactly ``M - N`` jobs, and because the report is built
only from the manifest order and the checkpoint payloads, the resumed
aggregate is byte-identical to an uninterrupted run.  Multi-machine sharding
uses the same mechanism: ``shard 2/4`` runs every grid's cells with
``index % 4 == 2`` into a shared run directory, and the report is written by
whichever shard completes the manifest last (or by ``repro campaign report``).
Concurrent shard processes into one run directory are also how one machine
puts more cores on a campaign; ``repro campaign dispatch --nodes`` spreads it
over nodes.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from ..eval.reporting import to_jsonable
from ..obs import trace as obs_trace
from ..obs.timing import timed
from .report import build_report, report_csv, serialize_report
from .spec import (
    CampaignJob,
    CampaignPlan,
    CampaignSpec,
    CampaignSpecError,
    expand_spec,
    load_spec,
    parse_spec,
)

__all__ = ["CampaignRunError", "CampaignRunner", "job_timing", "run_campaign"]


def job_timing(pool_job) -> dict:
    """Per-cell timing provenance from a finished pool job.

    Becomes the checkpoint's ``"timing"`` block: wall clock (submit to
    finish), the queue/run split, the worker that executed the cell, and
    whether it was served from cache.  Consumed by
    :func:`repro.obs.summary.summarize_run_dir`; never part of reports.
    """
    wall = None
    if pool_job.finished_at is not None and pool_job.submitted_at is not None:
        wall = max(pool_job.finished_at - pool_job.submitted_at, 0.0)
    return {
        "wall_seconds": wall,
        "queue_seconds": pool_job.queue_seconds,
        "run_seconds": pool_job.run_seconds,
        "worker": pool_job.worker,
        "cache_hit": pool_job.cache_hit,
    }


class CampaignRunError(RuntimeError):
    """One or more campaign cells failed; the run directory keeps the rest."""

    def __init__(self, failures: list[tuple[CampaignJob, str]]):
        self.failures = failures
        summary = ", ".join(job.cell for job, _ in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        super().__init__(
            f"{len(failures)} campaign cell(s) failed: {summary}{more}; "
            "completed cells are checkpointed — fix and `repro campaign resume`"
        )


def _write_atomic(path: Path, text: str) -> None:
    """Write via a same-directory temp file + rename so readers never see
    a torn checkpoint (a killed run leaves either no file or a whole one)."""
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class CampaignRunner:
    """Execute (or resume) one campaign into a run directory."""

    def __init__(
        self,
        spec: CampaignSpec,
        run_dir: str | Path,
        jobs: int = 1,
        shard_index: int = 0,
        shard_count: int = 1,
        max_jobs: int | None = None,
        registry=None,
        ingest_db: str | Path | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_jobs is not None and max_jobs < 0:
            raise ValueError("max_jobs must be >= 0")
        self.spec = spec
        self.run_dir = Path(run_dir)
        #: Warehouse database to auto-ingest into when the report is written
        #: (``repro campaign run --ingest DB``); ``None`` disables.
        self.ingest_db = ingest_db
        self.jobs = jobs
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.max_jobs = max_jobs
        if registry is None:
            from ..service.registry import build_default_registry

            registry = build_default_registry()
        self.registry = registry
        self.plan = expand_spec(spec, registry=registry)
        self.stats: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def resume(cls, run_dir: str | Path, **kwargs) -> "CampaignRunner":
        """Rebuild a runner from a run directory's own ``spec.json``."""
        run_dir = Path(run_dir)
        spec_path = run_dir / "spec.json"
        if not spec_path.is_file():
            raise CampaignSpecError(
                f"{run_dir} is not a campaign run directory (no spec.json)"
            )
        return cls(load_spec(spec_path), run_dir, **kwargs)

    # ------------------------------------------------------------------ #
    # Run-directory layout
    # ------------------------------------------------------------------ #

    @property
    def results_dir(self) -> Path:
        return self.run_dir / "results"

    def _result_path(self, digest: str) -> Path:
        return self.results_dir / f"{digest}.json"

    def completed_digests(self) -> set[str]:
        """Digests of every checkpointed cell currently in the run directory."""
        wanted = {job.digest for job in self.plan.jobs}
        return {
            path.stem
            for path in self.results_dir.glob("*.json")
            if path.stem in wanted
        }

    def load_results(self) -> dict[str, Any]:
        """Read every checkpoint payload, keyed by digest."""
        results: dict[str, Any] = {}
        for digest in self.completed_digests():
            with open(self._result_path(digest)) as stream:
                results[digest] = json.load(stream)["result"]
        return results

    def prepare_run_dir(self) -> None:
        """Create the run directory, pin ``spec.json``, write the manifest.

        Shared by local execution (:meth:`run`) and the federated dispatcher
        (:mod:`repro.campaign.dispatch`), so both produce identical layouts.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(exist_ok=True)
        spec_path = self.run_dir / "spec.json"
        canonical = self.spec.canonical()
        if spec_path.is_file():
            existing = parse_spec(json.loads(spec_path.read_text()))
            if existing.digest() != self.spec.digest():
                raise CampaignSpecError(
                    f"{spec_path} holds a different campaign "
                    f"({existing.name!r}, digest {existing.digest()[:12]}...); "
                    "use a fresh --run-dir for a changed spec"
                )
        else:
            _write_atomic(spec_path, json.dumps(canonical, indent=2, sort_keys=True) + "\n")
        manifest = {
            "campaign": self.spec.name,
            "spec_digest": self.plan.spec_digest(),
            "stage_order": list(self.plan.stage_order),
            "total_cells": len(self.plan.jobs),
            "cells": [
                {
                    "cell": job.cell,
                    "grid": job.grid,
                    "scenario": job.scenario,
                    "params": to_jsonable(job.params),
                    "digest": job.digest,
                }
                for job in self.plan.jobs
            ],
        }
        _write_atomic(
            self.run_dir / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> dict:
        """Execute every pending cell of this shard; return the run stats.

        When the whole manifest (all shards) is checkpointed afterwards, the
        aggregate ``report.json``/``report.csv`` are (re)written as well and
        the returned stats carry ``"report_written": True``.
        """
        from ..core.cache import ResultCache
        from ..service.jobs import JobState
        from ..service.workers import WorkerPool

        # The root span makes this run one trace: pool.submit captures the
        # active context, so every cell's job.run (and its codec spans)
        # nests under campaign.run.
        with timed("campaign.run") as timer, obs_trace.span(
            "campaign.run",
            attrs={"campaign": self.spec.name, "run_dir": str(self.run_dir)},
        ):
            self.prepare_run_dir()
            shard_plan = self.plan.shard(self.shard_index, self.shard_count)
            pool = WorkerPool(
                self.registry,
                cache=ResultCache(max_entries=max(256, len(shard_plan.jobs))),
                max_workers=self.jobs,
            )

            def run_grid(grid_name: str, pending: list[CampaignJob]) -> list:
                # One grid is a barrier (its cells may be another grid's
                # dependency); inside it, cells fan out across the pool.
                in_flight = [
                    (job, pool.submit(job.scenario, job.params, deadline_s=self.spec.deadline_s))
                    for job in pending
                ]
                failures = []
                for job, pool_job in in_flight:
                    pool_job.wait()
                    if pool_job.state is JobState.FAILED:
                        failures.append((job, pool_job.error or "unknown error"))
                    else:
                        self.checkpoint(job, pool_job.result, timing=job_timing(pool_job))
                return failures

            try:
                stats, failures = self.walk(shard_plan, run_grid, self.max_jobs)
            finally:
                pool.shutdown()

        self.stats = {
            **stats,
            "shard": {"index": self.shard_index, "count": self.shard_count},
            "shard_cells": len(shard_plan.jobs),
            "elapsed_seconds": timer.seconds,
            "pool": pool.stats(),
        }
        return self.finish(self.stats, failures)

    def walk(
        self,
        plan: CampaignPlan,
        run_grid: Callable[[str, list[CampaignJob]], list[tuple[CampaignJob, str]]],
        max_jobs: int | None = None,
    ) -> tuple[dict, list[tuple[CampaignJob, str]]]:
        """Walk ``plan``'s grid DAG; return the common stats and the failures.

        Grids run in topological order, each through ``run_grid(grid_name,
        pending)``: the executor runs the grid's un-checkpointed cells,
        checkpoints each success through :meth:`checkpoint`, and returns the
        failed ``(job, error)`` pairs.  A grid depending on a failed grid
        stays pending.  ``max_jobs`` caps the cells handed out; a run that
        stops at the cap with cells left is ``interrupted``.  Once the whole
        manifest is checkpointed the report is (re)written.
        """
        grids = {grid.name: grid for grid in self.spec.grids}
        completed = self.completed_digests()
        failures: list[tuple[CampaignJob, str]] = []
        failed_grids: set[str] = set()
        executed = skipped = 0
        interrupted = False
        for grid_name in plan.stage_order:
            if any(dep in failed_grids for dep in grids[grid_name].depends_on):
                failed_grids.add(grid_name)  # dependents of failures stay pending
                continue
            grid_jobs = plan.jobs_for_grid(grid_name)
            pending = [job for job in grid_jobs if job.digest not in completed]
            skipped += len(grid_jobs) - len(pending)
            if max_jobs is not None:
                pending = pending[:max_jobs]
                max_jobs -= len(pending)
            grid_failures = run_grid(grid_name, pending)
            failures += grid_failures
            failed = {job.cell for job, _ in grid_failures}
            if failed:
                failed_grids.add(grid_name)
            done = [job for job in pending if job.cell not in failed]
            executed += len(done)
            completed.update(job.digest for job in done)
            if max_jobs == 0 and any(job.digest not in completed for job in plan.jobs):
                interrupted = True
                break

        report_written = False
        if not failures and not interrupted:
            # Re-glob rather than trusting the start-of-run snapshot: in a
            # shared run directory other shards may have checkpointed cells
            # while this one executed, and the last finisher must notice.
            completed = self.completed_digests()
            if all(job.digest in completed for job in self.plan.jobs):
                self.write_report()
                report_written = True
        stats = {
            "campaign": self.spec.name,
            "spec_digest": self.plan.spec_digest(),
            "run_dir": str(self.run_dir),
            "total_cells": len(self.plan.jobs),
            "executed": executed,
            "skipped_checkpointed": skipped,
            "failed": len(failures),
            "interrupted": interrupted,
            "report_written": report_written,
        }
        return stats, failures

    def finish(self, stats: dict, failures: list[tuple[CampaignJob, str]]) -> dict:
        """Persist ``stats`` as ``state.json``; raise if any cell failed."""
        _write_atomic(
            self.run_dir / "state.json",
            json.dumps(to_jsonable(stats), indent=2, sort_keys=True) + "\n",
        )
        if failures:
            raise CampaignRunError(failures)
        return stats

    def checkpoint(
        self, job: CampaignJob, result: Any, timing: dict | None = None
    ) -> None:
        """Atomically persist one cell's result as ``results/<digest>.json``.

        ``timing`` is per-cell latency provenance (wall clock, queue/run
        split, worker identity) for ``repro obs summary``.  It lives as a
        *sibling* of ``result``: :meth:`load_results` reads only the result
        payload and reports are built purely from results + manifest order,
        so timing never leaks into ``report.json``/``report.csv`` — those
        must stay byte-identical across local, resumed, and federated runs.
        """
        payload = {
            "cell": job.cell,
            "grid": job.grid,
            "scenario": job.scenario,
            "params": to_jsonable(job.params),
            "digest": job.digest,
            "result": to_jsonable(result),
        }
        if timing is not None:
            payload["timing"] = to_jsonable(timing)
        # Compact: ``indent`` would send ``json.dumps`` through the pure-Python
        # encoder, and no reader needs the file pretty.
        _write_atomic(
            self._result_path(job.digest),
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def build_report(self) -> dict:
        """Aggregate the checkpointed results (raises if any cell is missing)."""
        return build_report(self.plan, self.load_results())

    def write_report(self) -> dict:
        """Build and persist ``report.json`` + ``report.csv``; return the report.

        With :attr:`ingest_db` set, the finished run is also ingested into
        that warehouse database (idempotent by digest, so re-reporting or
        resuming never duplicates rows).
        """
        report = self.build_report()
        _write_atomic(self.run_dir / "report.json", serialize_report(report))
        _write_atomic(self.run_dir / "report.csv", report_csv(report))
        if self.ingest_db is not None:
            from .. import warehouse

            conn = warehouse.connect(self.ingest_db)
            try:
                warehouse.ingest_run_dir(conn, self.run_dir)
            finally:
                conn.close()
        return report


def run_campaign(
    spec: dict | CampaignSpec,
    jobs: int = 1,
    run_dir: str | Path | None = None,
    **kwargs,
) -> dict:
    """Run a campaign start-to-finish and return its aggregate report.

    The service's ``campaign`` scenario uses this entry point: with no
    ``run_dir`` the checkpoints live in a temporary directory that is removed
    afterwards (the report is the product; the service cache keeps it).
    """
    if not isinstance(spec, CampaignSpec):
        spec = parse_spec(spec)
    if run_dir is None:
        directory = tempfile.TemporaryDirectory(prefix="repro-campaign-")
    else:
        directory = nullcontext(run_dir)
    with directory as path:
        runner = CampaignRunner(spec, path, jobs=jobs, **kwargs)
        runner.run()
        return runner.build_report()
