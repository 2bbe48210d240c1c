"""Cold vs. cached latency of the compression service.

Measures the hot path the service layer exists for: the first (cold)
submission of a job pays the full computation, while every identical
resubmission is a content-hash cache lookup.  Records the measured speedup
and asserts the cached path is at least an order of magnitude faster.
"""

from __future__ import annotations

import time

from repro.core import clear_memo
from repro.eval.reporting import format_table
from repro.service import JobState, ResultCache, WorkerPool, build_default_registry

#: Jobs timed in the cold/cached comparison: one ad-hoc compression job and
#: one paper experiment, both comfortably sub-minute cold.
TIMED_JOBS = [
    ("prune_tensor", {"rows": 256, "cols": 2048, "num_columns": 4, "beta": 0.1}),
    ("figure1", {"seed": 0}),
]


def _timed_run(pool: WorkerPool, job_type: str, params: dict) -> tuple[float, object]:
    start = time.perf_counter()
    job = pool.run(job_type, params, timeout=600)
    elapsed = time.perf_counter() - start
    assert job.state is JobState.DONE, job.error
    return elapsed, job


def test_cached_resubmission_is_10x_faster():
    """A cached resubmission is at least 10x faster than the cold run.

    The artifact memo is cleared before each cold run: otherwise a job that
    an earlier test already computed in this process is a memo hit, and the
    "cold" time depends on test order.
    """
    rows = []
    with WorkerPool(build_default_registry(), cache=ResultCache(), max_workers=2) as pool:
        for job_type, params in TIMED_JOBS:
            clear_memo()
            cold_seconds, cold_job = _timed_run(pool, job_type, params)
            cached_seconds, cached_job = _timed_run(pool, job_type, params)

            assert not cold_job.cache_hit
            assert cached_job.cache_hit
            assert cached_job.result == cold_job.result

            speedup = cold_seconds / cached_seconds if cached_seconds else float("inf")
            rows.append(
                {
                    "job": job_type,
                    "cold_seconds": cold_seconds,
                    "cached_seconds": cached_seconds,
                    "speedup": speedup,
                }
            )

    print()
    print(format_table(rows, title="Service cache: cold vs. cached job latency"))
    for row in rows:
        assert row["speedup"] >= 10.0, (
            f"cached {row['job']} only {row['speedup']:.1f}x faster "
            f"({row['cold_seconds']:.3f}s -> {row['cached_seconds']:.3f}s)"
        )
