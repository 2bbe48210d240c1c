"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 10 --trace 0

Each run starts the workload in a fresh interpreter (``workloads.py``) with
an empty artifact memo, empty node caches and journals, and a fresh state
directory under ``perfbench/out/``.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the traced variant and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every run also
appends one record per metric to ``perfbench/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Default seed, and the held-out seed used only to confirm a claimed gain.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009

#: Interpreter starts whose set-up time is measured (the median is reported).
SETUP_STARTS = 5

#: Every run must end within this many seconds.
RUN_BUDGET_S = 175.0

#: The tail percentile of ``op_cpu_tail_ms`` (and of ``op_tail_ms``), fixed
#: per workload: a request (over a thousand per run) at p90, because the p99
#: swings by a quarter between runs (``req_p99_ms`` stays in the trajectory
#: log); a paper pass (two per run) and a campaign (one per run) at the
#: slowest.
TAIL = {"paper_cold": 1.0, "gateway_cached": 0.90, "campaign_fresh": 1.0}

#: Numbers kept in the trajectory log beside the metrics (``logged_only``).
LOGGED_UNITS = {
    "op_cpu_p50_ms": "ms",
    "setup_wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
}

#: Workload-specific numbers kept in the trajectory log beside the metrics.
DETAILS = {
    "paper_cold": {"paper_cold_s": "s", "paper_warm_s": "s"},
    "gateway_cached": {"req_p50_ms": "ms", "req_p99_ms": "ms", "req_per_s": "1/s"},
    "campaign_fresh": {"campaign_s": "s", "cell_p50_s": "s", "cell_p90_s": "s"},
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_child(args, state: Path, out: Path, deadline: float, setup_only: bool) -> dict:
    """Run ``workloads.py`` in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # One BLAS thread: idle BLAS threads spin on a core for a while after
    # each call, which adds CPU time that depends on scheduling.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    command = [
        sys.executable, str(HERE / "workloads.py"), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--state", str(state), "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--t0", repr(time.monotonic())]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=sys.stderr,
        timeout=max(deadline - time.monotonic(), 1.0), check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"workload process exited with {completed.returncode}")
    return json.loads(out.read_text())


def end_to_end(workload: str, result: dict, setups: list[dict]) -> dict:
    """The end-to-end metrics: CPU time of the workload process (all its
    threads, servers included), which leaves out the time the host gives
    the CPU to other machines.

    There is no median per operation among them: with the process rotating
    over CPUs of unequal speed (``workloads.CpuRotation``) a request's CPU
    time has one mode per CPU, and the median falls between the modes.  The
    mean (as ``ops_per_cpu_s``) and the tail do not.
    """
    cpu = result["cpu_s"]
    return {
        "setup_s": statistics.median(s["setup_cpu_s"] for s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_cpu_tail_ms": percentile(cpu, TAIL[workload]) * 1e3,
        "ops_per_cpu_s": len(cpu) / sum(cpu),
    }


def logged_only(workload: str, result: dict, setups: list[dict]) -> dict:
    """The CPU median and the wall-clock numbers, for the trajectory log."""
    latencies = result["latencies_s"]
    return {
        "op_cpu_p50_ms": statistics.median(result["cpu_s"]) * 1e3,
        "setup_wall_s": statistics.median(s["setup_s"] for s in setups),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": percentile(latencies, TAIL[workload]) * 1e3,
        "ops_per_s": len(latencies) / result["elapsed_s"],
    }


def commit_of(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """Digest of the program's sources: identifies the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def log_trajectory(args, metrics: dict, versions: dict) -> None:
    """Append one record per metric; records carry what makes numbers
    comparable (code, workload, seed, tracing, cores, versions)."""
    context = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commit_of(ROOT),
        "source": source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
    }
    with (HERE / "trajectory.jsonl").open("a") as stream:
        for name, (value, unit) in metrics.items():
            record = {**context, "metric": name, "value": value, "unit": unit}
            stream.write(json.dumps(record, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        result = start_child(args, run_dir / "state", run_dir / "result.json", deadline, False)
        setups = [result]
        if not args.trace:
            for start in range(1, SETUP_STARTS):
                out = run_dir / f"setup-{start}.json"
                setups.append(start_child(args, run_dir / f"setup-{start}", out, deadline, True))
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        return fail(str(error))
    finally:
        for state in run_dir.glob("*"):
            if state.is_dir():
                shutil.rmtree(state, ignore_errors=True)

    values = result["per_layer"] if args.trace else end_to_end(args.workload, result, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
    logged = dict(metrics)
    if not args.trace:
        units = {**LOGGED_UNITS, **DETAILS[args.workload]}
        values.update(logged_only(args.workload, result, setups), **result["details"])
        logged.update({name: (values[name], unit) for name, unit in units.items()})

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode} "
          f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()}")
    for name, (value, unit) in logged.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if args.trace:
        for name in ("trace.spans", "trace.attribution_error_s"):
            print(f"  {name:34s} {values[name]:14.6g}")
    else:
        print(f"  samples {len(result['latencies_s'])}, setup starts {len(setups)}")
    log_trajectory(args, logged, result.get("versions", {}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
