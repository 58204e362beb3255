"""Deployment-scale benchmark of ``repro.deploy``.

Run from the repository root::

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with one probe (a
timestamp on each serving call); ``--trace 1`` alternates untraced and
traced episodes and reports the per-layer metrics.  The metric names,
units and directions are those of ``BENCHMARK.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the run exits 1 when a correctness check fails.  ``--workload all``
runs every workload in its own process and prints one table.

BLAS is pinned to one thread before NumPy loads: with OpenBLAS's default
threading the run-to-run spread is several times wider and the
process-pool workload runs about twice as slow.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

WORKLOAD_NAMES = ("serve_steady", "drift_feedback", "async_pool")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without leaving the root."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": git_sha(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


def run_workload(args, spec) -> int:
    import numpy as np

    import workloads
    from tracing import Tracer

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload]
    work_dir = tempfile.mkdtemp(prefix="run-", dir=HERE / ".work")
    try:
        dep = workloads.build_deployment(scale, workload, args.seed, work_dir)
        # warm-up: first-call costs (imports, allocator growth) stay out
        warm = 2 * workload.batch
        X_warm, y_warm = dep.streams[0]
        workloads.run_episode(
            dataclasses.replace(dep, streams=((X_warm[:warm], y_warm[:warm]),)), 0
        )
        deadline = time.perf_counter() + args.seconds
        tracer = Tracer() if args.trace else None
        n_streams = len(dep.streams)
        episodes = []
        while True:
            if args.trace:
                # each stream untraced, then traced
                stream, traced = (len(episodes) // 2) % n_streams, len(episodes) % 2 == 1
            else:
                stream, traced = len(episodes) % n_streams, False
            episodes.append(workloads.run_episode(dep, stream, tracer if traced else None))
            if args.trace:
                done = any(e.traced for e in episodes)
            else:
                # every stream, and a replay of the first
                done = len(episodes) > n_streams
            if done and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [e for e in episodes if not e.traced]
    traced = [e for e in episodes if e.traced]
    checks = {}
    for name in sorted({name for e in episodes for name in e.checks}):
        checks[name] = all(e.checks.get(name, True) for e in episodes)
    if not workload.pooled:
        # decisions of a synchronous deployment are a pure function of
        # the seed and the stream: every episode on a stream replays the
        # first one on it, traced or not
        digests = {}
        for e in untraced:
            digests.setdefault(e.stream, set()).add(e.digest)
        checks["replay_identical"] = all(len(d) == 1 for d in digests.values())
        if traced:
            checks["trace_identical"] = all(
                {e.digest} == digests.get(e.stream) for e in traced
            )
    e2e = workloads.end_to_end_metrics(untraced, workload.pooled)
    checks["detector_beats_chance"] = e2e["mispred_recall"] > e2e["false_alarm_rate"]
    if args.trace:
        values = workloads.per_layer_metrics(tracer, traced, untraced)
        declared = spec["per_layer"]
    else:
        values = e2e
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    checks["metrics_match_spec"] = set(values) == set(metrics) and all(
        np.isfinite(v["value"]) for v in metrics.values()
    )
    attempted = failed = 0
    for episode in untraced:
        done, lost = workloads.operations(episode)
        attempted += done
        failed += lost
    correct = all(checks.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": "smoke" if args.smoke else "full",
        "episodes": len(untraced),
        "traced_episodes": len(traced),
        "steps": sum(len(e.serve_ms) for e in untraced),
        "checks": checks,
        "machine": machine(),
    }
    print(json.dumps({"record": record}))
    for m in declared:
        value = metrics[m["name"]]["value"]
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']:<6} {m['better']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.history:
        with open(args.history, "a") as history:
            history.write(json.dumps({**record, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Every workload in its own process; one table of every metric."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.history:
            command += ["--history", args.history]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        if completed.returncode:
            sys.stderr.write(completed.stderr)
            status = 1
        lines = completed.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print(f"{'metric':<44} {'unit':<6} {'better':<7}" + "".join(f"{w:>16}" for w in results))
    for metric in names:
        unit, better = declared[metric]["unit"], declared[metric]["better"]
        cells = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values())
        print(f"{metric:<44} {unit:<6} {better:<7}{cells}")
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    correct = all(r["correct"] for r in results.values())
    return status or (0 if correct else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long scale for tests")
    parser.add_argument("--history", help="append each result with its record to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.workload == "all":
        return run_all(args, spec)
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = BLAS_THREADS
    (HERE / ".work").mkdir(exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        return run_workload(args, spec)
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker and wait for it to end.

    A process-pool deployment creates shared memory, which starts
    ``multiprocessing``'s tracker process; left alone it outlives this
    process by the time it takes to notice the closed pipe.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
