"""Smoke-size test of the deployment benchmark (seconds per workload).

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs at the ``--smoke`` scale, untraced and traced, through
the same command the full benchmark uses.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
#: the workloads of BENCHMARK.json and any the command runs beyond them
from run import WORKLOAD_NAMES as WORKLOADS  # noqa: E402
#: workloads whose whole deploy call runs on the serving thread
SYNC_WORKLOADS = {"serve_steady", "drift_feedback"}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    completed = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    )
    lines = completed.stdout.strip().splitlines()
    assert lines, completed.stderr
    record = json.loads(lines[0])["record"]
    result = json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    assert [name for name, ok in record["checks"].items() if not ok] == []
    assert result["correct"] and completed.returncode == 0
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert record["machine"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())
    elif workload in SYNC_WORKLOADS:
        assert "trace_identical" in record["checks"]
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work")
    )
    completed = _run(
        "--workload", "serve_steady", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
