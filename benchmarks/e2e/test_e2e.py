"""Self-test of the end-to-end benchmark, on tiny ``--smoke`` inputs.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run as e2e  # noqa: E402


def bench(workload: str, *extra: str, seconds: str = "0.5"):
    """Run one smoke workload; returns (exit status, result line, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def counts(result: dict) -> dict:
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] in ("count", "cycles")
    }


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(e2e.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == e2e.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == e2e.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["versioned_32c_write", "serve_write_heavy"])
def test_printed_metrics_match_benchmark_json(workload, trace):
    code, result, _ = bench(workload, "--trace", str(trace))
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", e2e.SIM_WORKLOADS)
def test_counts_repeat_across_runs_and_tracing(workload):
    # A traced run fails unless its traced pass reproduces the counts of
    # its untraced pass; two traced runs must then agree exactly.
    _, first, _ = bench(workload, "--trace", "1")
    _, second, _ = bench(workload, "--trace", "1")
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    code, _, stdout = bench(workload, "--trace", "0")
    assert code == 0
    cycles = int(re.search(r"sim_cycles per pass (\d+)", stdout).group(1))
    assert cycles == first["metrics"]["sim.cycles"]["value"]


def test_layer_design_on_smoke_inputs():
    seq = counts(bench("seq_unversioned", "--trace", "1")[1])
    assert seq["manager.ops"] == 0 and seq["gc.phases"] == 0
    assert seq["engine.events"] < 100
    assert seq["fuse.fused_ops"] == seq["fuse.ops"] > 0
    write = counts(bench("versioned_32c_write", "--trace", "1")[1])
    assert write["gc.phases"] > 0 and write["gc.reclaimed"] > 0


def test_wrong_result_is_a_failure():
    code, result, stdout = bench("seq_unversioned", "--inject-wrong-result")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED:" in stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "seq_unversioned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
