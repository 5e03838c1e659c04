"""Smoke test of the benchmark itself: every workload, including those
BENCHMARK.json leaves out, runs at tiny size, untraced and traced, and emits
every metric BENCHMARK.json names, with its unit and no failed unit.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracing  # noqa: E402
sys.path.remove(str(HERE))


def _run(*args, cwd=ROOT):
    """Run the benchmark command from BENCHMARK.json in ``cwd``."""
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_metric_tables_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.LAYER_METRICS)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == table


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
