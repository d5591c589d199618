import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd, *args, timeout=180):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_run_prints_every_metric_and_checks_outputs(trace):
    out = _run(ROOT, "--workload", "hcci-gram-threads", "--seed", "3",
               "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert result["metrics"] == {
        k: {"value": result["metrics"][k]["value"], "unit": u}
        for k, u in expected.items()
    }
    for name in expected:  # printed by name with its unit
        assert any(line.startswith(f"{name} = ") for line in out.stdout.splitlines())
    if trace == "1":
        report = json.loads(
            (ROOT / "perfbench/out/hcci-gram-threads-seed3-trace1.json").read_text()
        )
        self_sum = sum(t["self_ms"] for t in report["layers"].values())
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert self_sum == pytest.approx(m["traced_latency_ms"], rel=1e-9)
        assert m["mpi.messages"] == 14


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "hcci-gram-threads", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

