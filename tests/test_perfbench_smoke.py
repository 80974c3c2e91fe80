import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes(src_env):
    # the benchmark's own correctness checks at tiny sizes, one PASS line
    # per workload declared in BENCHMARK.json
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert len(workloads) == 3
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        capture_output=True,
        text=True,
        env=src_env,
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    for workload in workloads:
        assert f"PASS {workload['name']}" in lines, result.stdout
