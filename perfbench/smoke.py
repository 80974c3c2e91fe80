"""Smoke test of the benchmark itself, at tiny sizes (n = 6 to 8).

    python3 perfbench/smoke.py

Checks, for every workload: the untraced and the traced run pass the
correctness gate; they report exactly the metrics and units that
``BENCHMARK.json`` declares; the exact counts
repeat across two traced runs of one seed; and a corrupted reference turns
every command into a failure, so the gate is shown to bite.  Also checks
the result line of ``run.py`` and that ``run.py`` exits non-zero without a
result when the ordist sources are missing.  Exits 1 on any failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS, Command  # noqa: E402

SEED = 3
SECONDS = 0.3
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def corrupted(command: Command) -> Command:
    """The same command with a wrong expected answer: one matrix entry of
    its reference changed, or a wrong verdict line expected."""
    if command.reference is not None:
        text = command.reference.read_text(encoding="utf-8")
        command.reference.write_text(text[:-2] + "1\n", encoding="utf-8")  # last entry 0 -> 1
        return command
    return dataclasses.replace(command, expect=(command.expect[0].replace("true", "false")
                                                .replace("no-counterexample", "counterexample"),))


def check_workload(name: str, work: Path) -> list[str]:
    problems = []
    setup, size = WORKLOADS[name], SIZES["tiny"][name]
    plain = harness.measure(setup, SEED, SECONDS, size, work / "plain")
    if plain.failures:
        problems.append(f"untraced run failed: {plain.failures[0]}")
    if any(value <= 0 for value, _ in plain.metrics.values()):
        problems.append(f"an end-to-end metric is not positive: {plain.metrics}")
    traced = [harness.measure_traced(setup, SEED, SECONDS, size, work / f"traced{i}")
              for i in range(2)]
    for run in traced:
        if run.failures:
            problems.append(f"traced run failed: {run.failures[0]}")
    for run, kind in ((plain, "end_to_end"), (traced[0], "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        reported = {name: unit for name, (_, unit) in run.metrics.items()}
        if reported != declared:
            problems.append(f"{kind} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(reported.items()) ^ set(declared.items()))}")
    exact = list(tracing.COUNTS) + [k for k in traced[0].metrics if k.endswith((".calls", ".errors"))]
    for key in exact:
        if traced[0].metrics[key] != traced[1].metrics[key]:
            problems.append(f"{key} differs between runs: "
                            f"{traced[0].metrics[key]} vs {traced[1].metrics[key]}")
    (work / "corrupt").mkdir()
    commands = [corrupted(c) for c in setup(work / "corrupt", SEED, size)]
    bundle = harness.Outcome()
    harness.run_bundle(commands, bundle)
    if len(bundle.failures) != bundle.attempted:
        problems.append(f"corrupted references: {len(bundle.failures)} of {bundle.attempted} "
                        "commands failed")
    return problems


def check_run_py(tmp_root: Path) -> list[str]:
    problems = []
    argv = ["--workload", "circular", "--seed", str(SEED), "--seconds", str(SECONDS)]
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *argv,
                           "--trace", "0", "--scale", "tiny"],
                          capture_output=True, text=True, timeout=120)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"} \
            or not result["correct"]:
        problems.append(f"run.py result line: {done.returncode} {result}")
    bare = tmp_root / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run([sys.executable, str(bare / "perfbench" / "run.py"), *argv, "--trace", "0"],
                          capture_output=True, text=True, timeout=120)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"run.py without sources: exit {done.returncode}, stdout {done.stdout!r}")
    return problems


def main() -> int:
    tmp_root = ROOT / ".perfbench" / "smoke"
    shutil.rmtree(tmp_root, ignore_errors=True)
    failed = False
    try:
        checks = {name: lambda name=name: check_workload(name, tmp_root / name) for name in WORKLOADS}
        checks["run.py"] = lambda: check_run_py(tmp_root)
        for name, check in checks.items():
            problems = check()
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {name}")
            for problem in problems:
                print(f"  {problem}")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
