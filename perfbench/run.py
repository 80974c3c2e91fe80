"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload order-random --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout of the repository: it imports
``ordist`` from the checkout's ``src/`` and writes its input files, and the
spans of a traced run, under ``.perfbench/`` at the checkout's root.

``--trace 0`` measures the end-to-end metrics, with times scaled to a
reference host speed (see ``harness``); ``--trace 1`` is the
separate traced run that gives the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (commands
whose output was wrong or that crashed) and ``metrics``.  Exits 2 without a
result when the ordist sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="order-random, circular or split-systems")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "ordist" / "__init__.py").is_file():
        print(f"error: no ordist sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup = WORKLOADS[args.workload]
    size = SIZES[args.scale][args.workload]
    work_root = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            outcome = harness.measure_traced(setup, args.seed, args.seconds, size, work_root)
        else:
            outcome = harness.measure(setup, args.seed, args.seconds, size, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if outcome.tracer is not None:
        trace_file = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "breakdown": outcome.notes,
            "spans": outcome.tracer.as_records(),
        }), encoding="utf-8")
        outcome.notes.append(f"spans written to {trace_file.relative_to(ROOT)}")

    failed = len(outcome.failures)
    print(f"workload: {args.workload} (seed {args.seed}, {args.scale} sizes, "
          f"{'traced' if args.trace else 'untraced'})")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_ratio: {failed / outcome.attempted:.6g} ({failed} of {outcome.attempted} commands)")
    for note in outcome.notes:
        print(note)
    print("outputs: all correct" if not failed else f"outputs: {failed} incorrect")
    for reason in outcome.failures[:10]:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
