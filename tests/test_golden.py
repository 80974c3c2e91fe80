"""Golden reports: CLI commands replayed byte for byte against reports
written before the split-system kernels moved onto bitsets.

Each case runs one command over the inputs in ``tests/data/golden`` and
compares its exit code and report with ``<case>.report`` there, whose first
line is ``exit: <code>``.  A change that is meant to alter one of these
reports rewrites them, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and the diff of the ``.report`` files then shows every changed line.
"""

from pathlib import Path

import pytest

from ordist import cli

DATA = Path(__file__).parent / "data" / "golden"

# case name -> argv; "{data}" stands for the golden data directory
CASES = {
    "midpath-tree64": "midpath -i {data}/tree64.dist",
    "midpath-ties12": "midpath -i {data}/ties12.dist --witness",
    "circular-32": "check circular -s {data}/circular32.splits",
    "circular-flat7": "check circular -s {data}/flat7.splits --strict",
    "orderly-S1_5": "orderly -s S1_5 --trials 20 --seed 0",
    "orderly-S2_5": "orderly -s S2_5 --trials 20 --seed 0",
    "orderly-circular8": "orderly -s {data}/circular8.splits --trials 10 --seed 3",
}


def golden_report(case: str) -> str:
    """The exit code line and report the command of ``case`` gives now."""
    argv = CASES[case].format(data=DATA).split()
    outcome = cli.run(argv)
    return f"exit: {outcome.exit_code}\n{outcome.report}\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    expected = (DATA / f"{case}.report").read_text(encoding="utf-8")
    assert golden_report(case) == expected


if __name__ == "__main__":
    for case in CASES:
        (DATA / f"{case}.report").write_text(golden_report(case), encoding="utf-8")
