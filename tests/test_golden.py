"""Golden reports: CLI commands replayed byte for byte against reports
written before the split-system kernels moved onto bitsets, order
matrices replayed against files written before the Kendall engine moved
onto per-row tables, ``gen circular`` systems replayed against those
written before arcs were read off prefix masks and popcounts, and
``midpath`` of a zero-rich matrix and ``check compat`` reports written
before the equidistant sets were read off the strict sides and
compatibility was decided by one nesting pass, and ``midpath --witness``
of that matrix and of a 20-element input with no witness written before
the witness was read off the comparison sets, and ``orderly`` of the
n = 32 circular file written before phase 1 moved onto the split
decomposition of the order distance.

Each report case runs one command over the inputs in ``tests/data/golden``
and compares its exit code and report with ``<case>.report`` there, whose
first line is ``exit: <code>``; a report too large to keep in full (the
n = 160 ``gen circular`` system, about 9 MB) is held as the SHA-256 digest
of those bytes in ``<case>.report.sha256``.  Each order case is the matrix that
``order -p 2 -q <q>`` writes for one input, held in ``<case>.dist``; every
engine that applies to the input must print it and write it with ``-o``
byte for byte.  A change that is meant to alter one of these files
rewrites them, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and the diff of the ``.report`` and ``order-*.dist`` files then shows
every changed line.
"""

import hashlib
from pathlib import Path

import pytest

from ordist import cli

DATA = Path(__file__).parent / "data" / "golden"

# case name -> argv; "{data}" stands for the golden data directory
CASES = {
    "midpath-tree64": "midpath -i {data}/tree64.dist",
    "midpath-ties12": "midpath -i {data}/ties12.dist --witness",
    "midpath-zeros12": "midpath -i {data}/zeros12.dist",
    "midpath-zeros12-witness": "midpath -i {data}/zeros12.dist --witness",
    "midpath-blowup20-witness": "midpath -i {data}/blowup20.dist --witness",
    "compat-circular32": "check compat -s {data}/circular32.splits",
    "compat-tree16": "check compat -s {data}/tree16.splits",
    "circular-32": "check circular -s {data}/circular32.splits",
    "circular-flat7": "check circular -s {data}/flat7.splits --strict",
    "orderly-S1_5": "orderly -s S1_5 --trials 20 --seed 0",
    "orderly-S2_5": "orderly -s S2_5 --trials 20 --seed 0",
    "orderly-circular8": "orderly -s {data}/circular8.splits --trials 10 --seed 3",
    "orderly-circular32": "orderly -s {data}/circular32.splits --trials 2 --seed 0",
    "gen-circular-8": "gen circular -n 8 --seed 3",
    "gen-circular-40": "gen circular -n 40 --seed 11",
    "gen-circular-160": "gen circular -n 160 --seed 5",
}

# report cases held as a digest
DIGESTED = {"gen-circular-160"}


# order case -> (input file stem, q at p = 2, engines replaying it); the
# circular engine needs circular input and q = p/2
ORDER_CASES = {
    "order-ties12-p2-q1": ("ties12", "1", ("eq1", "kendall")),
    "order-ties12-p2-q3_2": ("ties12", "3/2", ("eq1", "kendall")),
    "order-tree64-p2-q1": ("tree64", "1", ("eq1", "kendall", "circular")),
    "order-tree64-p2-q3_2": ("tree64", "3/2", ("eq1", "kendall")),
}


def golden_report(case: str) -> str:
    """The exit code line and report the command of ``case`` gives now."""
    argv = CASES[case].format(data=DATA).split()
    outcome = cli.run(argv)
    return f"exit: {outcome.exit_code}\n{outcome.report}\n"


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest() + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    if case in DIGESTED:
        expected = (DATA / f"{case}.report.sha256").read_text(encoding="utf-8")
        assert digest(golden_report(case)) == expected
    else:
        expected = (DATA / f"{case}.report").read_text(encoding="utf-8")
        assert golden_report(case) == expected


def run_order(case: str, algo: str, output: Path | None = None) -> cli.CommandOutcome:
    stem, q, _ = ORDER_CASES[case]
    argv = ["order", "-i", str(DATA / f"{stem}.dist"), "-p", "2", "-q", q, "--algo", algo]
    if output is not None:
        argv += ["-o", str(output)]
    return cli.run(argv)


@pytest.mark.parametrize(
    "case,algo",
    [(case, algo) for case, (_, _, algos) in sorted(ORDER_CASES.items()) for algo in algos],
)
def test_order_matrix_matches_golden(case, algo, tmp_path):
    expected = (DATA / f"{case}.dist").read_bytes()
    header = f"algo: {algo}\np: 2\nq: {ORDER_CASES[case][1]}\n"
    written = tmp_path / "order.dist"
    outcome = run_order(case, algo, written)
    assert (outcome.exit_code, outcome.report) == (0, f"{header}written: {written}")
    assert written.read_bytes() == expected
    outcome = run_order(case, algo)
    assert (outcome.exit_code, outcome.report) == (0, header + expected.decode().rstrip("\n"))


if __name__ == "__main__":
    for case in CASES:
        if case in DIGESTED:
            (DATA / f"{case}.report.sha256").write_text(
                digest(golden_report(case)), encoding="utf-8"
            )
        else:
            (DATA / f"{case}.report").write_text(golden_report(case), encoding="utf-8")
    for case in ORDER_CASES:
        run_order(case, "eq1", DATA / f"{case}.dist")
