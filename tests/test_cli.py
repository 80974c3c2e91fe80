import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ordist import (
    OrderParams,
    Split,
    WeightedSplitSystem,
    format_distance_matrix,
    format_rational,
    format_split_system,
    generate_distance,
    index_ground,
    is_compatible,
    is_maximum_flat,
    order_distance_eq1,
    parse_distance_matrix,
    parse_split_system,
    random_binary_tree_system,
    random_maximum_circular_system,
    random_maximum_flat_system,
    split_metric,
)
import ordist.flatlab as flatlab_module
from ordist import cli
from ordist.cli import main, run
from helpers import (
    quartet_fixture,
    six_point_table,
    witnessless_blowup,
    zero_heavy_circular_distance,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def quartet_file(tmp_path):
    d = generate_distance(quartet_fixture())
    return write(tmp_path, "quartet.dist", format_distance_matrix(d))


@pytest.fixture
def tree_files(tmp_path):
    system = random_binary_tree_system(5, random.Random(8))
    d = generate_distance(system)
    return (
        write(tmp_path, "tree.splits", format_split_system(system)),
        write(tmp_path, "tree.dist", format_distance_matrix(d)),
        system,
    )


def test_order_to_stdout(quartet_file):
    outcome = run(["order", "-i", quartet_file, "-p", "2", "-q", "1"])
    assert outcome.exit_code == 0
    lines = outcome.report.splitlines()
    assert lines[0] == "algo: eq1"
    assert lines[1] == "p: 2" and lines[2] == "q: 1"
    matrix = parse_distance_matrix("\n".join(lines[3:]))
    expected = order_distance_eq1(
        generate_distance(quartet_fixture()), OrderParams(2, 1)
    )
    assert matrix == expected


def test_order_on_all_zero_matrix(tmp_path):
    # all comparisons tie, so no pair contributes anything
    path = write(tmp_path, "zero.dist", "3\na 0 0 0\nb 0 0 0\nc 0 0 0\n")
    outcome = run(["order", "-i", path, "-p", "2", "-q", "1"])
    assert outcome.exit_code == 0
    matrix = parse_distance_matrix("\n".join(outcome.report.splitlines()[3:]))
    assert all(matrix[i, j] == 0 for i in range(3) for j in range(3))


def test_order_engines_and_output_file(tmp_path, quartet_file):
    out_eq1 = str(tmp_path / "eq1.dist")
    out_kendall = str(tmp_path / "kendall.dist")
    first = run(["order", "-i", quartet_file, "-p", "3", "-q", "2", "-o", out_eq1])
    second = run(
        ["order", "-i", quartet_file, "-p", "3", "-q", "2", "--algo", "kendall",
         "-o", out_kendall]
    )
    assert first.exit_code == second.exit_code == 0
    assert f"written: {out_eq1}" in first.report
    with open(out_eq1, encoding="utf-8") as handle:
        a = parse_distance_matrix(handle.read())
    with open(out_kendall, encoding="utf-8") as handle:
        b = parse_distance_matrix(handle.read())
    assert a == b


def test_order_circular_algo(tmp_path):
    theta, system = random_maximum_circular_system(6, random.Random(9))
    d = generate_distance(system)
    path = write(tmp_path, "circ.dist", format_distance_matrix(d))
    outcome = run(["order", "-i", path, "-p", "2", "-q", "1", "--algo", "circular"])
    assert outcome.exit_code == 0
    matrix = parse_distance_matrix("\n".join(outcome.report.splitlines()[3:]))
    assert matrix == order_distance_eq1(d, OrderParams(2, 1))

    mismatched = run(["order", "-i", path, "-p", "2", "-q", "2", "--algo", "circular"])
    assert mismatched.exit_code == 3
    assert "q = p/2" in mismatched.report


@pytest.mark.parametrize("p,q", [("2", "1"), ("3", "3/2")])
def test_circular_writes_what_eq1_writes_on_tie_rich_input(tmp_path, p, q):
    d = zero_heavy_circular_distance(24, random.Random(24))
    path = write(tmp_path, "ties.dist", format_distance_matrix(d))
    written = []
    for algo in ("circular", "eq1"):
        out = tmp_path / f"{algo}.dist"
        argv = ["order", "-i", path, "-p", p, "-q", q, "--algo", algo, "-o", str(out)]
        assert run(argv).exit_code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_circular_refuses_skewed_twins(tmp_path):
    # a and b are at distance 0 but b is one further from c and d
    text = "4\na 0 0 1 2\nb 0 0 2 3\nc 1 2 0 1\nd 2 3 1 0\n"
    path = write(tmp_path, "twins.dist", text)
    outcome = run(["order", "-i", path, "-p", "2", "-q", "1", "--algo", "circular"])
    assert outcome.exit_code == 3
    assert outcome.report == "error: elements at distance zero compare differently"


def test_order_rejects_bad_input(tmp_path, quartet_file):
    assert run(["order", "-i", quartet_file, "-p", "0", "-q", "1"]).exit_code == 3
    assert run(["order", "-i", quartet_file, "-p", "2", "-q", "1/2"]).exit_code == 3
    # OrderParams raises PreconditionError; run alone maps it, text unchanged
    assert run(["order", "-i", quartet_file, "-p", "0", "-q", "1"]).report == (
        "error: p must be positive, got 0"
    )
    assert run(["order", "-i", quartet_file, "-p", "2", "-q", "1/2"]).report == (
        "error: q must be at least p/2, got p=2, q=1/2"
    )
    assert run(["order", "-i", quartet_file, "-p", "x", "-q", "1"]).exit_code == 2
    assert run(["order", "-i", str(tmp_path / "no.dist"), "-p", "2", "-q", "1"]).exit_code == 2
    garbled = write(tmp_path, "bad.dist", "2\na 0 1\nb 1\n")
    assert run(["order", "-i", garbled, "-p", "2", "-q", "1"]).exit_code == 2
    # an output path that cannot be opened is an input error, not a traceback
    outcome = run(["order", "-i", quartet_file, "-p", "2", "-q", "1", "-o", str(tmp_path)])
    assert (outcome.exit_code, outcome.report) == (
        2, f"error: cannot write {tmp_path}: Is a directory"
    )
    missing = tmp_path / "nodir" / "out.splits"
    outcome = run(["gen", "tree", "-n", "5", "--seed", "1", "-o", str(missing)])
    assert (outcome.exit_code, outcome.report) == (
        2, f"error: cannot write {missing}: No such file or directory"
    )


def test_order_non_circular_input_fails_precondition(tmp_path):
    path = write(tmp_path, "six.dist", format_distance_matrix(six_point_table()))
    outcome = run(["order", "-i", path, "-p", "2", "-q", "1", "--algo", "circular"])
    assert outcome.exit_code == 3


def test_midpath_skips_the_witness_search_on_compatible_input(monkeypatch):
    def no_search(matrix):
        raise AssertionError("witness search ran on compatible input")

    monkeypatch.setattr("ordist.cli.six_point_witness", no_search)
    tree64 = Path(__file__).parent / "data" / "golden" / "tree64.dist"
    outcome = run(["midpath", "-i", str(tree64), "--witness"])
    assert outcome.exit_code == 0
    assert "compatible: true" in outcome.report.splitlines()
    assert "witness: none" in outcome.report.splitlines()


def test_midpath_witness_on_the_witnessless_blowup_is_fast(tmp_path, src_env):
    # 40 copies of a 5-element input whose strict splits cross only at
    # pairs at distance 0: a six-fold walk over the tuples takes seconds
    path = write(tmp_path, "blowup40.dist", format_distance_matrix(witnessless_blowup(40)))
    result = subprocess.run(
        [sys.executable, "-m", "ordist", "midpath", "-i", path, "--witness"],
        capture_output=True,
        encoding="utf-8",
        env=src_env,
        timeout=10,
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert "compatible: false" in lines and "witness: none" in lines


def test_midpath_report(tmp_path, tree_files):
    _, tree_dist, _ = tree_files
    outcome = run(["midpath", "-i", tree_dist, "--witness"])
    assert outcome.exit_code == 0
    report = outcome.report
    assert "compatible: true" in report
    assert "witness: none" in report
    assert "incompatible-pair:" not in report

    six = write(tmp_path, "six.dist", format_distance_matrix(six_point_table()))
    outcome = run(["midpath", "-i", six, "--witness"])
    report = outcome.report.splitlines()
    assert "elements: 6" in report
    assert "bound: 30" in report
    assert "compatible: false" in report
    assert any(line.startswith("incompatible-pair:") for line in report)
    assert any(line.startswith("witness: a=") for line in report)
    assert any(line.startswith("witness-condition:") for line in report)
    x_split_lines = [line for line in report if line.startswith("x-split:")]
    counted = next(line for line in report if line.startswith("x-splits:"))
    assert len(x_split_lines) == int(counted.split(":")[1])


def test_check_compat(tmp_path, tree_files):
    tree_splits, _, _ = tree_files
    assert run(["check", "compat", "-s", tree_splits]).exit_code == 0
    assert "compat: true" in run(["check", "compat", "-s", tree_splits]).report

    loose = run(["check", "compat", "-s", "S1_5"])
    assert loose.exit_code == 0
    assert "compat: false" in loose.report
    assert "incompatible-pair:" in loose.report
    strict = run(["check", "compat", "-s", "S1_5", "--strict"])
    assert strict.exit_code == 1


def test_repeated_label_in_a_split_line_is_an_input_error(tmp_path):
    # "a,a | c" never lists b, so it is no split of a b c
    path = write(tmp_path, "repeat.splits", "3\na b c\na,a | c\n")
    outcome = run(["check", "compat", "-s", path])
    assert outcome.exit_code == 2
    assert outcome.report == "error: repeated label in split line 'a,a | c'"


def test_check_circular_flat_independent(tmp_path, tree_files):
    tree_splits, _, _ = tree_files
    theta, system = random_maximum_circular_system(5, random.Random(10))
    circ = write(tmp_path, "circ.splits", format_split_system(system))

    outcome = run(["check", "circular", "-s", circ])
    assert "circular: true" in outcome.report
    assert any(line.startswith("ordering: ") for line in outcome.report.splitlines())
    assert run(["check", "circular", "-s", "S1_5", "--strict"]).exit_code == 1

    outcome = run(["check", "independent", "-s", "S1_5"])
    assert "independent: true" in outcome.report
    assert "rank: 10" in outcome.report
    assert "size: 10" in outcome.report

    assert "flat: true" in run(["check", "flat", "-s", "S1_5"]).report
    assert "flat: true" in run(["check", "flat", "-s", circ]).report
    assert "flat: false" in run(["check", "flat", "-s", tree_splits]).report


def test_check_closed_and_pairsep(tmp_path, tree_files):
    tree_splits, _, _ = tree_files
    outcome = run(["check", "closed", "-s", "S2_5"])
    assert "closed: false" in outcome.report
    assert "violating-pair:" in outcome.report
    assert "closed: true" in run(["check", "closed", "-s", tree_splits]).report

    assert "pairsep: true" in run(["check", "pairsep", "-s", "S1_5"]).report
    g = index_ground(4)
    single = WeightedSplitSystem.unit(g, [Split(g, [0])])
    path = write(tmp_path, "single.splits", format_split_system(single))
    outcome = run(["check", "pairsep", "-s", path])
    assert "pairsep: false" in outcome.report
    assert "unseparated-pair: x0 x1" in outcome.report


def test_decompose_outcomes(tmp_path, tree_files):
    tree_splits, tree_dist, system = tree_files
    outcome = run(["decompose", "-i", tree_dist, "-s", tree_splits])
    assert outcome.exit_code == 0
    lines = outcome.report.splitlines()
    assert lines[0] == "result: ok"
    assert len([l for l in lines if l.startswith("weight: ")]) == len(system)

    g = index_ground(4)
    basis = [Split(g, [i]) for i in range(4)] + [Split(g, [0, 1]), Split(g, [0, 2])]
    basis_path = write(
        tmp_path, "basis.splits",
        format_split_system(WeightedSplitSystem.unit(g, basis)),
    )
    target = write(
        tmp_path, "target.dist",
        format_distance_matrix(split_metric(Split(g, [1, 2]))),
    )
    assert "result: NEGATIVE-WEIGHT" in run(
        ["decompose", "-i", target, "-s", basis_path]
    ).report

    short = [Split(g, [i]) for i in range(4)]
    short_path = write(
        tmp_path, "short.splits",
        format_split_system(WeightedSplitSystem.unit(g, short)),
    )
    assert "result: NOT-IN-SPAN" in run(
        ["decompose", "-i", target, "-s", short_path]
    ).report

    dependent = basis + [Split(g, [0, 3])]
    dep_path = write(
        tmp_path, "dep.splits",
        format_split_system(WeightedSplitSystem.unit(g, dependent)),
    )
    assert run(["decompose", "-i", target, "-s", dep_path]).exit_code == 3

    assert run(["decompose", "-i", tree_dist, "-s", basis_path]).exit_code == 2


@pytest.mark.parametrize("kind", ["circular", "flat"])
def test_decompose_of_a_maximum_system_at_n24(tmp_path, kind):
    # every split peels, so this stays well under a second; eliminating
    # all 276 splits instead would take seconds
    rng = random.Random(24)
    if kind == "circular":
        _, system = random_maximum_circular_system(24, rng)
    else:
        system = random_maximum_flat_system(24, rng)
        system = system.reweighted({s: rng.randint(0, 20) for s in system.splits})
    splits = write(tmp_path, "max.splits", format_split_system(system))
    dist = write(tmp_path, "max.dist", format_distance_matrix(generate_distance(system)))
    outcome = run(["decompose", "-i", dist, "-s", splits])
    assert outcome.exit_code == 0
    assert outcome.report.splitlines() == ["result: ok"] + [
        f"weight: [{s}] = {format_rational(w)}" for s, w in system.items()
    ]


def test_orderly_command(tmp_path):
    outcome = run(["orderly", "-s", "S1_5", "--trials", "0", "--seed", "0"])
    assert outcome.exit_code == 0
    lines = outcome.report.splitlines()
    assert lines[0] == "verdict: counterexample"
    assert "phase: 1" in lines
    assert "reason: NEGATIVE-WEIGHT" in lines
    assert any(line.startswith("negative-split:") for line in lines)
    marker = lines.index("weighting:")
    recovered = parse_split_system("\n".join(lines[marker + 1 :]))
    assert len(recovered) == 10
    assert sum(1 for _, w in recovered.items() if w != 0) == 2

    theta, system = random_maximum_circular_system(5, random.Random(11))
    circ = write(tmp_path, "circ.splits", format_split_system(system))
    outcome = run(["orderly", "-s", circ, "--trials", "5", "--seed", "3"])
    assert outcome.exit_code == 0
    assert "verdict: no-counterexample" in outcome.report
    assert "trials: 5" in outcome.report
    assert any(
        line.startswith("pair-probes: ") for line in outcome.report.splitlines()
    )

    negative = run(["orderly", "-s", circ, "--trials", "-3", "--seed", "3"])
    assert negative.exit_code == 2
    assert "trials" in negative.report

    with pytest.raises(SystemExit):
        run(["orderly", "-s", "S1_5"])


@pytest.mark.parametrize(
    "lines,seed,report",
    [
        (
            ["a | b,c,d", "a,b | c,d", "a,c | b,d", "a,d | b,c"], 216,
            "verdict: counterexample\nphase: 2\ntrial: 1\nreason: NOT-IN-SPAN\n"
            "weighting:\n4\na b c d\na,d | b,c : 11\na,c | b,d : 11\n"
            "a,b | c,d : 16\na | b,c,d : 9",
        ),
        (
            ["a | b,c,d", "a,b | c,d", "a,c | b,d", "a,d | b,c", "a,b,c | d"], 16,
            "verdict: counterexample\nphase: 2\ntrial: 9\nreason: NEGATIVE-WEIGHT\n"
            "negative-split: [a,b,c | d]\nweighting:\n4\na b c d\n"
            "a,d | b,c : 10\na,b,c | d : 5\na,c | b,d : 20\na,b | c,d : 20\n"
            "a | b,c,d : 20",
        ),
    ],
    ids=["not-in-span", "negative-weight"],
)
def test_orderly_reports_a_random_trial(tmp_path, lines, seed, report):
    # phase-2 counterexamples on four elements report their trial
    path = write(tmp_path, "four.splits", "4\na b c d\n" + "\n".join(lines) + "\n")
    outcome = run(["orderly", "-s", path, "--trials", "10", "--seed", str(seed)])
    assert outcome.exit_code == 0
    assert outcome.report == report


def test_check_independent_builds_one_solver(monkeypatch):
    builds = []
    init = flatlab_module._ExactSolver.__init__

    def counted(self, *args):
        builds.append(1)
        init(self, *args)

    monkeypatch.setattr(flatlab_module._ExactSolver, "__init__", counted)
    outcome = run(["check", "independent", "-s", "S2_5"])
    assert outcome.report == "independent: true\nrank: 10\nsize: 10"
    assert len(builds) == 1


@pytest.mark.parametrize(
    "text,reports",
    [
        ("1\na\n", {
            "flat": "flat: true", "pairsep": "pairsep: true",
            "closed": "closed: true", "compat": "compat: true",
        }),
        ("3\na b c\n", {
            "flat": "flat: false", "pairsep": "pairsep: false\nunseparated-pair: a b",
            "closed": "closed: true", "compat": "compat: true",
        }),
    ],
    ids=["n1", "n3-empty"],
)
def test_checks_of_systems_without_splits(tmp_path, text, reports):
    # with no split to take it from, the ground set comes from the file
    path = write(tmp_path, "none.splits", text)
    for kind, report in reports.items():
        outcome = run(["check", kind, "-s", path])
        assert (outcome.exit_code, outcome.report) == (0, report), kind


@pytest.mark.parametrize(
    "command",
    [f"check {kind}" for kind in
     ("compat", "circular", "flat", "independent", "closed", "pairsep")]
    + ["decompose", "orderly"],
)
def test_empty_split_system(tmp_path, command):
    # a split system file may list no splits; its ground set still counts
    empty = write(tmp_path, "empty.splits", "4\na b c d\n")
    zero = write(tmp_path, "zero.dist", "4\n" + "".join(f"{c} 0 0 0 0\n" for c in "abcd"))
    extra = {"decompose": ["-i", zero], "orderly": ["--seed", "0"]}.get(command, [])
    outcome = run(command.split() + extra + ["-s", empty])
    assert outcome.exit_code == 0, outcome.report


@pytest.mark.parametrize(
    "text", ["1\na\n", "2\na b\na | b\n", "3\na b c\n"], ids=["n1", "n2-one-split", "n3-empty"]
)
def test_orderly_on_the_smallest_systems(tmp_path, text):
    # one element, one split on two, no split on three: per-element column
    # gathers over one index must still give one-entry columns
    splits = write(tmp_path, "small.splits", text)
    outcome = run(["orderly", "-s", splits, "--trials", "3", "--seed", "0"])
    assert outcome.exit_code == 0
    assert outcome.report == "verdict: no-counterexample\npair-probes: 0\ntrials: 3"


@pytest.mark.parametrize(
    "command,message",
    [
        (["decompose", "-i", "big.dist", "-s", "one.splits"], "bad value '1e5000' in row 'a'"),
        (["order", "-i", "big.dist", "-p", "2", "-q", "1"], "bad value '1e5000' in row 'a'"),
        (["order", "-i", "one.dist", "-p", "1e5000", "-q", "1e5000"],
         "bad value for -p: '1e5000'"),
    ],
)
def test_value_too_long_to_print_is_an_input_error(tmp_path, command, message, digit_limit):
    # 1e5000 has more digits than a report may print, so it is refused at
    # parse time, as the same number written out in digits is
    write(tmp_path, "one.splits", "3\na b c\na | b,c\n")
    write(tmp_path, "one.dist", "3\na 0 1 1\nb 1 0 0\nc 1 0 0\n")
    write(tmp_path, "big.dist", "3\na 0 1e5000 1e5000\nb 1e5000 0 0\nc 1e5000 0 0\n")
    args = [str(tmp_path / a) if "." in a else a for a in command]
    outcome = run(args)
    assert outcome.exit_code == 2
    assert outcome.report == "error: " + message


def test_gen_round_trips(tmp_path):
    tree_path = str(tmp_path / "gen_tree.splits")
    outcome = run(["gen", "tree", "-n", "6", "--seed", "4", "-o", tree_path])
    assert outcome.exit_code == 0
    assert "splits: 9" in outcome.report
    with open(tree_path, encoding="utf-8") as handle:
        system = parse_split_system(handle.read())
    assert len(system) == 9
    assert is_compatible(system.splits)

    outcome = run(["gen", "circular", "-n", "5", "--seed", "4"])
    assert "splits: 10" in outcome.report
    assert any(
        line.startswith("ordering: ") for line in outcome.report.splitlines()
    )

    flat_path = str(tmp_path / "gen_flat.splits")
    outcome = run(["gen", "flat", "-n", "5", "--seed", "4", "-o", flat_path])
    assert outcome.exit_code == 0
    with open(flat_path, encoding="utf-8") as handle:
        flat = parse_split_system(handle.read())
    assert is_maximum_flat(flat)

    again = str(tmp_path / "gen_tree2.splits")
    run(["gen", "tree", "-n", "6", "--seed", "4", "-o", again])
    with open(tree_path, encoding="utf-8") as a, open(again, encoding="utf-8") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("kind", ["tree", "circular", "flat"])
def test_gen_of_one_element_is_an_input_error(kind):
    # an invalid parameter of gen, like orderly --trials -1, exits 2
    outcome = run(["gen", kind, "-n", "1", "--seed", "0"])
    assert outcome.exit_code == 2
    assert outcome.report.startswith("error: ")


def test_bench_is_not_a_command(capsys):
    # timings belong to perfbench: every command's output depends only on
    # its inputs
    with pytest.raises(SystemExit) as exc:
        run(["bench", "-n", "16", "--seed", "5"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_readme_lists_the_parser_commands():
    # the fenced block under README's "## Command line" names each
    # subcommand once, with the parser's choices for check and gen kinds
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    lines = [line.split() for line in block.splitlines()]
    assert all(words[0] == "ordist" for words in lines)
    subparsers = next(
        action.choices for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(words[1] for words in lines) == sorted(subparsers)
    for _, command, *rest in lines:
        kinds = [tuple(w.strip("{}").split(",")) for w in rest if w.startswith("{")]
        positional = [
            tuple(a.choices) for a in subparsers[command]._actions
            if a.choices and not a.option_strings
        ]
        assert kinds == positional, command


def test_readme_library_example_prints_what_it_says(capsys):
    # the fenced block under README's "## Library in one minute" runs as
    # written
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library in one minute\n", 1)[1].split("```", 2)[1]
    assert block.startswith("python\n")
    exec(compile(block.removeprefix("python\n"), "README.md", "exec"), {})
    assert capsys.readouterr().out == "9\nFalse\na,b,c,d\n"


def test_one_process_answers_like_fresh_processes(tmp_path, quartet_file, src_env, capsys):
    # the parser is built once per process and reused by every command,
    # an argparse error included
    splits = write(tmp_path, "quartet.splits", format_split_system(quartet_fixture()))
    order = ["order", "-i", quartet_file, "-p", "3", "-q", "2", "--algo", "kendall"]
    sequence = [
        order,
        ["check", "flat", "-s", splits, "--strict"],
        ["order", "-i", quartet_file, "-p", "2"],
        order,
    ]
    seen = []
    for argv in sequence:
        fresh = subprocess.run(
            [sys.executable, "-m", "ordist", *argv],
            capture_output=True,
            encoding="utf-8",
            env=src_env,
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        seen.append(code)
    assert seen == [0, 1, 2, 0]


def test_console_entry_point(tmp_path, quartet_file, src_env):
    result = subprocess.run(
        [sys.executable, "-m", "ordist.cli", "check", "compat", "-s", "S1_5",
         "--strict"],
        capture_output=True,
        encoding="utf-8",
        env=src_env,
    )
    assert result.returncode == 1
    assert "compat: false" in result.stderr
    ok = subprocess.run(
        [sys.executable, "-m", "ordist.cli", "order", "-i", quartet_file,
         "-p", "2", "-q", "1"],
        capture_output=True,
        encoding="utf-8",
        env=src_env,
    )
    assert ok.returncode == 0
    assert ok.stdout.startswith("algo: eq1")
    package = subprocess.run(
        [sys.executable, "-m", "ordist", "order", "-i", quartet_file,
         "-p", "2", "-q", "1"],
        capture_output=True,
        encoding="utf-8",
        env=src_env,
    )
    assert package.returncode == 0
    assert package.stdout == ok.stdout


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize(
    "argv,closed,code",
    [
        (["order", "-i", str(GOLDEN / "ties12.dist"), "-p", "2", "-q", "1"], "stdout", 0),
        (["gen", "circular", "-n", "40", "--seed", "1"], "stdout", 0),
        (["check", "circular", "-s", str(GOLDEN / "flat7.splits"), "--strict"], "stderr", 1),
        (["order", "-i", str(GOLDEN / "missing.dist"), "-p", "2", "-q", "1"], "stderr", 2),
        (["order", "-i", str(GOLDEN / "ties12.dist"), "-p", "2", "-q", "1/4"], "stderr", 3),
    ],
)
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_pipe_keeps_the_exit_code(argv, closed, code, unbuffered, src_env):
    """A reader that has closed the pipe before any output is written gets
    no traceback, and the command's own exit code stands, whether the
    report waits in a buffer until exit or is written at once."""
    env = {key: value for key, value in src_env.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {closed: write_end}
    other = "stderr" if closed == "stdout" else "stdout"
    streams[other] = subprocess.PIPE
    try:
        done = subprocess.run([sys.executable, "-m", "ordist", *argv], env=env, **streams)
    finally:
        os.close(write_end)
    assert (done.returncode, getattr(done, other)) == (code, b"")


def test_a_reader_that_stops_early_gets_no_traceback(src_env):
    # about 120 kB of output, more than a pipe holds, so the writer is
    # still writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "ordist", "gen", "circular", "-n", "40", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env,
    )
    assert proc.stdout.readline() == b"kind: circular\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")
