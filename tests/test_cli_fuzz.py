"""Fuzz the command line with malformed and edge-case input files.

Every subcommand that reads a file must answer with a documented exit code
(0 answered, 1 only for a false `check --strict`, 2 input error, 3
precondition), never with a traceback, and must print its report to
stdout exactly when it exits 0.
"""

import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordist.cli import main

LABELS = "abcdefgh"
JUNK = ["", "x", "-1", "1/0", "1.5", "nan", "inf", "1e2", "3/2", "a", "|", ",", ":", "0"]

values = st.sampled_from(["0", "1", "2", "3", "1/2", "5/2", "0.5"])


@st.composite
def matrix_lines(draw, n):
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(values)
    return [str(n)] + [" ".join([LABELS[i]] + rows[i]) for i in range(n)]


@st.composite
def split_lines(draw, n):
    lines = [str(n), " ".join(LABELS[:n])]
    for side in draw(st.sets(st.integers(1, max(1, 2**n - 2)), max_size=8)):
        left = ",".join(LABELS[i] for i in range(n) if side >> i & 1)
        right = ",".join(LABELS[i] for i in range(n) if not side >> i & 1)
        weight = draw(st.sampled_from(["", " : 1", " : 0", " : 3/2", " : 2"]))
        lines.append(f"{left} | {right}{weight}")
    return lines


@st.composite
def mutated(draw, lines):
    """The lines as text, possibly with one token replaced, one line
    dropped or duplicated, or a comment or blank line inserted."""
    lines = list(lines)
    kind = draw(st.sampled_from(["none", "none", "token", "drop", "dup", "insert"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "token":
        tokens = lines[at].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK))
        lines[at] = " ".join(tokens)
    elif kind == "drop":
        del lines[at]
    elif kind == "dup":
        lines.insert(at, lines[at])
    elif kind == "insert":
        lines.insert(at, draw(st.sampled_from(["", "# note", "   "])))
    return "\n".join(lines) + "\n"


def distance_file(n):
    return matrix_lines(n).flatmap(mutated)


def split_file(n):
    return split_lines(n).flatmap(mutated)


@st.composite
def invocations(draw, command, dist_path, splits_path):
    """(argv, files to write) for one run of the given subcommand."""
    n = draw(st.integers(1, 8))
    if command == "order":
        argv = ["order", "-i", dist_path,
                "-p", draw(st.sampled_from(["2", "1", "3/2", "0", "x"])),
                "-q", draw(st.sampled_from(["1", "3/4", "2", "1/2"])),
                "--algo", draw(st.sampled_from(["eq1", "kendall", "circular"]))]
        return argv, {dist_path: draw(distance_file(n))}
    if command == "midpath":
        argv = ["midpath", "-i", dist_path]
        if n <= 6 and draw(st.booleans()):
            argv.append("--witness")
        return argv, {dist_path: draw(distance_file(n))}
    if command == "check":
        kind = draw(st.sampled_from(
            ["compat", "circular", "flat", "independent", "closed", "pairsep"]
        ))
        argv = ["check", kind, "-s", splits_path]
        if draw(st.booleans()):
            argv.append("--strict")
        return argv, {splits_path: draw(split_file(n))}
    if command == "decompose":
        argv = ["decompose", "-i", dist_path, "-s", splits_path]
        return argv, {dist_path: draw(distance_file(n)), splits_path: draw(split_file(n))}
    argv = ["orderly", "-s", splits_path,
            "--trials", draw(st.sampled_from(["0", "2", "-1"])),
            "--seed", draw(st.sampled_from(["0", "7"]))]
    return argv, {splits_path: draw(split_file(n))}


@pytest.mark.parametrize("command", ["order", "midpath", "check", "decompose", "orderly"])
def test_cli_answers_every_input_with_a_documented_exit_code(tmp_path_factory, command):
    work = tmp_path_factory.mktemp(command)
    dist_path, splits_path = str(work / "in.dist"), str(work / "in.splits")

    @given(invocations(command, dist_path, splits_path))
    def check(case):
        argv, files = case
        for path, text in files.items():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert code != 1 or "--strict" in argv
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert bool(out.getvalue()) == (code == 0)
        assert bool(err.getvalue()) == (code != 0)

    check()
