"""The benchmark's workloads.

A workload's set-up makes its inputs from the seed, writes them to files
and computes what each command must answer.  A job (a "bundle") is a fixed
list of ``ordist`` CLI commands that read those files; every command is
checked against a reference from a different engine or against a verdict
known by construction.

All program calls go through module attributes (``cli.run``,
``ordist.generate_distance``, ...) so the traced run can wrap them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ordist
from ordist import cli
from ordist import generators

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps the
# same commands at n = 8 or so for the smoke test.
SIZES = {
    "full": {
        "order-random": {"n": 64},
        "circular": {"n": 160},
        "split-systems": {"orderly_n": 8, "trials": 10, "circular_n": 32,
                          "flat_n": 10, "tree_n": 64},
    },
    "tiny": {
        "order-random": {"n": 8},
        "circular": {"n": 8},
        "split-systems": {"orderly_n": 6, "trials": 2, "circular_n": 8,
                          "flat_n": 6, "tree_n": 8},
    },
}

# Incompatible pairs among the C(n,2) interval splits of an n-cycle: the
# phase-1 probe count orderly_test must report on a maximum circular system.
ORDERLY_N_PAIR_PROBES = {6: 15, 8: 70}


@dataclass(frozen=True)
class Command:
    """One CLI call and what counts as its correct answer.

    ``expect`` lists report lines that must appear; ``reference`` is a file
    the written ``output`` must equal byte for byte.  ``replay``, when set,
    repeats the command's steps through the public library functions and
    returns a failure reason or None; only the traced run calls it.
    """

    argv: tuple[str, ...]
    expect: tuple[str, ...]
    output: Path | None = None
    reference: Path | None = None
    replay: Callable[[], str | None] | None = None

    def check(self, outcome: cli.CommandOutcome) -> str | None:
        if outcome.exit_code != 0:
            return f"exit code {outcome.exit_code}: {outcome.report[:200]}"
        lines = set(outcome.report.splitlines())
        missing = [line for line in self.expect if line not in lines]
        if missing:
            return f"report lacks {missing[0]!r}"
        if self.reference is not None:
            if not self.reference.is_file():
                return f"reference {self.reference.name} missing"
            if not self.output.is_file():
                return f"output {self.output.name} missing"
            if self.output.read_bytes() != self.reference.read_bytes():
                return f"output differs from reference {self.reference.name}"
        return None


def _order_argv(path: Path, q: str, algo: str | None, out: Path) -> tuple[str, ...]:
    argv = ["order", "-i", str(path), "-p", "2", "-q", q]
    if algo is not None:
        argv += ["--algo", algo]
    return tuple(argv + ["-o", str(out)])


def _order_command(
    work: Path, name: str, matrix: ordist.DistanceMatrix, q: str,
    algo: str | None, reference_algo: str,
) -> Command:
    """Write the matrix, compute the reference with another engine and
    return the timed command."""
    path = work / f"{name}.dist"
    path.write_text(ordist.format_distance_matrix(matrix), encoding="utf-8")
    reference = work / f"{name}.{reference_algo}.ref"
    cli.run(list(_order_argv(path, q, reference_algo, reference)))
    out = work / f"{name}.out"
    expect = (f"algo: {algo or 'eq1'}", "p: 2", f"q: {q}", f"written: {out}")
    return Command(_order_argv(path, q, algo, out), expect, out, reference)


def setup_order_random(work: Path, seed: int, size: dict) -> list[Command]:
    """Random matrices, eq1 engine, checked against the kendall engine."""
    rng = random.Random(seed)
    n = size["n"]
    distinct = generators.random_distance_matrix(n, rng)
    ties = generators.random_distance_matrix(n, rng, tie_rich=True)
    return [
        _order_command(work, "distinct", distinct, "1", None, "kendall"),
        _order_command(work, "ties", ties, "3/2", None, "kendall"),
    ]


def setup_circular(work: Path, seed: int, size: dict) -> list[Command]:
    """Maximum circular distances, circular engine, checked against eq1."""
    rng = random.Random(seed)
    commands = []
    for name, positive in (("weights1-20", True), ("weights0-20", False)):
        theta, system = generators.random_maximum_circular_system(
            size["n"], rng, positive=positive
        )
        matrix = ordist.evaluate_circular_distance(
            theta, ordist.interval_weight_map(theta, system)
        )
        commands.append(_order_command(work, name, matrix, "1", "circular", "eq1"))
    return commands


def _first_probe_replay(system: ordist.WeightedSplitSystem) -> Callable[[], str | None]:
    """Replay orderly_test's first phase-1 probe through public functions:
    weight 2 on the first incompatible pair, generate, eq1, express."""
    splits = list(system.splits)
    ground = system.ground
    s1, s2 = next(
        (a, b) for i, a in enumerate(splits) for b in splits[i + 1:]
        if not ordist.is_compatible_pair(a, b)
    )
    weights = {s: Fraction(2) if s in (s1, s2) else Fraction(0) for s in splits}
    params = ordist.OrderParams(2, 1)

    def replay() -> str | None:
        if not ordist.is_linearly_independent(splits):
            return "replay: splits dependent"
        generated = ordist.generate_distance(ordist.WeightedSplitSystem(ground, weights))
        order_values = ordist.order_distance_eq1(generated, params)
        expression = ordist.express_in_basis(order_values, splits)
        if expression is None or any(w < 0 for w in expression.values()):
            return "replay: first phase-1 probe is a counterexample"
        return None

    return replay


def setup_split_systems(work: Path, seed: int, size: dict) -> list[Command]:
    """Small split systems whose verdicts are known by construction."""
    rng = random.Random(seed)
    orderly_n = size["orderly_n"]
    _, small_circular = generators.random_maximum_circular_system(orderly_n, rng)
    theta, circular = generators.random_maximum_circular_system(size["circular_n"], rng)
    flat = generators.random_maximum_flat_system(size["flat_n"], rng)
    tree = ordist.generate_distance(
        generators.random_binary_tree_system(size["tree_n"], rng)
    )
    files = {
        "orderly.splits": ordist.format_split_system(small_circular),
        "circular.splits": ordist.format_split_system(circular),
        "flat.splits": ordist.format_split_system(flat),
        "tree.dist": ordist.format_distance_matrix(tree),
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    trials = str(size["trials"])
    return [
        Command(
            ("orderly", "-s", str(work / "orderly.splits"), "--trials", trials,
             "--seed", str(seed)),
            ("verdict: no-counterexample",
             f"pair-probes: {ORDERLY_N_PAIR_PROBES[orderly_n]}", f"trials: {trials}"),
            replay=_first_probe_replay(small_circular),
        ),
        Command(
            ("check", "circular", "-s", str(work / "circular.splits")),
            ("circular: true", f"ordering: {theta}"),
        ),
        Command(("check", "flat", "-s", str(work / "flat.splits")), ("flat: true",)),
        Command(
            ("midpath", "-i", str(work / "tree.dist")),
            ("compatible: true", f"elements: {size['tree_n']}"),
        ),
    ]


# workload name -> set-up: (work directory, seed, sizes) -> the bundle
WORKLOADS: dict[str, Callable[[Path, int, dict], list[Command]]] = {
    "order-random": setup_order_random,
    "circular": setup_circular,
    "split-systems": setup_split_systems,
}
