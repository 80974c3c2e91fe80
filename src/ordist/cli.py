"""Command line front end.

One text format family (see formats) for all I/O.  Reports are key: value
lines on stdout.  Exit codes: 0 the command ran and answered, 1 a check
came back false under --strict, 2 input or parse error, 3 precondition
violation (dependent basis, non-circular input, bad parameters).
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .circular import is_circular_split_system, order_distance_circular
from .compat import incompatible_pair, six_point_witness
from .core import (
    DistanceMatrix,
    OrderParams,
    PreconditionError,
    WeightedSplitSystem,
)
from .flatlab import (
    CounterexampleFound,
    FLAT_FIXTURE_NAMES,
    express_in_basis,
    flat_fixture,
    is_closed,
    is_maximum_flat,
    orderly_test,
    pairwise_separation_check,
    split_rank,
)
from .formats import (
    FormatError,
    format_distance_matrix,
    format_rational,
    format_split_system,
    parse_distance_matrix,
    parse_split_system,
    parse_value,
)
from .generators import (
    random_binary_tree_system,
    random_maximum_circular_system,
    random_maximum_flat_system,
)
from .order import midpath_split_system, order_distance_eq1, order_distance_kendall

__all__ = ["CommandOutcome", "main", "run"]

OK, STRICT_FAIL, INPUT_ERROR, PRECONDITION = 0, 1, 2, 3


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    report: str


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_output(path: str | None, text: str, lines: list[str]) -> None:
    if path is None:
        lines.append(text.rstrip("\n"))
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc.strerror or exc}") from exc
    lines.append(f"written: {path}")


def _load_matrix(path: str) -> DistanceMatrix:
    return parse_distance_matrix(_read_file(path))


def _load_splits(arg: str) -> WeightedSplitSystem:
    if arg in FLAT_FIXTURE_NAMES:
        return flat_fixture(arg)
    return parse_split_system(_read_file(arg))


def _parse_rational_flag(raw: str, flag: str) -> Fraction:
    try:
        return parse_value(raw, flag)
    except FormatError:
        raise FormatError(f"bad value for {flag}: {raw!r}") from None


def _verdict(value: bool) -> str:
    return "true" if value else "false"


def _engines() -> dict[str, Callable[[DistanceMatrix, OrderParams], DistanceMatrix]]:
    """Order distance engines by name.  Built on each call, so the engine
    that runs is whatever this module's attribute holds at that time."""
    return {
        "eq1": order_distance_eq1,
        "kendall": order_distance_kendall,
        "circular": order_distance_circular,
    }


def _cmd_order(args: argparse.Namespace) -> CommandOutcome:
    matrix = _load_matrix(args.input)
    p = _parse_rational_flag(args.p, "-p")
    q = _parse_rational_flag(args.q, "-q")
    params = OrderParams(p, q)
    lines = [f"algo: {args.algo}", f"p: {format_rational(params.p)}",
             f"q: {format_rational(params.q)}"]
    order = _engines()[args.algo](matrix, params)
    _write_output(args.output, format_distance_matrix(order), lines)
    return CommandOutcome(OK, "\n".join(lines))


def _cmd_midpath(args: argparse.Namespace) -> CommandOutcome:
    matrix = _load_matrix(args.input)
    n = matrix.n
    decomp = midpath_split_system(matrix)
    splits = sorted(decomp.x_splits, key=lambda s: s.bits)
    pair = incompatible_pair(splits)
    compatible = pair is None
    lines = [
        f"elements: {n}",
        f"x-splits: {len(decomp.x_splits)}",
        f"e-splits: {len(decomp.e_splits)}",
        f"bound: {n * (n - 1)}",
        f"compatible: {_verdict(compatible)}",
    ]
    if not compatible:
        lines.append(f"incompatible-pair: [{pair[0]}] [{pair[1]}]")
    if args.witness:
        # a witness shows two crossing strict sides, so none exists here
        witness = None if compatible else six_point_witness(matrix)
        if witness is None:
            lines.append("witness: none")
        else:
            labels = matrix.ground.labels
            parts = (f"{name}={labels[e]}" for name, e in zip("abstxy", witness.elements()))
            lines.append(f"witness: {' '.join(parts)}")
            lines.append(f"witness-condition: {witness.condition}{'ab'[witness.branch - 1]}")
    for split in splits:
        lines.append(f"x-split: [{split}] count {decomp.x_splits[split]}")
    for split in sorted(decomp.e_splits, key=lambda s: s.bits):
        lines.append(f"e-split: [{split}] count {decomp.e_splits[split]}")
    return CommandOutcome(OK, "\n".join(lines))


def _cmd_check(args: argparse.Namespace) -> CommandOutcome:
    system = _load_splits(args.splits)
    labels = system.ground.labels
    lines: list[str] = []
    if args.kind == "compat":
        pair = incompatible_pair(system)
        ok = pair is None
        lines.append(f"compat: {_verdict(ok)}")
        if not ok:
            lines.append(f"incompatible-pair: [{pair[0]}] [{pair[1]}]")
    elif args.kind == "circular":
        theta = is_circular_split_system(system)
        lines.append(f"circular: {_verdict(theta is not None)}")
        if theta is not None:
            lines.append(f"ordering: {theta}")
        ok = theta is not None
    elif args.kind == "independent":
        rank = split_rank(system)
        ok = rank == len(system)
        lines.append(f"independent: {_verdict(ok)}")
        lines.append(f"rank: {rank}")
        lines.append(f"size: {len(system)}")
    elif args.kind == "flat":
        ok = is_maximum_flat(system)
        lines.append(f"flat: {_verdict(ok)}")
    elif args.kind == "closed":
        bad = is_closed(system)
        ok = bad is None
        lines.append(f"closed: {_verdict(ok)}")
        if bad is not None:
            lines.append(f"violating-pair: [{bad[0]}] [{bad[1]}]")
    else:
        bad_pair = pairwise_separation_check(system)
        ok = bad_pair is None
        lines.append(f"pairsep: {_verdict(ok)}")
        if bad_pair is not None:
            x, y = bad_pair
            lines.append(f"unseparated-pair: {labels[x]} {labels[y]}")
    code = STRICT_FAIL if (args.strict and not ok) else OK
    return CommandOutcome(code, "\n".join(lines))


def _cmd_decompose(args: argparse.Namespace) -> CommandOutcome:
    matrix = _load_matrix(args.input)
    system = _load_splits(args.splits)
    if system.ground != matrix.ground:
        raise FormatError("matrix and splits use different ground sets")
    weights = express_in_basis(matrix, system)
    if weights is None:
        return CommandOutcome(OK, "result: NOT-IN-SPAN")
    lines = []
    negative = any(w < 0 for w in weights.values())
    lines.append(f"result: {'NEGATIVE-WEIGHT' if negative else 'ok'}")
    for split in system.splits:
        lines.append(f"weight: [{split}] = {format_rational(weights[split])}")
    return CommandOutcome(OK, "\n".join(lines))


def _cmd_orderly(args: argparse.Namespace) -> CommandOutcome:
    system = _load_splits(args.splits)
    verdict = orderly_test(system, trials=args.trials, seed=args.seed)
    lines = []
    if isinstance(verdict, CounterexampleFound):
        lines.append("verdict: counterexample")
        lines.append(f"phase: {verdict.phase}")
        if verdict.trial is not None:
            lines.append(f"trial: {verdict.trial}")
        if verdict.expression is None:
            lines.append("reason: NOT-IN-SPAN")
        else:
            lines.append("reason: NEGATIVE-WEIGHT")
            lines.append(f"negative-split: [{verdict.negative_split}]")
        counter = WeightedSplitSystem(system.ground, verdict.weighting)
        lines.append("weighting:")
        lines.append(format_split_system(counter).rstrip("\n"))
    else:
        lines.append("verdict: no-counterexample")
        lines.append(f"pair-probes: {verdict.pair_probes}")
        lines.append(f"trials: {verdict.trials}")
    return CommandOutcome(OK, "\n".join(lines))


def _cmd_gen(args: argparse.Namespace) -> CommandOutcome:
    rng = random.Random(args.seed)
    lines = [f"kind: {args.kind}", f"n: {args.n}", f"seed: {args.seed}"]
    if args.kind == "tree":
        system = random_binary_tree_system(args.n, rng)
    elif args.kind == "circular":
        theta, system = random_maximum_circular_system(args.n, rng)
        lines.append(f"ordering: {theta}")
    else:
        system = random_maximum_flat_system(args.n, rng)
    lines.insert(3, f"splits: {len(system)}")
    _write_output(args.output, format_split_system(system), lines)
    return CommandOutcome(OK, "\n".join(lines))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the
    process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ordist",
        description="Order distances and split system analysis for finite "
        "distance matrices, in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="compute an order distance matrix")
    p_order.add_argument("-i", "--input", required=True, help="distance matrix file")
    p_order.add_argument("-p", required=True, help="parameter p > 0")
    p_order.add_argument("-q", required=True, help="parameter q >= p/2")
    p_order.add_argument("--algo", choices=tuple(_engines()), default="eq1")
    p_order.add_argument("-o", "--output", help="write the matrix here instead of stdout")

    p_mid = sub.add_parser("midpath", help="midpath split system of a distance")
    p_mid.add_argument("-i", "--input", required=True, help="distance matrix file")
    p_mid.add_argument(
        "--witness",
        action="store_true",
        help="also search for a six-element incompatibility witness",
    )

    p_check = sub.add_parser("check", help="boolean analyses of a split system")
    p_check.add_argument(
        "kind",
        choices=("compat", "circular", "flat", "independent", "closed", "pairsep"),
    )
    p_check.add_argument(
        "-s", "--splits", required=True,
        help="split system file, or a fixture name (S1_5, S2_5)",
    )
    p_check.add_argument(
        "--strict", action="store_true", help="exit 1 when the verdict is false"
    )

    p_dec = sub.add_parser("decompose", help="express a distance over given splits")
    p_dec.add_argument("-i", "--input", required=True, help="distance matrix file")
    p_dec.add_argument("-s", "--splits", required=True, help="split system file or fixture")

    p_ord = sub.add_parser("orderly", help="search for an orderliness counterexample")
    p_ord.add_argument("-s", "--splits", required=True, help="split system file or fixture")
    p_ord.add_argument("--trials", type=int, default=200, help="random weightings to try")
    p_ord.add_argument("--seed", type=int, required=True, help="base seed for the trials")

    p_gen = sub.add_parser("gen", help="generate a random split system")
    p_gen.add_argument("kind", choices=("tree", "circular", "flat"))
    p_gen.add_argument("-n", type=int, required=True, help="number of elements")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", help="write the system here instead of stdout")

    return parser


_HANDLERS = {
    "order": _cmd_order,
    "midpath": _cmd_midpath,
    "check": _cmd_check,
    "decompose": _cmd_decompose,
    "orderly": _cmd_orderly,
    "gen": _cmd_gen,
}


def run(argv: list[str] | None = None) -> CommandOutcome:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except PreconditionError as exc:
        return CommandOutcome(PRECONDITION, f"error: {exc}")
    except ValueError as exc:
        return CommandOutcome(INPUT_ERROR, f"error: {exc}")


def main(argv: list[str] | None = None) -> int:
    outcome = run(argv)
    stream = sys.stdout if outcome.exit_code == OK else sys.stderr
    try:
        print(outcome.report, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader closed the pipe: the command's exit code stands, and
        # what is still buffered goes to devnull, so that the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
