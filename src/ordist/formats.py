"""Plain-text formats for distance matrices and split systems.

Distance matrix format::

    # optional comment lines
    4
    a 0 2 2 1
    b 2 0 2 3
    c 2 2 0 1
    d 1 3 1 0

Values are read exactly, by the rules of ``core.as_rational``: integers,
rationals like ``3/2`` or finite decimals like ``1.5``, with digits grouped
by single underscores, as in ``1_000``, on every supported Python.  A plain
integer token is read straight into an int; any other token becomes a
(numerator, denominator) pair, and the matrix stores every value as an int
over one common denominator (see ``DistanceMatrix.from_scaled``).

A matrix is symmetric, so each unordered pair is read and written once.
The reader keeps, for every column, the tokens the rows above wrote in it;
a row whose lower part repeats them as text takes the values already read,
one object per pair, and converts only its upper part.  The comparison is
made on text, not values, so that any other row is read whole, token by
token: the first bad token in row-major order is still the one named, and
an asymmetric pair still reaches the symmetry check.  The writer renders
entries (i, j), j >= i, and repeats their texts in row j.

Split system format::

    5
    a b c d e
    a,b | c,d,e : 3/2
    c | a,b,d,e

The weight clause is optional and defaults to 1.  Writing then reading
either format reproduces the object exactly.
"""

from __future__ import annotations

import sys
from collections import deque
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import itemgetter, or_

from .core import (
    DistanceMatrix,
    GroundSet,
    Split,
    WeightedSplitSystem,
    as_rational,
)

__all__ = [
    "FormatError",
    "format_rational",
    "parse_distance_matrix",
    "format_distance_matrix",
    "parse_split_system",
    "format_split_system",
]


class FormatError(ValueError):
    """Raised for malformed or inconsistent input text."""


def _ratio_text(numerator: int, denominator: int) -> str:
    common = gcd(numerator, denominator)
    if common == denominator:
        return str(numerator // common)
    return f"{numerator // common}/{denominator // common}"


def format_rational(value: Fraction) -> str:
    return _ratio_text(value.numerator, value.denominator)


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_value(token: str, context: str) -> Fraction:
    """Read one exact value by ``as_rational``, or raise ``FormatError``
    naming the token and ``context``."""
    try:
        return as_rational(token)
    except ValueError:
        raise FormatError(f"bad value {token!r} in {context}") from None


def _row_values(tokens: list[str], context: str, digits: int, denominators: list[int]) -> list:
    """The tokens' values, in order: a plain decimal integer of at most
    ``digits`` digits by int(), any other token by ``parse_value``, whose
    denominator is appended to ``denominators``."""
    row = []
    for token in tokens:
        if token.isdecimal() and len(token) <= digits:
            row.append(int(token))
        else:
            value = parse_value(token, context)
            row.append(value)
            denominators.append(value.denominator)
    return row


def parse_distance_matrix(text: str) -> DistanceMatrix:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty input")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"expected element count, got {lines[0]!r}") from None
    if n < 1:
        raise FormatError("element count must be at least 1")
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    # a plain decimal integer token of at most this many digits (0: no
    # limit) is read by int(); any other token, a longer integer included,
    # by parse_value, which refuses what int() could not read
    digits = sys.get_int_max_str_digits() or len(text)
    labels = []
    rows = []
    denominators = []  # of the values parse_value read
    # columns[i] holds the tokens (j, i), j < i, of the rows read so far:
    # row i's lower part as the rows above spelled it
    columns = [[] for _ in range(n)]
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != n + 1:
            raise FormatError(f"expected label plus {n} values: {line!r}")
        labels.append(tokens[0])
        context = f"row {tokens[0]!r}"
        if tokens[1 : i + 1] == columns[i]:
            # the mirrors were read without fault: share their values
            row = list(map(itemgetter(i), rows))
            row += _row_values(tokens[i + 1 :], context, digits, denominators)
        else:
            row = _row_values(tokens[1:], context, digits, denominators)
        columns[i] = None
        # each upper token (i, j), j > i, joins buffer j
        deque(map(list.append, columns[i + 1 :], tokens[i + 2 :]), 0)
        rows.append(row)
    # all values as ints over their least common denominator; when every
    # token was a plain integer they already are, over 1
    scale = lcm(*denominators)
    if denominators:
        rows = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    try:
        return DistanceMatrix.from_scaled(GroundSet(labels), rows, scale)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_distance_matrix(matrix: DistanceMatrix) -> str:
    lines = [str(matrix.n)]
    scale = matrix.scale
    # columns[i] holds the texts of entries (j, i), j < i, of the rows
    # written so far, which by symmetry are row i's lower part
    columns = [[] for _ in range(matrix.n)]
    for i, (label, row) in enumerate(zip(matrix.ground.labels, matrix.comparison_rows())):
        if scale == 1:  # digits, as _ratio_text(v, 1) writes, for bools too
            upper = list(map(int.__repr__, row[i:]))
        else:
            upper = [_ratio_text(v, scale) for v in row[i:]]
        texts = columns[i]
        columns[i] = None
        texts += upper
        lines.append(label + " " + " ".join(texts))
        # each upper text (i, j), j > i, joins buffer j
        deque(map(list.append, columns[i + 1 :], upper[1:]), 0)
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


def _side_mask(part: str, bit: dict[str, int], line: str) -> tuple[int, int]:
    """One side of a split line: the bitmask of its labels, from the
    label -> bit map, and the number of labels listed.  Distinct bits sum
    to their OR, and only then does the sum have one set bit per label (a
    repeated label carries), so the side is one ``sum`` and a popcount."""
    labels = part.strip().split(",")
    try:
        # a label holds no whitespace, so one found as written is stripped
        mask = sum(map(bit.__getitem__, labels))
    except KeyError:
        labels = [tok.strip() for tok in labels]
        # an empty label anywhere on the side is named before an unknown one
        if not all(labels):
            raise FormatError(f"empty label in split line {line!r}") from None
        for tok in labels:
            if tok not in bit:
                raise FormatError(f"unknown label {tok!r} in split line {line!r}") from None
        mask = sum(map(bit.__getitem__, labels))
    if mask.bit_count() != len(labels):
        mask = reduce(or_, map(bit.__getitem__, labels))
    return mask, len(labels)


def parse_split_system(text: str) -> WeightedSplitSystem:
    lines = _content_lines(text)
    if len(lines) < 2:
        raise FormatError("split system input needs a count line and a label line")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"expected element count, got {lines[0]!r}") from None
    labels = lines[1].split()
    if len(labels) != n:
        raise FormatError(f"expected {n} labels, found {len(labels)}")
    try:
        ground = GroundSet(labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    bit = {label: 1 << i for i, label in enumerate(labels)}
    digits = sys.get_int_max_str_digits() or len(text)  # as in parse_distance_matrix
    entries = []
    seen = set()  # canonical masks
    for line in lines[2:]:
        body, _, weight_part = line.partition(":")
        weight = 1
        token = weight_part.strip()
        if token.isdecimal() and len(token) <= digits:
            weight = int(token)
        elif token:
            weight = parse_value(token, f"split line {line!r}")
        sides = body.split("|")
        if len(sides) != 2:
            raise FormatError(f"expected exactly one '|' in split line {line!r}")
        left, listed_left = _side_mask(sides[0], bit, line)
        right, listed_right = _side_mask(sides[1], bit, line)
        if left & right:
            raise FormatError(f"sides overlap in split line {line!r}")
        if listed_left + listed_right != n:
            raise FormatError(f"sides do not cover all elements: {line!r}")
        if left.bit_count() + right.bit_count() != n:
            raise FormatError(f"repeated label in split line {line!r}")
        # both sides are non-empty, disjoint and cover the ground set
        canonical = right if left & 1 else left
        if canonical in seen:
            raise FormatError(f"duplicate split in line {line!r}")
        seen.add(canonical)
        if weight < 0:
            raise FormatError(f"negative weight in split line {line!r}")
        entries.append((Split.from_bits(ground, canonical), weight))
    try:
        return WeightedSplitSystem(ground, entries)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_split_system(system: WeightedSplitSystem) -> str:
    lines = [str(system.ground.n), " ".join(system.ground.labels)]
    for split, weight in system.items():
        lines.append(f"{split} : {format_rational(weight)}")
    lines.append("")  # as in format_distance_matrix
    return "\n".join(lines)
