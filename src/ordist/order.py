"""Order distances of a distance matrix.

For elements u, v the ground set decomposes into the elements strictly
closer to u, those strictly closer to v, and the equidistant ones.  The
order distance with parameters (p, q) is the weighted split-system distance
built from these pieces over all pairs (Eq. (1)):

    O(x, y) = sum over ordered pairs (u, v) whose closer-to-u side is a
              proper non-empty part, of p/2 when that part separates x, y,
        plus  sum over unordered pairs {u, v} whose equidistant set is a
              proper non-empty part, of q - p/2 when it separates x, y.

Over all x, y at once this is the split decomposition of O: with X(u, v) the
closer-to-u side and E(u, v) the equidistant set,

    O = p/2 * (sum over ordered (u, v) of delta_X(u,v))
        + (q - p/2) * (sum over unordered {u, v} of delta_E(u,v)),

delta the split metric and improper sides dropped.  So the counts of
``midpath_split_system``, x-splits weighted p/2 and e-splits q - p/2, make
a weighted split system whose ``generate_distance`` is O at every (p, q).
At (2, 1), for 2 * delta_A + 2 * delta_B with crossing sides A and B, the
sum comes to six splits.  With corners C1 = A & B, C2 = B - A, C3 = A - B
and C4 the rest, of sizes n1 .. n4 (the blocks of ``two_split_order_values``),

    O = 2 (n1 n2 + n3 n4) delta_A + 2 (n1 n3 + n2 n4) delta_B
        + n1 n4 (delta_C1 + delta_C4) + n2 n3 (delta_C2 + delta_C3),

every coefficient positive.  With the middle split M = C1 + C4 | C2 + C3,
delta_A + delta_B + delta_M is the sum of the four corner splits (a pair in
two corners is separated by two of each), so with k = min(n1 n4, n2 n3)

    O = (2 (n1 n2 + n3 n4) + k) delta_A + (2 (n1 n3 + n2 n4) + k) delta_B
        + k delta_M + (n1 n4 - k) (delta_C1 + delta_C4)
        + (n2 n3 - k) (delta_C2 + delta_C3),

whose terms of non-zero weight are the splits that conditions (b) to (d)
of closedness (``flatlab.is_closed``) put in the system.

Both kernels here rest on one bitset per element z and comparison kind:
the comparison sets of z, n^2-bit ints whose bit (u, v) says
D(u, z) < D(v, z) (strict) or D(u, z) = D(v, z) (tie).

A part of Eq. (1) separates x and y exactly when x and y disagree on the
comparison of D(u, .) with D(v, .).  So O(x, y) counts the pairs on which
the comparison sets of x and y differ: ``order_distance_eq1`` evaluates
Eq. (1) with popcounts of their XOR, never listing the splits.
``midpath_split_system`` reads the same sets by columns: transposed, the
column of bit (u, v) is the part {z : D(u, z) < D(v, z)} itself, so one
transpose of the strict sets gives every closer-to-u side, and the
equidistant set of {u, v} is what neither strict side holds.  The
aggregated parts come out without comparing entries one z at a time.
``order_distance_kendall`` is a per-pair reformulation through penalized
Kendall distances of the distance-from-x rankings; it walks a row with no
ties in its own order and sorts a pair only when both rows have ties.
The engines return identical exact results; a third engine for circular
inputs lives in ``ordist.circular``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence

from .core import (
    DistanceMatrix,
    GroundSet,
    OrderParams,
    Split,
    WeightedSplitSystem,
    canonical_mask,
    generate_distance,
    transpose_bits,
)
from .rankings import pair_counts, rank_table

__all__ = [
    "PairPartition",
    "MidpathDecomposition",
    "pair_partition",
    "midpath_split_system",
    "order_distance_eq1",
    "order_distance_kendall",
    "two_split_order_values",
    "two_split_instance",
]


@dataclass(frozen=True)
class PairPartition:
    """The three-way partition induced by comparing distances to u and v."""

    u: int
    v: int
    closer_to_u: frozenset[int]
    closer_to_v: frozenset[int]
    equidistant: frozenset[int]


@dataclass(frozen=True)
class MidpathDecomposition:
    """Aggregated proper parts over all element pairs.

    ``x_splits`` counts, per split, the ordered pairs (u, v) whose
    closer-to-u side forms that split; ``e_splits`` counts, per split, the
    unordered pairs whose equidistant set forms it.
    """

    x_splits: dict[Split, int]
    e_splits: dict[Split, int]

    def split_system(self) -> frozenset[Split]:
        """The splits contributed by strict comparisons (the x side)."""
        return frozenset(self.x_splits)


def pair_partition(matrix: DistanceMatrix, u: int, v: int) -> PairPartition:
    """Partition all elements by their strict distance comparison to u, v."""
    if u == v:
        raise ValueError("pair partition needs two distinct elements")
    rows = matrix.comparison_rows()
    row_u, row_v = rows[u], rows[v]
    near_u, near_v, equal = [], [], []
    for z in range(matrix.n):
        du, dv = row_u[z], row_v[z]
        if du < dv:
            near_u.append(z)
        elif dv < du:
            near_v.append(z)
        else:
            equal.append(z)
    return PairPartition(
        u, v, frozenset(near_u), frozenset(near_v), frozenset(equal)
    )


def midpath_split_system(matrix: DistanceMatrix) -> MidpathDecomposition:
    """Aggregate the proper closer-to-u sides and equidistant sets of all
    pairs into two multiplicity maps keyed by canonical splits.

    Bit u*w + v (w = 8 * ceil(n/8)) of element z's strict comparison set
    says D(u, z) < D(v, z), so one transpose of the n strict sets gives, at
    column u*w + v, the side X(u, v) = {z : D(u, z) < D(v, z)} as an n-bit
    mask.  The equidistant set of {u, v} is what neither strict side holds,
    full ^ (X(u, v) | X(v, u)); for u < v the columns u*w + v form a slice
    and the columns v*w + u a slice with stride w.  Improper sides drop,
    the empty diagonal and padding columns among them.  The raw columns are
    counted first and only the distinct ones canonicalized, in first-seen
    order.  Only the strict sets are built; they and the transpose's word
    copy hold n * n * w / 8 bytes each, the n * w column ints about twice
    that, and the traced peak is 9.0 MB at n = 256.
    """
    n = matrix.n
    full = (1 << n) - 1
    width = _row_width(n)
    rows = matrix.comparison_rows()
    # rows[z] is column z too: the matrix is symmetric
    sides = transpose_bits([_comparison_sets(rows[z], False)[0] for z in range(n)], n * width)
    ties = (
        full ^ (near_u | near_v)
        for u in range(n)
        for near_u, near_v in zip(
            sides[u * width + u + 1 : u * width + n], sides[(u + 1) * width + u :: width]
        )
    )
    x_masks, e_masks = {}, {}
    for counts, masks in ((x_masks, sides), (e_masks, ties)):
        for mask, count in Counter(masks).items():
            if 0 < mask < full:
                key = canonical_mask(mask, full)
                counts[key] = counts.get(key, 0) + count
    if len(x_masks) > n * (n - 1):
        raise AssertionError("split count exceeds the n(n-1) bound")
    ground = matrix.ground
    x_splits = {Split.from_bits(ground, m): c for m, c in x_masks.items()}
    e_splits = {Split.from_bits(ground, m): c for m, c in e_masks.items()}
    return MidpathDecomposition(x_splits, e_splits)


def _row_width(n: int) -> int:
    """The bit width w of one row of a comparison set on n elements, n
    rounded up to whole bytes: bit u*w + v is the pair (u, v)."""
    return 8 * ((n + 7) // 8)


def _comparison_sets(column: Sequence[int], with_ties: bool) -> tuple[int, int]:
    """The strict and the tie comparison sets of one element x, as ints.

    ``column[u]`` is D(u, x).  Row u of the strict set (bits u*w .. u*w+n-1,
    w = 8 * ceil(n/8)) holds the v with D(u, x) < D(v, x); row u of the tie
    set holds the v with D(u, x) = D(v, x).  The tie set also holds every
    pair u = v, the same bits for all x, so they cancel in E_x ^ E_y.  It
    is 0 unless ``with_ties``.
    """
    width = _row_width(len(column)) // 8
    blocks: dict[int, int] = {}
    for v, value in enumerate(column):
        blocks[value] = blocks.get(value, 0) | (1 << v)
    above: dict[int, int] = {}
    farther = 0
    for value in sorted(blocks, reverse=True):
        above[value] = farther
        farther |= blocks[value]
    strict = _joined_rows(above, column, width)
    if not with_ties:
        return strict, 0
    return strict, _joined_rows(blocks, column, width)


def _joined_rows(row_of: dict[int, int], column: Sequence[int], width: int) -> int:
    """The int whose row u, of width bytes, is row_of[column[u]]."""
    if width == 1:
        data = bytes(map(row_of.__getitem__, column))
    else:
        data = b"".join(row_of[value].to_bytes(width, "little") for value in column)
    return int.from_bytes(data, "little")


def order_distance_eq1(
    matrix: DistanceMatrix, params: OrderParams
) -> DistanceMatrix:
    """Order distance evaluated from per-element comparison sets.

    A split of Eq. (1) separates x and y exactly when x and y disagree on
    the comparison that defines it, so

        O(x, y) = p/2 * |T_x ^ T_y| + (q - p/2) * |E_x ^ E_y| / 2,

    where T_x is the set of ordered pairs (u, v) with D(u, x) < D(v, x) and
    E_x the set of ordered pairs u != v with D(u, x) = D(v, x) (each
    unordered pair twice, hence the halving).  An empty or full side agrees
    at x and y, so it adds nothing and needs no special case.  Each set is
    an n^2-bit int and |.| a popcount, so the cost is O(n^4 / 64) word
    operations.  The sets of all elements hold n^3 / 8 bytes, and 2 n^3 / 8
    when q != p/2: 64 KB at n = 64 and 1 MB at n = 160.
    """
    n = matrix.n
    half_p, e_coeff = params.half_p, params.e_coeff
    scale = lcm(half_p.denominator, e_coeff.denominator)
    strict_weight = int(half_p * scale)
    tie_weight = int(e_coeff * scale)
    rows = matrix.comparison_rows()
    # rows[x] is column x too: the matrix is symmetric
    sets = [_comparison_sets(rows[x], tie_weight != 0) for x in range(n)]
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        strict_x, ties_x = sets[x]
        out_x = out[x]
        for y in range(x + 1, n):
            strict_y, ties_y = sets[y]
            numerator = strict_weight * (strict_x ^ strict_y).bit_count()
            if ties_x != ties_y:
                numerator += tie_weight * ((ties_x ^ ties_y).bit_count() // 2)
            out_x[y] = out[y][x] = numerator
    return DistanceMatrix.from_scaled(matrix.ground, out, scale)


def order_distance_kendall(
    matrix: DistanceMatrix, params: OrderParams
) -> DistanceMatrix:
    """Order distance as p * (discordant pairs) + q * (pairs tied in exactly
    one) between the distance-from-x rankings of the two arguments.

    Row x of the matrix ranks the elements by distance from x, so the rows
    are the ranking keys as they are.  Each row's ``rank_table`` is built
    once; each pair of rows then costs one walk in ``pair_counts``, after
    one sort only when both rows have ties.
    """
    n = matrix.n
    tables = [rank_table(row) for row in matrix.comparison_rows()]
    scale = lcm(params.p.denominator, params.q.denominator)
    p, q = int(params.p * scale), int(params.q * scale)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        table_x, out_x = tables[x], out[x]
        for y in range(x + 1, n):
            discordant, tied_one = pair_counts(table_x, tables[y])
            out_x[y] = out[y][x] = p * discordant + q * tied_one
    return DistanceMatrix.from_scaled(matrix.ground, out, scale)


def two_split_order_values(
    n1: int, n2: int, n3: int, n4: int
) -> tuple[Fraction, ...]:
    """Closed-form order distance values, at (p, q) = (2, 1), of the
    distance generated by two incompatible splits of weight 2 each.

    Block sizes n1..n4 are the four pairwise intersections of the two
    splits' sides, all at least 1: with A a side of the first split and
    B a side of the second, block 1 lies in A and B, block 2 in B only,
    block 3 in A only and block 4 in neither, as in ``two_split_instance``.
    Returns the six inter-block values (O12, O13, O14, O23, O24, O34);
    intra-block values are all 0.
    """
    if min(n1, n2, n3, n4) < 1:
        raise ValueError("all four blocks must be non-empty")
    near = n1 * n4 + 2 * (n1 * n2 + n3 * n4) + n2 * n3
    cross = n1 * n4 + 2 * (n1 * n3 + n2 * n4) + n2 * n3
    far = 2 * (n1 * n4 + n1 * n2 + n3 * n4 + n1 * n3 + n2 * n4)
    anti = 2 * (n2 * n3 + n1 * n2 + n3 * n4 + n1 * n3 + n2 * n4)
    return tuple(map(Fraction, (near, cross, far, anti, cross, near)))


def two_split_instance(
    n1: int, n2: int, n3: int, n4: int
) -> tuple[DistanceMatrix, tuple[range, range, range, range], WeightedSplitSystem]:
    """Concrete witness instance for ``two_split_order_values``: a ground set
    of four consecutive blocks and the two incompatible splits, weight 2
    each.  Returns (generated distance, blocks, the weighted system)."""
    if min(n1, n2, n3, n4) < 1:
        raise ValueError("all four blocks must be non-empty")
    offsets = list(accumulate((n1, n2, n3, n4), initial=0))
    blocks = tuple(map(range, offsets, offsets[1:]))
    ground = GroundSet(f"e{i}" for i in range(offsets[-1]))
    side_one = list(blocks[0]) + list(blocks[2])
    side_two = list(blocks[0]) + list(blocks[1])
    system = WeightedSplitSystem(
        ground, [(Split(ground, side_one), 2), (Split(ground, side_two), 2)]
    )
    return generate_distance(system), blocks, system
