"""Order distances of a distance matrix.

For elements u, v the ground set decomposes into the elements strictly
closer to u, those strictly closer to v, and the equidistant ones.  The
order distance with parameters (p, q) is the weighted split-system distance
built from these pieces over all pairs:

    O(x, y) = sum over ordered pairs (u, v) whose closer-to-u side is a
              proper non-empty part, of p/2 when that part separates x, y,
        plus  sum over unordered pairs {u, v} whose equidistant set is a
              proper non-empty part, of q - p/2 when it separates x, y.

Two engines are provided: a direct evaluation that aggregates identical
parts first (``order_distance_eq1``) and a per-pair reformulation through
penalized Kendall distances of the distance-from-x rankings
(``order_distance_kendall``).  Both return identical exact results; a third
engine for circular inputs lives in ``ordist.circular``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DistanceMatrix,
    GroundSet,
    OrderParams,
    Split,
    WeightedSplitSystem,
    canonical_mask,
    generate_distance,
)
from .rankings import kendall_counts, ranking_from_distance

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
    pairs into two multiplicity maps keyed by canonical splits."""
    n = matrix.n
    ground = matrix.ground
    rows = matrix.comparison_rows()
    full = (1 << n) - 1
    x_masks: dict[int, int] = {}
    e_masks: dict[int, int] = {}
    for u in range(n):
        row_u = rows[u]
        for v in range(n):
            if u == v:
                continue
            row_v = rows[v]
            x_mask = 0
            e_mask = 0
            for z in range(n):
                du, dv = row_u[z], row_v[z]
                if du < dv:
                    x_mask |= 1 << z
                elif du == dv:
                    e_mask |= 1 << z
            if 0 < x_mask < full:
                key = canonical_mask(x_mask, full)
                x_masks[key] = x_masks.get(key, 0) + 1
            if u < v and 0 < e_mask < full:
                key = canonical_mask(e_mask, full)
                e_masks[key] = e_masks.get(key, 0) + 1
    if len(x_masks) > n * (n - 1):
        raise AssertionError("split count exceeds the n(n-1) bound")
    x_splits = {Split.from_bits(ground, m): c for m, c in x_masks.items()}
    e_splits = {Split.from_bits(ground, m): c for m, c in e_masks.items()}
    return MidpathDecomposition(x_splits, e_splits)


def _accumulate_counts(
    counts: list[list[int]], split: Split, multiplicity: int
) -> None:
    a_side, b_side = split.index_lists()
    for i in a_side:
        row = counts[i]
        for j in b_side:
            row[j] += multiplicity


def order_distance_eq1(
    matrix: DistanceMatrix, params: OrderParams
) -> DistanceMatrix:
    """Order distance evaluated directly from the aggregated decomposition."""
    n = matrix.n
    decomposition = midpath_split_system(matrix)
    x_counts = [[0] * n for _ in range(n)]
    for split, mult in decomposition.x_splits.items():
        _accumulate_counts(x_counts, split, mult)
    e_coeff = params.e_coeff
    e_counts = None
    if e_coeff != 0:
        e_counts = [[0] * n for _ in range(n)]
        for split, mult in decomposition.e_splits.items():
            _accumulate_counts(e_counts, split, mult)
    half_p = params.half_p
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = half_p * (x_counts[i][j] + x_counts[j][i])
            if e_counts is not None:
                value += e_coeff * (e_counts[i][j] + e_counts[j][i])
            out[i][j] = out[j][i] = value
    return DistanceMatrix(matrix.ground, out)


def order_distance_kendall(
    matrix: DistanceMatrix, params: OrderParams
) -> DistanceMatrix:
    """Order distance as p * (discordant pairs) + q * (pairs tied in exactly
    one) between the distance-from-x rankings of the two arguments."""
    n = matrix.n
    indices = [
        ranking_from_distance(matrix, x).block_indices() for x in range(n)
    ]
    p, q = params.p, params.q
    out = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            discordant, tied_one = kendall_counts(indices[x], indices[y])
            out[x][y] = out[y][x] = p * discordant + q * tied_one
    return DistanceMatrix(matrix.ground, out)


def two_split_order_values(
    n1: int, n2: int, n3: int, n4: int
) -> tuple[Fraction, ...]:
    """Closed-form order distance values, at (p, q) = (2, 1), of the
    distance generated by two incompatible splits of weight 2 each.

    Block sizes n1..n4 are the four pairwise intersections of the two
    splits' sides (all at least 1).  Returns the six inter-block values
    (O12, O13, O14, O23, O24, O34); intra-block values are all 0.
    """
    if min(n1, n2, n3, n4) < 1:
        raise ValueError("all four blocks must be non-empty")
    near = n1 * n4 + 2 * (n1 * n2 + n3 * n4) + n2 * n3
    cross = n1 * n4 + 2 * (n1 * n3 + n2 * n4) + n2 * n3
    far = 2 * (n1 * n4 + n1 * n2 + n3 * n4 + n1 * n3 + n2 * n4)
    anti = 2 * (n2 * n3 + n1 * n2 + n3 * n4 + n1 * n3 + n2 * n4)
    return tuple(
        Fraction(v) for v in (near, cross, far, anti, cross, near)
    )


def two_split_instance(
    n1: int, n2: int, n3: int, n4: int
) -> tuple[DistanceMatrix, tuple[range, range, range, range], WeightedSplitSystem]:
    """Concrete witness instance for ``two_split_order_values``: a ground set
    of four consecutive blocks and the two incompatible splits, weight 2
    each.  Returns (generated distance, blocks, the weighted system)."""
    if min(n1, n2, n3, n4) < 1:
        raise ValueError("all four blocks must be non-empty")
    sizes = (n1, n2, n3, n4)
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    blocks = tuple(range(offsets[k], offsets[k + 1]) for k in range(4))
    n = offsets[-1]
    ground = GroundSet(f"e{i}" for i in range(n))
    side_one = list(blocks[0]) + list(blocks[2])
    side_two = list(blocks[0]) + list(blocks[1])
    system = WeightedSplitSystem(
        ground, [(Split(ground, side_one), 2), (Split(ground, side_two), 2)]
    )
    return generate_distance(system), blocks, system
