"""Partial rankings with ties and the penalized Kendall distance.

A partial ranking is an ordered list of non-empty blocks partitioning the
ground set; elements inside a block are tied.  The penalized Kendall
distance charges, per element pair, 1 when the two rankings order the pair
in strictly opposite ways, a penalty ``pi`` when the pair is tied in exactly
one ranking, and 0 otherwise.

The distance is computed by O(n log n) inversion counting; the tests hold
it to a brute O(n^2) pair scan.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable

from .core import DistanceMatrix, GroundSet, as_rational

__all__ = [
    "PartialRanking",
    "ranking_from_distance",
    "kendall_penalized",
]


class PartialRanking:
    """An ordered partition of a ground set into tie blocks."""

    __slots__ = ("ground", "blocks", "_block_index")

    def __init__(self, ground: GroundSet, blocks: Iterable[Iterable[int]]):
        blocks = tuple(frozenset(b) for b in blocks)
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise ValueError("empty block in partial ranking")
            if block & seen:
                raise ValueError("blocks must be disjoint")
            seen |= block
        if seen != set(range(ground.n)):
            raise ValueError("blocks must cover the ground set")
        self.ground = ground
        self.blocks = blocks
        index = [0] * ground.n
        for pos, block in enumerate(blocks):
            for e in block:
                index[e] = pos
        self._block_index = index

    def block_indices(self) -> list[int]:
        """For each element, the position of its block (0 = closest)."""
        return list(self._block_index)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartialRanking)
            and self.ground == other.ground
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.blocks))

    def __repr__(self) -> str:
        labels = self.ground.labels
        parts = [
            "{" + ",".join(labels[i] for i in sorted(b)) + "}" for b in self.blocks
        ]
        return "PartialRanking(" + " < ".join(parts) + ")"


def ranking_from_distance(matrix: DistanceMatrix, x: int) -> PartialRanking:
    """Rank all elements by increasing distance from x.

    Elements at equal distance from x share a block; the first block always
    contains x itself (plus anything at distance 0 from it).
    """
    row = matrix.comparison_rows()[x]
    order = sorted(range(matrix.n), key=row.__getitem__)
    blocks: list[list[int]] = []
    last = None
    for e in order:
        if last is not None and row[e] == last:
            blocks[-1].append(e)
        else:
            blocks.append([e])
            last = row[e]
    return PartialRanking(matrix.ground, blocks)


def _count_strict_inversions(values: list[int]) -> int:
    """Number of index pairs i < j with values[i] > values[j] (merge sort)."""
    n = len(values)
    if n < 2:
        return 0
    buf = values[:]
    tmp = [0] * n
    count = 0
    width = 1
    while width < n:
        for lo in range(0, n - width, 2 * width):
            mid = lo + width
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if buf[j] < buf[i]:
                    tmp[k] = buf[j]
                    count += mid - i
                    j += 1
                else:
                    tmp[k] = buf[i]
                    i += 1
                k += 1
            tmp[k:hi] = buf[i:mid] if i < mid else buf[j:hi]
            buf[lo:hi] = tmp[lo:hi]
        width *= 2
    return count


def kendall_counts(b1: list[int], b2: list[int]) -> tuple[int, int]:
    """(discordant pairs, pairs tied in exactly one) for two block-index
    vectors over the same elements.  O(n log n)."""
    n = len(b1)
    order = sorted(range(n), key=lambda e: (b1[e], b2[e]))
    seq = [b2[e] for e in order]
    discordant = _count_strict_inversions(seq)

    def tie_pairs(counts: Counter) -> int:
        return sum(c * (c - 1) // 2 for c in counts.values())

    t1 = tie_pairs(Counter(b1))
    t2 = tie_pairs(Counter(b2))
    t12 = tie_pairs(Counter(zip(b1, b2)))
    return discordant, t1 + t2 - 2 * t12


def kendall_penalized(
    r1: PartialRanking, r2: PartialRanking, pi: int | str | Fraction
) -> Fraction:
    """Penalized Kendall distance via inversion counting."""
    if r1.ground != r2.ground:
        raise ValueError("ground set mismatch")
    pi = as_rational(pi)
    discordant, tied_one = kendall_counts(r1.block_indices(), r2.block_indices())
    return discordant + pi * tied_one
