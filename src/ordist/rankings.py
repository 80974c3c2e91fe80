"""Partial rankings with ties and the penalized Kendall distance.

A partial ranking is an ordered list of non-empty blocks partitioning the
ground set; elements inside a block are tied.  The penalized Kendall
distance charges, per element pair, 1 when the two rankings order the pair
in strictly opposite ways, a penalty ``pi`` when the pair is tied in exactly
one ranking, and 0 otherwise.

The distance is counted by sort and bisect; the tests hold it to a brute
O(n^2) pair scan.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import Counter
from fractions import Fraction
from typing import Iterable

from .core import DistanceMatrix, GroundSet, as_rational

__all__ = [
    "PartialRanking",
    "ranking_from_distance",
    "kendall_counts",
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


def kendall_counts(b1: list[int], b2: list[int]) -> tuple[int, int]:
    """(discordant pairs, pairs tied in exactly one) for two key vectors
    over the same elements.

    Any int keys whose order is the ranking will do: block indices, or the
    distance rows themselves.  After sorting the elements by (b1, b2), a
    pair is discordant exactly when its b2 values are strictly inverted, so
    each b2 value counts its strictly larger predecessors by bisection.
    Each insertion shifts O(n) list slots; that memory move stays cheaper
    than the comparisons bisection saves up to about n = 20000.
    """
    discordant = 0
    seen: list[int] = []
    for _, v in sorted(zip(b1, b2)):
        discordant += len(seen) - bisect_right(seen, v)
        insort(seen, v)

    def tie_pairs(counts: Counter) -> int:
        return sum(c * (c - 1) // 2 for c in counts.values())

    t1 = tie_pairs(Counter(b1))
    t2 = tie_pairs(Counter(b2))
    t12 = tie_pairs(Counter(zip(b1, b2)))
    return discordant, t1 + t2 - 2 * t12


def kendall_penalized(
    r1: PartialRanking, r2: PartialRanking, pi: int | str | Fraction
) -> Fraction:
    """Penalized Kendall distance via ``kendall_counts``."""
    if r1.ground != r2.ground:
        raise ValueError("ground set mismatch")
    pi = as_rational(pi)
    discordant, tied_one = kendall_counts(r1.block_indices(), r2.block_indices())
    return discordant + pi * tied_one
