"""Partial rankings with ties and the penalized Kendall distance.

A partial ranking is an ordered list of non-empty blocks partitioning the
ground set; elements inside a block are tied.  The penalized Kendall
distance charges, per element pair, 1 when the two rankings order the pair
in strictly opposite ways, a penalty ``pi`` when the pair is tied in exactly
one ranking, and 0 otherwise.

The counts come from one walk with an int bitmask per pair of rankings
(``pair_counts``), after per-ranking tables built once (``rank_table``);
the tests hold them to a brute O(n^2) pair scan.  The walk follows a
tie-free ranking's own order and sorts only when both rankings have ties.
It shifts an n-bit int per element, so a pair costs O(n^2 / 64) word
operations besides any sort.  For a single pair of key vectors, the
tables included, it takes 5 ms on distinct keys and 3 ms on keys 0..2 at
n = 4096, and 36-43 ms and 20 ms at n = 16384 (min of 9 calls, two runs,
Python 3.11 on a shared 2-vCPU x86-64 host).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Iterable

from .core import DistanceMatrix, GroundSet, as_rational

__all__ = [
    "PartialRanking",
    "ranking_from_distance",
    "kendall_counts",
    "kendall_penalized",
]

# (order, place, past, ties) of one ranking; see ``rank_table``
RankTable = tuple[list[int], list[int], list[int], int]


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
    order, _, past, _ = rank_table(matrix.comparison_rows()[x])
    blocks = [list(block) for _, block in groupby(order, past.__getitem__)]
    return PartialRanking(matrix.ground, blocks)


def rank_table(keys: list[int]) -> RankTable:
    """The per-ranking tables that ``pair_counts`` reads, for int keys
    whose order is the ranking (block indices, or a distance row).

    Returns (order, place, past, ties): the elements sorted by key (ties
    by element), each element's index in that order, the index just past
    its tie block, and the number of tied pairs.
    """
    n = len(keys)
    order = sorted(range(n), key=keys.__getitem__)
    place = [0] * n
    past = [0] * n
    ties = start = 0
    for end in range(1, n + 1):
        if end == n or keys[order[end]] != keys[order[start]]:
            size = end - start
            ties += size * (size - 1) // 2
            for i in range(start, end):
                place[order[i]] = i
                past[order[i]] = end
            start = end
    return order, place, past, ties


def pair_counts(table_x: RankTable, table_y: RankTable) -> tuple[int, int]:
    """(discordant pairs, pairs tied in exactly one) of two rankings, from
    their ``rank_table``s.

    Both counts are symmetric, so when exactly one ranking has ties the
    tie-free one is taken as the first.  The walk visits the elements in
    the first ranking's order, ties in the second ranking's order: a
    tie-free first ranking's own ``order``, else one stable sort of the
    second ranking's order keyed by the first one's ``past``.  An element
    u is discordant with each element before it that the second ranking
    puts strictly after u's tie block: those are the set bits of ``seen``,
    the places of the elements passed so far, at or above ``past[u]``.
    With a tie-free first ranking, the pairs tied in exactly one are the
    second ranking's ties.  Otherwise the same walk counts the pairs tied
    in both, which are the runs of one tie block of each.
    """
    if table_x[3] and not table_y[3]:
        table_x, table_y = table_y, table_x
    order_x, _, past_x, ties_x = table_x
    order_y, place_y, past_y, ties_y = table_y
    discordant = seen = 0
    if not ties_x:
        for u in order_x:
            discordant += (seen >> past_y[u]).bit_count()
            seen |= 1 << place_y[u]
        return discordant, ties_y
    tied_both = run = 0
    block_x = block_y = -1
    for u in sorted(order_y, key=past_x.__getitem__):
        discordant += (seen >> past_y[u]).bit_count()
        seen |= 1 << place_y[u]
        if past_x[u] == block_x and past_y[u] == block_y:
            run += 1
            tied_both += run
        else:
            run = 0
            block_x, block_y = past_x[u], past_y[u]
    return discordant, ties_x + ties_y - 2 * tied_both


def kendall_counts(b1: list[int], b2: list[int]) -> tuple[int, int]:
    """(discordant pairs, pairs tied in exactly one) for two key vectors
    over the same elements.

    Any int keys whose order is the ranking will do: block indices, or the
    distance rows themselves.  The count is ``pair_counts`` on the two
    ``rank_table``s: O(n log n) comparisons for the two tables' sorts and
    for one more when both key vectors have ties, and n shifts and
    popcounts of an n-bit int for the walk.
    """
    return pair_counts(rank_table(b1), rank_table(b2))


def kendall_penalized(
    r1: PartialRanking, r2: PartialRanking, pi: int | str | Fraction
) -> Fraction:
    """Penalized Kendall distance via ``kendall_counts``."""
    if r1.ground != r2.ground:
        raise ValueError("ground set mismatch")
    pi = as_rational(pi)
    discordant, tied_one = kendall_counts(r1.block_indices(), r2.block_indices())
    return discordant + pi * tied_one
