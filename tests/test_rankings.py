import dataclasses
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordist import (
    DistanceMatrix,
    GroundSet,
    PartialRanking,
    generate_distance,
    index_ground,
    kendall_counts,
    kendall_penalized,
    random_distance_matrix,
    ranking_from_distance,
)
from ordist import rankings
from ordist.rankings import pair_counts, rank_table
from helpers import kendall_counts_brute, kendall_penalized_brute, quartet_fixture


def label_blocks(ranking):
    labels = ranking.ground.labels
    return [frozenset(labels[i] for i in block) for block in ranking.blocks]


def test_quartet_rankings_and_their_kendall_distance():
    d = generate_distance(quartet_fixture())
    r_a = ranking_from_distance(d, 0)
    r_d = ranking_from_distance(d, 3)
    assert label_blocks(r_a) == [{"a"}, {"d"}, {"b", "c"}]
    assert label_blocks(r_d) == [{"d"}, {"a", "c"}, {"b"}]
    assert kendall_penalized(r_a, r_d, "1/2") == 2
    assert kendall_penalized_brute(r_a, r_d, "1/2") == 2


def test_partial_ranking_must_partition():
    g = index_ground(3)
    with pytest.raises(ValueError):
        PartialRanking(g, [[0, 1]])
    with pytest.raises(ValueError):
        PartialRanking(g, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        PartialRanking(g, [[0, 1], [], [2]])


def test_partial_rankings_are_immutable_values():
    g = index_ground(3)
    r = PartialRanking(g, [[2], [0, 1]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.blocks = ()
    assert r.blocks == (frozenset({2}), frozenset({0, 1}))
    same = PartialRanking(index_ground(3), ({2}, (1, 0)))
    assert same == r and hash(same) == hash(r) and same in {r}
    assert r != PartialRanking(g, [[0, 1], [2]])
    assert repr(r) == "PartialRanking({x2} < {x0,x1})"
    # each call builds its own list
    indices = r.block_indices()
    assert indices == [1, 1, 0]
    indices[0] = 0
    assert r.block_indices() == [1, 1, 0]


def test_kendall_distance_needs_one_ground_set():
    r = PartialRanking(index_ground(2), [[0], [1]])
    other = PartialRanking(GroundSet("ab"), [[0], [1]])
    with pytest.raises(ValueError, match=r"^ground set mismatch$"):
        kendall_penalized(r, other, 1)


def test_ranking_groups_equal_distances():
    m = DistanceMatrix(index_ground(4), [[0, 1, 1, 2], [1, 0, 2, 2], [1, 2, 0, 1], [2, 2, 1, 0]])
    r = ranking_from_distance(m, 0)
    assert r.blocks == (frozenset({0}), frozenset({1, 2}), frozenset({3}))


@st.composite
def rankings_on(draw, n):
    keys = [draw(st.integers(0, n - 1)) for _ in range(n)]
    groups = {}
    for element, key in enumerate(keys):
        groups.setdefault(key, []).append(element)
    return PartialRanking(index_ground(n), [groups[k] for k in sorted(groups)])


PENALTIES = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2))


@given(st.integers(2, 8), st.data())
def test_inversion_counting_matches_pair_scan(n, data):
    r1 = data.draw(rankings_on(n), label="r1")
    r2 = data.draw(rankings_on(n), label="r2")
    for pi in PENALTIES:
        assert kendall_penalized(r1, r2, pi) == kendall_penalized_brute(r1, r2, pi)


@given(st.integers(2, 6), st.data())
def test_triangle_inequality_for_penalty_at_least_half(n, data):
    r1 = data.draw(rankings_on(n), label="r1")
    r2 = data.draw(rankings_on(n), label="r2")
    r3 = data.draw(rankings_on(n), label="r3")
    for pi in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        d12 = kendall_penalized(r1, r2, pi)
        d23 = kendall_penalized(r2, r3, pi)
        d13 = kendall_penalized(r1, r3, pi)
        assert d13 <= d12 + d23


def test_triangle_inequality_fails_below_half():
    g = index_ground(2)
    strict = PartialRanking(g, [[0], [1]])
    tied = PartialRanking(g, [[0, 1]])
    reverse = PartialRanking(g, [[1], [0]])
    pi = Fraction(1, 4)
    via_tie = kendall_penalized(strict, tied, pi) + kendall_penalized(tied, reverse, pi)
    assert kendall_penalized(strict, reverse, pi) == 1 > via_tie


def test_distance_is_zero_only_for_equal_rankings():
    g = index_ground(3)
    r1 = PartialRanking(g, [[0], [1, 2]])
    r2 = PartialRanking(g, [[0], [1], [2]])
    assert kendall_penalized(r1, r1, "1/2") == 0
    assert kendall_penalized(r1, r2, "1/2") > 0


def test_kendall_counts_match_pair_scan_on_seeded_keys():
    rng = Random(13)
    key_ranges = (
        (0, 2),  # dense ties
        (-(10**30), 10**30),  # negative and large, ties unlikely
        (-5, 5),
    )
    for n in list(range(12)) + [50, 127, 300]:
        for lo, hi in key_ranges:
            b1 = [rng.randint(lo, hi) for _ in range(n)]
            b2 = [rng.randint(lo, hi) for _ in range(n)]
            assert kendall_counts(b1, b2) == kendall_counts_brute(b1, b2)
        distinct = rng.sample(range(-(10**12), 10**12), n)
        shuffled = rng.sample(distinct, n)
        assert kendall_counts(distinct, shuffled) == kendall_counts_brute(
            distinct, shuffled
        )
        assert kendall_counts(distinct, distinct) == (0, 0)
        ranked = sorted(distinct)
        assert kendall_counts(ranked, ranked[::-1]) == (n * (n - 1) // 2, 0)
        # all-equal keys, long tie blocks, strictly decreasing keys, and
        # ties among negative and 10^30 keys
        equal = [7] * n
        block = max(1, n // 3)
        blocks = [i // block for i in range(n)]
        rng.shuffle(blocks)
        decreasing = list(range(n, 0, -1))
        extremes = [rng.choice((-(10**30), -1, 0, 10**30)) for _ in range(n)]
        assert kendall_counts(equal, equal) == (0, 0)
        for b1, b2 in (
            (equal, distinct),
            (blocks, equal),
            (blocks, blocks[::-1]),
            (blocks, decreasing),
            (decreasing, distinct),
            (extremes, blocks),
            (extremes, extremes[::-1]),
        ):
            assert kendall_counts(b1, b2) == kendall_counts_brute(b1, b2)
            assert kendall_counts(b2, b1) == kendall_counts_brute(b2, b1)


def test_pair_counts_of_a_tie_free_and_a_tied_ranking_in_both_orders():
    # the tie-free ranking is walked in its own order whichever argument it
    # is; the other one's ties are then the pairs tied in exactly one
    rng = Random(38)
    for n in list(range(13)) + [64, 300]:
        for _ in range(4):
            tie_free = rng.sample(range(-(10**6), 10**6), n)
            tied = [rng.randint(0, max(1, n // 3)) for _ in range(n)]
            if n >= 2:
                tied[-1] = tied[0]
            table_free, table_tied = rank_table(tie_free), rank_table(tied)
            assert table_free[3] == 0
            assert (table_tied[3] > 0) == (n >= 2)
            assert pair_counts(table_free, table_tied) == kendall_counts_brute(tie_free, tied)
            assert pair_counts(table_tied, table_free) == kendall_counts_brute(tied, tie_free)


def test_distance_rows_and_block_indices_give_the_same_counts():
    rng = Random(17)
    for n in (2, 5, 9, 16):
        for tie_rich in (True, False):
            m = random_distance_matrix(n, rng, tie_rich)
            rows = m.comparison_rows()
            blocks = [ranking_from_distance(m, x).block_indices() for x in range(n)]
            for x in range(n):
                for y in range(n):
                    assert kendall_counts(rows[x], rows[y]) == kendall_counts(
                        blocks[x], blocks[y]
                    )


def test_ranking_from_distance_groups_the_elements_by_distance():
    # the blocks, cut from one sort by itertools.groupby, against the
    # distinct distances from x in increasing order, each with its elements;
    # entries of 0..2 put elements other than x into the first block
    rng = Random(3838)
    firsts = 0
    for n in range(1, 13):
        ground = index_ground(n)
        for trial in range(6):
            if trial % 2:
                m = random_distance_matrix(n, rng, tie_rich=True)
            else:
                rows = [[0] * n for _ in range(n)]
                for i, j in combinations(range(n), 2):
                    rows[i][j] = rows[j][i] = rng.randint(0, 2)
                m = DistanceMatrix(ground, rows)
            for x in range(n):
                row = [m[x, e] for e in range(n)]
                expected = [{e for e in range(n) if row[e] == v} for v in sorted(set(row))]
                blocks = ranking_from_distance(m, x).blocks
                assert blocks == tuple(map(frozenset, expected))
                firsts += len(blocks[0]) > 1
    assert firsts >= 100, firsts


def test_kendall_counts_rejects_key_vectors_of_different_lengths():
    # tie-free, tied and empty vectors, each against a longer or shorter
    # one, in both argument orders; the message names both lengths
    cases = (
        ([0, 1], [0, 1, 2]),
        ([1, 0], [0, 1, 2]),
        ([0, 0, 1], [1, 0]),
        ([0, 0, 0], [5, 5]),
        ([], [0]),
        ([], [3, 3, 3]),
        ([2, 1, 0, 3], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    )
    for b1, b2 in cases:
        for first, second in ((b1, b2), (b2, b1)):
            message = f"{len(first)} and {len(second)}"
            with pytest.raises(ValueError, match=message):
                kendall_counts(first, second)


def _keys_with_values(n, values, rng):
    """n keys taking exactly min(n, values) distinct values 0.., shuffled."""
    keys = [i % values for i in range(n)]
    rng.shuffle(keys)
    return keys


def test_pair_counts_from_the_block_table_match_the_pair_scan():
    # keys 0..h for h in 0..5 and n, in both argument orders; pairs where
    # both, one or neither ranking keeps its tie blocks all meet here
    rng = Random(39)
    routes = set()
    for n in list(range(14)) + [16, 17, 24, 25, 64, 300]:
        highs = list(range(6)) + [n]
        pairs = (
            [(h1, h2) for h1 in highs for h2 in highs]
            if n <= 25
            else [(h, rng.choice(highs)) for h in highs]
        )
        for h1, h2 in pairs:
            a = [rng.randint(0, h1) for _ in range(n)]
            b = [rng.randint(0, h2) for _ in range(n)]
            table_a, table_b = rank_table(a), rank_table(b)
            for keys, table in ((a, table_a), (b, table_b)):
                assert (table[4] is not None) == (len(set(keys)) ** 2 <= n)
            routes.add((table_a[4] is not None, table_b[4] is not None))
            assert pair_counts(table_a, table_b) == kendall_counts_brute(a, b)
            assert pair_counts(table_b, table_a) == kendall_counts_brute(b, a)
    assert routes == {(True, True), (True, False), (False, True), (False, False)}


def test_block_table_boundary_at_blocks_squared_equal_to_n():
    # blocks^2 = n keeps the masks (n=16 with 4 values, n=25 with 5);
    # blocks^2 > n does not (n=24 with 5 values)
    rng = Random(3939)
    for n, values, keeps in ((16, 4, True), (25, 5, True), (24, 5, False)):
        for _ in range(20):
            a = _keys_with_values(n, values, rng)
            b = _keys_with_values(n, values, rng)
            distinct = rng.sample(range(n), n)
            table_a, table_b, table_d = rank_table(a), rank_table(b), rank_table(distinct)
            assert (table_a[4] is not None) == keeps
            if keeps:
                assert len(table_a[4]) == values
                assert sum(table_a[4]) == (1 << n) - 1
            for x, y, tx, ty in ((a, b, table_a, table_b), (a, distinct, table_a, table_d)):
                assert pair_counts(tx, ty) == kendall_counts_brute(x, y)
                assert pair_counts(ty, tx) == kendall_counts_brute(y, x)


def test_rank_table_keeps_masks_only_for_few_blocks():
    rng = Random(390)
    for n in list(range(2, 40)) + [64, 300, 4096]:
        assert rank_table(rng.sample(range(-n, 3 * n), n))[4] is None
        if n >= 9:
            keys = [rng.randint(0, 2) for _ in range(n)]
            blocks = rank_table(keys)[4]
            assert blocks is not None and len(blocks) == len(set(keys))
            for value, mask in zip(sorted(set(keys)), blocks):
                assert mask == sum(1 << e for e, key in enumerate(keys) if key == value)


def test_tie_rich_pairs_take_the_block_table_with_no_sort(monkeypatch):
    # rows of a tie-rich n=16 matrix have keys 0..3, so at most 4 <= sqrt(16)
    # tie blocks each: every pair is counted from the block table, and the
    # sorted walk, which would run on any pair of tied rows without masks,
    # never starts
    m = random_distance_matrix(16, Random(16), tie_rich=True)
    rows = m.comparison_rows()
    tables = [rank_table(row) for row in rows]
    assert all(table[3] and table[4] is not None for table in tables)

    def no_sort(*args, **kwargs):
        raise AssertionError("pair_counts sorted a pair")

    monkeypatch.setattr(rankings, "sorted", no_sort, raising=False)
    for x, y in combinations(range(16), 2):
        assert pair_counts(tables[x], tables[y]) == kendall_counts_brute(rows[x], rows[y])
        assert pair_counts(tables[y], tables[x]) == kendall_counts_brute(rows[y], rows[x])
