import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordist import (
    DistanceMatrix,
    GroundSet,
    OrderParams,
    SixPointWitness,
    Split,
    WeightedSplitSystem,
    XTree,
    four_point_check,
    generate_distance,
    incompatible_pair,
    index_ground,
    is_compatible,
    is_compatible_pair,
    is_ultrametric,
    midpath_split_system,
    order_distance_eq1,
    parse_distance_matrix,
    random_binary_tree_system,
    random_distance_matrix,
    random_two_valued_matrix,
    six_point_witness,
    splits_from_xtree,
    xtree_from_compatible,
)
import ordist.compat as compat_module
from helpers import (
    compatible_pair_brute,
    four_point_check_by_loops,
    holds_in_by_inequalities,
    incompatible_pair_by_corners,
    is_ultrametric_by_loops,
    line_ultrametric,
    positive_side_crosses_by_scan,
    quartet_fixture,
    six_point_table,
    six_point_witness_by_walk,
    ultrametric_fixture,
    witnessless_blowup,
)
from strategies import canonical_masks, distance_matrices, split_systems

GOLDEN = Path(__file__).parent / "data" / "golden"


@given(st.integers(3, 7), st.data())
def test_pair_compatibility_matches_brute_force(n, data):
    g = GroundSet(f"x{i}" for i in range(n))
    s1 = Split.from_bits(g, data.draw(canonical_masks(n), label="m1"))
    s2 = Split.from_bits(g, data.draw(canonical_masks(n), label="m2"))
    assert is_compatible_pair(s1, s2) == compatible_pair_brute(s1, s2)


def test_incompatible_pair_reporting():
    g = GroundSet("abcd")
    ab, ac, a = Split(g, "ab"), Split(g, "ac"), Split(g, "a")
    assert incompatible_pair([a, ab]) is None
    assert is_compatible([])
    assert is_compatible([a, ab, Split(g, "abc")])
    found = incompatible_pair([a, ab, ac])
    assert found == (ac, ab)  # canonical order sorts by the 0-free side
    assert not is_compatible([ab, ac])
    g2 = GroundSet("abce")
    with pytest.raises(ValueError):
        is_compatible_pair(ab, Split(g2, "ab"))


def test_incompatible_pair_on_a_large_tree_with_one_crossing_split(monkeypatch):
    # a random binary tree on 256 leaves plus {1, n-2, n-1}: the crossing
    # pair sorts late, so the scan runs through most pairs
    n = 256
    tree = random_binary_tree_system(n, random.Random(n))
    extra = Split(tree.ground, [1, n - 2, n - 1])
    system = WeightedSplitSystem.unit(tree.ground, [*tree.splits, extra])
    found = incompatible_pair(system)
    assert found is not None and extra in found
    assert found == incompatible_pair_by_corners(system)

    # a compatible system is settled by the nesting pass alone
    def no_pair_test(a, b):
        raise AssertionError("pair test on a compatible system")

    monkeypatch.setattr(compat_module, "_crosses", no_pair_test)
    assert incompatible_pair(tree) is None
    assert incompatible_pair(list(tree.splits)) is None


def compatible_by_pairs(splits) -> bool:
    splits = list(splits)
    return all(
        compatible_pair_brute(s1, s2)
        for i, s1 in enumerate(splits)
        for s2 in splits[i + 1 :]
    )


@given(split_systems(min_n=2, max_n=8))
def test_compatibility_matches_the_pairwise_check(system):
    expected = compatible_by_pairs(system.splits)
    assert is_compatible(system) == expected
    assert is_compatible(reversed(system.splits)) == expected
    found = incompatible_pair_by_corners(system)
    assert (found is None) == expected
    assert incompatible_pair(system) == found
    assert incompatible_pair(reversed(system.splits)) == found


@pytest.mark.parametrize(
    "sides,expected",
    [
        (["b", "bc", "bcd", "bcde"], True),  # a nested chain
        (["bc", "de", "f"], True),  # disjoint siblings
        (["bcdef", "bc", "de", "b", "c"], True),  # siblings under one parent
        # cde is placed first; bc overlaps it but not at bc's lowest element b
        (["cde", "bc"], False),
        (["cde", "cf"], False),  # the overlap holds cf's lowest element
        (["bcd", "cde"], False),  # two crossing sides of one size
    ],
)
def test_compatibility_on_small_systems(sides, expected):
    g = GroundSet("abcdef")
    splits = [Split(g, side) for side in sides]
    assert is_compatible(splits) == expected
    assert is_compatible(WeightedSplitSystem.unit(g, splits)) == expected
    assert compatible_by_pairs(splits) == expected


def test_compatibility_edge_cases():
    g = GroundSet("ab")
    assert is_compatible([Split(g, "a")])
    assert is_compatible([Split(g, "a"), Split(g, "b")])  # one split, twice
    assert is_compatible([])
    assert is_compatible(WeightedSplitSystem(g, []))
    with pytest.raises(ValueError, match="ground set mismatch"):
        is_compatible([Split(g, "a"), Split(GroundSet("xy"), "x")])
    with pytest.raises(ValueError, match="ground set mismatch"):
        incompatible_pair([Split(g, "a"), Split(GroundSet("xy"), "x")])


def caterpillar() -> WeightedSplitSystem:
    g = GroundSet("abcde")
    sides = ["a", "b", "c", "d", "e", "ab", "abc"]
    return WeightedSplitSystem(
        g, [(Split(g, list(side)), w) for w, side in enumerate(sides, start=1)]
    )


def test_tree_round_trip_on_caterpillar():
    system = caterpillar()
    tree = xtree_from_compatible(system)
    assert tree.n_vertices == len(tree.edges) + 1
    assert splits_from_xtree(tree) == system
    covered = set()
    for bag in tree.bags:
        covered |= bag
    assert covered == set(range(5))
    assert set(tree.leaf_map()) == set(range(5))


@pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (6, 2), (7, 3), (8, 4)])
def test_tree_round_trip_on_random_trees(n, seed):
    system = random_binary_tree_system(n, random.Random(seed))
    assert is_compatible(system.splits)
    assert splits_from_xtree(xtree_from_compatible(system)) == system


@given(split_systems(min_n=2, max_n=8))
def test_tree_building_rejects_exactly_the_incompatible_systems(system):
    # the verdict comes from the pairwise check: is_compatible shares the
    # nesting pass with xtree_from_compatible
    if not compatible_by_pairs(system.splits):
        with pytest.raises(ValueError, match="not compatible"):
            xtree_from_compatible(system)
    else:
        assert splits_from_xtree(xtree_from_compatible(system)) == system


def test_large_tree_round_trip():
    # large enough that a construction cubic in n would take seconds
    system = random_binary_tree_system(256, random.Random(256))
    tree = xtree_from_compatible(system)
    assert tree.n_vertices == 2 * 256 - 2
    assert splits_from_xtree(tree) == system


def test_single_split_tree():
    g = GroundSet("ab")
    system = WeightedSplitSystem(g, {Split(g, "a"): 3})
    tree = xtree_from_compatible(system)
    assert tree.n_vertices == 2
    assert splits_from_xtree(tree) == system


def test_tree_building_rejects_incompatible():
    g = GroundSet("abcd")
    system = WeightedSplitSystem.unit(g, [Split(g, "ab"), Split(g, "ac")])
    with pytest.raises(ValueError):
        xtree_from_compatible(system)


def test_xtree_validation():
    g = GroundSet("abc")
    XTree(g, [[0, 1, 2]], [])
    with pytest.raises(ValueError):
        XTree(g, [[0, 1], [1, 2]], [(0, 1, 1)])
    with pytest.raises(ValueError):
        XTree(g, [[0], [1]], [(0, 1, 1)])
    with pytest.raises(ValueError):
        XTree(g, [[0, 1, 2], []], [(0, 1, 1)])
    with pytest.raises(ValueError):
        XTree(g, [[0, 1, 2]], [(0, 0, 1)])
    with pytest.raises(ValueError):
        XTree(g, [[0, 1], [2]], [])
    with pytest.raises(ValueError):
        XTree(g, [[0], [1], [2], []], [(0, 1, 1), (0, 1, 2), (2, 3, 1)])
    with pytest.raises(ValueError, match="float"):
        XTree(GroundSet("ab"), [[0], [1]], [(0, 1, 0.1)])


def test_four_point_and_ultrametric_checks():
    tree_distance = generate_distance(caterpillar())
    assert four_point_check(tree_distance) is None
    assert not is_ultrametric(tree_distance)

    d = generate_distance(ultrametric_fixture())
    assert is_ultrametric(d)
    assert four_point_check(d) is None
    assert four_point_check(order_distance_eq1(d, OrderParams(2, 2))) == (0, 1, 2, 4)

    quartet_order = order_distance_eq1(
        generate_distance(quartet_fixture()), OrderParams(2, 1)
    )
    assert four_point_check(quartet_order) == (0, 1, 2, 3)
    assert not is_ultrametric(generate_distance(quartet_fixture()))


def test_index_walks_match_the_nested_loops():
    # four_point_check and is_ultrametric walk itertools.combinations; the
    # nested loops they replaced pin the first failing quadruple and every
    # verdict, on random, tie-rich, tree and ultrametric matrices and on
    # trees and ultrametrics with one pair moved
    rng = random.Random(3737)
    seen = Counter()
    for n in range(4, 10):
        for _ in range(6):
            tree = generate_distance(random_binary_tree_system(n, rng))
            ultra = line_ultrametric(n, rng)
            matrices = [
                random_distance_matrix(n, rng),
                random_distance_matrix(n, rng, tie_rich=True),
                random_two_valued_matrix(n, rng),
                tree,
                ultra,
            ]
            for base in (tree, ultra):
                rows = [[base[i, j] for j in range(n)] for i in range(n)]
                i, j = rng.sample(range(n), 2)
                rows[i][j] = rows[j][i] = rows[i][j] + rng.choice((-1, 1))
                if rows[i][j] > 0:
                    matrices.append(DistanceMatrix(base.ground, rows))
            for m in matrices:
                quad = four_point_check(m)
                assert quad == four_point_check_by_loops(m)
                assert is_ultrametric(m) == is_ultrametric_by_loops(m)
                seen["none" if quad is None else "first" if quad == (0, 1, 2, 3) else "later"] += 1
                seen[f"ultrametric {is_ultrametric(m)}"] += 1
    assert min(seen.values()) >= 30, seen


def test_six_point_table_is_a_minimal_incompatible_example():
    d = six_point_table()
    system = midpath_split_system(d).split_system()
    g = d.ground
    assert Split(g, ["b", "t", "y"]) in system
    assert Split(g, ["b", "s", "x"]) in system
    assert not is_compatible(system)

    witness = six_point_witness(d)
    assert witness is not None
    assert witness.holds_in(d)
    assert witness.condition in (1, 2) and witness.branch in (1, 2)

    for drop in range(6):
        keep = [i for i in range(6) if i != drop]
        sub = d.restricted(keep)
        assert is_compatible(midpath_split_system(sub).split_system())
        assert six_point_witness(sub) is None


def test_witnesses_on_zero_distances_are_certificates():
    """With zero distances about, a returned witness still shows two strict
    sides that cross, and a compatible input gets none."""

    def side(rows, u, v):
        return {z for z in range(len(rows)) if rows[u][z] < rows[v][z]}

    rng = random.Random(11)
    witnesses = compatible = 0
    for _ in range(600):
        n = rng.randint(4, 7)
        values = rng.choice(((0, 1), (0, 1, 2), (0, 1, 2, 3), (1, 2, 3)))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(values)
        matrix = DistanceMatrix.from_scaled(index_ground(n), rows)
        witness = six_point_witness(matrix)
        if is_compatible(midpath_split_system(matrix).split_system()):
            compatible += 1
            assert witness is None
            continue
        if witness is None:
            continue
        witnesses += 1
        assert witness.holds_in(matrix)
        w = witness
        x_side = side(rows, w.x, w.y)
        other = side(rows, w.s, w.t) if w.branch == 1 else side(rows, w.t, w.s)
        rest = set(range(n)) - x_side - other
        assert x_side & other and x_side - other and other - x_side and rest
    assert compatible > 50 and witnesses > 300


def test_holds_in_needs_a_positive_distance_between_x_and_y():
    d = six_point_table()
    w = six_point_witness(d)
    rows = [list(row) for row in d.comparison_rows()]
    rows[w.x][w.y] = rows[w.y][w.x] = 0
    assert not w.holds_in(DistanceMatrix.from_scaled(d.ground, rows, d.scale))


@given(distance_matrices(min_n=4, max_n=6, values=st.integers(1, 3)))
def test_witness_exists_exactly_when_splits_clash(matrix):
    system = midpath_split_system(matrix).split_system()
    witness = six_point_witness(matrix)
    if witness is None:
        assert is_compatible(system)
    else:
        assert not is_compatible(system)
        assert witness.holds_in(matrix)


def test_holds_in_matches_the_inequality_form():
    # zero-rich matrices: random tuples, then the first witness of each
    # and reorderings of its elements, under conditions and branches 0..3
    rng = random.Random(20)
    verdicts = {True: 0, False: 0}
    witnesses = 0
    for case in range(1500):
        n = rng.randint(2, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 3)
        matrix = DistanceMatrix.from_scaled(index_ground(n), rows)
        tuples = [[rng.randrange(n) for _ in range(6)] for _ in range(4)]
        found = six_point_witness(matrix) if n >= 4 and case % 3 == 0 else None
        if found is not None:
            witnesses += 1
            assert found.holds_in(matrix)
            tuples.append(list(found.elements()))
            tuples += [rng.sample(found.elements(), 6) for _ in range(3)]
        for elements in tuples:
            for condition in range(4):
                for branch in range(4):
                    w = SixPointWitness(*elements, condition, branch)
                    held = w.holds_in(matrix)
                    assert held == holds_in_by_inequalities(w, matrix), w
                    verdicts[held] += 1
    assert verdicts[True] > 300 and witnesses > 200, (verdicts, witnesses)
    # elements outside 0..n-1 hold nowhere: -12 must not wrap round to x0,
    # and 60 must not raise
    ties12 = parse_distance_matrix((GOLDEN / "ties12.dist").read_text(encoding="utf-8"))
    for elements in ((-12, 1, 0, 2, 2, 6), (-12, 1, 0, 2, 2, 60), (0, 1, 0, 2, 2, 60)):
        for condition, branch in ((1, 1), (1, 2), (2, 1), (2, 2)):
            w = SixPointWitness(*elements, condition, branch)
            assert not w.holds_in(ties12), w
            assert not holds_in_by_inequalities(w, ties12), w
    assert SixPointWitness(0, 1, 0, 2, 2, 6, 1, 1).holds_in(ties12)


def _seeded_matrix(seed: int) -> DistanceMatrix:
    """n in 4..8, entries zero-rich, tie-rich or distinct by seed mod 3."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    values = ((0, 0, 1, 2, 3), (1, 2, 3), range(1, 60))[seed % 3]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(values)
    return DistanceMatrix.from_scaled(index_ground(n), rows)


def test_witness_matches_the_walk():
    outcomes = {}
    for seed in range(600):
        matrix = _seeded_matrix(seed)
        witness = six_point_witness(matrix)
        assert witness == six_point_witness_by_walk(matrix), seed
        key = None if witness is None else (witness.condition, witness.branch)
        outcomes[key] = outcomes.get(key, 0) + 1
    assert len(outcomes) == 5 and min(outcomes.values()) >= 5, outcomes


def test_no_witness_exactly_when_no_positive_side_crosses():
    without = 0
    matrices = [_seeded_matrix(seed) for seed in range(600, 1200)]
    for matrix in [*matrices, witnessless_blowup(5), witnessless_blowup(12)]:
        witness = six_point_witness(matrix)
        assert (witness is not None) == positive_side_crosses_by_scan(matrix)
        if witness is None and not is_compatible(midpath_split_system(matrix).split_system()):
            without += 1
        assert witness is None or witness.holds_in(matrix)
    assert without >= 3


def test_tuple_search_runs_only_when_a_positive_side_crosses(monkeypatch):
    # the crossing test settles "none" alone; the tuple search would walk
    # every (a, b) on these inputs
    def no_search(*args, **kwargs):
        raise AssertionError("tuple search ran with no crossing side")

    monkeypatch.setattr(compat_module, "product", no_search)
    assert six_point_witness(witnessless_blowup(20)) is None
    tree = generate_distance(random_binary_tree_system(12, random.Random(5)))
    assert six_point_witness(tree) is None


def test_witness_on_bumped_trees():
    # one tree distance bumped by 1 at one pair: compatible strict splits at
    # n = 24, and at n = 64 a witness that the walk meets late; the walk
    # takes seconds on each
    for n, i, expected in ((24, 1, None), (64, 0, SixPointWitness(0, 15, 31, 59, 44, 29, 1, 2))):
        rng = random.Random(100 * n + i)
        tree = generate_distance(random_binary_tree_system(n, rng))
        rows = [list(row) for row in tree.comparison_rows()]
        x, y = rng.sample(range(n), 2)
        rows[x][y] += tree.scale
        rows[y][x] += tree.scale
        matrix = DistanceMatrix.from_scaled(tree.ground, rows, tree.scale)
        assert six_point_witness(matrix) == expected
