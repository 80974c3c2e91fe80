"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with -s) and covers one
numbered claim about the library as a whole.  Everything runs on fixed
seeds, and nothing here is timed; ``perfbench/`` does the timing.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from ordist import (
    CircularOrdering,
    OrderParams,
    Split,
    WeightedSplitSystem,
    express_in_basis,
    fits_on_ordering,
    flat_fixture,
    generate_distance,
    index_ground,
    is_circular_split_system,
    is_closed,
    is_compatible,
    is_linearly_independent,
    is_maximum_flat,
    is_ultrametric,
    four_point_check,
    maximum_circular_splits,
    midpath_split_system,
    order_distance_circular,
    order_distance_eq1,
    order_distance_kendall,
    orderly_test,
    pairwise_separation_check,
    random_binary_tree_system,
    random_distance_matrix,
    random_maximum_circular_system,
    random_maximum_flat_system,
    random_two_valued_matrix,
    recover_circular_ordering,
    restrict_split_system,
    six_point_witness,
    split_rank,
    two_split_instance,
    two_split_order_values,
)
from ordist.flatlab import CounterexampleFound, NoCounterexampleFound
from helpers import quartet_fixture, six_point_table, ultrametric_fixture


@contextmanager
def verdict(line):
    try:
        yield
    except BaseException:
        print(f"FAIL {line}")
        raise
    print(f"PASS {line}")


def test_acceptance_01_ultrametric_fixture_order_values():
    with verdict("1: five-point ultrametric fixture order values"):
        d = generate_distance(ultrametric_fixture())
        assert is_ultrametric(d)
        patterns = {
            ("a", "b"): lambda p, q: 4 * p + 3 * q,
            ("a", "e"): lambda p, q: 4 * p + 3 * q,
            ("a", "c"): lambda p, q: 4 * p + 5 * q,
            ("b", "e"): lambda p, q: p + 4 * q,
            ("c", "e"): lambda p, q: 2 * p + 4 * q,
            ("b", "c"): lambda p, q: 2 * p + 4 * q,
        }
        for p, q in ((2, 1), (2, 2), (4, 3)):
            o = order_distance_eq1(d, OrderParams(p, q))
            for (x, y), expect in patterns.items():
                assert o.by_label(x, y) == expect(p, q)
        assert four_point_check(order_distance_eq1(d, OrderParams(2, 2))) == (0, 1, 2, 4)


def test_acceptance_02_quartet_fixture_decomposition():
    with verdict("2: quartet fixture needs the five-split superset"):
        system = quartet_fixture()
        g = system.ground
        d = generate_distance(system)
        o = order_distance_eq1(d, OrderParams(2, 1))
        for pair, value in {
            "ab": 8, "ac": 8, "bc": 8, "ad": 4, "cd": 4, "bd": 10,
        }.items():
            assert o.by_label(*pair) == value

        superset = [
            Split(g, "ab"),
            Split(g, "ad"),
            Split(g, "a"),
            Split(g, "c"),
            Split(g, "b"),
        ]
        expr = express_in_basis(o, superset)
        assert expr == {
            Split(g, "ab"): 3,
            Split(g, "ad"): 3,
            Split(g, "a"): 1,
            Split(g, "c"): 1,
            Split(g, "b"): 4,
        }
        assert express_in_basis(o, system.splits) is None


def test_acceptance_03_six_point_table():
    with verdict("3: six-point table is incompatible, all restrictions are not"):
        d = six_point_table()
        g = d.ground
        system = midpath_split_system(d).split_system()
        assert Split(g, ["b", "t", "y"]) in system
        assert Split(g, ["b", "s", "x"]) in system
        assert not is_compatible(system)
        assert six_point_witness(d) is not None
        for drop in range(6):
            sub = d.restricted([i for i in range(6) if i != drop])
            assert is_compatible(midpath_split_system(sub).split_system())


def test_acceptance_04_witness_equivalence():
    with verdict("4: witness exists exactly when the comparison splits clash"):
        rng = random.Random(20240)
        checked = 0
        for i in range(200):
            n = 4 + i % 4
            matrix = random_distance_matrix(n, rng, tie_rich=(i % 2 == 0))
            witness = six_point_witness(matrix)
            clash = not is_compatible(midpath_split_system(matrix).split_system())
            assert (witness is not None) == clash
            if witness is not None:
                assert witness.holds_in(matrix)
            checked += 1
        assert checked == 200


def test_acceptance_05_tree_distances_stay_on_the_tree():
    with verdict("5: order distances of tree distances decompose over the tree"):
        rng = random.Random(20250)
        for i in range(50):
            n = 5 + i % 4
            system = random_binary_tree_system(n, rng)
            d = generate_distance(system)
            for p, q in ((2, 1), (2, 3)):
                o = order_distance_eq1(d, OrderParams(p, q))
                expr = express_in_basis(o, system.splits)
                assert expr is not None
                assert all(w >= 0 for w in expr.values())
                for x in range(n):
                    for y in range(x + 1, n):
                        total = sum(
                            w for s, w in expr.items() if s.separates(x, y)
                        )
                        assert total == o[x, y]


def test_acceptance_06_circular_distances_stay_circular():
    with verdict("6: order distances of circular distances stay circular"):
        rng = random.Random(20260)
        params = OrderParams(2, 1)
        for i in range(50):
            n = 5 + i % 5
            theta, system = random_maximum_circular_system(n, rng)
            d = generate_distance(system)
            decomposition = midpath_split_system(d)
            assert fits_on_ordering(decomposition.split_system(), theta)
            o = order_distance_eq1(d, params)
            expr = express_in_basis(o, system.splits)
            assert expr is not None
            assert all(w >= 0 for w in expr.values())
            assert recover_circular_ordering(o) is not None


def test_acceptance_07_engine_agreement():
    with verdict("7: all engines produce identical matrices"):
        rng = random.Random(20270)
        for i in range(100):
            n = 2 + i % 7
            matrix = random_distance_matrix(n, rng, tie_rich=(i % 3 == 0))
            p = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            q = p / 2 + Fraction(rng.randint(0, 4), rng.randint(1, 2))
            params = OrderParams(p, q)
            assert order_distance_eq1(matrix, params) == order_distance_kendall(
                matrix, params
            )
        sizes = [6 + round(k * 34 / 29) for k in range(30)]
        for k, n in enumerate(sizes):
            theta, system = random_maximum_circular_system(n, rng)
            d = generate_distance(system)
            p = Fraction(rng.randint(1, 4))
            params = OrderParams(p, p / 2)
            assert order_distance_circular(d, params) == order_distance_eq1(d, params)
        # and once at n = 64
        theta, system = random_maximum_circular_system(64, random.Random(20271))
        d = generate_distance(system)
        params = OrderParams(2, 1)
        assert order_distance_circular(d, params) == order_distance_eq1(d, params)


def test_acceptance_08_two_split_closed_forms():
    with verdict("8: two-split closed forms match the engine on all shapes"):
        shapes = [
            sizes
            for total in range(4, 13)
            for sizes in (
                (n1, n2, n3, total - n1 - n2 - n3)
                for n1 in range(1, total - 2)
                for n2 in range(1, total - n1 - 1)
                for n3 in range(1, total - n1 - n2)
            )
        ]
        assert len(shapes) == 495
        for sizes in shapes:
            d, blocks, _ = two_split_instance(*sizes)
            o = order_distance_eq1(d, OrderParams(2, 1))
            values = two_split_order_values(*sizes)
            pair_order = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
            for (bi, bj), expected in zip(pair_order, values):
                for x in blocks[bi]:
                    for y in blocks[bj]:
                        assert o[x, y] == expected
            for block in blocks:
                for x in block:
                    for y in block:
                        assert o[x, y] == 0


def test_acceptance_09_flat_fixtures_and_circular_orderliness():
    with verdict("9: the flat five-point fixtures fail orderliness, circular passes"):
        for name in ("S1_5", "S2_5"):
            system = flat_fixture(name)
            assert is_maximum_flat(system)
            assert is_circular_split_system(system) is None
            assert is_closed(system) is not None
            result = orderly_test(system, trials=0)
            assert isinstance(result, CounterexampleFound)
            assert result.phase == 1
        theta = CircularOrdering(index_ground(5), range(5))
        splits = maximum_circular_splits(theta)
        result = orderly_test(splits, trials=1000, seed=92)
        assert isinstance(result, NoCounterexampleFound)
        assert result.trials == 1000


def test_acceptance_10_split_count_bound():
    with verdict("10: comparison split count stays within n(n-1)"):
        # the bound is asserted inside midpath_split_system on every call
        # made anywhere in the suite; this check adds a census and reports
        # how close random two-valued matrices get
        rng = random.Random(20280)
        best = (0, 0, 0)  # count, bound, n
        for i in range(300):
            n = 3 + i % 5
            matrix = random_two_valued_matrix(n, rng)
            count = len(midpath_split_system(matrix).x_splits)
            bound = n * (n - 1)
            assert count <= bound
            if count * best[1] > best[0] * bound or best[1] == 0:
                best = (count, bound, n)
    print(
        f"note 10: census over 300 two-valued matrices, closest approach "
        f"|S_D| = {best[0]} vs bound {best[1]} (n = {best[2]})"
    )


def test_acceptance_11_flat_systems_survive_deletions():
    with verdict("11: maximum flat systems stay maximum independent under deletion"):
        rng = random.Random(20290)
        for i in range(30):
            n = 5 + i % 3
            system = random_maximum_flat_system(n, rng)
            # decides flatness by pairwise separation; test_flatlab compares
            # that route with the C(n,4) restriction route
            assert is_maximum_flat(system)
            splits = list(system.splits)
            for drop in range(n):
                keep = [e for e in range(n) if e != drop]
                reduced = restrict_split_system(splits, keep)
                m = n - 1
                assert len(reduced) == m * (m - 1) // 2
                assert is_linearly_independent(reduced)
                assert pairwise_separation_check(reduced) is None
