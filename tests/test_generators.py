import random
from itertools import combinations

import pytest

from ordist import (
    fits_on_ordering,
    index_ground,
    is_compatible,
    is_maximum_flat,
    random_allowable_pair,
    random_binary_tree_system,
    random_distance_matrix,
    random_maximum_circular_system,
    random_maximum_flat_system,
    random_two_valued_matrix,
)
from helpers import allowable_pair_by_frozensets


def test_index_ground_labels():
    g = index_ground(3)
    assert g.labels == ("x0", "x1", "x2")
    with pytest.raises(TypeError):
        index_ground(2, prefix="leaf")


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_tree_systems(n):
    system = random_binary_tree_system(n, random.Random(n))
    assert len(system) == 2 * n - 3
    assert is_compatible(system.splits)
    assert all(1 <= w <= 20 for _, w in system.items())
    with pytest.raises(ValueError):
        random_binary_tree_system(1, random.Random(0))


@pytest.mark.parametrize("n", [2, 4, 7])
def test_circular_systems(n):
    theta, system = random_maximum_circular_system(n, random.Random(n))
    assert len(system) == n * (n - 1) // 2
    assert fits_on_ordering(system.splits, theta)
    assert all(w >= 1 for _, w in system.items())
    _, loose = random_maximum_circular_system(n, random.Random(n), positive=False)
    assert all(w >= 0 for _, w in loose.items())


def test_allowable_pairs_and_flat_systems():
    pair = random_allowable_pair(6, random.Random(1))
    assert len(pair.kappa) == 15
    assert pair.orderings()[-1] == tuple(reversed(pair.pi))
    system = random_maximum_flat_system(5, random.Random(2))
    assert len(system) == 10
    assert is_maximum_flat(system)


@pytest.mark.parametrize("n", range(2, 10))
def test_allowable_pair_draws_match_the_frozenset_walk(n):
    # telling a swapped pair by rank leaves every admissible list, and so
    # every draw, as the walk over sets of swapped pairs made them
    for seed in range(10):
        pair = random_allowable_pair(n, random.Random(seed))
        assert (pair.pi, pair.kappa) == allowable_pair_by_frozensets(n, random.Random(seed))


def test_random_matrices():
    m = random_distance_matrix(6, random.Random(3))
    values = [m[i, j] for i, j in combinations(range(6), 2)]
    assert len(set(values)) == len(values)

    tied = random_distance_matrix(6, random.Random(4), tie_rich=True)
    assert {v for i, j in combinations(range(6), 2) for v in [tied[i, j]]} <= {1, 2, 3}

    two = random_two_valued_matrix(5, random.Random(5))
    assert {two[i, j] for i, j in combinations(range(5), 2)} <= {1, 2}

    for generate in (random_distance_matrix, random_two_valued_matrix):
        with pytest.raises(ValueError, match=r"^need at least 1 element$"):
            generate(0, random.Random(0))


def test_same_seed_reproduces():
    a = random_binary_tree_system(7, random.Random(11))
    b = random_binary_tree_system(7, random.Random(11))
    assert a == b
    ta, sa = random_maximum_circular_system(7, random.Random(12))
    tb, sb = random_maximum_circular_system(7, random.Random(12))
    assert ta == tb and sa == sb
    assert random_distance_matrix(7, random.Random(13)) == random_distance_matrix(
        7, random.Random(13)
    )
    pa = random_allowable_pair(6, random.Random(14))
    pb = random_allowable_pair(6, random.Random(14))
    assert pa == pb