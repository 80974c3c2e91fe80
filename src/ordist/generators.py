"""Seeded random instances for tests, demos and the benchmark.

Every function takes a `random.Random` so callers control reproducibility;
nothing here touches the global RNG state.
"""

from __future__ import annotations

import random
from itertools import combinations

from .circular import CircularOrdering, maximum_circular_splits
from .compat import XTree, splits_from_xtree
from .core import DistanceMatrix, GroundSet, WeightedSplitSystem
from .flatlab import AllowablePair, allowable_splits

__all__ = [
    "index_ground",
    "random_binary_tree_system",
    "random_maximum_circular_system",
    "random_allowable_pair",
    "random_maximum_flat_system",
    "random_distance_matrix",
    "random_two_valued_matrix",
]


def index_ground(n: int) -> GroundSet:
    """Ground set with generated labels x0 .. x{n-1}."""
    return GroundSet(f"x{i}" for i in range(n))


def random_binary_tree_system(n: int, rng: random.Random) -> WeightedSplitSystem:
    """Splits of a uniformly grown unrooted binary tree with n labeled
    leaves, each split carrying a random weight in 1..20.

    Built by attaching one leaf at a time to a random existing edge, so the
    result always has 2n-3 edges and as many distinct splits (n >= 2).
    """
    if n < 2:
        raise ValueError("a tree system needs at least 2 leaves")
    ground = index_ground(n)
    # leaves are 0..n-1, internal vertices get ids from n upward
    edges: list[tuple[int, int]] = [(0, 1)]
    next_vertex = n
    for leaf in range(2, n):
        u, v = edges.pop(rng.randrange(len(edges)))
        mid = next_vertex
        next_vertex += 1
        edges.extend([(u, mid), (mid, v), (mid, leaf)])
    bags = [[i] for i in range(n)] + [[]] * (next_vertex - n)
    weighted = [(u, v, rng.randint(1, 20)) for u, v in edges]
    return splits_from_xtree(XTree(ground, bags, weighted))


def random_maximum_circular_system(
    n: int, rng: random.Random, positive: bool = True
) -> tuple[CircularOrdering, WeightedSplitSystem]:
    """A random circular ordering of n elements together with all its C(n,2)
    interval splits, weighted in 1..20 (0..20 unless positive)."""
    if n < 2:
        raise ValueError("need at least 2 elements")
    ground = index_ground(n)
    perm = list(range(n))
    rng.shuffle(perm)
    theta = CircularOrdering(ground, perm)
    low = 1 if positive else 0
    splits = maximum_circular_splits(theta)
    # drawn in split order, as the system consumes them: no pair per split
    weights = (rng.randint(low, 20) for _ in splits)
    return theta, WeightedSplitSystem(ground, zip(splits, weights))


def random_allowable_pair(n: int, rng: random.Random) -> AllowablePair:
    """A random allowable pair: random start ordering, then at each step a
    uniformly chosen adjacent swap among those whose element pair has not
    swapped yet.  Some admissible swap always exists until the ordering is
    fully reversed, so the walk never gets stuck."""
    if n < 2:
        raise ValueError("need at least 2 elements")
    ground = index_ground(n)
    pi = list(range(n))
    rng.shuffle(pi)
    # ranks in pi: a pair has swapped once its ranks are out of order
    cur = list(range(n))
    kappa = []
    for _ in range(n * (n - 1) // 2):
        k = rng.choice([k for k in range(n - 1) if cur[k] < cur[k + 1]])
        cur[k], cur[k + 1] = cur[k + 1], cur[k]
        kappa.append(k)
    return AllowablePair(ground, tuple(pi), tuple(kappa))


def random_maximum_flat_system(n: int, rng: random.Random) -> WeightedSplitSystem:
    """Unit weighting of the split system of a random allowable pair."""
    pair = random_allowable_pair(n, rng)
    return WeightedSplitSystem.unit(pair.ground, allowable_splits(pair))


def random_distance_matrix(
    n: int, rng: random.Random, tie_rich: bool = False
) -> DistanceMatrix:
    """A random symmetric positive matrix with zero diagonal.

    tie_rich draws entries from {1, 2, 3} so equidistance and repeated
    comparisons are common; otherwise all off-diagonal values are distinct.
    """
    if n < 1:
        raise ValueError("need at least 1 element")
    ground = index_ground(n)
    m = n * (n - 1) // 2
    if tie_rich:
        values = [rng.randint(1, 3) for _ in range(m)]
    else:
        values = rng.sample(range(1, 10 * m + 2), m)
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in zip(combinations(range(n), 2), values):
        rows[i][j] = rows[j][i] = v
    return DistanceMatrix.from_scaled(ground, rows)


def random_two_valued_matrix(n: int, rng: random.Random) -> DistanceMatrix:
    """Off-diagonal entries drawn uniformly from {1, 2}."""
    if n < 1:
        raise ValueError("need at least 1 element")
    ground = index_ground(n)
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.randint(1, 2)
    return DistanceMatrix.from_scaled(ground, rows)
