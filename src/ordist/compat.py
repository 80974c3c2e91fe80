"""Compatibility of split systems, trees, and treelike distances.

Two splits are compatible when one of the four pairwise side intersections
is empty; a system is compatible when all its pairs are.  Compatible
weighted systems are exactly the edge-split systems of trees whose vertices
of degree at most 2 carry labels, and this module converts between the two
presentations.  It also provides the classical four-point and ultrametric
checks and an exhaustive six-point search that certifies when the strict
comparison splits of a distance matrix fail to be compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    DistanceMatrix,
    GroundSet,
    Split,
    WeightedSplitSystem,
    as_rational,
    ground_and_splits,
)

__all__ = [
    "XTree",
    "SixPointWitness",
    "is_compatible_pair",
    "incompatible_pair",
    "is_compatible",
    "xtree_from_compatible",
    "splits_from_xtree",
    "four_point_check",
    "is_ultrametric",
    "six_point_witness",
]


def is_compatible_pair(s1: Split, s2: Split) -> bool:
    """True when some side of s1 is disjoint from some side of s2."""
    if s1.ground != s2.ground:
        raise ValueError("ground set mismatch")
    full = (1 << s1.ground.n) - 1
    a1, a2 = s1.bits, s2.bits
    b1, b2 = full ^ a1, full ^ a2
    return not (a1 & a2) or not (a1 & b2) or not (b1 & a2) or not (b1 & b2)


def incompatible_pair(
    splits: WeightedSplitSystem | Iterable[Split],
) -> tuple[Split, Split] | None:
    """The first incompatible pair in canonical order, or None.  An empty
    collection has no pairs, so it needs no ground set."""
    if not isinstance(splits, WeightedSplitSystem):
        splits = list(splits)
        if not splits:
            return None
    _, items = ground_and_splits(splits)
    for i, s1 in enumerate(items):
        for s2 in items[i + 1 :]:
            if not is_compatible_pair(s1, s2):
                return s1, s2
    return None


def is_compatible(splits: WeightedSplitSystem | Iterable[Split]) -> bool:
    """True when every pair of splits is compatible.  An empty collection
    is vacuously compatible."""
    return incompatible_pair(splits) is None


def _component_mask(
    adjacency: Sequence[Iterable[int]], bag_masks: Sequence[int], start: int, blocked: int
) -> int:
    """Union of the bag masks of the vertices reachable from start without
    passing through blocked."""
    mask = 0
    stack = [start]
    visited = {blocked, start}
    while stack:
        v = stack.pop()
        mask |= bag_masks[v]
        for w in adjacency[v]:
            if w not in visited:
                visited.add(w)
                stack.append(w)
    return mask


class XTree:
    """An unrooted tree whose vertices carry disjoint element bags covering
    the ground set, with every vertex of degree at most 2 labeled."""

    __slots__ = ("ground", "bags", "edges")

    def __init__(
        self,
        ground: GroundSet,
        bags: Sequence[Iterable[int]],
        edges: Sequence[tuple[int, int, object]],
    ):
        bags = tuple(frozenset(b) for b in bags)
        v_count = len(bags)
        seen: set[int] = set()
        for bag in bags:
            if bag & seen:
                raise ValueError("element appears in two vertex bags")
            seen |= bag
        if seen != set(range(ground.n)):
            raise ValueError("vertex bags must cover the ground set")
        edge_list = []
        degree = [0] * v_count
        adjacency: list[list[int]] = [[] for _ in range(v_count)]
        for u, v, w in edges:
            if not (0 <= u < v_count and 0 <= v < v_count) or u == v:
                raise ValueError(f"bad edge ({u},{v})")
            w = as_rational(w)
            edge_list.append((u, v, w))
            degree[u] += 1
            degree[v] += 1
            adjacency[u].append(v)
            adjacency[v].append(u)
        if len(edge_list) != v_count - 1:
            raise ValueError("a tree on k vertices needs k-1 edges")
        vertex_bits = [1 << v for v in range(v_count)]
        if _component_mask(adjacency, vertex_bits, 0, 0) != (1 << v_count) - 1:
            raise ValueError("tree is not connected")
        for v in range(v_count):
            if degree[v] <= 2 and not bags[v]:
                raise ValueError(f"unlabeled vertex {v} of degree {degree[v]}")
        self.ground = ground
        self.bags = bags
        self.edges = tuple(edge_list)

    @property
    def n_vertices(self) -> int:
        return len(self.bags)

    def leaf_map(self) -> dict[int, int]:
        """element index -> vertex holding it."""
        out = {}
        for v, bag in enumerate(self.bags):
            for e in bag:
                out[e] = v
        return out

    def __repr__(self) -> str:
        return (
            f"XTree({self.n_vertices} vertices, {len(self.edges)} edges, "
            f"n={self.ground.n})"
        )


def xtree_from_compatible(system: WeightedSplitSystem) -> XTree:
    """Build the tree realizing a compatible weighted split system, by
    popping splits one at a time into a growing tree.

    Each input split becomes exactly one edge (same weight); rejects
    incompatible input.  Splitting off larger sides first keeps vertex
    numbering deterministic.
    """
    ground = system.ground
    n = ground.n
    full = (1 << n) - 1
    bags: list[int] = [full]  # element bitmask per vertex
    adjacency: list[dict[int, Fraction]] = [{}]
    ordered = sorted(
        system.items(), key=lambda it: (-it[0].min_side_size, it[0].bits)
    )
    for split, weight in ordered:
        a_mask = split.bits
        b_mask = full ^ a_mask
        target = None
        attach_b: list[int] = []
        for v in range(len(bags)):
            side_b_neighbors = []
            pure = True
            for w in adjacency[v]:
                comp = _component_mask(adjacency, bags, w, v)
                if comp & a_mask and comp & b_mask:
                    pure = False
                    break
                if comp & b_mask or not comp & a_mask:
                    side_b_neighbors.append(w)
            if pure:
                if target is not None:
                    raise ValueError(f"ambiguous placement for split {split}")
                target = v
                attach_b = side_b_neighbors
        if target is None:
            raise ValueError(f"split system is not compatible at {split}")
        new_vertex = len(bags)
        bags.append(bags[target] & b_mask)
        bags[target] &= a_mask
        adjacency.append({})
        for w in attach_b:
            adjacency[new_vertex][w] = adjacency[target].pop(w)
            adjacency[w].pop(target)
            adjacency[w][new_vertex] = adjacency[new_vertex][w]
        adjacency[target][new_vertex] = weight
        adjacency[new_vertex][target] = weight

    vertex_bags = [
        [i for i in range(n) if (bags[v] >> i) & 1] for v in range(len(bags))
    ]
    edges = [
        (u, v, w)
        for u in range(len(bags))
        for v, w in sorted(adjacency[u].items())
        if u < v
    ]
    return XTree(ground, vertex_bags, edges)


def splits_from_xtree(tree: XTree) -> WeightedSplitSystem:
    """Recover the weighted split system from a tree's edges.  Each edge
    contributes the bipartition of element bags left by its removal."""
    v_count = tree.n_vertices
    adjacency: list[list[int]] = [[] for _ in range(v_count)]
    for u, v, _ in tree.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    bag_masks = [sum(1 << e for e in bag) for bag in tree.bags]

    # random_binary_tree_system puts each new leaf at v, so walking from v
    # stays on the small side of its leaf edges
    entries = [
        (Split.from_bits(tree.ground, _component_mask(adjacency, bag_masks, v, u)), w)
        for u, v, w in tree.edges
    ]
    return WeightedSplitSystem(tree.ground, entries)


def four_point_check(
    matrix: DistanceMatrix,
) -> tuple[int, int, int, int] | None:
    """First quadruple (lexicographic) where the two largest of the three
    pairing sums differ, or None when every quadruple is fine."""
    rows = matrix.comparison_rows()
    n = matrix.n
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = rows[i][j]
            for k in range(j + 1, n):
                d_ik, d_jk = rows[i][k], rows[j][k]
                for l in range(k + 1, n):
                    s1 = d_ij + rows[k][l]
                    s2 = d_ik + rows[j][l]
                    s3 = rows[i][l] + d_jk
                    hi = max(s1, s2, s3)
                    if (s1 == hi) + (s2 == hi) + (s3 == hi) < 2:
                        return (i, j, k, l)
    return None


def is_ultrametric(matrix: DistanceMatrix) -> bool:
    """True when, in every triple, the two largest distances are equal."""
    rows = matrix.comparison_rows()
    n = matrix.n
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = rows[i][j]
            for k in range(j + 1, n):
                s1, s2, s3 = d_ij, rows[i][k], rows[j][k]
                hi = max(s1, s2, s3)
                if (s1 == hi) + (s2 == hi) + (s3 == hi) < 2:
                    return False
    return True


@dataclass(frozen=True)
class SixPointWitness:
    """A six-point certificate that the strict-comparison split system of a
    distance matrix is not compatible.  ``condition`` is 1 or 2, ``branch``
    selects the strict/non-strict variant inside the condition."""

    a: int
    b: int
    s: int
    t: int
    x: int
    y: int
    condition: int
    branch: int

    def elements(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.s, self.t, self.x, self.y)

    def holds_in(self, matrix: DistanceMatrix) -> bool:
        """Re-evaluate the recorded inequalities against a matrix."""
        rows = matrix.comparison_rows()
        a, b, s, t, x, y = self.elements()
        if not (rows[x][a] < rows[y][a] and rows[y][b] <= rows[x][b]):
            return False
        if self.condition == 1 and self.branch == 1:
            return (
                rows[a][s] < rows[a][t]
                and rows[b][s] < rows[b][t]
                and rows[x][t] <= rows[x][s]
                and rows[y][t] <= rows[y][s]
            )
        if self.condition == 1 and self.branch == 2:
            return (
                rows[a][s] <= rows[a][t]
                and rows[b][s] <= rows[b][t]
                and rows[x][t] < rows[x][s]
                and rows[y][t] < rows[y][s]
            )
        if self.condition == 2 and self.branch == 1:
            return (
                rows[b][s] < rows[b][t]
                and rows[a][t] <= rows[a][s]
                and rows[x][s] < rows[x][t]
                and rows[y][t] <= rows[y][s]
            )
        if self.condition == 2 and self.branch == 2:
            return (
                rows[b][s] <= rows[b][t]
                and rows[a][t] < rows[a][s]
                and rows[x][s] <= rows[x][t]
                and rows[y][t] < rows[y][s]
            )
        return False


def six_point_witness(matrix: DistanceMatrix) -> SixPointWitness | None:
    """Exhaustive search for a six-point incompatibility certificate.

    Tuples (a, b, s, t, x, y) need a != b, s != t, x != y and nothing more;
    the first witness in lexicographic tuple order is returned, checking
    condition 1 before condition 2 and the strict-(s,t) branch before the
    strict-(x,y) branch within each tuple.
    """
    rows = matrix.comparison_rows()
    n = matrix.n
    elements = range(n)
    for a in elements:
        row_a = rows[a]
        for b in elements:
            if a == b:
                continue
            row_b = rows[b]
            pairs_xy = [
                (x, y)
                for x in elements
                for y in elements
                if x != y and rows[x][a] < rows[y][a] and rows[y][b] <= rows[x][b]
            ]
            if not pairs_xy:
                continue
            for s in elements:
                for t in elements:
                    if s == t:
                        continue
                    as_lt = row_a[s] < row_a[t]
                    as_le = row_a[s] <= row_a[t]
                    bs_lt = row_b[s] < row_b[t]
                    bs_le = row_b[s] <= row_b[t]
                    c1a = as_lt and bs_lt
                    c1b = as_le and bs_le
                    c2a = bs_lt and not as_lt
                    c2b = bs_le and row_a[t] < row_a[s]
                    if not (c1a or c1b or c2a or c2b):
                        continue
                    for x, y in pairs_xy:
                        row_x, row_y = rows[x], rows[y]
                        if c1a and row_x[t] <= row_x[s] and row_y[t] <= row_y[s]:
                            return SixPointWitness(a, b, s, t, x, y, 1, 1)
                        if c1b and row_x[t] < row_x[s] and row_y[t] < row_y[s]:
                            return SixPointWitness(a, b, s, t, x, y, 1, 2)
                        if c2a and row_x[s] < row_x[t] and row_y[t] <= row_y[s]:
                            return SixPointWitness(a, b, s, t, x, y, 2, 1)
                        if c2b and row_x[s] <= row_x[t] and row_y[t] < row_y[s]:
                            return SixPointWitness(a, b, s, t, x, y, 2, 2)
    return None
