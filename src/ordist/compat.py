"""Compatibility of split systems, trees, and treelike distances.

Two splits are compatible when one of the four pairwise side intersections
is empty, that is, when their stored sides (those without element 0) do not
cross; a system is compatible when all its pairs are.  Compatible weighted
systems are exactly the edge-split systems of trees whose vertices of
degree at most 2 carry labels, and this module converts between the two
presentations.  The stored sides nest or are disjoint exactly when the
system is compatible, so one pass that places them, largest first, under
the vertex holding their lowest element both decides compatibility and
builds the tree; the way back hangs the tree from vertex 0 and reads each
edge's split off the elements below it.  It also provides the classical
four-point and ultrametric checks and the six-point certificate that the
strict comparison splits of a distance matrix fail to be compatible.  One
exists exactly when the strict side of a pair at positive distance crosses
another strict side; with zeros off the diagonal, incompatible input whose
crossing sides all come from pairs at distance 0 has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Sequence

from .core import (
    DistanceMatrix,
    GroundSet,
    Split,
    WeightedSplitSystem,
    as_rational,
    bit_indices,
    canonical_mask,
    ground_and_splits,
    transpose_bits,
)
from .order import _comparison_sets, _row_width

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


def _crosses(a: int, b: int) -> bool:
    """Whether the splits with stored sides a and b cross: the sides meet
    and neither holds the other.  The fourth corner, outside both sides,
    holds element 0, so it is never empty."""
    both = a & b
    return both != 0 and both != a and both != b


def is_compatible_pair(s1: Split, s2: Split) -> bool:
    """True when some side of s1 is disjoint from some side of s2."""
    if s1.ground != s2.ground:
        raise ValueError("ground set mismatch")
    return not _crosses(s1.bits, s2.bits)


def incompatible_pair(
    splits: WeightedSplitSystem | Iterable[Split],
) -> tuple[Split, Split] | None:
    """The first incompatible pair in canonical order, or None.  The
    nesting pass of ``is_compatible`` settles a compatible collection;
    only an incompatible one is scanned pair by pair."""
    splits = splits if isinstance(splits, WeightedSplitSystem) else list(splits)
    if is_compatible(splits):
        return None
    items = ground_and_splits(splits)[1]
    return next((s, t) for s, t in combinations(items, 2) if _crosses(s.bits, t.bits))


def is_compatible(splits: WeightedSplitSystem | Iterable[Split]) -> bool:
    """True when every pair of splits is compatible, decided by the
    nesting pass of ``xtree_from_compatible`` in O(sum of the side sizes)
    rather than pair by pair.  An empty collection is vacuously compatible."""
    splits = splits if isinstance(splits, WeightedSplitSystem) else list(splits)
    if not splits:
        return True
    ground, items = ground_and_splits(splits)
    return len(_nest(ground.n, items)[1]) == len(items)


def _nest(n: int, splits: Iterable[Split]) -> tuple[list[Split], list[int], list[int]]:
    """Place the stored sides of canonically ordered splits, largest first
    (a stable sort), as vertices 1, 2, ... under a root 0 that starts with
    every element: each under the vertex holding its lowest element, taking
    its elements from that vertex's bag.  Returns the splits largest first,
    each placed one's parent and each element's vertex.  A side not inside
    that one bag crosses an earlier side and stops the placing, so fewer
    parents than splits means they are not compatible."""
    by_size = sorted(splits, key=lambda split: -split.bits.bit_count())
    owner = [0] * n
    parents: list[int] = []
    for split in by_size:
        side = bit_indices(split.bits)
        parent = owner[side[0]]
        if any(owner[e] != parent for e in side):
            break
        parents.append(parent)
        for e in side:
            owner[e] = len(parents)
    return by_size, parents, owner


def _hang(
    v_count: int, edges: Iterable[tuple[int, int, object]]
) -> tuple[list[int], list[int]]:
    """Hang a graph from vertex 0: the vertices reachable from it in
    breadth-first order, and each vertex's parent (-1 for vertex 0 and for
    vertices not reached)."""
    adjacency: list[list[int]] = [[] for _ in range(v_count)]
    for u, v, _ in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = [-1] * v_count
    order = [0]
    for v in order:
        for w in adjacency[v]:
            if w and parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


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
        for u, v, w in edges:
            if not (0 <= u < v_count and 0 <= v < v_count) or u == v:
                raise ValueError(f"bad edge ({u},{v})")
            edge_list.append((u, v, as_rational(w)))
            degree[u] += 1
            degree[v] += 1
        if len(edge_list) != v_count - 1:
            raise ValueError("a tree on k vertices needs k-1 edges")
        if len(_hang(v_count, edge_list)[0]) != v_count:
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
    """Build the tree realizing a compatible weighted split system.

    Each split becomes exactly one edge with the same weight, placed by
    ``_nest``; a side that crosses an earlier one rejects the input there.
    Vertices are numbered in placement order, from the root outward.
    """
    by_size, parents, owner = _nest(system.ground.n, system.splits)
    if len(parents) < len(by_size):
        raise ValueError(f"split system is not compatible at {by_size[len(parents)]}")
    edges = [
        (parent, vertex, system.weight(split))
        for vertex, (parent, split) in enumerate(zip(parents, by_size), 1)
    ]
    bags: list[list[int]] = [[] for _ in range(len(edges) + 1)]
    for e, v in enumerate(owner):
        bags[v].append(e)
    return XTree(system.ground, bags, edges)


def splits_from_xtree(tree: XTree) -> WeightedSplitSystem:
    """Recover the weighted split system from a tree's edges.  Each edge
    contributes the bipartition of element bags left by its removal: the
    bags below its lower end, with the tree hung from vertex 0."""
    order, parent = _hang(tree.n_vertices, tree.edges)
    below = [sum(1 << e for e in bag) for bag in tree.bags]
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    entries = [
        (Split.from_bits(tree.ground, below[v if parent[v] == u else u]), w)
        for u, v, w in tree.edges
    ]
    return WeightedSplitSystem(tree.ground, entries)


def four_point_check(
    matrix: DistanceMatrix,
) -> tuple[int, int, int, int] | None:
    """First quadruple (lexicographic) where the two largest of the three
    pairing sums differ, or None when every quadruple is fine."""
    rows = matrix.comparison_rows()
    for i, j, k, l in combinations(range(matrix.n), 4):
        s1, s2, s3 = rows[i][j] + rows[k][l], rows[i][k] + rows[j][l], rows[i][l] + rows[j][k]
        hi = max(s1, s2, s3)
        if (s1 == hi) + (s2 == hi) + (s3 == hi) < 2:
            return (i, j, k, l)
    return None


def is_ultrametric(matrix: DistanceMatrix) -> bool:
    """True when, in every triple, the two largest distances are equal."""
    rows = matrix.comparison_rows()
    for i, j, k in combinations(range(matrix.n), 3):
        s1, s2, s3 = rows[i][j], rows[i][k], rows[j][k]
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
        """Whether the witness certifies two crossing strict sides of the
        matrix.  With X(u, v) = {z : D(u, z) < D(v, z)}, take P = X(x, y),
        and Q = X(s, t) in branch 1 or the complement of X(t, s) in branch
        2.  It holds when D(x, y) > 0, P holds a but not b, and Q holds a
        and b but not x or y under condition 1, b and x but not a or y
        under condition 2.  Any other condition or branch, or an element
        outside 0..n-1, does not hold."""
        a, b, s, t, x, y = self.elements()
        sides = {1: ((a, b), (x, y)), 2: ((b, x), (a, y))}
        in_range = all(e in range(matrix.n) for e in self.elements())
        if self.condition not in sides or self.branch not in (1, 2) or not in_range:
            return False
        rows = matrix.comparison_rows()

        def closer(u: int, v: int, z: int) -> bool:  # z in X(u, v)
            return rows[u][z] < rows[v][z]

        def in_q(z: int) -> bool:
            return closer(s, t, z) if self.branch == 1 else not closer(t, s, z)

        inside, outside = sides[self.condition]
        return (
            rows[x][y] > 0
            and closer(x, y, a)
            and not closer(x, y, b)
            and all(map(in_q, inside))
            and not any(map(in_q, outside))
        )


def six_point_witness(matrix: DistanceMatrix) -> SixPointWitness | None:
    """The first six-point incompatibility certificate, or None.

    With X(u, v) = {z : D(u, z) < D(v, z)}, one exists exactly when a side
    X(x, y) with D(x, y) > 0 crosses another side X(s, t), so None states
    that no such pair crosses.  The witness is the first (a, b, s, t, x, y)
    in lexicographic order, condition 1 before 2 and branch 1 before 2.
    Bit (s, t) of T_z says z is in X(s, t), and of W_z = T_z | E_z that z
    is outside X(t, s).  For each (a, b) the (x, y) at positive distance in
    T_a & ~T_b each give one mask of the (s, t) that complete them per
    condition and branch; the lowest bit of their union is the first (s, t).
    """
    n = matrix.n
    full, width = (1 << n) - 1, _row_width(n)
    rows = matrix.comparison_rows()
    # rows[z] is column z too: the matrix is symmetric
    strict, ties = zip(*(_comparison_sets(rows[z], True) for z in range(n)))
    sides = transpose_bits(strict, n * width)
    # bit (x, y) of T_x says D(x, x) < D(y, x), that is D(x, y) > 0
    positive = sum(strict[x] & full << x * width for x in range(n))
    near = {canonical_mask(sides[i], full) for i in bit_indices(positive)}
    others = {canonical_mask(side, full) for side in set(sides)}
    # the tuple search below would find no witness either, but only after
    # walking every (a, b)
    if not any(_crosses(p, q) for p in near for q in others):
        return None
    weak = [t | e for t, e in zip(strict, ties)]
    for a, b in product(range(n), repeat=2):
        ta, tb, wa, wb = strict[a], strict[b], weak[a], weak[b]
        union, found = 0, []
        for pair in bit_indices(ta & ~tb & positive):
            x, y = divmod(pair, width)
            tx, ty, wx, wy = strict[x], strict[y], weak[x], weak[y]
            masks = (ta & tb & ~(tx | ty), wa & wb & ~(wx | wy),
                     tb & ~ta & tx & ~ty, wb & ~wa & wx & ~wy)
            union |= masks[0] | masks[1] | masks[2] | masks[3]
            found.append((x, y, masks))
        if union:
            first = union & -union
            s, t = divmod(first.bit_length() - 1, width)
            x, y, k = next(
                (x, y, k) for x, y, masks in found for k, mask in enumerate(masks) if mask & first
            )
            return SixPointWitness(a, b, s, t, x, y, k // 2 + 1, k % 2 + 1)
    return None
