"""Circular distances and circular split systems.

A weighted split system is circular when all its splits cut a common
circular ordering of the elements into two arcs; a distance is circular
when some non-negative weighting of such a system generates it.  The
quadruple condition checked here characterizes the orderings that work:
for positions i < j < k < l along the ordering,

    max(D(xi,xj) + D(xk,xl), D(xi,xl) + D(xj,xk)) <= D(xi,xk) + D(xj,xl).

The condition is invariant under rotating and reversing the ordering, so
orderings are canonicalized (element 0 first, smaller second element) and
recovery can fix element 0 in place.

For circular input and q = p/2 the order distance can be computed without
touching all pairs-of-pairs.  Every strict-comparison side is an arc, and
its end is found from the previous pair's end by a check in place, two
probes and one bisection (``order_distance_circular`` gives the search in
full).  The weighted arc system is evaluated by an O(n^2) recurrence.  The
arcs come from a monotonicity lemma: for positions a < z < z' < b the
condition gives D(a,z) + D(z',b) <= D(a,z') + D(z,b), so
f(z) = D(a,z) - D(b,z) never decreases from a to b, and by the same step
never increases from b round to a.  With f(a) = -D(a,b) < 0 < f(b), the side
{f < 0} of a is a prefix of the path a..b and a suffix of the path b..a, the
side {f > 0} of b is the reverse, and the ties lie between them.  The lemma
needs no triangle inequality, only the condition on the ordering, which
recovery verifies in full.

By the lemma, each level set L(u,v,c) = {u} | {z not in {u,v} : f(z) < c}
of f = D(u,.) - D(v,.) is an arc of a passing ordering; conversely a
violated edge pair (a, a+1), (b, b+1) leaves L(e_a, e_a+1, f(e_b+1)) off
every arc.  So recovery is one repair loop: greedy cheapest insertion
proposes an ordering, and while the check returns a quadruple the level
sets of its four cyclic pairs, both ways, join the constraints, at least
one of them new, and a consecutive-ones test (element 0 pinned first)
proposes an ordering with every constraint an arc, or shows there is none.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, pairwise
from math import lcm
from operator import or_
from typing import Iterable, Mapping

from .compat import _crosses
from .core import (
    DistanceMatrix,
    GroundSet,
    OrderParams,
    PreconditionError,
    Split,
    WeightedSplitSystem,
    as_rational,
    bit_indices,
    canonical_mask,
    gather,
    ground_and_splits,
    separation_rows,
    transpose_bits,
)

__all__ = [
    "NotCircularError",
    "CircularOrdering",
    "maximum_circular_splits",
    "interval_weight_map",
    "kalmanson_check",
    "fits_on_ordering",
    "recover_circular_ordering",
    "is_circular_split_system",
    "evaluate_circular_distance",
    "order_distance_circular",
]


class NotCircularError(PreconditionError):
    """Raised when an operation requires circular input and recovery of a
    valid ordering failed."""


class CircularOrdering:
    """A circular arrangement of all elements, canonicalized so that
    rotations and reversals of the same circle compare equal.

    A split of the ordering is named by the positions (i, j),
    0 <= i <= j <= n-2, of its side avoiding the last element; that arc's
    bitmask is read off the prefix masks of the sequence, where prefix k
    holds the elements at positions 0..k-1.
    """

    __slots__ = ("ground", "sequence", "_pos", "_prefix", "_hash")

    def __init__(self, ground: GroundSet, sequence: Iterable[int]):
        seq = list(sequence)
        n = ground.n
        if sorted(seq) != list(range(n)):
            raise ValueError("sequence must be a permutation of all elements")
        start = seq.index(0)
        seq = seq[start:] + seq[:start]
        if n >= 3 and seq[1] > seq[-1]:
            seq = [0] + seq[:0:-1]
        self.ground = ground
        self.sequence = tuple(seq)
        self._pos = {e: i for i, e in enumerate(seq)}
        self._prefix = list(accumulate([1 << e for e in seq], or_, initial=0))
        self._hash = hash((ground, self.sequence))

    @property
    def n(self) -> int:
        return self.ground.n

    def position(self, element: int) -> int:
        return self._pos[element]

    def arc_bits(self, i: int, j: int) -> int:
        """Bitmask of the elements at positions i..j, 0 <= i <= j < n."""
        return self._prefix[j + 1] ^ self._prefix[i]

    def interval_of(self, split: Split) -> tuple[int, int] | None:
        """The positions (i, j) of the arc i..j that is the split's side
        avoiding the last element, or None when the split is not an arc.

        Were the side an arc, its elements before the position p of any one
        of them would be the p - i elements at positions i..p-1, so
        i = p - popcount(side & prefix[p]); the side is an arc exactly when
        it equals arc_bits(i, i + size - 1).  O(1) int operations on n-bit
        masks.
        """
        if split.ground is not self.ground and split.ground != self.ground:
            raise ValueError("ground set mismatch")
        prefix = self._prefix
        n = len(self.sequence)
        side = split.bits
        if side >> self.sequence[-1] & 1:
            side ^= prefix[n]
        p = self._pos[side.bit_length() - 1]
        before = (side & prefix[p]).bit_count()
        i = p - before
        # the side's other size - before elements fit in positions p..n-2,
        # so j <= n-2
        j = i + side.bit_count() - 1
        if prefix[j + 1] ^ prefix[i] == side:
            return i, j
        return None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CircularOrdering)
            and self.ground == other.ground
            and self.sequence == other.sequence
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        labels = self.ground.labels
        return ",".join(labels[e] for e in self.sequence)

    def __repr__(self) -> str:
        return f"CircularOrdering({self})"


def maximum_circular_splits(theta: CircularOrdering) -> list[Split]:
    """The maximum circular split system fitting an ordering, as splits,
    lexicographic by (i, j): arc i..j is the prefix-mask difference
    prefix[j+1] ^ prefix[i]."""
    ground, prefix = theta.ground, theta._prefix
    last = theta.n - 1
    from_bits = Split.from_bits
    return [
        from_bits(ground, prefix[j] ^ prefix_i)
        for i, prefix_i in enumerate(prefix[:last])
        for j in range(i + 1, last + 1)
    ]


def fits_on_ordering(splits: Iterable[Split], theta: CircularOrdering) -> bool:
    """True when every split cuts the ordering into two arcs: one
    ``CircularOrdering.interval_of`` per split."""
    return all(theta.interval_of(split) is not None for split in splits)


def interval_weight_map(
    theta: CircularOrdering, system: WeightedSplitSystem
) -> dict[tuple[int, int], Fraction]:
    """Re-key a fitting weighted system by arc positions (i, j) on the
    ordering, in the system's split order: one
    ``CircularOrdering.interval_of`` per split, O(1) int operations on
    n-bit masks, no walk over the elements."""
    if system.ground != theta.ground:
        raise ValueError("ground set mismatch")
    interval_of = theta.interval_of
    out: dict[tuple[int, int], Fraction] = {}
    for split, weight in system.items():
        interval = interval_of(split)
        if interval is None:
            raise ValueError(f"split {split} does not fit on the ordering")
        out[interval] = weight
    return out


def kalmanson_check(
    matrix: DistanceMatrix, theta: CircularOrdering
) -> tuple[int, int, int, int] | None:
    """A position quadruple of the ordering violating the circular
    quadruple condition, returned as elements in position order, or None
    if all quadruples pass.

    Only the instances over two disjoint edges of the circle are tested:
    for edges (a, a+1) and (b, b+1) the inequality

        D(e_a, e_b) + D(e_a+1, e_b+1) >= D(e_a, e_b+1) + D(e_a+1, e_b).

    Summing these along the two paths between a general quadruple's four
    positions telescopes into both of its inequalities, so this O(n^2)
    family is equivalent to checking every quadruple directly (Christopher,
    Farach and Trick, "The structure of circular decomposable metrics",
    ESA 1996).  A violated instance is itself a violating quadruple.
    """
    if matrix.ground != theta.ground:
        raise ValueError("ground set mismatch")
    rows = matrix.comparison_rows()
    seq = theta.sequence
    n = len(seq)
    for a in range(n):
        ea = seq[a]
        ea1 = seq[(a + 1) % n]
        row_a, row_a1 = rows[ea], rows[ea1]
        top = n if a else n - 1
        for b in range(a + 2, top):
            eb = seq[b]
            eb1 = seq[(b + 1) % n]
            if row_a[eb] + row_a1[eb1] < row_a[eb1] + row_a1[eb]:
                if b == n - 1:
                    return (eb1, ea, ea1, eb)
                return (ea, ea1, eb, eb1)
    return None


def _greedy_insertion(rows: list[list[int]], n: int) -> list[int]:
    """Elements 3..n-1 inserted one by one into the circle 0, 1, 2, each at
    its cheapest detour D(x,z) + D(z,y) - D(x,y) between neighbours x and
    y, the lowest such position on a tie."""
    seq = [0, 1, 2]
    for z in range(3, n):
        row_z = rows[z]
        detours = [row_z[x] + row_z[y] - rows[x][y] for x, y in pairwise(seq + seq[:1])]
        seq.insert(detours.index(min(detours)) + 1, z)
    return seq


def _level_sets(rows: list[list[int]], u: int, v: int, full: int) -> list[int]:
    """The nontrivial level sets {u} | {z not in {u, v} : f(z) < c} of
    f(z) = D(u,z) - D(v,z), one per value c taken by f, each as its side
    avoiding element 0."""
    row_u, row_v = rows[u], rows[v]
    ranked = sorted(
        (row_u[z] - row_v[z], z) for z in range(len(rows)) if z != u and z != v
    )
    out, mask, last = [], 1 << u, ranked[0][0]
    for value, z in ranked:
        if value != last:
            out.append(canonical_mask(mask, full))
            last = value
        mask |= 1 << z
    return out


def _consecutive_order(sets: Iterable[int], universe: int) -> list[int] | None:
    """An order of the universe's elements in which every set is
    consecutive, or None (Fulkerson and Gross, Pacific J. Math. 15, 1965).

    Sets that cross (``compat._crosses``) form components.  In one, each
    set in search order crosses an earlier one, so its place is forced up
    to reversal: a run of the classes so far, whole but for the two ends,
    which it splits, then its new elements at one end.  Unions of different
    components are nested or disjoint, a smaller one inside one class of a
    larger, so the components, largest union first, refine one sequence.
    """
    pending = sorted(set(sets))
    components = []
    while pending:
        found = [pending.pop()]
        for s in found:
            rest = []
            for t in pending:
                (found if _crosses(s, t) else rest).append(t)
            pending = rest
        covered = found[0]
        classes = [covered]
        for s in found[1:]:
            fresh = s & ~covered
            covered |= s
            for seq in (classes, classes[::-1]):
                seq = seq + [fresh] if fresh else seq
                hit = [i for i, c in enumerate(seq) if c & s]
                lo, hi = hit[0], hit[-1]
                inner = seq[lo + 1 : hi]
                if all(c & s == c for c in inner):
                    run = [seq[lo] & ~s, seq[lo] & s, *inner, seq[hi] & s, seq[hi] & ~s]
                    classes = [c for c in seq[:lo] + run + seq[hi + 1 :] if c]
                    break
            else:
                return None
        # largest union first; on a tie, the one set that equals the union
        components.append((-covered.bit_count(), len(classes), covered, classes))
    blocks = [universe]
    for _, _, union, classes in sorted(components):
        i = next(i for i, block in enumerate(blocks) if block & union)
        blocks[i : i + 1] = [c for c in classes + [blocks[i] & ~union] if c]
    return [e for block in blocks for e in bit_indices(block)]


def recover_circular_ordering(matrix: DistanceMatrix) -> CircularOrdering | None:
    """An ordering on which the matrix passes the quadruple condition, or
    None when no ordering works, by the repair loop of the module
    docstring.  With zero weights the ordering need not be unique; any
    valid one may be returned.
    """
    n = matrix.n
    if n <= 3:
        return CircularOrdering(matrix.ground, range(n))
    rows = matrix.comparison_rows()
    full = (1 << n) - 1
    constraints: set[int] = set()
    theta = CircularOrdering(matrix.ground, _greedy_insertion(rows, n))
    while (quad := kalmanson_check(matrix, theta)) is not None:
        for u, v in zip(quad, quad[1:] + quad[:1]):
            for a, b in ((u, v), (v, u)):
                constraints.update(_level_sets(rows, a, b, full))
        order = _consecutive_order(constraints, full ^ 1)
        if order is None:
            return None
        theta = CircularOrdering(matrix.ground, [0] + order)
    return theta


def is_circular_split_system(
    splits: WeightedSplitSystem | Iterable[Split],
) -> CircularOrdering | None:
    """An ordering all splits fit on, or None.

    Works through distances: the unit weighting of a circular system
    generates a circular distance whose valid orderings are exactly the
    orderings the system fits on, and the fit is re-checked explicitly.
    That distance counts the splits separating x and y: the split
    distance kernel (``separation_rows``) with every weight 1.
    """
    ground, split_list = ground_and_splits(splits)
    if not split_list:
        return CircularOrdering(ground, range(ground.n))
    side = transpose_bits([s.bits for s in split_list], ground.n)
    unit = separation_rows(side, [1] * len(split_list))
    theta = recover_circular_ordering(DistanceMatrix.from_scaled(ground, unit))
    return theta if theta is not None and fits_on_ordering(split_list, theta) else None


def _table_distance(
    theta: CircularOrdering, table: list[list[int]], scale: int
) -> DistanceMatrix:
    """The matrix, over scale, generated by an integer interval weight
    table on the ordering: table[i][j] covers positions i..j
    (0 <= i <= j <= n-2) and is 0 below the diagonal."""
    n = theta.n
    # the total weight of the intervals [i..a] (column a) and [a..j] (row a)
    ending_at = list(map(sum, zip(*table)))
    starting_at = list(map(sum, table)) + [0]
    # distances between arc positions, by a boundary recurrence
    dist = [[0] * n for _ in range(n)]
    for a in range(n - 1):
        dist[a][a + 1] = dist[a + 1][a] = ending_at[a] + starting_at[a + 1]
    for gap in range(2, n):
        for a in range(n - gap):
            b = a + gap
            dist[a][b] = dist[b][a] = (
                dist[a + 1][b]
                + dist[a][b - 1]
                - dist[a + 1][b - 1]
                - 2 * table[a + 1][b - 1]
            )
    # back from positions to elements: row and column e are position pos[e]
    by_element = gather([theta.position(e) for e in range(n)])
    out = list(map(by_element, by_element(dist)))
    return DistanceMatrix.from_scaled(theta.ground, out, scale)


def evaluate_circular_distance(
    theta: CircularOrdering, weights: Mapping[tuple[int, int], object]
) -> DistanceMatrix:
    """Distance generated by weights on the arcs (i, j) of one ordering,
    0 <= i <= j <= n-2, computed in O(n^2) by a boundary recurrence instead
    of touching every split for every pair."""
    last = theta.n - 2
    rationals = []
    for (i, j), raw in weights.items():
        if not 0 <= i <= j <= last:
            raise ValueError(f"bad interval ({i},{j})")
        w = as_rational(raw)
        if w.numerator < 0:
            raise ValueError("negative weight")
        rationals.append(w)
    scale = lcm(*(w.denominator for w in rationals))
    table = [[0] * (last + 1) for _ in range(last + 1)]
    for (i, j), w in zip(weights, rationals):
        table[i][j] += w.numerator * (scale // w.denominator)
    return _table_distance(theta, table, scale)


def _first_where(near: list[int], far: list[int], lo: int, hi: int, gap: int) -> int:
    """The first i in lo..hi-1 with near[i] - far[i] >= gap, else hi, by
    bisection on a path where near - far never decreases.  The rows are
    ints: gap 0 finds where near < far ends, gap 1 where near > far begins."""
    while lo < hi:
        mid = (lo + hi) // 2
        if near[mid] - far[mid] >= gap:
            hi = mid
        else:
            lo = mid + 1
    return lo


def order_distance_circular(
    matrix: DistanceMatrix, params: OrderParams
) -> DistanceMatrix:
    """Order distance of a circular input distance; needs q = p/2.

    Recovers and verifies an ordering, locates every strict-comparison arc,
    and evaluates the weighted arc system with the O(n^2) recurrence.  For
    positions a < b with D(a,b) > 0, f(z) = D(a,z) - D(b,z) is monotone
    along each path between them (module docstring), so {f < 0} and
    {f > 0} are arcs whose ends take one search on each path, and a second,
    binary one (``_first_where``, gap 1) only past a tied boundary.
    The ends barely move from one b to the next, nearly always forward by
    0 or 1, so each main search checks the end found for the previous b in
    place, probes the next position and, only if that passed, the one
    after.  No probe needs a bounds test, since each path ends in a
    sentinel that fails its comparison: b on the path a..b, where
    D(a,b) > 0 = D(b,b), and a on the path b..a, where D(a,a) = 0 < D(b,a).
    Any other end takes one bisection, ``_first_where`` with gap 0 and the
    rows swapped on b..a: from the path's first position up to the previous
    end when that lies outside the side, and from three past it up to the
    sentinel when the end moved on by 2 or more.  The monotonicity that
    makes a bisection correct makes any start correct, and the verified
    ordering proves it for every pair, so no scan is needed.

    Raises PreconditionError when q != p/2, and its subclass
    NotCircularError when no ordering passes verification or when a
    zero-distance pair shows the input cannot come from non-negative arc
    weights.
    """
    if params.q != params.half_p:
        raise PreconditionError("the circular engine requires q = p/2")
    theta = recover_circular_ordering(matrix)
    if theta is None:
        raise NotCircularError("no circular ordering fits this distance")
    n = matrix.n
    rows = matrix.comparison_rows()
    seq = theta.sequence
    # rows and columns by position; the path b..a runs over the indices
    # b-n..a, whose negative part Python's indexing wraps round to b..n-1
    by_position = gather(seq)
    pos_rows = list(map(by_position, by_position(rows)))
    weight = params.half_p.numerator
    table = [[0] * (n - 1) for _ in range(n - 1)]
    for a, row_a in enumerate(pos_rows):
        # the ends found for the last pair (a, b') searched, where the
        # searches for (a, b) start; any start in range is correct
        end_a, end_b = a, a - 1
        for b in range(a + 1, n):
            row_b = pos_rows[b]
            if row_a[b] == 0:
                # at distance zero the two comparison rows must agree, else
                # no non-negative arc weighting can generate this input
                if row_b != row_a:
                    raise NotCircularError(
                        "elements at distance zero compare differently"
                    )
                continue
            # path a..b: the side of a is a prefix, the side of b a suffix;
            # b fails (row_a[b] = D(a,b) > 0 = row_b[b]), so the probes at
            # end_a + 1 and, once that passed, end_a + 2 stay in a..b
            if row_a[end_a] < row_b[end_a]:
                hi = end_a + 1
                if row_a[hi] < row_b[hi]:
                    end_a = hi
                    hi += 1
                    if row_a[hi] < row_b[hi]:
                        end_a = _first_where(row_a, row_b, hi + 1, b, 0) - 1
                        hi = end_a + 1
            else:
                end_a = _first_where(row_a, row_b, a + 1, end_a, 0) - 1
                hi = end_a + 1
            start_b = hi if row_a[hi] != row_b[hi] else _first_where(row_a, row_b, hi + 1, b, 1)
            # path b..a: the side of b is a prefix, the side of a a suffix;
            # the same search with the rows swapped, from end_b moved into
            # b-n..a-1, and a fails (row_a[a] = 0 < D(a,b) = row_b[a])
            if end_b <= b - n:
                end_b = b - n
            if row_a[end_b] > row_b[end_b]:
                hi = end_b + 1
                if row_a[hi] > row_b[hi]:
                    end_b = hi
                    hi += 1
                    if row_a[hi] > row_b[hi]:
                        end_b = _first_where(row_b, row_a, hi + 1, a, 0) - 1
                        hi = end_b + 1
            else:
                end_b = _first_where(row_b, row_a, b - n + 1, end_b, 0) - 1
                hi = end_b + 1
            start_a = hi if row_a[hi] != row_b[hi] else _first_where(row_b, row_a, hi + 1, a, 1)
            # table keys are arcs avoiding position n-1: else the complement
            if start_a >= 0:
                table[start_a][end_a] += weight
            else:
                table[end_a + 1][start_a + n - 1] += weight
            if end_b < -1:
                table[start_b][end_b + n] += weight
            else:
                table[end_b + 1][start_b - 1] += weight
    return _table_distance(theta, table, params.half_p.denominator)
