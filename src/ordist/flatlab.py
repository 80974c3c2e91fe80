"""Linearly independent, flat and orderly split systems.

Each split A|B has an incidence vector over unordered element pairs (1 when
the split separates the pair), which is also the vector of its split metric.
The linear algebra runs on integers and has two parts.  Most splits are
peeled: a 3-point functional 1/2 (D(x,a) + D(x,b) - D(a,b)) of the distance
isolates one split not yet solved, so its weight follows by back-substitution.
The splits that do not peel, the core, go through a fraction-free Gauss-Jordan
elimination (Bareiss 1968), which divides each row update exactly by the
previous pivot and leaves every pivot equal to one integer det.  Each element
pair keeps one mask, of the splits separating it, which each element reads
through one gather; the waves, the core rows and, through the kernel
``core.separation_sums``, every weighted sum of split metrics come from these
masks.  A distance enters as its integer rows over its scale, so the weights
express_in_basis returns are the only Fractions, each over 2 * scale, or
det * 2 * scale on the core.  Span questions have no tolerance knobs, which
the orderliness probe below depends on.

A split system is orderly (at p = 2, q = 1) if the order distance of every
distance it generates is again generated by the system with non-negative
weights.  orderly_test searches for a violating weighting: first the
two-split weightings supported on incompatible pairs, then seeded random
weightings.  Every probe goes through one int pipeline: the split distance
kernel gives the generated pair values, per-element column gathers feed the
strict comparison sets of ``order``, and the popcounts of Eq. (1) give the
order distance in the solver's pair order, which the solver re-expresses.
Phase 1 walks only the crossing pairs that fail closedness, the pairs
``is_closed`` reports: by the split decompositions in ``order`` a closed
pair's order distance is a positive combination of splits of the system.
No DistanceMatrix is built, and no Fraction unless the probe finds a
counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Union

from .core import (
    DistanceMatrix,
    GroundSet,
    PreconditionError,
    Split,
    WeightedSplitSystem,
    _check_same_ground,
    _crosses,
    bit_indices,
    canonical_mask,
    gather,
    ground_and_splits,
    separation_sums,
    transpose_bits,
)
from .order import _comparison_sets

__all__ = [
    "DependentBasisError",
    "split_rank",
    "is_linearly_independent",
    "express_in_basis",
    "is_closed",
    "pairwise_separation_check",
    "is_maximum_flat",
    "AllowablePair",
    "allowable_splits",
    "CounterexampleFound",
    "NoCounterexampleFound",
    "OrderlyVerdict",
    "orderly_test",
    "flat_fixture",
    "FLAT_FIXTURE_NAMES",
]


class DependentBasisError(PreconditionError):
    """Raised when an operation needs linearly independent splits but the
    given ones are dependent."""


class _ExactSolver:
    """Exact weights of a fixed split sequence, set up once so that many
    targets can be expressed against the same splits.

    Bit t of side[e] is set when element e lies on the `bits` side of split t
    (``transpose_bits`` of the split bits), so the pair mask side[x] ^ side[y]
    holds the splits separating x and y.  pair_masks keeps one per unordered
    pair, in pair order, and _columns[x] reads x's n entries off a list in pair
    order with a zero appended for y = x.  The 3-point functional (x; a, b),
    1/2 (D(x,a) + D(x,b) - D(a,b)), reads off D the total weight of its
    support, the splits putting x on one side and a, b on the other.  The
    set-up runs waves over these functionals; one whose support meets the
    unsolved splits in exactly one split t solves t, and the waves stop when
    one solves nothing.  Each peeled functional vanishes on every split still
    unsolved when it was used, so the peeled part is triangular and annihilates
    the splits left over, the core: the rank is the number peeled plus the
    core's rank, and the splits are independent exactly when the core is.  Only
    the core is eliminated, fraction-free Gauss-Jordan on its incidence rows
    (bit t of each pair mask for core split t), each followed by the unit
    vector that records the row operations; every entry stays an integer minor
    of these extended rows.  An empty core is the common case; peeled and
    core_size count the splits in each part.
    """

    def __init__(self, ground: GroundSet, splits: list[Split]):
        self.ground = ground
        self.splits = list(splits)
        n = ground.n
        self.pairs = list(combinations(range(n), 2))
        m = len(self.pairs)
        side = transpose_bits([split.bits for split in self.splits], n)
        self.pair_masks = [side[i] ^ side[j] for i, j in self.pairs]
        # slot[x][y] indexes pair {x, y}; the diagonal's m, a zero appended
        slot = [[m] * n for _ in range(n)]
        for p, (i, j) in enumerate(self.pairs):
            slot[i][j] = slot[j][i] = p
        self._columns = [gather(row) for row in slot]
        self._steps, unsolved = self._peel(slot)
        self._core = core = [t for t in range(len(self.splits)) if unsolved >> t & 1]
        self.peeled = len(self._steps)
        self.core_size = k = len(core)
        rows = [
            [mask >> t & 1 for mask in self.pair_masks] + [int(c == idx) for c in range(k)]
            for idx, t in enumerate(core)
        ]
        self.pivot_cols: list[int] = []
        rank, det = 0, 1
        for col in range(m):
            pivot = next((r for r in range(rank, k) if rows[r][col] != 0), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            pivot_row = rows[rank]
            a = pivot_row[col]
            for r in range(k):
                if r != rank:
                    f = rows[r][col]
                    rows[r] = [(a * x - f * y) // det for x, y in zip(rows[r], pivot_row)]
            det = a
            self.pivot_cols.append(col)
            rank += 1
            if rank == k:
                break
        if any(rows[r][col] != det for r, col in enumerate(self.pivot_cols)):
            raise AssertionError("fraction-free elimination left unequal pivots")
        self.rank = self.peeled + rank
        self.det = det
        self._rows = rows

    def _peel(
        self, slot: list[list[int]]
    ) -> tuple[list[tuple[int, tuple[int, ...], tuple[int, ...]]], int]:
        """Run the waves over the pair masks, reading element x's through
        _columns[x]; return the steps and the mask of the splits left
        unsolved.  A wave walks the functionals (x; a, b) element x by
        element x and, for each a, keeps the unsolved splits separating x
        from a, so that each b costs one AND; a split solved early in a wave
        already counts as solved for the functionals after it.

        Each solved split t gets a step (slot, plus, minus), in schedule
        order: with the target's pair values in slots 0..m-1 and the solved
        weights, times 2 * scale, in slot m + s for split s, weight t times
        2 * scale is the sum over the plus slots minus that over the minus.
        For the 3-point functional (x; a, b) that solves t, the plus slots
        are the pairs {x, a} and {x, b}, the minus slots the pair {a, b}
        and the other splits of its support, all solved before t.
        """
        n, m = self.ground.n, len(self.pairs)
        unsolved = (1 << len(self.splits)) - 1
        steps: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        split_slot = list(range(m, m + len(self.splits))).__getitem__  # shared ints m + t
        masks = [*self.pair_masks, 0]
        solved_before = -1
        while unsolved and len(steps) > solved_before:
            solved_before = len(steps)
            for x, column in enumerate(self._columns):
                sx = column(masks)  # sx[x] is 0, so a and b skip x by themselves
                for a in range(n - 1):
                    # the unsolved splits separating x from a, and then from b
                    xa = sx[a] & unsolved
                    if not xa:
                        continue
                    for b in range(a + 1, n):
                        hit = xa & sx[b]
                        if hit and hit & (hit - 1) == 0:  # exactly one unsolved split
                            unsolved ^= hit
                            xa ^= hit
                            earlier = map(split_slot, bit_indices(sx[a] & sx[b] ^ hit))
                            plus, minus = (slot[x][a], slot[x][b]), (slot[a][b], *earlier)
                            steps.append((split_slot(hit.bit_length() - 1), plus, minus))
        return steps, unsolved

    @property
    def is_independent(self) -> bool:
        return self.rank == len(self.splits)

    def express(self, matrix: DistanceMatrix) -> dict[Split, Fraction] | None:
        """Coefficients writing the matrix as a combination of the split
        metrics, or None when it leaves their span.  Unique because the
        splits are required to be independent.  The Fractions of
        ``_signed_weights``: peeled weights over 2 * scale, core weights
        over |det| * 2 * scale."""
        if not self.is_independent:
            raise DependentBasisError("splits are linearly dependent")
        _check_same_ground(self.ground, matrix.ground)
        rows = matrix.comparison_rows()
        signed = self._signed_weights([rows[i][j] for i, j in self.pairs])
        return None if signed is None else self._fractions(signed, matrix.scale)

    def _fractions(self, signed: list[int], scale: int) -> dict[Split, Fraction]:
        """The weights of ``_signed_weights`` for a distance over scale, as
        Fractions keyed by split."""
        scale *= 2
        out = [Fraction(w, scale) for w in signed]
        for t in self._core:
            out[t] = Fraction(signed[t], abs(self.det) * scale)
        return dict(zip(self.splits, out))

    def _signed_weights(self, values: list[int]) -> list[int] | None:
        """The weights of an independent split sequence as ints, in split
        order, or None when the distance leaves their span.  values holds
        the distance's ints over its scale in pair order, and the weights
        are weight t times 2 * scale for a peeled split, times
        |det| * 2 * scale for a core split, so each int has its weight's
        sign.

        The peeled weights come by back-substitution in schedule order,
        then the residual 2D - sum(weight * split metric), the kernel over
        the pair masks, is expressed on the core.  None unless the residual
        is matched exactly, so the weights regenerate D.

        When all m = C(n, 2) splits peel, the residual is zero and skipped:
        peeled functional t is 2 on split t and 0 on every split solved
        after it, so the m functionals against the m split metrics form a
        square triangular matrix with diagonal 2.  It is invertible, so
        the split metrics span all distances and back-substitution returns
        the weights regenerating D."""
        m = len(self.pairs)
        buf = values + [0] * len(self.splits)
        get = buf.__getitem__
        for slot, plus, minus in self._steps:
            buf[slot] = sum(map(get, plus)) - sum(map(get, minus))
        weights = buf[m:]
        if self.peeled == m:
            return weights
        residual = [2 * v - g for v, g in zip(values, separation_sums(weights)(self.pair_masks))]
        total = [0] * (m + len(self._core))
        for col, row in zip(self.pivot_cols, self._rows):
            c = residual[col]
            if c:
                total = [t + c * x for t, x in zip(total, row)]
        det = self.det
        if any(t != det * r for t, r in zip(total, residual)):
            return None
        sign = 1 if det > 0 else -1
        for t, c in zip(self._core, total[m:]):
            weights[t] = sign * c
        return weights


def split_rank(splits: WeightedSplitSystem | Iterable[Split]) -> int:
    """Rank over the rationals of the split incidence vectors."""
    ground, split_list = ground_and_splits(splits)
    return _ExactSolver(ground, split_list).rank


def is_linearly_independent(splits: WeightedSplitSystem | Iterable[Split]) -> bool:
    ground, split_list = ground_and_splits(splits)
    return _ExactSolver(ground, split_list).is_independent


def express_in_basis(
    matrix: DistanceMatrix, splits: WeightedSplitSystem | Iterable[Split]
) -> dict[Split, Fraction] | None:
    """The unique weights combining the split metrics into the given
    distance, or None when the distance is outside their span.

    Raises DependentBasisError when the splits are dependent, because the
    weights would not be unique.  Weights may be negative; callers that
    need a non-negative weighting must check.
    """
    ground, split_list = ground_and_splits(splits)
    return _ExactSolver(ground, split_list).express(matrix)


def is_closed(splits: WeightedSplitSystem | Iterable[Split]) -> tuple[Split, Split] | None:
    """First incompatible pair violating closedness, or None.

    For incompatible A1|B1 and A2|B2 the four corner sets A1&A2, B1&A2,
    A1&B2, B1&B2 are all non-empty.  The pair is fine when at least one
    of these holds, writing ni for the corner sizes (n1, n4 diagonal):
      (a) all four corner splits (corner vs rest) belong to the system;
      (b) n1*n4 == n2*n3 and the middle split (diagonal corners vs
          anti-diagonal corners) belongs to it;
      (c) n1*n4 > n2*n3 and the middle split plus both diagonal corner
          splits belong to it;
      (d) n1*n4 < n2*n3 and the middle split plus both anti-diagonal
          corner splits belong to it.
    A system without incompatible pairs is closed by default.  Phase 1 of
    ``orderly_test`` probes the failing pairs of the same walk.
    """
    ground, split_list = ground_and_splits(splits)
    walk = _crossing_pairs(ground.n, [split.bits for split in split_list])
    return next(((split_list[t1], split_list[t2]) for t1, t2, fails in walk if fails), None)


def _crossing_pairs(n: int, sides: list[int]) -> Iterator[tuple[int, int, bool]]:
    """Each crossing pair of splits among the stored sides of an n-element
    ground set, in order, as (t1, t2, fails): its indices t1 < t2 and
    whether it fails closedness, none of (a)-(d) of ``is_closed`` holding."""
    have = set(sides).__contains__
    for (t1, a), (t2, b) in combinations(enumerate(sides), 2):
        if not _crosses(a, b):
            continue
        # element 0 lies outside a and b, so these sides are stored ones:
        # the corners, the fourth as its complement a | b, and the middle
        m11, m21, m12, rest = a & b, b & ~a, a & ~b, a | b
        if all(map(have, (m11, m21, m12, rest))):
            yield t1, t2, False  # (a)
            continue
        diag = m11.bit_count() * (n - rest.bit_count())
        anti = m21.bit_count() * m12.bit_count()
        # (b) to (d): the middle, and the corners of the larger product
        larger = () if diag == anti else (m11, rest) if diag > anti else (m21, m12)
        yield t1, t2, not all(map(have, (a ^ b, *larger)))


def pairwise_separation_check(
    splits: WeightedSplitSystem | Iterable[Split],
) -> tuple[int, int] | None:
    """First element pair with no separating frame in the system, or None.

    A pair x, y is separated when some disjoint pair (A, B) covering the
    remaining elements puts all four of A+x+y|B, A+x|B+y, A+y|B+x and
    A|B+x+y into the system, skipping the two with an empty side.  A
    working (A, B) makes A+x|B+y a split of the system, so only the stored
    sides s holding one of x, y need trying; the rest of the frame is then
    s with x and y toggled, with x toggled and with y toggled.
    """
    ground, split_list = ground_and_splits(splits)
    return _unseparated_pair(ground.n, [split.bits for split in split_list])


def _unseparated_pair(n: int, sides: list[int]) -> tuple[int, int] | None:
    """``pairwise_separation_check`` on the stored sides of the splits of
    an n-element ground set, which an empty system needs in hand."""
    full = (1 << n) - 1
    have = set(sides)
    for x, y in combinations(range(n), 2):
        bx, by = 1 << x, 1 << y
        pair = bx | by
        for side in sides:
            if (side & pair) in (0, pair):
                continue  # x and y on one side
            for flip in (pair, bx, by):
                # the rest of the frame; a mask of 0 is a split with an empty side
                mask = canonical_mask(side ^ flip, full)
                if mask and mask not in have:
                    break
            else:
                break  # the whole frame is in the system
        else:
            return (x, y)
    return None


def is_maximum_flat(splits: WeightedSplitSystem | Iterable[Split]) -> bool:
    """Whether the splits form a maximum flat split system: C(n,2) splits
    with independent incidence vectors and the pairwise separation
    property, which implies the independence.  For a pair x, y whose frame
    (A, B) lies in the system, with a split with an empty side adding the
    zero metric,

        d(A+x|B+y) + d(A+y|B+x) - d(A+x+y|B) - d(A|B+x+y)

    is 2 on {x, y} and 0 on every other pair.  So a system with the
    property spans all C(n,2) pair coordinates, and C(n,2) distinct splits
    that span them form a basis.
    """
    ground, split_list = ground_and_splits(splits)
    n = ground.n
    if len(split_list) != n * (n - 1) // 2:
        return False
    return _unseparated_pair(n, [split.bits for split in split_list]) is None


@dataclass(frozen=True)
class AllowablePair:
    """An ordering together with a sequence of C(n,2) adjacent swaps, given
    as 0-based positions, under which every element pair swaps exactly
    once (so the final ordering is the reversal)."""

    ground: GroundSet
    pi: tuple[int, ...]
    kappa: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.ground.n
        object.__setattr__(self, "pi", tuple(self.pi))
        object.__setattr__(self, "kappa", tuple(self.kappa))
        if sorted(self.pi) != list(range(n)):
            raise ValueError("pi must be a permutation of all elements")
        if len(self.kappa) != n * (n - 1) // 2:
            raise ValueError("kappa must contain one swap per element pair")
        # ranks in pi: a pair has swapped once its ranks are out of order
        cur = list(range(n))
        for k in self.kappa:
            if not 0 <= k <= n - 2:
                raise ValueError(f"swap position {k} out of range")
            if cur[k] > cur[k + 1]:
                u, v = sorted((self.pi[cur[k]], self.pi[cur[k + 1]]))
                raise ValueError(f"elements {u} and {v} swap twice")
            cur[k], cur[k + 1] = cur[k + 1], cur[k]

    def orderings(self) -> list[tuple[int, ...]]:
        """The orderings visited, from pi to its reversal."""
        cur = list(self.pi)
        out = [tuple(cur)]
        for k in self.kappa:
            cur[k], cur[k + 1] = cur[k + 1], cur[k]
            out.append(tuple(cur))
        return out

    def splits(self) -> frozenset[Split]:
        before = zip(self.orderings(), self.kappa)  # the ordering before each swap
        out = {Split(self.ground, order[: k + 1]) for order, k in before}
        if len(out) != len(self.kappa):
            raise AssertionError("swap splits must be distinct")
        return frozenset(out)


def allowable_splits(pair: AllowablePair) -> frozenset[Split]:
    """The maximum flat split system generated by an allowable pair: the
    prefix split taken just before each swap."""
    return pair.splits()


@dataclass(frozen=True)
class CounterexampleFound:
    """A weighting whose order distance the system cannot re-generate with
    non-negative weights.  expression is None when the order distance
    leaves the span; otherwise negative_split names a forced negative."""

    weighting: dict
    expression: dict | None
    negative_split: Split | None
    phase: int
    trial: int | None = None

    is_counterexample = True


@dataclass(frozen=True)
class NoCounterexampleFound:
    pair_probes: int
    trials: int

    is_counterexample = False


OrderlyVerdict = Union[CounterexampleFound, NoCounterexampleFound]


def orderly_test(
    splits: WeightedSplitSystem | Iterable[Split],
    trials: int = 200,
    seed: int = 0,
) -> OrderlyVerdict:
    """Search for a weighting violating orderliness at p = 2, q = 1.

    Phase 1 tries weight 2 (zero elsewhere) on each incompatible pair of
    splits that fails closedness, as ``is_closed`` walks them; pair_probes
    counts every incompatible pair.  Phase 2 tries `trials` seeded random
    integer weightings.  Requires linear independence so that expressions
    are unique; a verdict of NoCounterexampleFound is evidence, not proof.

    A probe is a list of int weights in split order, and its verdict the
    signs of the solver's integer weights of its order distance, which one
    int pipeline builds for both phases: the split distance kernel over the
    pair masks gives the generated pair values, the solver's gathers read
    each element's column off them and a zero appended for the diagonal,
    ``order._comparison_sets`` turns each column into its strict comparison
    set T_x, and at (2, 1) Eq. (1) is O(x, y) = |T_x ^ T_y|, one popcount per
    pair (q = p/2, so no tie sets).  Only a counterexample gets Fractions:
    its weighting, and its expression from the same integer weights.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    ground, split_list = ground_and_splits(splits)
    solver = _ExactSolver(ground, split_list)
    if not solver.is_independent:
        raise DependentBasisError("orderly test requires linearly independent splits")
    pairs, pair_masks, columns = solver.pairs, solver.pair_masks, solver._columns

    def order_values(weights: list[int]) -> list[int]:
        generated = separation_sums(weights)(pair_masks)
        generated.append(0)
        strict = [_comparison_sets(column(generated), False)[0] for column in columns]
        return [(strict[i] ^ strict[j]).bit_count() for i, j in pairs]

    def verdict(weights: list[int], phase: int, trial: int | None) -> CounterexampleFound | None:
        signed = solver._signed_weights(order_values(weights))
        if signed is not None and min(signed, default=0) >= 0:
            return None
        weighting = {s: Fraction(w) for s, w in zip(split_list, weights)}
        if signed is None:
            return CounterexampleFound(weighting, None, None, phase, trial)
        negative = next(s for s, w in zip(split_list, signed) if w < 0)
        return CounterexampleFound(weighting, solver._fractions(signed, 1), negative, phase, trial)

    pair_probes = 0
    for t1, t2, fails in _crossing_pairs(ground.n, [s.bits for s in split_list]):
        pair_probes += 1
        if not fails:
            continue  # its order distance is a positive combination of the system's splits
        weights = [0] * len(split_list)
        weights[t1] = weights[t2] = 2
        hit = verdict(weights, 1, None)
        if hit is not None:
            return hit
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        hit = verdict([rng.randint(0, 20) for _ in split_list], 2, trial)
        if hit is not None:
            return hit
    return NoCounterexampleFound(pair_probes, trials)


def _fixture(side_lists: list[str]) -> WeightedSplitSystem:
    ground = GroundSet(("a", "b", "c", "d", "e"))
    return WeightedSplitSystem.unit(
        ground, [Split(ground, list(sides)) for sides in side_lists]
    )


FLAT_FIXTURE_NAMES = ("S1_5", "S2_5")


def flat_fixture(name: str) -> WeightedSplitSystem:
    """The two non-circular maximum flat split systems on five elements
    (every other one is isomorphic to one of them), unit weighted."""
    if name == "S1_5":
        return _fixture(["a", "b", "c", "d", "ab", "bc", "cd", "ad", "ae", "be"])
    if name == "S2_5":
        return _fixture(["a", "b", "c", "ab", "bc", "cd", "ad", "ac", "ae", "be"])
    raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FLAT_FIXTURE_NAMES)}")
