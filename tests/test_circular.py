import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordist import (
    CircularOrdering,
    DistanceMatrix,
    GroundSet,
    NotCircularError,
    OrderParams,
    PreconditionError,
    Split,
    WeightedSplitSystem,
    evaluate_circular_distance,
    fits_on_ordering,
    format_distance_matrix,
    generate_distance,
    index_ground,
    interval_weight_map,
    is_circular_split_system,
    kalmanson_check,
    maximum_circular_splits,
    order_distance_circular,
    order_distance_eq1,
    order_distance_kendall,
    parse_distance_matrix,
    parse_split_system,
    random_binary_tree_system,
    random_maximum_circular_system,
    recover_circular_ordering,
    flat_fixture,
)
from ordist.circular import _consecutive_order, _first_where, _greedy_insertion
from helpers import (
    arc_by_walk,
    circular_orderings_brute,
    consecutive_order_brute,
    fits_on_ordering_by_transitions,
    greedy_insertion_by_sort,
    insertion_positions_by_sort,
    interval_of_by_scan,
    interval_split_by_slice,
    interval_weight_map_by_scan,
    is_consecutive_in,
    quadruple_condition_holds,
    six_point_table,
    star_distance,
    strict_side_arcs,
    zero_heavy_circular_distance,
)
from strategies import distance_matrices


def _intervals(n: int) -> list[tuple[int, int]]:
    """The arcs (i, j), 0 <= i <= j <= n-2, of an n-element ordering,
    lexicographic."""
    return [(i, j) for i in range(n - 1) for j in range(i, n - 1)]


def _arc_split(theta: CircularOrdering, i: int, j: int) -> Split:
    return Split.from_bits(theta.ground, theta.arc_bits(i, j))


def test_ordering_canonical_under_rotation_and_reversal():
    g = index_ground(5)
    base = CircularOrdering(g, [0, 1, 2, 3, 4])
    assert CircularOrdering(g, [2, 3, 4, 0, 1]) == base
    assert CircularOrdering(g, [0, 4, 3, 2, 1]) == base
    assert CircularOrdering(g, [1, 0, 4, 3, 2]) == base
    assert hash(CircularOrdering(g, [2, 3, 4, 0, 1])) == hash(base)
    assert CircularOrdering(g, [0, 2, 1, 3, 4]) != base
    assert base.position(3) == 3
    assert arc_by_walk(base, 3, 1) == (3, 4, 0, 1)
    assert str(base) == "x0,x1,x2,x3,x4"
    with pytest.raises(ValueError):
        CircularOrdering(g, [0, 0, 1, 2, 3])
    with pytest.raises(ValueError):
        CircularOrdering(g, [0, 1, 2])


def test_interval_splits_enumerate_all_arcs():
    g = GroundSet("abcde")
    theta = CircularOrdering(g, range(5))
    assert _arc_split(theta, 1, 2) == Split(g, "bc")
    splits = maximum_circular_splits(theta)
    assert len(set(splits)) == 10
    assert fits_on_ordering(splits, theta)
    assert not fits_on_ordering([Split(g, "ac")], theta)
    with pytest.raises(ValueError):
        fits_on_ordering([Split(GroundSet("abcdf"), "ab")], theta)


def test_interval_weight_map_round_trip():
    g = GroundSet("abcde")
    theta = CircularOrdering(g, [0, 2, 4, 1, 3])
    weights = {iv: Fraction(k + 1) for k, iv in enumerate(_intervals(5))}
    system = WeightedSplitSystem(
        g, [(_arc_split(theta, *iv), w) for iv, w in weights.items()]
    )
    keyed = interval_weight_map(theta, system)
    assert keyed == weights
    assert list(keyed) == [theta.interval_of(s) for s in system.splits]
    other = WeightedSplitSystem.unit(g, [Split(g, "ab")])
    with pytest.raises(ValueError):
        interval_weight_map(theta, other)


def _raised(call):
    """The message of the ValueError a call raises, or None."""
    try:
        call()
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("n", range(2, 13))
def test_arc_masks_match_the_element_scans(n):
    rng = random.Random(n)
    for _ in range(3):
        theta, system = random_maximum_circular_system(n, rng, positive=False)
        g = theta.ground
        intervals = _intervals(n)
        arcs = [_arc_split(theta, i, j) for i, j in intervals]
        assert arcs == [interval_split_by_slice(theta, i, j) for i, j in intervals]
        full = (1 << n) - 1
        others = [Split.from_bits(g, rng.randint(1, full - 1)) for _ in range(4 * n)]
        for split in arcs + others:
            assert theta.interval_of(split) == interval_of_by_scan(theta, split)
            assert fits_on_ordering([split], theta) is fits_on_ordering_by_transitions(
                [split], theta
            )
        for iv, split in zip(intervals, arcs):
            assert theta.interval_of(split) == iv
        fast = interval_weight_map(theta, system)
        assert list(fast.items()) == list(interval_weight_map_by_scan(theta, system).items())
        assert fits_on_ordering(system.splits, theta)
        non_arcs = [s for s in others if interval_of_by_scan(theta, s) is None]
        for split in non_arcs[:3]:
            splits = list(system.splits[:n]) + [split]
            assert not fits_on_ordering(splits, theta)
            assert not fits_on_ordering_by_transitions(splits, theta)
            mixed = WeightedSplitSystem(g, [(s, 1) for s in set(splits)])
            message = _raised(lambda: interval_weight_map(theta, mixed))
            assert message == f"split {split} does not fit on the ordering"
            assert message == _raised(lambda: interval_weight_map_by_scan(theta, mixed))
        foreign = Split.from_bits(GroundSet(f"y{i}" for i in range(n)), 1)
        foreign_system = WeightedSplitSystem.unit(foreign.ground, [foreign])
        for call in (
            lambda: theta.interval_of(foreign),
            lambda: fits_on_ordering([foreign], theta),
            lambda: fits_on_ordering_by_transitions([foreign], theta),
            lambda: interval_weight_map(theta, foreign_system),
            lambda: interval_weight_map_by_scan(theta, foreign_system),
        ):
            assert _raised(call) == "ground set mismatch"


@pytest.mark.parametrize("n", range(2, 41))
def test_popcount_interval_lookup_matches_the_element_scan(n):
    rng = random.Random(4000 + n)
    theta = CircularOrdering(index_ground(n), rng.sample(range(n), n))
    g, seq = theta.ground, theta.sequence
    # arcs read forward from every start, wrapping past the last position
    # as often as not, and the arcs ending there, whose canonical side (the
    # one avoiding element 0, at position 0) holds the last element
    arcs = [Split(g, arc_by_walk(theta, start, n - 1)) for start in range(1, n)]
    for start in range(n):
        for length in {1, n - 1, rng.randint(1, n - 1)}:
            arcs.append(Split(g, arc_by_walk(theta, start, (start + length - 1) % n)))
    full = (1 << n) - 1
    last = 1 << seq[-1]
    others = [Split.from_bits(g, rng.randint(1, full - 1)) for _ in range(3 * n)]
    others += [Split.from_bits(g, rng.randint(0, full) & ~1 | last) for _ in range(n)]
    for split in arcs:
        assert theta.interval_of(split) is not None
    assert sum(split.bits & last != 0 for split in arcs) >= n - 1
    non_arcs = 0
    for split in arcs + others:
        found = theta.interval_of(split)
        assert found == interval_of_by_scan(theta, split)
        non_arcs += found is None
    assert non_arcs >= (len(others) // 2 if n >= 8 else 0)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33])
def test_maximum_splits_come_off_the_prefix_masks_in_interval_order(n):
    theta = CircularOrdering(index_ground(n), random.Random(n).sample(range(n), n))
    splits = maximum_circular_splits(theta)
    expected = [interval_split_by_slice(theta, i, j) for i, j in _intervals(n)]
    assert splits == expected
    assert [s.bits for s in splits] == [s.bits for s in expected]
    assert all(s.ground is theta.ground for s in splits)
    assert len(set(splits)) == n * (n - 1) // 2


@given(distance_matrices(min_n=4, max_n=6, values=st.integers(0, 4)))
def test_kalmanson_check_matches_direct_scan(matrix):
    theta = CircularOrdering(matrix.ground, range(matrix.n))
    found = kalmanson_check(matrix, theta)
    if found is None:
        assert quadruple_condition_holds(matrix, theta.sequence)
    else:
        ei, ej, ek, el = found
        rhs = matrix[ei, ek] + matrix[ej, el]
        assert (
            matrix[ei, ej] + matrix[ek, el] > rhs
            or matrix[ei, el] + matrix[ej, ek] > rhs
        )


def test_kalmanson_check_needs_one_ground_set():
    theta = CircularOrdering(index_ground(4), range(4))
    matrix = DistanceMatrix(GroundSet("abcd"), [[0] * 4 for _ in range(4)])
    with pytest.raises(ValueError, match=r"^ground set mismatch$"):
        kalmanson_check(matrix, theta)


@given(
    distance_matrices(min_n=4, max_n=8, values=st.integers(0, 4)),
    st.randoms(use_true_random=False),
)
def test_edge_pair_scan_equals_full_quadruple_scan(matrix, rnd):
    # kalmanson_check tests only the O(n^2) disjoint-edge family, which must
    # accept exactly the orderings the full quadruple scan accepts, and
    # report a position-ordered quadruple that really violates
    seq = list(range(matrix.n))
    rnd.shuffle(seq)
    theta = CircularOrdering(matrix.ground, seq)
    found = kalmanson_check(matrix, theta)
    assert (found is None) == quadruple_condition_holds(matrix, theta.sequence)
    if found is not None:
        positions = [theta.position(e) for e in found]
        assert positions == sorted(positions)
        assert not quadruple_condition_holds(matrix, found)


@given(distance_matrices(min_n=4, max_n=6, values=st.integers(0, 3)))
def test_recovery_agrees_with_exhaustive_search(matrix):
    valid = circular_orderings_brute(matrix)
    recovered = recover_circular_ordering(matrix)
    if recovered is None:
        assert valid == []
    else:
        assert recovered in valid


@pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (6, 2), (6, 3)])
def test_recovery_on_generated_circular_instances(n, seed):
    theta, system = random_maximum_circular_system(n, random.Random(seed))
    d = generate_distance(system)
    recovered = recover_circular_ordering(d)
    assert recovered is not None
    assert recovered in circular_orderings_brute(d)


def test_small_ground_sets_are_trivially_circular():
    g = index_ground(3)
    d = DistanceMatrix(g, [[0, 9, 1], [9, 0, 3], [1, 3, 0]])
    assert recover_circular_ordering(d) == CircularOrdering(g, range(3))


@given(st.integers(2, 7), st.data())
def test_interval_evaluation_matches_split_sum(n, data):
    theta = CircularOrdering(index_ground(n), range(n))
    chosen = data.draw(
        st.dictionaries(st.sampled_from(_intervals(n)), st.integers(0, 6)),
        label="weights",
    )
    fast = evaluate_circular_distance(theta, chosen)
    system = WeightedSplitSystem(
        theta.ground, [(_arc_split(theta, *iv), w) for iv, w in chosen.items()]
    )
    assert fast == generate_distance(system)


def test_interval_evaluation_accepts_an_equal_ordering():
    theta = CircularOrdering(index_ground(5), [0, 3, 1, 4, 2])
    twin = CircularOrdering(index_ground(5), [2, 4, 1, 3, 0])
    assert twin is not theta and twin == theta and twin.ground is not theta.ground
    # the same splits sit at the same positions of both
    for split in maximum_circular_splits(theta):
        assert twin.interval_of(split) == theta.interval_of(split)
    weights = {(0, 2): 1, (1, 3): "1/2"}
    assert evaluate_circular_distance(twin, weights) == evaluate_circular_distance(
        theta, weights
    )


def test_interval_evaluation_rejects_bad_intervals_and_negative():
    theta = CircularOrdering(index_ground(5), [0, 3, 1, 4, 2])
    for i, j in ((2, 1), (0, 4), (-1, 0), (3, 7)):
        with pytest.raises(ValueError, match=rf"^bad interval \({i},{j}\)$"):
            evaluate_circular_distance(theta, {(0, 0): 1, (i, j): 1})
    with pytest.raises(ValueError, match="^negative weight$"):
        evaluate_circular_distance(theta, {(0, 0): -1})
    with pytest.raises(ValueError, match="^negative weight$"):
        evaluate_circular_distance(theta, {(0, 1): "1/2", (1, 2): "-1/3"})
    with pytest.raises(ValueError, match="^refusing float"):
        evaluate_circular_distance(theta, {(0, 0): 0.5})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_orderings_through_table_and_engine(n):
    """One- and two-index gathers: an itemgetter of one index returns the
    entry itself, not a 1-tuple."""
    rng = random.Random(n)
    g = index_ground(n)
    theta = CircularOrdering(g, rng.sample(range(n), n))
    if n == 1:
        single = evaluate_circular_distance(theta, {})
        assert single == DistanceMatrix(g, [[0]])
        assert order_distance_circular(single, OrderParams(2, 1)) == single
        return
    for _ in range(5):
        weights = {
            iv: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for iv in _intervals(n)
        }
        d = evaluate_circular_distance(theta, weights)
        system = WeightedSplitSystem(
            g, [(_arc_split(theta, *iv), w) for iv, w in weights.items()]
        )
        assert d == generate_distance(system)
        for p in (2, "1/2", 3):
            params = OrderParams(p, Fraction(p) / 2)
            assert order_distance_circular(d, params) == order_distance_eq1(d, params)


@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("n", [2, 3, 8, 40])
def test_generated_systems_through_the_arc_map(n, positive):
    # the route perfbench's ``circular`` set-up builds its input by:
    # generator, arc map, table recurrence; it must give the split
    # system's own distance, on which all three engines agree
    theta, system = random_maximum_circular_system(
        n, random.Random(n), positive=positive
    )
    keyed = interval_weight_map(theta, system)
    assert len(keyed) == n * (n - 1) // 2
    d = evaluate_circular_distance(theta, keyed)
    assert d == generate_distance(system)
    params = OrderParams(2, 1)
    expected = order_distance_eq1(d, params)
    assert order_distance_kendall(d, params) == expected
    assert order_distance_circular(d, params) == expected


def test_fractional_weights_through_the_arc_map():
    rng = random.Random(30)
    theta, system = random_maximum_circular_system(30, rng, positive=False)
    system = system.reweighted(
        {s: Fraction(rng.randint(0, 9), rng.randint(1, 6)) for s in system.splits}
    )
    d = evaluate_circular_distance(theta, interval_weight_map(theta, system))
    assert d == generate_distance(system)
    assert d.scale > 1


@pytest.mark.parametrize("n,seed,p", [(5, 10, 2), (8, 11, 3), (12, 12, "1/2")])
def test_circular_engine_matches_eq1(n, seed, p):
    theta, system = random_maximum_circular_system(n, random.Random(seed))
    d = generate_distance(system)
    params = OrderParams(p, Fraction(p) / 2)
    assert order_distance_circular(d, params) == order_distance_eq1(d, params)


def _shifted(d: DistanceMatrix, c) -> DistanceMatrix:
    """d with c taken off every off-diagonal entry: every Kalmanson
    inequality has two entries on each side, so the condition survives,
    while the triangle inequality breaks wherever it was tight."""
    n = d.n
    return DistanceMatrix(
        d.ground, [[d[i, j] - c if i != j else 0 for j in range(n)] for i in range(n)]
    )


def _with_twin(d: DistanceMatrix, k: int, skew: int) -> DistanceMatrix:
    """d with one more element at distance 0 from element k and skew
    further than k from every other element."""
    n = d.n
    rows = [
        [d[i, j] for j in range(n)] + [d[i, k] + skew if i != k else 0]
        for i in range(n)
    ]
    rows.append([row[n] for row in rows] + [0])
    return DistanceMatrix(index_ground(n + 1), rows)


def _engine_cases(rng):
    """Maximum circular distances with about 70% zero weights, positive
    ones shifted down by their smallest off-diagonal entry and by half a
    unit less, twins matching and skewed, and random matrices."""
    for n in range(2, 26):
        yield zero_heavy_circular_distance(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        theta = CircularOrdering(index_ground(n), perm)
        d = generate_distance(WeightedSplitSystem(
            theta.ground, [(s, rng.randint(1, 9)) for s in maximum_circular_splits(theta)]
        ))
        low = min(d[i, j] for i in range(n) for j in range(i + 1, n))
        yield _shifted(d, low)
        yield _shifted(d, low - Fraction(1, 2))
        if n >= 3:
            base = zero_heavy_circular_distance(n - 1, rng)
            yield _with_twin(base, rng.randrange(n - 1), 0)
            yield _with_twin(base, rng.randrange(n - 1), rng.randint(1, 3))
    for n in range(5, 9):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(1, 9)
        yield DistanceMatrix(index_ground(n), rows)


def _interval_of_arc(theta: CircularOrdering, start: int, end: int) -> tuple[int, int]:
    """The positions (i, j) of the split cut by the arc start..end of
    positions: the arc itself, or its complement when it holds the last
    position."""
    n = theta.n
    if start <= end <= n - 2:
        return start, end
    return (end + 1) % n, (start - 1) % n


def test_circular_engine_against_eq1_and_the_scan_oracle():
    params_list = [
        OrderParams(2, 1), OrderParams(3, Fraction(3, 2)), OrderParams(1, Fraction(1, 2))
    ]
    tally = Counter()
    for d in _engine_cases(random.Random(8)):
        n = d.n
        rows = d.comparison_rows()
        non_metric = any(
            rows[x][y] > rows[x][z] + rows[z][y]
            for x in range(n) for y in range(n) for z in range(n)
        )
        tally["non-metric"] += non_metric
        theta = recover_circular_ordering(d)
        if theta is None:
            message = "no circular ordering fits"
        elif any(
            rows[u][v] == 0 and rows[u] != rows[v] for u in range(n) for v in range(u)
        ):
            message = "elements at distance zero compare differently"
        else:
            message = None
        if message is not None:
            for params in params_list:
                with pytest.raises(NotCircularError, match=message):
                    order_distance_circular(d, params)
            tally["raised"] += 1
            continue
        # the lemma: every strict-comparison side is one arc holding u, not v
        arcs = strict_side_arcs(d, theta)
        for (u, v), (start, end) in arcs.items():
            side = arc_by_walk(theta, start, end)
            assert u in side and v not in side
            tally["tied"] += len(side) + len(arc_by_walk(theta, *arcs[v, u])) < n
        uses = Counter(_interval_of_arc(theta, *arc) for arc in arcs.values())
        for params in params_list:
            expected = order_distance_eq1(d, params)
            assert order_distance_circular(d, params) == expected
            weights = {iv: count * params.half_p for iv, count in uses.items()}
            assert evaluate_circular_distance(theta, weights) == expected
        tally["agreed"] += 1
        tally["zero pairs"] += any(rows[u][v] == 0 for u in range(n) for v in range(u))
        tally["non-metric agreed"] += non_metric
    # this seed gives 73 agreed, 2202 tied, 71 non-metric (22 agreed),
    # 32 with zero-distance pairs and 49 raised
    assert tally["agreed"] >= 40, tally
    assert tally["tied"] >= 1000, tally
    assert tally["non-metric"] >= 35, tally
    assert tally["non-metric agreed"] >= 10, tally
    assert tally["zero pairs"] >= 15, tally
    assert tally["raised"] >= 25, tally


def test_first_where_matches_a_linear_scan():
    # random non-decreasing paths of near - far over the indices
    # start..start+size-1, negative ones wrapping as on the engine's path
    # b..a, against a scan, at every gap from below the path to above it
    rng = random.Random(34)
    seen = Counter()
    for _ in range(2000):
        size = rng.randint(1, 12)
        start = rng.randint(-size, 0)
        diffs = sorted(rng.randint(-3, 3) for _ in range(size))
        far = [rng.randint(0, 9) for _ in range(size)]
        near = far[:]
        for k, d in enumerate(diffs):
            near[start + k] += d
        lo = rng.randint(start, start + size)
        hi = rng.randint(lo, start + size)
        gap = rng.randint(-4, 4)
        scan = next((i for i in range(lo, hi) if near[i] - far[i] >= gap), hi)
        assert _first_where(near, far, lo, hi, gap) == scan
        seen["empty"] += lo == hi
        seen["never reached"] += lo < hi == scan
        seen["found"] += scan < hi
        seen["negative lo"] += lo < 0 < hi
    assert min(seen.values()) > 50, seen


def test_arc_searches_where_boundaries_jump():
    # the searches for pair (a, b) start from the boundaries of the last
    # pair (a, b') found; on the benchmark's inputs they move by 0 or 1,
    # while zero weights, shifts and stars make them jump both ways, so the
    # bisection for an end that moved back, the one for an end that moved
    # on by 2 or more and the search past ties run on both paths
    rng = random.Random(3)
    params = OrderParams(2, 1)
    tally = Counter()
    inputs = [
        (zero_heavy_circular_distance(n, rng), shift)
        for n, shift in ((30, False), (40, True), (50, False), (60, True), (80, False))
    ]
    # on a star f = D(a, .) - D(b, .) is constant off a and b, so an end
    # sits at a or next to b and jumps between them; with equal weights
    # every pair ties
    inputs += [(star_distance(rng.sample(range(1, 10 * n), n)), False) for n in (30, 45, 60)]
    inputs.append((star_distance([1] * 40), False))
    for d, shift in inputs:
        n = d.n
        if shift:
            low = min(d[i, j] for i in range(n) for j in range(i + 1, n))
            d = _shifted(d, low - Fraction(1, 2))
            rows = d.comparison_rows()
            tally["non-metric"] += any(
                rows[x][y] > rows[x][z] + rows[z][y]
                for x in range(n) for y in range(n) for z in range(n)
            )
        got = order_distance_circular(d, params)
        assert got == order_distance_eq1(d, params)
        theta = recover_circular_ordering(d)
        arcs = strict_side_arcs(d, theta)
        uses = Counter(_interval_of_arc(theta, *arc) for arc in arcs.values())
        weights = {iv: count * params.half_p for iv, count in uses.items()}
        assert evaluate_circular_distance(theta, weights) == got
        seq = theta.sequence
        for a in range(n):
            start, moved = (a, a - 1), False  # where the first searches start
            for b in range(a + 1, n):
                if (seq[a], seq[b]) not in arcs:  # distance zero: no search
                    continue
                start_a, end_a = arcs[seq[a], seq[b]]
                start_b, end_b = arcs[seq[b], seq[a]]
                # the engine indexes the path b..a as b-n..a
                ends = (end_a, end_b - n if end_b >= b else end_b)
                # the engine moves a start before the path, b-n, onto it
                firsts = (a, b - n)
                for path, new, old, first in zip(("a..b", "b..a"), ends, start, firsts):
                    # a start past the side's end: bisection from the path's start
                    tally[f"back {path}"] += old > new
                    # an end that moved on by 0 or 1 takes only the probes,
                    # by 2 or more a bisection from three past the old end
                    step = new - max(old, first)
                    tally[f"0 {path}"] += step == 0
                    tally[f"1 {path}"] += step == 1
                    tally[f"2-3 {path}"] += 2 <= step <= 3
                    tally[f"on {path}"] += step >= 2
                    if moved:
                        tally["up"] += new - old >= 4
                        tally["down"] += old - new >= 4
                # a gap between the two sides: the search past the ties
                tally["tied a..b"] += start_b > end_a + 1
                tally["tied b..a"] += (start_a - end_b) % n > 1
                start, moved = ends, True
    # this seed gives 984 jumps up, 897 down and 2 non-metric inputs; of
    # the searches, 495 on path a..b and 1311 on b..a start past the side's
    # end, and 936 and 1281 boundaries are tied; the ends move on by 0 in
    # 5755 and 6237 searches, by 1 in 4569 and 2705, and by 2 or more in
    # 526 and 1092 (by 2 or 3 in 126 and 508).  The stars alone give 835
    # jumps up, 818 down, and 424 and 444 ends moved on by 2 or more.
    assert tally["up"] >= 75 and tally["down"] >= 40, tally
    assert tally["on a..b"] >= 260 and tally["on b..a"] >= 540, tally
    assert tally["back a..b"] >= 35 and tally["back b..a"] >= 350, tally
    assert tally["tied a..b"] >= 100 and tally["tied b..a"] >= 250, tally
    assert tally["non-metric"] == 2, tally
    for path in ("a..b", "b..a"):
        assert all(tally[f"{by} {path}"] for by in ("0", "1", "2-3")), tally


def test_greedy_insertion_keeps_its_choice():
    # greedy insertion takes the first minimum detour, as the sort did
    rng = random.Random(21)
    tally = Counter()
    for n in range(4, 41, 4):
        tie_rich = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                tie_rich[i][j] = tie_rich[j][i] = rng.randint(1, 3)
        for d in (DistanceMatrix(index_ground(n), tie_rich),
                  zero_heavy_circular_distance(n, rng)):
            rows = d.comparison_rows()
            assert _greedy_insertion(rows, n) == greedy_insertion_by_sort(d)
            seq = [0, 1, 2]
            for z in range(3, n):
                order = insertion_positions_by_sort(rows, seq, z)
                k = len(seq)
                detours = [
                    rows[seq[pos - 1]][z] + rows[z][seq[pos % k]]
                    - rows[seq[pos - 1]][seq[pos % k]]
                    for pos in order
                ]
                tally["tied first"] += detours[0] == detours[1]
                tally["ties"] += len(detours) - len(set(detours))
                seq.insert(order[0], z)
    # this seed gives 109 tied first choices among 2328 ties
    assert tally["tied first"] >= 54 and tally["ties"] >= 1150, tally


def test_quadruple_condition_without_decomposability_still_works():
    # passes the quadruple condition on the identity ordering although no
    # non-negative arc weighting generates it; the engine only needs arcs
    g = index_ground(4)
    d = DistanceMatrix(g, [[0, 1, 5, 1], [1, 0, 1, 1], [5, 1, 0, 1], [1, 1, 1, 0]])
    assert recover_circular_ordering(d) is not None
    params = OrderParams(2, 1)
    assert order_distance_circular(d, params) == order_distance_eq1(d, params)


def test_zero_distance_pairs():
    g = index_ground(3)
    twins = DistanceMatrix(g, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    params = OrderParams(2, 1)
    assert order_distance_circular(twins, params) == order_distance_eq1(
        twins, params
    )
    skewed = DistanceMatrix(g, [[0, 0, 1], [0, 0, 2], [1, 2, 0]])
    with pytest.raises(NotCircularError):
        order_distance_circular(skewed, params)


def test_engine_rejects_non_circular_distance():
    d = six_point_table()
    assert circular_orderings_brute(d) == []
    assert recover_circular_ordering(d) is None
    with pytest.raises(NotCircularError):
        order_distance_circular(d, OrderParams(2, 1))
    with pytest.raises(PreconditionError, match="q = p/2"):
        order_distance_circular(d.restricted([0, 1]), OrderParams(2, 2))


def test_circular_recognition_of_split_systems():
    g = index_ground(5)
    theta = CircularOrdering(g, [0, 2, 4, 1, 3])
    assert is_circular_split_system(maximum_circular_splits(theta)) == theta
    system = WeightedSplitSystem.unit(g, maximum_circular_splits(theta))
    assert is_circular_split_system(system) == theta

    tree = random_binary_tree_system(6, random.Random(5))
    found = is_circular_split_system(tree)
    assert found is not None
    assert fits_on_ordering(tree.splits, found)

    assert is_circular_split_system(flat_fixture("S1_5")) is None
    with pytest.raises(ValueError):
        is_circular_split_system([])
    empty = WeightedSplitSystem(g, {})
    assert is_circular_split_system(empty) == CircularOrdering(g, range(5))


_DEEP_RECOVERY = """
import random, sys
from ordist import (DistanceMatrix, evaluate_circular_distance, interval_weight_map,
                    random_maximum_circular_system, recover_circular_ordering)
theta, system = random_maximum_circular_system(200, random.Random(0))
d = evaluate_circular_distance(theta, interval_weight_map(theta, system))
rows = [[d[i, j] for j in range(200)] for i in range(200)]
rows[198][199] = rows[199][198] = rows[198][199] + 1000
bumped = DistanceMatrix(d.ground, rows)
sys.setrecursionlimit(150)
assert recover_circular_ordering(d) == theta
assert recover_circular_ordering(bumped) is None
print("ok")
"""


def test_recovery_search_depth_is_not_bounded_by_the_call_stack(src_env):
    # greedy insertion fails on the bumped matrix, so the level-set loop
    # runs to its verdict under a recursion limit of 150
    result = subprocess.run(
        [sys.executable, "-c", _DEEP_RECOVERY],
        capture_output=True,
        encoding="utf-8",
        env=src_env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_consecutive_order_matches_brute_force():
    # intervals of a random permutation always have an order; one random
    # extra set may leave none
    rng = random.Random(22)
    tally = Counter()
    for _ in range(600):
        n = rng.randint(3, 7)
        perm = rng.sample(range(n), n)
        sets = []
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(n)
            sets.append(sum(1 << e for e in perm[i : rng.randint(i, n - 1) + 1]))
        if rng.random() < 0.5:
            extra = rng.sample(range(n), rng.randint(2, n - 1))
            sets.append(sum(1 << e for e in extra))
        order = _consecutive_order(sets, (1 << n) - 1)
        exists = consecutive_order_brute(sets, n) is not None
        assert (order is not None) == exists, (n, sets)
        if order is not None:
            assert sorted(order) == list(range(n))
            assert is_consecutive_in(order, sets)
        tally[exists] += 1
    # this seed gives 554 families with an order and 46 without
    assert tally[True] >= 270 and tally[False] >= 23, tally


def test_recovery_matches_the_enumeration_of_all_orderings():
    rng = random.Random(23)
    tally = Counter()
    for n in range(4, 8):
        for _ in range(20):
            share = rng.choice([0.5, 0.8, 0.9])
            zero_heavy = zero_heavy_circular_distance(n, rng, share)
            rows = [list(row) for row in zero_heavy.comparison_rows()]
            x, y = rng.sample(range(n), 2)
            rows[x][y] = rows[y][x] = rows[x][y] + rng.randint(1, 2)
            tie_rich = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    tie_rich[i][j] = tie_rich[j][i] = rng.randint(0, 2)
            for d in (zero_heavy,
                      DistanceMatrix.from_scaled(zero_heavy.ground, rows),
                      DistanceMatrix.from_scaled(index_ground(n), tie_rich)):
                found = recover_circular_ordering(d)
                valid = circular_orderings_brute(d)
                assert (found is None) == (not valid), d
                assert found is None or found in valid
                greedy = _greedy_insertion(d.comparison_rows(), n)
                if kalmanson_check(d, CircularOrdering(d.ground, greedy)) is not None:
                    tally["circular" if valid else "not circular"] += 1
    # greedy insertion fails on this seed's inputs 99 times, 12 of them
    # circular, so the level-set loop decides both ways
    assert tally["circular"] >= 6 and tally["not circular"] >= 40, tally


def test_compatible_and_sparse_circular_systems_are_recognised():
    # any subset of a tree's splits, relabelled, and about 1.5% of the
    # splits of a maximum circular system
    rng = random.Random(24)
    greedy_failed = 0
    for n in (20, 24, 28):
        for _ in range(16):
            tree = random_binary_tree_system(n, rng).splits
            relabel = rng.sample(range(n), n)
            tree = [
                Split(s.ground, [relabel[e] for e in range(n) if s.bits >> e & 1])
                for s in tree
            ]
            _, system = random_maximum_circular_system(n, rng)
            for splits in (rng.sample(tree, rng.randint(1, len(tree))),
                           [s for s in system.splits if rng.random() < 0.015] or tree):
                theta = is_circular_split_system(splits)
                assert theta is not None and fits_on_ordering(splits, theta)
                unit = generate_distance(WeightedSplitSystem.unit(theta.ground, splits))
                greedy = CircularOrdering(
                    unit.ground, _greedy_insertion(unit.comparison_rows(), n)
                )
                greedy_failed += kalmanson_check(unit, greedy) is not None
    # greedy insertion fails on 14 of this seed's 96 systems
    assert greedy_failed >= 7, greedy_failed


_TWO_SPLITS = """24
x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15 x16 x17 x18 x19 x20 x21 x22 x23
x0,x1,x3,x5,x8,x10,x11,x13,x16,x17,x18,x19,x22,x23 | x2,x4,x6,x7,x9,x12,x14,x15,x20,x21 : 1
x0,x1,x2,x3,x4,x6,x7,x8,x9,x10,x11,x12,x13,x15,x17,x18,x19,x20,x22 | x5,x14,x16,x21,x23 : 1
"""


def test_check_circular_on_two_splits_is_fast(tmp_path, src_env):
    # greedy insertion fails on the unit distance of these two splits; a
    # backtracking search over insertion positions needs seconds to minutes
    path = tmp_path / "two24.splits"
    path.write_text(_TWO_SPLITS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "ordist", "check", "circular", "-s", str(path)],
        capture_output=True,
        encoding="utf-8",
        env=src_env,
        timeout=10,
    )
    assert result.returncode == 0, result.stderr
    verdict, ordering = result.stdout.splitlines()
    assert verdict == "circular: true"
    system = parse_split_system(_TWO_SPLITS)
    labels = ordering.removeprefix("ordering: ").split(",")
    theta = CircularOrdering(system.ground, map(system.ground.index, labels))
    assert fits_on_ordering(system.splits, theta)


def test_order_circular_on_three_nested_splits_is_fast(tmp_path, src_env):
    # the distance of three nested splits on 24 elements, where greedy
    # insertion fails and a backtracking search needs minutes
    d = zero_heavy_circular_distance(24, random.Random(33), 0.97)
    path = tmp_path / "nested24.dist"
    path.write_text(format_distance_matrix(d), encoding="utf-8")
    out = tmp_path / "out.dist"
    argv = ["order", "-i", str(path), "-p", "2", "-q", "1", "--algo", "circular"]
    result = subprocess.run(
        [sys.executable, "-m", "ordist", *argv, "-o", str(out)],
        capture_output=True,
        encoding="utf-8",
        env=src_env,
        timeout=10,
    )
    assert result.returncode == 0, result.stderr
    written = parse_distance_matrix(out.read_text(encoding="utf-8"))
    assert written == order_distance_eq1(d, OrderParams(2, 1))
