import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordist import (
    AllowablePair,
    CircularOrdering,
    CounterexampleFound,
    DependentBasisError,
    DistanceMatrix,
    FLAT_FIXTURE_NAMES,
    GroundSet,
    NoCounterexampleFound,
    OrderParams,
    Split,
    WeightedSplitSystem,
    allowable_splits,
    express_in_basis,
    flat_fixture,
    generate_distance,
    index_ground,
    is_closed,
    is_compatible_pair,
    is_linearly_independent,
    is_maximum_flat,
    maximum_circular_splits,
    order_distance_eq1,
    orderly_test,
    pairwise_separation_check,
    parse_split_system,
    random_allowable_pair,
    random_binary_tree_system,
    random_maximum_circular_system,
    random_maximum_flat_system,
    split_metric,
    split_rank,
    two_split_instance,
)
import ordist.flatlab as flatlab_module
import ordist.order as order_module
from ordist.core import ground_and_splits
from ordist.flatlab import _ExactSolver
from helpers import (
    fraction_rank_and_solution,
    frame_by_subsets,
    is_closed_by_parts,
    open_pairs_by_parts,
    maximum_flat_by_restriction,
    orderly_by_fractions,
    orderly_phase_one_by_probes,
    pairwise_separation_by_subsets,
    peel_schedule_by_table,
    quartet_fixture,
    system_from_sides,
    two_split_terms,
)
from strategies import split_systems


def two_split_family(sizes, extra_blocks):
    """The two incompatible splits of a block instance plus extra splits
    assembled from whole blocks (ints or tuples of block indices)."""
    _, blocks, system = two_split_instance(*sizes)
    g = system.ground
    s1, s2 = system.splits

    def blk(spec):
        ks = spec if isinstance(spec, tuple) else (spec,)
        return Split(g, [e for k in ks for e in blocks[k]])

    return g, s1, s2, [s1, s2] + [blk(spec) for spec in extra_blocks]


def seven_split_cluster():
    """Four singleton corners, both splits and the middle on four elements:
    rank 6, yet every six-element subset is independent."""
    g, s1, s2, splits = two_split_family((1, 1, 1, 1), [(0, 3), 0, 1, 2, 3])
    return g, splits


def test_rank_of_overcomplete_cluster():
    g, splits = seven_split_cluster()
    assert len(splits) == 7
    assert split_rank(splits) == 6
    assert not is_linearly_independent(splits)
    for subset in combinations(splits, 6):
        assert is_linearly_independent(subset)


def test_rank_of_maximum_circular_system():
    theta = CircularOrdering(index_ground(5), [0, 2, 4, 1, 3])
    splits = maximum_circular_splits(theta)
    assert split_rank(splits) == 10
    assert is_linearly_independent(splits)


def test_express_recovers_tree_weights():
    for seed in range(3):
        system = random_binary_tree_system(6, random.Random(seed))
        d = generate_distance(system)
        expr = express_in_basis(d, system.splits)
        assert expr == dict(system.items())


def test_express_outside_span_gives_none():
    g = index_ground(4)
    basis = [Split(g, [i]) for i in range(4)] + [Split(g, [0, 1])]
    assert is_linearly_independent(basis)
    assert express_in_basis(split_metric(Split(g, [0, 2])), basis) is None


def test_express_needs_one_ground_set():
    basis = [Split(index_ground(4), [i]) for i in range(4)]
    foreign = split_metric(Split(GroundSet("abcd"), [0]))
    with pytest.raises(ValueError, match=r"^ground set mismatch$"):
        express_in_basis(foreign, basis)


def test_express_may_need_negative_weights():
    g = index_ground(4)
    basis = [Split(g, [i]) for i in range(4)] + [
        Split(g, [0, 1]),
        Split(g, [0, 2]),
    ]
    target = split_metric(Split(g, [1, 2]))
    expr = express_in_basis(target, basis)
    assert expr is not None
    assert min(expr.values()) < 0
    n = g.n
    for x in range(n):
        for y in range(x + 1, n):
            total = sum(w for s, w in expr.items() if s.separates(x, y))
            assert total == target[x, y]


def _random_target(rng, ground, subset):
    """A rational distance: generated by the subset (some weights
    negative), the same with one entry moved, or random entries."""
    n = ground.n
    den = rng.choice([1, 1, 2, 3, 6])
    kind = rng.randrange(3)
    rows = [[Fraction(0)] * n for _ in range(n)]
    if kind < 2:
        weights = {s: Fraction(rng.randint(-2, 8), den) for s in subset}
        values = {
            (i, j): sum(w for s, w in weights.items() if s.separates(i, j))
            for i, j in combinations(range(n), 2)
        }
        if min(values.values()) < 0:
            values = {
                (i, j): sum(abs(w) for s, w in weights.items() if s.separates(i, j))
                for i, j in values
            }
        if kind == 1:
            values[rng.choice(list(values))] += Fraction(1, den + 1)
    else:
        values = {
            (i, j): Fraction(rng.randint(0, 12), den)
            for i, j in combinations(range(n), 2)
        }
    for (i, j), v in values.items():
        rows[i][j] = rows[j][i] = v
    return DistanceMatrix(ground, rows)


def test_solver_matches_fraction_elimination():
    rng = random.Random(5)
    seen = Counter()
    for _ in range(320):
        n = rng.randint(2, 8)
        ground = index_ground(n)
        every = [Split.from_bits(ground, m << 1) for m in range(1, 1 << (n - 1))]
        pairs = list(combinations(range(n), 2))
        subset = rng.sample(every, rng.randint(1, min(len(every), len(pairs) + 2)))
        target = _random_target(rng, ground, subset)
        rank, in_span, solution = fraction_rank_and_solution(
            [[int(s.separates(i, j)) for i, j in pairs] for s in subset],
            [target[i, j] for i, j in pairs],
        )
        seen["scale > 1"] += target.scale > 1
        solver = _ExactSolver(*ground_and_splits(subset))
        seen["independent with a core"] += solver.core_size > 0 and rank == len(subset)
        assert solver.peeled + solver.core_size == len(subset)
        assert split_rank(subset) == rank
        assert is_linearly_independent(subset) == (rank == len(subset))
        if rank < len(subset):
            seen["dependent"] += 1
            with pytest.raises(DependentBasisError):
                express_in_basis(target, subset)
            continue
        weights = express_in_basis(target, subset)
        if not in_span:
            seen["outside"] += 1
            assert weights is None
            continue
        seen["inside"] += 1
        seen["negative"] += min(solution) < 0
        assert weights == dict(zip(subset, solution))
        metrics = {s: split_metric(s) for s in subset}
        for i, j in pairs:
            assert sum(w * metrics[s][i, j] for s, w in weights.items()) == target[i, j]
    keys = ("scale > 1", "dependent", "outside", "inside", "negative", "independent with a core")
    assert min(seen[key] for key in keys) >= 20, seen


def test_maximum_systems_peel_with_an_empty_core():
    # maximum circular and maximum flat systems, trees and 60% subsets of
    # the maximum systems need no elimination: every split is peeled by a
    # 3-point functional (x; a, b), whose step adds the pair slots {x, a},
    # {x, b} and subtracts {a, b} and earlier splits, and the weights come
    # back exactly, zeros included
    rng = random.Random(1998)
    systems = [random_maximum_circular_system(n, rng)[1] for n in range(5, 21)]
    systems += [random_maximum_flat_system(n, rng) for n in range(5, 13)]
    systems += [random_binary_tree_system(n, rng) for n in range(4, 21)]
    for n in range(5, 13):
        for system in (random_maximum_circular_system(n, rng)[1],
                       random_maximum_flat_system(n, rng)):
            subset = rng.sample(system.splits, round(0.6 * len(system)))
            systems.append(WeightedSplitSystem.unit(system.ground, subset))
    for system in systems:
        system = system.reweighted(
            {s: Fraction(rng.randint(0, 20), rng.choice([1, 2, 3])) for s in system.splits}
        )
        solver = _ExactSolver(*ground_and_splits(system))
        assert (solver.peeled, solver.core_size, solver.rank) == (len(system), 0, len(system))
        m = len(solver.pairs)
        for _, plus, minus in solver._steps:
            assert len(plus) == 2 and max(plus) < m and minus[0] < m
        assert express_in_basis(generate_distance(system), system) == dict(system.items())


def test_peel_schedule_matches_the_table_oracle():
    # the waves read each element's masks through its gather of the pair
    # slots; the schedule and the core must be the ones the n x n table of
    # masks gives: every step, in order, and the same unsolved splits
    rng = random.Random(35)
    systems = []
    for n in range(4, 13):
        systems.append(random_binary_tree_system(n, rng))
        systems.append(random_maximum_circular_system(n, rng, positive=False)[1])
        systems.append(random_maximum_flat_system(n, rng))
    for n in range(4, 9):
        ground = index_ground(n)
        every = [Split.from_bits(ground, m << 1) for m in range(1, 1 << (n - 1))]
        for _ in range(8):
            subset = rng.sample(every, rng.randint(1, min(len(every), n * (n - 1) // 2 + 2)))
            systems.append(WeightedSplitSystem.unit(ground, subset))
    golden = Path(__file__).parent / "data" / "golden" / "midpath10.splits"
    systems.append(parse_split_system(golden.read_text(encoding="utf-8")))
    with_core = 0
    for system in systems:
        ground, splits = ground_and_splits(system)
        solver = _ExactSolver(ground, splits)
        steps, unsolved = peel_schedule_by_table(ground, splits)
        assert solver._steps == steps
        assert solver._core == [t for t in range(len(splits)) if unsolved >> t & 1]
        with_core += solver.core_size > 0
    assert with_core >= 5, with_core


def test_full_rank_systems_express_arbitrary_matrices():
    # all C(n,2) splits peel, so no residual is checked: the weights of any
    # symmetric matrix, generated by the system or not, must still be the
    # ones Fraction elimination finds
    rng = random.Random(2019)
    systems = [random_maximum_circular_system(n, rng)[1] for n in range(4, 10)]
    systems += [random_maximum_flat_system(n, rng) for n in range(4, 8)]
    negative = 0
    for system in systems:
        ground, splits = ground_and_splits(system)
        n = ground.n
        pairs = list(combinations(range(n), 2))
        assert _ExactSolver(ground, splits).peeled == len(splits) == len(pairs)
        vectors = [[int(s.separates(i, j)) for i, j in pairs] for s in splits]
        for _ in range(3):
            rows = [[0] * n for _ in range(n)]
            for i, j in pairs:
                rows[i][j] = rows[j][i] = rng.randint(0, 30)
            values = [rows[i][j] for i, j in pairs]
            rank, in_span, solution = fraction_rank_and_solution(vectors, values)
            assert (rank, in_span) == (len(splits), True)
            weights = express_in_basis(DistanceMatrix(ground, rows), splits)
            assert weights == dict(zip(splits, solution))
            negative += min(solution) < 0
    assert negative >= 20


def test_express_rejects_dependent_basis():
    _, splits = seven_split_cluster()
    d = generate_distance(WeightedSplitSystem.unit(splits[0].ground, splits))
    with pytest.raises(DependentBasisError):
        express_in_basis(d, splits)


@pytest.mark.parametrize(
    "sizes,extras",
    [
        ((1, 1, 1, 1), [(0, 3)]),  # balanced corners, middle alone suffices
        ((1, 1, 1, 1), [0, 1, 2, 3]),  # all four corner splits
        ((2, 1, 1, 2), [(0, 3), 0, 3]),  # heavy diagonal: middle + diagonal corners
        ((1, 2, 2, 1), [(0, 3), 1, 2]),  # heavy anti-diagonal: middle + the others
    ],
)
def test_closed_two_split_families(sizes, extras):
    _, _, _, splits = two_split_family(sizes, extras)
    assert is_closed(splits) is None


@pytest.mark.parametrize(
    "sizes,extras",
    [
        ((1, 1, 1, 1), []),
        ((2, 1, 1, 2), [(0, 3), 3]),  # missing one diagonal corner
        ((1, 2, 2, 1), [(0, 3), 0, 1]),  # wrong corners for this shape
    ],
)
def test_unclosed_two_split_families(sizes, extras):
    g, s1, s2, splits = two_split_family(sizes, extras)
    found = is_closed(splits)
    assert found is not None
    assert not is_compatible_pair(*found)


def test_closedness_of_standard_systems():
    assert is_closed(flat_fixture("S1_5")) is not None
    assert is_closed(flat_fixture("S2_5")) is not None
    tree = random_binary_tree_system(7, random.Random(3))
    assert is_closed(tree) is None
    theta = CircularOrdering(index_ground(6), range(6))
    assert is_closed(maximum_circular_splits(theta)) is None
    g = index_ground(3)
    assert is_closed(WeightedSplitSystem(g, {})) is None


def test_is_closed_matches_corners_by_parts():
    # the stored-side masks give the pair of the frozenset corners, on
    # trees plus one crossing split, maximum circular and maximum flat
    # systems, 60% subsets of each, and random subsets of all splits
    rng = random.Random(27)
    kinds = Counter()
    for n in range(4, 10):
        ground = index_ground(n)
        every = [Split.from_bits(ground, m << 1) for m in range(1, 1 << (n - 1))]
        for _ in range(5):
            tree = list(random_binary_tree_system(n, rng).splits)
            extra = [s for s in every if any(not is_compatible_pair(s, t) for t in tree)]
            circular = list(random_maximum_circular_system(n, rng)[1].splits)
            flat = list(random_maximum_flat_system(n, rng).splits)
            for splits in (
                tree + [rng.choice(extra)],
                circular,
                flat,
                rng.sample(circular, round(0.6 * len(circular))),
                rng.sample(flat, round(0.6 * len(flat))),
                rng.sample(every, rng.randint(2, len(every))),
            ):
                found = is_closed(splits)
                assert found == is_closed_by_parts(splits)
                kinds["closed" if found is None else "violating"] += 1
    assert sum(kinds.values()) == 6 * 5 * 6
    assert kinds["closed"] and kinds["violating"], kinds


@given(split_systems(min_n=3, max_n=6, max_splits=7))
def test_separation_shortcut_matches_exhaustive(system):
    assert pairwise_separation_check(system) == pairwise_separation_by_subsets(system)


def test_separation_walk_matches_the_subsets_on_maximum_systems():
    # the hypothesis test above stops at 7 splits, so for n >= 5 it never
    # meets a system with every pair separated; maximum flat and maximum
    # circular systems with 0-3 splits dropped, and random side sets, do
    rng = random.Random(3737)
    verdicts = Counter()
    for n in range(4, 9):
        g = index_ground(n)
        every = [Split.from_bits(g, bits << 1) for bits in range(1, 1 << (n - 1))]
        for drop in [0, 1, 2, 3] * 3:
            flat = list(random_maximum_flat_system(n, rng).splits)
            circular = list(random_maximum_circular_system(n, rng)[1].splits)
            for splits in (
                rng.sample(flat, len(flat) - drop),
                rng.sample(circular, len(circular) - drop),
                rng.sample(every, rng.randint(1, len(every))),
            ):
                found = pairwise_separation_check(splits)
                assert found == pairwise_separation_by_subsets(splits)
                verdicts[n, found is None] += 1
    assert all(verdicts[n, True] >= 6 and verdicts[n, False] >= 18 for n in range(4, 9)), verdicts


def test_separation_basics():
    g = index_ground(4)
    assert pairwise_separation_check([Split(g, [0])]) == (0, 1)
    g2 = index_ground(2)
    assert pairwise_separation_check([Split(g2, [0])]) is None
    assert pairwise_separation_check(flat_fixture("S1_5")) is None
    assert pairwise_separation_check(flat_fixture("S2_5")) is None


def test_maximum_flat_verdicts():
    assert is_maximum_flat(flat_fixture("S1_5"))
    assert is_maximum_flat(flat_fixture("S2_5"))
    theta = CircularOrdering(index_ground(5), range(5))
    splits = maximum_circular_splits(theta)
    assert is_maximum_flat(splits)
    assert not is_maximum_flat(random_binary_tree_system(5, random.Random(0)))
    victim = Split(theta.ground, [1, 2])
    replaced = [s for s in splits if s != victim] + [Split(theta.ground, [0, 2])]
    assert len(replaced) == 10 and is_linearly_independent(replaced)
    assert not is_maximum_flat(replaced)
    # C(5,2) splits, seven of them the splits of a b c d with e beside d,
    # where the four singletons sum to the three 2|2 splits
    dependent = system_from_sides("abcde", ["a", "b", "c", "de", "ab", "ac", "bc", "e", "ae", "be"])
    assert len(dependent) == 10 and not is_linearly_independent(dependent)
    assert not is_maximum_flat(dependent)


def test_maximum_flat_is_independence_and_separation_on_every_system():
    # every set of C(n,2) distinct splits for n <= 5 against the definition
    # with the independence test, which is_maximum_flat leaves to the frames
    verdicts = Counter()
    for n in range(2, 6):
        g = index_ground(n)
        every = [Split.from_bits(g, bits << 1) for bits in range(1, 1 << (n - 1))]
        for splits in combinations(every, n * (n - 1) // 2):
            flat = is_maximum_flat(splits)
            assert flat == (
                is_linearly_independent(splits) and pairwise_separation_check(splits) is None
            )
            verdicts[n, flat] += 1
    assert verdicts[5, True] + verdicts[5, False] == 3003
    assert verdicts[5, True] == 132, verdicts


def test_frames_isolate_their_pair():
    # the identity behind is_maximum_flat: in a maximum flat or maximum
    # circular system every pair has a frame, whose four split metrics,
    # signed + + - -, are 2 on the pair and 0 on every other pair
    rng = random.Random(3636)
    systems = [random_maximum_flat_system(n, rng) for n in range(4, 9) for _ in range(2)]
    systems += [random_maximum_circular_system(n, rng)[1] for n in range(4, 9)]
    for system in systems:
        n = system.ground.n
        for x, y in combinations(range(n), 2):
            frame = frame_by_subsets(system, x, y)
            assert frame is not None
            metrics = [(sign, split_metric(split)) for sign, split in frame]
            for i, j in combinations(range(n), 2):
                total = sum(sign * metric[i, j] for sign, metric in metrics)
                assert total == (2 if (i, j) == (x, y) else 0)


def test_maximum_flat_matches_restriction_route():
    # is_maximum_flat decides flatness by pairwise separation; the oracle by
    # the C(n,4) restrictions.  Flat inputs come from allowable pairs, the
    # others are random independent C(n,2)-subsets of all splits.
    rng = random.Random(7310)
    verdicts = Counter()
    for i in range(9):
        system = random_maximum_flat_system(5 + i % 3, rng)
        assert is_maximum_flat(system)
        assert maximum_flat_by_restriction(system)
        verdicts["allowable"] += 1
    for i in range(40):
        n = 5 + i % 2
        g = index_ground(n)
        every = [Split.from_bits(g, bits << 1) for bits in range(1, 1 << (n - 1))]
        splits = rng.sample(every, n * (n - 1) // 2)
        if not is_linearly_independent(splits):
            continue
        flat = is_maximum_flat(splits)
        assert flat == maximum_flat_by_restriction(splits)
        verdicts[flat] += 1
    assert verdicts["allowable"] >= 5 and verdicts[False] >= 5, verdicts


def test_allowable_pair_swaps_every_pair_once():
    g = index_ground(3)
    pair = AllowablePair(g, (0, 1, 2), (0, 1, 0))
    assert pair.orderings()[0] == (0, 1, 2)
    assert pair.orderings()[-1] == (2, 1, 0)
    assert len(pair.orderings()) == 4
    assert pair.splits() == {Split(g, [0]), Split(g, [1]), Split(g, [0, 1])}
    assert allowable_splits(pair) == pair.splits()
    assert is_maximum_flat(pair.splits())

    with pytest.raises(ValueError):
        AllowablePair(g, (0, 1, 1), (0, 1, 0))
    with pytest.raises(ValueError):
        AllowablePair(g, (0, 1, 2), (0, 1))
    with pytest.raises(ValueError):
        AllowablePair(g, (0, 1, 2), (0, 0, 1))
    with pytest.raises(ValueError):
        AllowablePair(g, (0, 1, 2), (0, 2, 0))
    # the message names the repeated pair as elements, smaller first
    with pytest.raises(ValueError, match="elements 0 and 2 swap twice"):
        AllowablePair(g, (2, 0, 1), (0, 0, 1))
    with pytest.raises(ValueError, match="elements 1 and 3 swap twice"):
        AllowablePair(index_ground(4), (3, 2, 1, 0), (2, 1, 0, 2, 1, 1))


@pytest.mark.parametrize("n,seed", [(5, 0), (6, 1), (7, 2)])
def test_random_allowable_pairs_give_maximum_flat_systems(n, seed):
    pair = random_allowable_pair(n, random.Random(seed))
    splits = allowable_splits(pair)
    assert len(splits) == n * (n - 1) // 2
    assert is_maximum_flat(splits)


def check_counterexample(verdict, splits):
    """Re-derive the verdict's evidence from scratch."""
    assert isinstance(verdict, CounterexampleFound)
    assert verdict.is_counterexample
    system = WeightedSplitSystem(next(iter(splits)).ground, verdict.weighting)
    o = order_distance_eq1(generate_distance(system), OrderParams(2, 1))
    expr = express_in_basis(o, splits)
    if verdict.expression is None:
        assert expr is None
    else:
        assert expr == verdict.expression
        assert expr[verdict.negative_split] < 0


@pytest.mark.parametrize("name", FLAT_FIXTURE_NAMES)
def test_flat_fixtures_fail_the_orderly_probe(name):
    system = flat_fixture(name)
    verdict = orderly_test(system, trials=0)
    assert isinstance(verdict, CounterexampleFound)
    assert verdict.phase == 1
    nonzero = [s for s, w in verdict.weighting.items() if w != 0]
    assert len(nonzero) == 2
    assert not is_compatible_pair(*nonzero)
    check_counterexample(verdict, list(system.split_set()))


def test_quartet_leaves_its_own_span():
    system = quartet_fixture()
    verdict = orderly_test(system, trials=0)
    assert isinstance(verdict, CounterexampleFound)
    assert verdict.phase == 1
    assert verdict.expression is None
    check_counterexample(verdict, list(system.split_set()))


def test_circular_systems_pass_the_orderly_probe():
    theta = CircularOrdering(index_ground(5), [0, 2, 4, 1, 3])
    splits = maximum_circular_splits(theta)
    verdict = orderly_test(splits, trials=20, seed=7)
    assert isinstance(verdict, NoCounterexampleFound)
    assert not verdict.is_counterexample
    clashes = sum(
        1 for a, b in combinations(splits, 2) if not is_compatible_pair(a, b)
    )
    assert verdict.pair_probes == clashes
    assert verdict.trials == 20


def test_orderly_probe_is_deterministic():
    splits = sorted(flat_fixture("S1_5").split_set(), key=lambda s: s.bits)
    assert orderly_test(splits, trials=0) == orderly_test(splits, trials=0)


def test_orderly_matches_fraction_probes():
    # the integer probes against the Fraction path, verdict field by field
    # and in the same key order; random independent subsets of all splits
    # add NOT-IN-SPAN verdicts and eliminated cores, the two 4-element
    # systems phase-2 verdicts of both kinds, and n = 9, 10 comparison set
    # rows wider than one byte
    rng = random.Random(31)
    cases = [(flat_fixture(name), 10, 0) for name in FLAT_FIXTURE_NAMES]
    for n in range(5, 9):
        cases.append((random_maximum_flat_system(n, rng), 10, n))
        cases.append((random_maximum_circular_system(n, rng)[1], 10, n))
        cases.append((random_binary_tree_system(n, rng), 10, n))
    cases.append((system_from_sides("abcd", ["a", "ab", "d", "ac", "ad"]), 10, 16))
    cases.append((system_from_sides("abcd", ["a", "ab", "ac", "ad"]), 10, 216))
    while len(cases) < 80:
        ground = index_ground(rng.randint(4, 7))
        n = ground.n
        every = [Split.from_bits(ground, m << 1) for m in range(1, 1 << (n - 1))]
        subset = rng.sample(every, rng.randint(2, n * (n - 1) // 2))
        if is_linearly_independent(subset):
            cases.append((subset, rng.choice([0, 10]), rng.randrange(100)))
    for n in (9, 10):
        cases.append((random_maximum_circular_system(n, rng)[1], 5, n))
        cases.append((random_maximum_flat_system(n, rng), 5, n))
        cases.append((random_binary_tree_system(n, rng), 5, n))
    seen = Counter()
    for system, trials, seed in cases:
        verdict = orderly_test(system, trials=trials, seed=seed)
        oracle = orderly_by_fractions(system, trials=trials, seed=seed)
        assert type(verdict) is type(oracle)
        seen["core"] += _ExactSolver(*ground_and_splits(system)).core_size > 0
        if isinstance(oracle, NoCounterexampleFound):
            seen["none"] += 1
            assert (verdict.pair_probes, verdict.trials) == (oracle.pair_probes, oracle.trials)
            continue
        seen[oracle.phase, oracle.expression is None] += 1
        assert list(verdict.weighting.items()) == list(oracle.weighting.items())
        if oracle.expression is None:
            assert verdict.expression is None
        else:
            assert list(verdict.expression.items()) == list(oracle.expression.items())
        assert verdict.negative_split == oracle.negative_split
        assert (verdict.phase, verdict.trial) == (oracle.phase, oracle.trial)
    kinds = ["none", "core", (1, True), (1, False), (2, True), (2, False)]
    assert all(seen[kind] for kind in kinds), seen


def test_orderly_probes_build_no_matrix(monkeypatch):
    # a probe stays in pair-order ints, and a counterexample's expression
    # comes from the same ints: no probe builds a DistanceMatrix
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        DistanceMatrix, "from_scaled",
        staticmethod(counted("from_scaled", DistanceMatrix.from_scaled)),
    )
    monkeypatch.setattr(_ExactSolver, "express", counted("express", _ExactSolver.express))
    for module in (order_module, flatlab_module):
        if hasattr(module, "order_distance_eq1"):
            monkeypatch.setattr(
                module, "order_distance_eq1", counted("eq1", module.order_distance_eq1)
            )
    _, splits = random_maximum_circular_system(8, random.Random(8))
    verdict = orderly_test(splits, trials=10, seed=1)
    assert isinstance(verdict, NoCounterexampleFound)
    assert verdict.pair_probes > 0
    assert not calls
    system = flat_fixture("S1_5")
    verdict = orderly_test(system, trials=0)
    assert not calls
    assert all(type(w) is Fraction for w in verdict.expression.values())
    monkeypatch.undo()
    check_counterexample(verdict, list(system.split_set()))


def test_two_split_terms_match_eq1():
    # phase 1 skips a probe whose six weighted splits of two_split_terms
    # all lie in the system; eq1 of the generated distance of each
    # crossing pair is the oracle, with the pair handed over in either
    # order, on seeded systems and on every block size from 1 to 6
    rng = random.Random(23)
    systems = [two_split_instance(*sizes)[2] for sizes in product(range(1, 7), repeat=4)]
    for n in range(4, 13):
        systems.append(random_maximum_circular_system(n, rng)[1])
        systems.append(random_maximum_flat_system(n, rng))
        tree = random_binary_tree_system(n, rng)
        every = [Split.from_bits(tree.ground, m << 1) for m in range(1, 1 << (n - 1))]
        extra = [s for s in every if any(not is_compatible_pair(s, t) for t in tree.splits)]
        systems.append(list(tree.splits) + [rng.choice(extra)])
        systems.append(rng.sample(every, rng.randint(2, n * (n - 1) // 2)))
    probed = 0
    for system in systems:
        ground, splits = ground_and_splits(system)
        for a, b in combinations(splits, 2):
            if is_compatible_pair(a, b):
                continue
            two = WeightedSplitSystem(ground, [(a, 2), (b, 2)])
            o = order_distance_eq1(generate_distance(two), OrderParams(2, 1))
            for first, second in ((a, b), (b, a)):
                terms = two_split_terms(first.bits, second.bits, ground.n)
                assert len({mask for mask, _ in terms}) == 6
                assert all(0 < mask < 1 << ground.n and coeff > 0 for mask, coeff in terms)
                six = WeightedSplitSystem(
                    ground, [(Split.from_bits(ground, mask), c) for mask, c in terms]
                )
                assert generate_distance(six) == o
            probed += 1
    assert probed > 4000 + 6**4


def _phase_one_families(rng):
    # maximum circular and maximum flat systems, 60% subsets of each, and
    # random independent subsets of all splits whose solver keeps a core
    for n in range(5, 11):
        for _ in range(6):
            for splits in (
                list(random_maximum_circular_system(n, rng)[1].splits),
                list(random_maximum_flat_system(n, rng).splits),
            ):
                yield splits
                yield rng.sample(splits, round(0.6 * len(splits)))
    for n in range(5, 9):
        ground = index_ground(n)
        every = [Split.from_bits(ground, m << 1) for m in range(1, 1 << (n - 1))]
        found = 0
        while found < 40:
            splits = rng.sample(every, rng.randint(n, n * (n - 1) // 2))
            solver = _ExactSolver(ground, splits)
            if solver.is_independent and solver.core_size:
                found += 1
                yield splits


def test_orderly_phase_one_matches_per_probe_oracle():
    # the corner membership walk gives the verdict of one back-substitution
    # per probe, counterexamples and all
    rng = random.Random(26)
    kinds = Counter()
    for splits in _phase_one_families(rng):
        verdict = orderly_test(splits, trials=0)
        assert verdict == orderly_phase_one_by_probes(splits)
        if verdict.is_counterexample:
            kinds["out of span" if verdict.expression is None else "negative weight"] += 1
        else:
            kinds["passed"] += 1
    assert sum(kinds.values()) == 144 + 160
    assert min(kinds.values()) > 0, kinds


def _walked_pairs(splits, verdict):
    """The kind of each crossing pair phase 1 walks, up to the verdict's
    pair: "open" when it fails closedness (``open_pairs_by_parts``), else
    "held" when the system holds its four corner splits and "closed,
    missing a corner" when not."""
    ground, split_list = ground_and_splits(splits)
    stored = {s.bits for s in split_list}
    open_pairs = set(open_pairs_by_parts(split_list))
    found = verdict.is_counterexample and verdict.phase == 1
    for a, b in combinations(split_list, 2):
        if is_compatible_pair(a, b):
            continue
        if (a, b) in open_pairs:
            yield "open"
        else:
            terms = two_split_terms(a.bits, b.bits, ground.n)
            held = all(mask in stored for mask, _ in terms[2:])
            yield "held" if held else "closed, missing a corner"
        if found and verdict.weighting[a] == verdict.weighting[b] == 2:
            return


def test_orderly_phase_one_solves_only_probes_missing_a_corner(monkeypatch):
    # phase 1 calls the back-substitution once for each pair walked that
    # fails closedness, and so never on a pair that misses a corner split
    # yet passes closedness, nor on a maximum circular system, whose
    # corners are arcs
    calls = Counter()
    signed_weights = _ExactSolver._signed_weights

    def counted(self, values):
        calls["solves"] += 1
        return signed_weights(self, values)

    monkeypatch.setattr(_ExactSolver, "_signed_weights", counted)
    _, circular = random_maximum_circular_system(12, random.Random(12))
    verdict = orderly_test(circular, trials=0)
    assert isinstance(verdict, NoCounterexampleFound)
    assert verdict.pair_probes > 0
    assert calls["solves"] == 0
    rng = random.Random(7)
    walked = Counter()
    for n in range(5, 9):
        ground = index_ground(n)
        every = [Split.from_bits(ground, m << 1) for m in range(1, 1 << (n - 1))]
        for _ in range(40):
            splits = rng.sample(every, rng.randint(n, n * (n - 1) // 2))
            if not is_linearly_independent(splits):
                continue
            calls.clear()
            verdict = orderly_test(splits, trials=0)
            kinds = Counter(_walked_pairs(splits, verdict))
            assert calls["solves"] == kinds["open"]
            walked.update(kinds)
    assert set(walked) == {"open", "held", "closed, missing a corner"}, walked


def test_orderly_phase_one_runs_no_pipeline(monkeypatch):
    # phase 1 takes no split distance kernel and no comparison sets: each
    # phase-2 trial calls the kernel once and builds n comparison sets
    calls = Counter()
    for name in ("separation_sums", "_comparison_sets"):
        function = getattr(flatlab_module, name)

        def counted(*args, name=name, function=function):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(flatlab_module, name, counted)
    _, splits = random_maximum_circular_system(8, random.Random(8))
    solver = _ExactSolver(*ground_and_splits(splits))
    assert solver.peeled == len(solver.pairs)  # so the solver skips its residual kernel
    for trials in (0, 1, 10):
        calls.clear()
        verdict = orderly_test(splits, trials=trials, seed=1)
        assert isinstance(verdict, NoCounterexampleFound)
        assert verdict.pair_probes > 0
        assert calls == Counter(separation_sums=trials, _comparison_sets=trials * 8)


def _order_value_families(rng):
    # 60% subsets of maximum circular and maximum flat systems, which end
    # in phase 1, whole maximum circular systems, which run every trial,
    # and random independent subsets of all splits, some of which solve
    # several probes
    for n in range(5, 11):
        yield list(random_maximum_circular_system(n, rng)[1].splits)
        for _ in range(4):
            for system in (random_maximum_circular_system(n, rng)[1],
                           random_maximum_flat_system(n, rng)):
                every = list(system.splits)
                yield rng.sample(every, round(0.6 * len(every)))
    for n in range(5, 9):
        every = [Split.from_bits(index_ground(n), m << 1) for m in range(1, 1 << (n - 1))]
        for _ in range(20):
            splits = rng.sample(every, rng.randint(n, n * (n - 1) // 2))
            if is_linearly_independent(splits):
                yield splits


def test_orderly_builds_order_values_once_per_solved_probe(monkeypatch):
    # both phases share one pipeline of n comparison sets: phase 1 runs it
    # for each pair walked that fails closedness, phase 2 per trial
    calls = Counter()
    comparison_sets = flatlab_module._comparison_sets

    def counted(*args):
        calls["sets"] += 1
        return comparison_sets(*args)

    monkeypatch.setattr(flatlab_module, "_comparison_sets", counted)
    kinds = Counter()
    for splits in _order_value_families(random.Random(27)):
        n = ground_and_splits(splits)[0].n
        calls.clear()
        verdict = orderly_test(splits, trials=3, seed=n)
        walked = Counter(_walked_pairs(splits, verdict))
        if not verdict.is_counterexample:
            trials = 3
        else:
            trials = 0 if verdict.phase == 1 else verdict.trial + 1
        assert calls["sets"] == n * (walked["open"] + trials)
        kinds["phase 1" if trials == 0 else "phase 2"] += 1
        kinds["closed, missing a corner"] += walked["closed, missing a corner"] > 0
    assert set(kinds) == {"phase 1", "phase 2", "closed, missing a corner"}
    assert min(kinds.values()) > 0, kinds


def test_orderly_phase_one_finds_the_pair_is_closed_reports():
    # phase 1 ends in a counterexample exactly when is_closed reports a
    # pair, with weight 2 on that pair: evidence for the census of
    # ROADMAP item 7, not a proof
    families = list(_phase_one_families(random.Random(26)))
    families += [flat_fixture(name) for name in FLAT_FIXTURE_NAMES]
    found = 0
    for splits in families:
        verdict = orderly_test(splits, trials=0)
        pair = is_closed(splits)
        assert verdict.is_counterexample == (pair is not None)
        if pair is not None:
            assert [s for s, w in verdict.weighting.items() if w] == list(pair)
            assert set(verdict.weighting.values()) == {0, 2}
            found += 1
    assert len(families) == 306
    assert 0 < found < len(families)


def test_closed_pairs_decompose_over_the_middle_split():
    # the identity of the order module docstring behind conditions (b)
    # to (d) of is_closed, with k = min(n1 n4, n2 n3), against eq1 of
    # 2 delta_A + 2 delta_B on every block size from 1 to 4
    for sizes in product(range(1, 5), repeat=4):
        d, blocks, system = two_split_instance(*sizes)
        ground = system.ground
        a, b = system.splits
        n1, n2, n3, n4 = sizes
        c1, c2, c3, c4 = (Split(ground, block) for block in blocks)
        middle = Split(ground, [*blocks[0], *blocks[3]])
        k = min(n1 * n4, n2 * n3)
        terms = [
            (a, 2 * (n1 * n2 + n3 * n4) + k), (b, 2 * (n1 * n3 + n2 * n4) + k), (middle, k),
            (c1, n1 * n4 - k), (c4, n1 * n4 - k), (c2, n2 * n3 - k), (c3, n2 * n3 - k),
        ]
        combined = WeightedSplitSystem(ground, [(s, w) for s, w in terms if w])
        assert generate_distance(combined) == order_distance_eq1(d, OrderParams(2, 1))


def test_orderly_needs_independence():
    _, splits = seven_split_cluster()
    with pytest.raises(DependentBasisError):
        orderly_test(splits)


def test_fixture_lookup():
    assert set(FLAT_FIXTURE_NAMES) == {"S1_5", "S2_5"}
    with pytest.raises(ValueError):
        flat_fixture("S3_5")
    for name in FLAT_FIXTURE_NAMES:
        system = flat_fixture(name)
        assert len(system) == 10
        assert all(w == 1 for _, w in system.items())
