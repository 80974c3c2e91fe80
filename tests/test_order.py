import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordist import (
    DistanceMatrix,
    GroundSet,
    OrderParams,
    Split,
    WeightedSplitSystem,
    generate_distance,
    index_ground,
    midpath_split_system,
    order_distance_eq1,
    order_distance_kendall,
    pair_partition,
    random_binary_tree_system,
    random_distance_matrix,
    random_two_valued_matrix,
    two_split_instance,
    two_split_order_values,
)
from ordist import order as order_module
from helpers import (
    kendall_counts_brute,
    midpath_by_scan,
    naive_order_distance,
    quartet_fixture,
    ultrametric_fixture,
)
from strategies import distance_matrices


@st.composite
def order_params(draw):
    p = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]))
    extra = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]))
    return OrderParams(p, p / 2 + extra)


# tie-rich values with off-diagonal zeros: D(u, x) = D(x, x) = 0 puts
# u = x and v = x into the tie sets
TIE_RICH = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])


@given(
    st.one_of(distance_matrices(max_n=5), distance_matrices(max_n=7, values=TIE_RICH)),
    order_params(),
)
def test_eq1_matches_defining_sums(matrix, params):
    fast = order_distance_eq1(matrix, params)
    slow = naive_order_distance(matrix, params.p, params.q)
    assert fast == slow


@st.composite
def identity_cases(draw):
    # rational p, q >= p/2 (q = p/2 about one draw in thirteen), and a
    # matrix at n 3..12 with distinct, tie-rich or zero-heavy values
    p = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)))
    q = p / 2 + draw(st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)))
    n = draw(st.integers(3, 12))
    m = n * (n - 1) // 2
    values = draw(st.one_of(
        st.permutations(range(1, m + 1)),
        st.lists(TIE_RICH, min_size=m, max_size=m),
        st.lists(st.sampled_from([0, 0, 0, 0, 1, 3]), min_size=m, max_size=m),
    ))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for value, (i, j) in zip(values, ((i, j) for i in range(n) for j in range(i + 1, n))):
        rows[i][j] = rows[j][i] = Fraction(value)
    return DistanceMatrix(index_ground(n), rows), OrderParams(p, q)


@settings(max_examples=150)
@given(identity_cases())
def test_midpath_counts_generate_the_order_distance(case):
    # O(D) is its own split decomposition: x-split counts weighted p/2
    # and e-split counts weighted q - p/2
    matrix, params = case
    midpath = midpath_split_system(matrix)
    weights = {}
    for counts, coeff in ((midpath.x_splits, params.half_p), (midpath.e_splits, params.e_coeff)):
        for split, count in counts.items():
            weights[split] = weights.get(split, Fraction(0)) + coeff * count
    system = WeightedSplitSystem(matrix.ground, list(weights.items()))
    assert generate_distance(system) == order_distance_eq1(matrix, params)


@pytest.mark.parametrize("tie_rich,q", [(False, 1), (True, Fraction(3, 2))])
def test_eq1_matches_kendall_at_n64(tie_rich, q):
    matrix = random_distance_matrix(64, random.Random(11), tie_rich=tie_rich)
    params = OrderParams(2, q)
    assert order_distance_eq1(matrix, params) == order_distance_kendall(matrix, params)


@given(distance_matrices(max_n=6), order_params())
def test_kendall_engine_matches_eq1(matrix, params):
    assert order_distance_kendall(matrix, params) == order_distance_eq1(matrix, params)


@given(distance_matrices(max_n=5), order_params(),
       st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2)]))
def test_scaling_both_parameters(matrix, params, c):
    base = order_distance_eq1(matrix, params)
    scaled = order_distance_eq1(matrix, OrderParams(c * params.p, c * params.q))
    n = matrix.n
    for i in range(n):
        for j in range(n):
            assert scaled[i, j] == c * base[i, j]


ULTRAMETRIC_PATTERNS = {
    ("a", "b"): lambda p, q: 4 * p + 3 * q,
    ("a", "e"): lambda p, q: 4 * p + 3 * q,
    ("a", "c"): lambda p, q: 4 * p + 5 * q,
    ("b", "e"): lambda p, q: p + 4 * q,
    ("c", "e"): lambda p, q: 2 * p + 4 * q,
    ("b", "c"): lambda p, q: 2 * p + 4 * q,
}


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (4, 3)])
def test_ultrametric_fixture_values(p, q):
    system = ultrametric_fixture()
    d = generate_distance(system)
    by = d.by_label
    assert all(by("a", other) == 6 for other in "bcde")
    assert by("c", "d") == 2 and by("b", "c") == 4 and by("c", "e") == 4
    o = order_distance_eq1(d, OrderParams(p, q))
    for (x, y), pattern in ULTRAMETRIC_PATTERNS.items():
        assert o.by_label(x, y) == pattern(p, q)


def test_quartet_fixture_values():
    d = generate_distance(quartet_fixture())
    expected = {"ab": 2, "ac": 2, "ad": 1, "bc": 2, "bd": 3, "cd": 1}
    for pair, value in expected.items():
        assert d.by_label(*pair) == value
    o = order_distance_eq1(d, OrderParams(2, 1))
    for pair, value in {"ab": 8, "ac": 8, "bc": 8, "ad": 4, "cd": 4, "bd": 10}.items():
        assert o.by_label(*pair) == value


def test_pair_partition_on_quartet():
    d = generate_distance(quartet_fixture())
    part = pair_partition(d, 0, 3)
    assert part.closer_to_u == {0, 1}
    assert part.closer_to_v == {2, 3}
    assert part.equidistant == frozenset()
    with pytest.raises(ValueError):
        pair_partition(d, 1, 1)
    ties = DistanceMatrix(index_ground(4), [[0, 1, 1, 2], [1, 0, 1, 3], [1, 1, 0, 1], [2, 3, 1, 0]])
    part = pair_partition(ties, 0, 1)
    assert (part.closer_to_u, part.closer_to_v, part.equidistant) == ({0, 3}, {1}, {2})


def test_midpath_multiplicities_on_equilateral_triangle():
    g = index_ground(3)
    d = DistanceMatrix(g, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    decomposition = midpath_split_system(d)
    singletons = {Split(g, [i]) for i in range(3)}
    assert decomposition.split_system() == singletons
    assert all(decomposition.x_splits[s] == 2 for s in singletons)
    assert set(decomposition.e_splits) == singletons
    assert all(decomposition.e_splits[s] == 1 for s in singletons)
    o = order_distance_eq1(d, OrderParams(2, 3))
    assert all(o[i, j] == 2 + 2 * 3 for i in range(3) for j in range(3) if i != j)


def test_midpath_bound_is_checked():
    g = GroundSet("ab")
    d = DistanceMatrix(g, [[0, 1], [1, 0]])
    decomposition = midpath_split_system(d)
    assert decomposition.x_splits == {Split(g, "a"): 2}
    assert decomposition.e_splits == {}


def _zero_rich_matrix(n: int, rng: random.Random) -> DistanceMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(0, 2)
    return DistanceMatrix.from_scaled(index_ground(n), rows)


def test_midpath_matches_the_scan():
    # the transposed comparison sets against the per-element scan, split
    # for split and count for count, in the same first-seen key order; 63,
    # 64 and 65 pad the row width to 64, 64 and 72 bits
    rng = random.Random(2019)
    for n in [*range(1, 41), 63, 64, 65]:
        matrices = [
            random_distance_matrix(n, rng),
            random_distance_matrix(n, rng, tie_rich=True),
            _zero_rich_matrix(n, rng),
        ]
        if n >= 2:
            matrices.append(generate_distance(random_binary_tree_system(n, rng)))
        for matrix in matrices:
            fast, scan = midpath_split_system(matrix), midpath_by_scan(matrix)
            assert fast == scan
            assert list(fast.x_splits) == list(scan.x_splits)
            assert list(fast.e_splits) == list(scan.e_splits)


def test_midpath_transposes_the_strict_sets_once(monkeypatch):
    # the equidistant sets come from the strict sides, so one call builds
    # no tie sets and runs one transpose, of width n * w with w = 16 here
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append((name, args[-1]))
            return function(*args)

        return wrapper

    for attr, name in (("transpose_bits", "transpose"), ("_comparison_sets", "sets")):
        monkeypatch.setattr(order_module, attr, counted(name, getattr(order_module, attr)))
    matrix = random_distance_matrix(9, random.Random(9), tie_rich=True)
    decomposition = midpath_split_system(matrix)
    assert decomposition == midpath_by_scan(matrix)
    assert decomposition.e_splits
    assert calls.count(("transpose", 9 * 16)) == 1
    assert calls.count(("sets", False)) == 9
    assert len(calls) == 10


def _zero_heavy_matrix(n: int, rng: random.Random) -> DistanceMatrix:
    # mostly zero off the diagonal; about a third of the elements then take
    # over the row of an earlier one, at distance 0 from it
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rows[i][j] = rows[j][i] = rng.randint(1, 3)
    for j in range(1, n):
        if rng.random() < 0.3:
            i = rng.randrange(j)
            for k in range(n):
                rows[j][k] = rows[k][j] = rows[i][k]
    return DistanceMatrix.from_scaled(index_ground(n), rows)


def test_kendall_engine_matches_pair_scan_and_eq1():
    # every pair of distance rows through the brute pair scan, and the
    # whole matrix against eq1, on four input families
    rng = random.Random(14)
    families = (
        lambda n: random_distance_matrix(n, rng),
        lambda n: random_distance_matrix(n, rng, tie_rich=True),
        lambda n: _zero_heavy_matrix(n, rng),
        lambda n: random_two_valued_matrix(n, rng),
    )
    params_list = [
        OrderParams(p, q)
        for p, q in ((2, 1), (2, Fraction(3, 2)), (1, Fraction(3, 2)), (2, 3))
    ]
    for n in (1, 2, 3, 7, 33, 64):
        for family in families:
            matrix = family(n)
            rows = matrix.comparison_rows()
            counts = {
                (x, y): kendall_counts_brute(rows[x], rows[y])
                for x in range(n)
                for y in range(x + 1, n)
            }
            for params in params_list:
                kendall = order_distance_kendall(matrix, params)
                for (x, y), (discordant, tied_one) in counts.items():
                    assert kendall[x, y] == params.p * discordant + params.q * tied_one
                assert kendall == order_distance_eq1(matrix, params)


def test_kendall_engine_matches_eq1_on_rows_with_and_without_ties():
    # a distinct random matrix with a few entries copied onto other entries
    # of the same row, mirrored, so that tie-free and tied rows meet in one
    # matrix and pair_counts takes its tie-free walk both ways round and its
    # sorted walk on the same input
    rng = random.Random(38)
    params_list = [OrderParams(p, q) for p, q in ((2, 1), (2, Fraction(3, 2)), (1, 3))]
    for n in range(4, 21):
        for _ in range(3):
            rows = [list(row) for row in random_distance_matrix(n, rng).comparison_rows()]
            for _ in range(rng.randint(1, max(1, n // 4))):
                i, j, k = rng.sample(range(n), 3)
                rows[i][k] = rows[k][i] = rows[i][j]
            assert {len(set(row)) < n for row in rows} == {False, True}
            matrix = DistanceMatrix.from_scaled(index_ground(n), rows)
            for params in params_list:
                assert order_distance_kendall(matrix, params) == order_distance_eq1(matrix, params)


def test_kendall_engine_matches_eq1_on_few_valued_matrices():
    # two-valued and tie-rich matrices: rows of at most 3 and 4 distinct
    # values, so from n = 9 and 16 on, every pair of rows is counted from
    # the block table, and below that the walks take the rest
    rng = random.Random(390)
    params_list = [OrderParams(p, q) for p, q in ((2, 1), (2, Fraction(3, 2)), (1, 3))]
    for n in range(4, 41):
        for matrix in (
            random_two_valued_matrix(n, rng),
            random_distance_matrix(n, rng, tie_rich=True),
        ):
            for params in params_list:
                assert order_distance_kendall(matrix, params) == order_distance_eq1(matrix, params)


def test_two_split_unit_blocks():
    assert two_split_order_values(1, 1, 1, 1) == (6, 6, 10, 10, 6, 6)
    with pytest.raises(ValueError):
        two_split_order_values(0, 1, 1, 1)


@pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (2, 1, 1, 3), (1, 2, 2, 1), (3, 2, 1, 1)])
def test_two_split_closed_form_matches_engine(sizes):
    d, blocks, system = two_split_instance(*sizes)
    assert len(system.splits) == 2
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

