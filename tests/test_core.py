import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ordist import (
    DistanceMatrix,
    GroundSet,
    OrderParams,
    PreconditionError,
    Split,
    WeightedSplitSystem,
    as_rational,
    generate_distance,
    index_ground,
    random_maximum_circular_system,
    restrict_split_system,
    split_metric,
)
from ordist import core
from ordist.core import separation_rows, separation_sums, transpose_bits
from helpers import transpose_bits_by_bits
from strategies import canonical_masks, distance_matrices, rationals, split_systems


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == 3
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(Fraction(1, 2)) == Fraction(1, 2)


def test_as_rational_refuses_floats():
    with pytest.raises(ValueError):
        as_rational(0.5)


def test_ground_set_rejects_bad_labels():
    for labels in [(), ("a", "a"), ("a", "b c"), ("a", "x|y"), ("a", "")]:
        with pytest.raises(ValueError):
            GroundSet(labels)


def test_ground_set_lookup_and_restriction():
    g = GroundSet("abcd")
    assert g.index("c") == 2
    assert g.restricted([1, 3]).labels == ("b", "d")
    with pytest.raises(ValueError):
        g.index("z")
    with pytest.raises(ValueError):
        g.restricted([5])


def test_equal_ground_sets_need_not_be_one_object():
    g = GroundSet("abcd")
    twin = GroundSet("abcd")
    assert g == g and twin == g and twin is not g and hash(twin) == hash(g)
    assert g != GroundSet("abce") and g != GroundSet("abc") and g != "abcd"
    assert Split(twin, "ab") == Split(g, "ab")
    assert WeightedSplitSystem(g, [(Split(twin, "ab"), 1)]).ground is g
    with pytest.raises(ValueError, match="ground set mismatch"):
        WeightedSplitSystem(g, [(Split(GroundSet("abce"), "ab"), 1)])


def test_split_same_object_from_either_side():
    g = GroundSet("abcde")
    assert Split(g, "ab") == Split(g, "cde")
    assert hash(Split(g, "ab")) == hash(Split(g, "cde"))
    assert str(Split(g, "cde")) == "a,b | c,d,e"


def test_split_rejects_degenerate_sides():
    g = GroundSet("abc")
    with pytest.raises(ValueError):
        Split(g, "")
    with pytest.raises(ValueError):
        Split(g, "abc")
    with pytest.raises(ValueError):
        Split(GroundSet("a"), "a")


def test_split_separates_matches_parts():
    g = index_ground(5)
    s = Split(g, [1, 3])
    with0, without0 = s.parts()
    assert without0 == frozenset({1, 3})
    assert s.separates(1, 0) and s.separates(3, 2)
    assert not s.separates(1, 3) and not s.separates(0, 4)
    assert s.side_of(3) == frozenset({1, 3})
    assert s.min_side_size == 2


@given(st.integers(2, 7), st.data())
def test_split_from_bits_round_trip(n, data):
    g = index_ground(n)
    mask = data.draw(st.integers(1, (1 << n) - 2))
    s = Split(g, [i for i in range(n) if mask >> i & 1])
    assert Split.from_bits(g, mask) == s
    assert Split.from_bits(g, ((1 << n) - 1) ^ mask) == s
    parts = (",".join(g.labels[i] for i in sorted(part)) for part in s.parts())
    assert str(s) == " | ".join(parts)


def test_split_restriction_drops_empty_sides():
    g = GroundSet("abcde")
    s = Split(g, "ab")
    assert s.restricted([0, 1, 2]) == Split(GroundSet("abc"), "ab")
    assert s.restricted([2, 3, 4]) is None


def test_distance_matrix_validation():
    g = GroundSet("ab")
    with pytest.raises(ValueError):
        DistanceMatrix(g, [[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        DistanceMatrix(g, [[1, 2], [2, 0]])
    with pytest.raises(ValueError):
        DistanceMatrix(g, [[0, -1], [-1, 0]])
    with pytest.raises(ValueError):
        DistanceMatrix(g, [[0], [0]])
    for rows in ([[0], [0]], [[1, 2], [2, 0]], [[0, 1], [2, 0]], [[0, -1], [-1, 0]]):
        with pytest.raises(ValueError):
            DistanceMatrix.from_scaled(g, rows, 2)
    with pytest.raises(ValueError):
        DistanceMatrix.from_scaled(g, [[0, 1], [1, 0]], 0)
    with pytest.raises(TypeError):
        DistanceMatrix.from_scaled(g, [[0, 1.5], [1.5, 0]])


def test_distance_matrix_names_its_first_fault():
    # several faults in different rows: the first in row order is named,
    # and within a row the diagonal, then j > i, asymmetry before sign
    def faulty(*entries):
        rows = [[0 if i == j else 1 + i + j for j in range(5)] for i in range(5)]
        for i, j, value in entries:
            rows[i][j] = value
        return rows

    cases = {
        "diagonal entry (1,1) must be 0": faulty((3, 3, 2), (1, 1, 1), (1, 2, 9)),
        "negative entry at (0,3)": faulty((3, 3, 2), (1, 2, 9), (0, 3, -1), (3, 0, -1)),
        # a negative entry below the diagonal shows first as an asymmetry
        "matrix not symmetric at (0,2)": faulty((4, 4, 7), (2, 0, -3), (1, 3, 9)),
        "matrix not symmetric at (2,3)": faulty((2, 3, -1), (2, 4, -2), (4, 2, -2)),
        "negative entry at (1,2)": faulty((1, 2, -1), (2, 1, -1), (1, 4, 0), (3, 3, 5)),
        "matrix not symmetric at (3,4)": faulty((4, 3, -6), (4, 4, 1)),
        "diagonal entry (4,4) must be 0": faulty((4, 4, -1)),
    }
    g = GroundSet("abcde")
    for message, rows in cases.items():
        for build in (DistanceMatrix, DistanceMatrix.from_scaled):
            with pytest.raises(ValueError) as caught:
                build(g, rows)
            assert str(caught.value) == message, rows


def test_equal_values_give_equal_matrices_whatever_the_scale():
    g = GroundSet("abc")
    sixths = DistanceMatrix.from_scaled(g, [[0, 3, 8], [3, 0, 12], [8, 12, 0]], 6)
    exact = DistanceMatrix(g, [[0, "1/2", "4/3"], ["1/2", 0, 2], ["4/3", 2, 0]])
    assert sixths == exact
    assert sixths.scale == exact.scale == 6
    assert sixths.comparison_rows() == exact.comparison_rows()
    assert isinstance(sixths[0, 2], Fraction) and sixths[0, 2] == Fraction(4, 3)
    assert sixths.by_label("b", "c") == 2
    halves = DistanceMatrix.from_scaled(g, [[0, 4, 2], [4, 0, 6], [2, 6, 0]], 2)
    assert halves.scale == 1 and halves.comparison_rows()[1] == [2, 0, 3]
    zero = DistanceMatrix.from_scaled(g, [[0] * 3 for _ in range(3)], 7)
    assert zero.scale == 1 and zero == DistanceMatrix(g, [[0] * 3 for _ in range(3)])


@given(distance_matrices(values=rationals()))
def test_comparison_rows_preserve_all_comparisons(matrix):
    rows = matrix.comparison_rows()
    n = matrix.n
    flat = [(i, j) for i in range(n) for j in range(n)]
    for i, j in flat:
        for k, l in flat:
            assert (matrix[i, j] < matrix[k, l]) == (rows[i][j] < rows[k][l])
            assert (matrix[i, j] == matrix[k, l]) == (rows[i][j] == rows[k][l])


def test_matrix_restriction_keeps_entries():
    m = DistanceMatrix(GroundSet("abc"), [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    sub = m.restricted([0, 2])
    assert sub.ground.labels == ("a", "c")
    assert sub[0, 1] == 2
    halves = DistanceMatrix(GroundSet("abc"), [[0, "1/2", 2], ["1/2", 0, 3], [2, 3, 0]])
    assert halves.scale == 2
    assert halves.restricted([0, 2]) == DistanceMatrix(GroundSet("ac"), [[0, 2], [2, 0]])
    assert halves.restricted([0, 2]).scale == 1


def test_weighted_system_rejects_duplicates_and_negatives():
    g = GroundSet("abcd")
    s = Split(g, "ab")
    with pytest.raises(ValueError, match=r"^duplicate split a,b \| c,d$"):
        WeightedSplitSystem(g, [(s, 1), (Split(g, "cd"), 2)])
    # the same weight object twice, and the same split object twice
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^duplicate split a,b \| c,d$"):
        WeightedSplitSystem(g, [(s, half), (Split(g, "bc"), 1), (s, half)])
    with pytest.raises(ValueError, match=r"^negative weight -1 on a,b \| c,d$"):
        WeightedSplitSystem(g, [(s, -1)])
    with pytest.raises(ValueError, match=r"^negative weight -1/3 on a,b \| c,d$"):
        WeightedSplitSystem(g, {Split(g, "a"): 1, s: "-1/3"})
    # a negative weight on a repeated split is named as negative
    with pytest.raises(ValueError, match=r"^negative weight -2 on a,b \| c,d$"):
        WeightedSplitSystem(g, [(s, 1), (s, -2)])
    with pytest.raises(ValueError, match="^ground set mismatch$"):
        WeightedSplitSystem(g, [(Split(GroundSet("abce"), "ab"), 1)])


def test_weighted_system_iteration_is_sorted_and_stable():
    g = index_ground(4)
    splits = [Split(g, side) for side in ([1, 2], [3], [1])]
    system = WeightedSplitSystem.unit(g, splits)
    assert list(system.splits) == sorted(splits, key=lambda s: s.bits)
    re = system.reweighted({splits[0]: 5})
    assert re.weight(splits[0]) == 5 and re.weight(splits[1]) == 0


def test_weighted_system_items_hash_no_split(monkeypatch):
    g = index_ground(6)
    weights = {Split.from_bits(g, bits): Fraction(bits, 3) for bits in (6, 1, 12, 5, 3)}
    system = WeightedSplitSystem(g, weights)
    expected = [(s, weights[s]) for s in sorted(weights, key=lambda s: s.bits)]
    calls = []
    split_hash = Split.__hash__

    def counting_hash(split):
        calls.append(split)
        return split_hash(split)

    monkeypatch.setattr(Split, "__hash__", counting_hash)
    assert list(system.items()) == expected
    assert list(system.items()) == expected
    assert calls == []
    # the counter does see lookups by split
    assert system.weight(expected[0][0]) == expected[0][1]
    assert len(calls) == 1


def test_weighted_system_refuses_a_float_equal_to_an_earlier_int():
    g = GroundSet("abcd")
    s1, s2 = Split(g, "ab"), Split(g, "a")
    with pytest.raises(ValueError, match=r"^refusing float 1\.0;"):
        WeightedSplitSystem(g, [(s1, 1), (s2, 1.0)])
    with pytest.raises(ValueError, match=r"^cannot interpret \[1\] as an exact rational$"):
        WeightedSplitSystem(g, [(s1, 1), (s2, [1])])


def test_generated_weights_share_one_fraction_per_value(monkeypatch):
    calls = []
    split_hash = Split.__hash__

    def counting_hash(split):
        calls.append(split)
        return split_hash(split)

    monkeypatch.setattr(Split, "__hash__", counting_hash)
    _, system = random_maximum_circular_system(40, Random(1), positive=False)
    # weights 0..20, and construction hashes each split once
    assert len({id(w) for _, w in system.items()}) <= 21
    assert len(calls) == len(system) == 40 * 39 // 2


def test_generating_a_circular_system_peaks_near_its_live_size():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    random_maximum_circular_system(100, Random(1))  # first-call caches
    tracemalloc.start()
    try:
        kept = random_maximum_circular_system(100, Random(1))  # held while measured
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept[1]) == 100 * 99 // 2
    # construction makes no pair and no Fraction per split, so its peak
    # stays near what the system keeps
    assert peak <= 1.3 * live, (peak, live)


def test_order_params_bounds():
    OrderParams(2, 1)
    assert issubclass(PreconditionError, ValueError)
    with pytest.raises(PreconditionError, match="p must be positive, got 0"):
        OrderParams(0, 1)
    with pytest.raises(PreconditionError, match="q must be at least p/2"):
        OrderParams(2, "1/2")
    with pytest.raises(PreconditionError):
        OrderParams(2, "3/4")
    assert OrderParams("2", "3").e_coeff == 2


def test_split_metric_is_the_indicator():
    g = index_ground(4)
    s = Split(g, [2, 3])
    m = split_metric(s)
    for i in range(4):
        for j in range(4):
            assert m[i, j] == (1 if s.separates(i, j) else 0)


@given(split_systems())
def test_generate_distance_matches_metric_sum(system):
    total = generate_distance(system)
    n = system.ground.n
    for i in range(n):
        for j in range(n):
            expected = sum(
                (w for s, w in system.items() if s.separates(i, j)), Fraction(0)
            )
            assert total[i, j] == expected


def test_generate_distance_with_mixed_denominators():
    g = index_ground(5)
    weights = [
        (Split(g, [1]), Fraction(1, 3)),
        (Split(g, [1, 2]), Fraction(5, 7)),
        (Split(g, [0, 3]), Fraction(0)),
    ]
    total = generate_distance(WeightedSplitSystem(g, weights))
    expected = [[Fraction(0)] * 5 for _ in range(5)]
    for s, w in weights:
        metric = split_metric(s)
        for i in range(5):
            for j in range(5):
                expected[i][j] += w * metric[i, j]
    assert total == DistanceMatrix(g, expected)
    assert total[0, 2] == Fraction(5, 7) and total[1, 2] == Fraction(1, 3)
    assert generate_distance(WeightedSplitSystem(g, [])) == DistanceMatrix(
        g, [[0] * 5 for _ in range(5)]
    )


@given(split_systems(), st.data())
def test_generate_distance_is_linear_in_weights(system, data):
    other = {
        s: data.draw(st.integers(0, 6), label=f"w[{s}]") for s in system.splits
    }
    combined = WeightedSplitSystem(
        system.ground, [(s, w + other[s]) for s, w in system.items()]
    )
    left = generate_distance(combined)
    a = generate_distance(system)
    b = generate_distance(system.reweighted(other))
    n = system.ground.n
    assert all(
        left[i, j] == a[i, j] + b[i, j] for i in range(n) for j in range(n)
    )


@st.composite
def bit_rows(draw):
    width = draw(st.integers(0, 300))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=140))
    return rows, width


@given(bit_rows())
@example(([], 0))
@example(([], 5))
@example(([0, 0], 0))
@example(([1, 0, 1], 1))
def test_transpose_bits_reads_columns(case):
    rows, width = case
    columns = transpose_bits(rows, width)
    assert columns == transpose_bits_by_bits(rows, width)
    if rows and width:
        assert transpose_bits(columns, len(rows)) == rows


@pytest.mark.parametrize("count", [1, 7, 8, 9, 63, 64, 65, 128, 129, 300])
def test_transpose_bits_matches_the_bitwise_oracle(count):
    # square sides 8 to 64, one or several squares per column block, one or
    # several chunks; the last width is one column past a whole chunk of
    # 64-column blocks
    squares = -(-count // 64)
    chunk = max(1, core._CHUNK_BITS // (squares * 64 * 64)) * 64
    rng = Random(count)
    for width in (1, 5, 8, 9, 31, 33, 63, 64, 65, 4096, 4097, chunk + 1):
        rows = [rng.getrandbits(width) for _ in range(count)]
        rows[-1] |= 1 << (width - 1)
        columns = transpose_bits(rows, width)
        assert columns == transpose_bits_by_bits(rows, width)
        assert transpose_bits(columns, count) == rows


def test_transpose_bits_refuses_rows_wider_than_width():
    # too wide for the words (8, 64 and 65 columns), caught in a padding
    # column (3, 9 and 70 columns), negative, or non-zero at width 0
    cases = [
        ([8], 3),
        ([1 << 8], 8),
        ([0] * 8 + [1 << 9], 9),
        ([1 << 64], 64),
        ([0, 1 << 65], 65),
        ([1 << 70] + [0] * 64, 70),
        ([-1], 3),
        ([0, -1], 70),
        ([1], 0),
        ([-1], 0),
    ]
    for rows, width in cases:
        with pytest.raises(ValueError):
            transpose_bits(rows, width)


@st.composite
def signed_split_weights(draw):
    """n in 1..7, distinct splits of index_ground(n) (none when n = 1) and
    an int weight in -50..50 for each."""
    n = draw(st.integers(1, 7))
    masks = draw(st.sets(canonical_masks(n), max_size=12)) if n > 1 else set()
    splits = [Split.from_bits(index_ground(n), m) for m in sorted(masks)]
    weights = draw(st.lists(st.integers(-50, 50), min_size=len(splits), max_size=len(splits)))
    return n, splits, weights


def _kernel_against_separates(n, splits, weights):
    """separation_sums on every pair mask and separation_rows on the
    transposed splits, both against the per-pair sum over Split.separates."""
    side = transpose_bits([s.bits for s in splits], n)
    brute = [
        [sum(w for s, w in zip(splits, weights) if s.separates(x, y)) for y in range(n)]
        for x in range(n)
    ]
    masks = [side[x] ^ side[y] for x in range(n) for y in range(n)]
    assert separation_sums(weights)(masks) == [d for row in brute for d in row]
    assert separation_rows(side, weights) == brute


@given(signed_split_weights())
def test_split_distance_kernel_matches_the_per_pair_sum(case):
    _kernel_against_separates(*case)


@pytest.mark.parametrize(
    "n, side_lists, weights",
    [
        (1, [], []),
        (2, [], []),
        (2, [[1]], [7]),
        (2, [[1]], [-3]),
        (5, [], []),
        (5, [[1], [1, 2], [0, 3]], [0, 0, 0]),
        (5, [[1], [1, 2], [0, 3]], [2**64, 2**70 + 3, -(2**65) - 1]),
        (4, [[0], [1], [2], [3], [0, 1], [0, 2]], [2**64 - 1, 2**64, -1, 0, 5, 2**100]),
    ],
)
def test_split_distance_kernel_edge_cases(n, side_lists, weights):
    ground = index_ground(n)
    splits = [Split(ground, side) for side in side_lists]
    _kernel_against_separates(n, splits, weights)


def test_split_distance_kernel_of_no_masks_or_no_weights():
    assert separation_sums([3, -4])([]) == []
    assert separation_sums([])([0, 0]) == [0, 0]
    assert separation_rows([0], []) == [[0]]


def test_restrict_split_system_merges_and_drops():
    g = GroundSet("abcde")
    splits = [Split(g, "ab"), Split(g, "abc"), Split(g, "e"), Split(g, "d")]
    # keep a, b, e: "abc" restricts to ab|e, same as "ab"; "d" vanishes
    restricted = restrict_split_system(splits, [0, 1, 4])
    sub = GroundSet("abe")
    assert restricted == frozenset({Split(sub, "ab"), Split(sub, "e")})
