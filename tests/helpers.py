"""Shared fixtures and slow reference implementations.

The reference functions here deliberately avoid the library's aggregation
and scaling tricks: they work pairwise on Fraction entries, straight from
the definitions, so the fast engines have something independent to match.
"""

from fractions import Fraction
from itertools import combinations, permutations
from random import Random

from ordist import (
    CircularOrdering,
    CounterexampleFound,
    DependentBasisError,
    DistanceMatrix,
    FormatError,
    GroundSet,
    MidpathDecomposition,
    NoCounterexampleFound,
    OrderParams,
    PartialRanking,
    SixPointWitness,
    Split,
    WeightedSplitSystem,
    express_in_basis,
    generate_distance,
    index_ground,
    is_compatible_pair,
    is_linearly_independent,
    maximum_circular_splits,
    order_distance_eq1,
    restrict_split_system,
    two_split_order_values,
)
from ordist.core import bit_indices, canonical_mask, ground_and_splits, transpose_bits
from ordist.flatlab import _ExactSolver
from ordist.formats import format_rational, parse_value


def naive_order_distance(matrix: DistanceMatrix, p, q) -> DistanceMatrix:
    """Order distance straight from the defining sums: for every ordered
    pair the strict-comparison side, for every unordered pair the
    equidistant set, each contributing to all pairs it separates."""
    p, q = Fraction(p), Fraction(q)
    n = matrix.n
    acc = [[Fraction(0)] * n for _ in range(n)]

    def add(side: set, amount: Fraction) -> None:
        if not side or len(side) == n:
            return
        for x in range(n):
            for y in range(x + 1, n):
                if (x in side) != (y in side):
                    acc[x][y] += amount

    for u in range(n):
        for v in range(n):
            if u != v:
                add({z for z in range(n) if matrix[u, z] < matrix[v, z]}, p / 2)
    for u in range(n):
        for v in range(u + 1, n):
            add({z for z in range(n) if matrix[u, z] == matrix[v, z]}, q - p / 2)
    rows = [
        [acc[min(i, j)][max(i, j)] if i != j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    return DistanceMatrix(matrix.ground, rows)


def midpath_by_scan(matrix: DistanceMatrix) -> MidpathDecomposition:
    """The midpath split system by comparing D(u, z) with D(v, z) for every
    pair (u, v) and every z, one element at a time.  The oracle for the
    transposed comparison sets of ``midpath_split_system``."""
    n = matrix.n
    rows = matrix.comparison_rows()
    full = (1 << n) - 1
    x_masks: dict[int, int] = {}
    e_masks: dict[int, int] = {}
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            x_mask = e_mask = 0
            for z in range(n):
                du, dv = rows[u][z], rows[v][z]
                if du < dv:
                    x_mask |= 1 << z
                elif du == dv:
                    e_mask |= 1 << z
            if 0 < x_mask < full:
                key = canonical_mask(x_mask, full)
                x_masks[key] = x_masks.get(key, 0) + 1
            if u < v and 0 < e_mask < full:
                key = canonical_mask(e_mask, full)
                e_masks[key] = e_masks.get(key, 0) + 1
    ground = matrix.ground
    return MidpathDecomposition(
        {Split.from_bits(ground, m): c for m, c in x_masks.items()},
        {Split.from_bits(ground, m): c for m, c in e_masks.items()},
    )


def orderly_by_fractions(splits, trials: int = 200, seed: int = 0):
    """``orderly_test`` on Fraction weightings: each probe sums its
    distance pair by pair over ``Split.separates``, takes the order
    distance at (2, 1), expresses it with ``express_in_basis`` and tests
    the Fraction weights in split order.  The oracle for the integer
    probes, independent of the split distance kernel."""
    ground, split_list = ground_and_splits(splits)
    if not is_linearly_independent(split_list):
        raise DependentBasisError("orderly test requires linearly independent splits")
    params = OrderParams(2, 1)
    n = ground.n

    def probe(weights, phase, trial):
        generated = [
            [sum((w for s, w in weights.items() if s.separates(x, y)), Fraction(0))
             for y in range(n)]
            for x in range(n)
        ]
        order_values = order_distance_eq1(DistanceMatrix(ground, generated), params)
        expr = express_in_basis(order_values, split_list)
        if expr is None:
            return CounterexampleFound(dict(weights), None, None, phase, trial)
        for s in split_list:
            if expr[s] < 0:
                return CounterexampleFound(dict(weights), expr, s, phase, trial)
        return None

    pair_probes = 0
    for s1, s2 in combinations(split_list, 2):
        if is_compatible_pair(s1, s2):
            continue
        pair_probes += 1
        weights = {s: Fraction(0) for s in split_list}
        weights[s1] = weights[s2] = Fraction(2)
        hit = probe(weights, 1, None)
        if hit is not None:
            return hit
    for trial in range(trials):
        rng = Random(f"{seed}:{trial}")
        hit = probe({s: Fraction(rng.randint(0, 20)) for s in split_list}, 2, trial)
        if hit is not None:
            return hit
    return NoCounterexampleFound(pair_probes, trials)


def orderly_phase_one_by_probes(splits):
    """``orderly_test(splits, trials=0)`` with one back-substitution per
    probe: each crossing pair's order values come from the closed form
    ``two_split_order_values``, a pair of elements reading the value
    between their corners (0 within one), and the solver expresses them
    in pair order.  The oracle for phase 1's membership tests and cached
    corner expressions."""
    ground, split_list = ground_and_splits(splits)
    solver = _ExactSolver(ground, split_list)
    if not solver.is_independent:
        raise DependentBasisError("orderly test requires linearly independent splits")
    n = ground.n
    pair_probes = 0
    for (t1, s1), (t2, s2) in combinations(enumerate(split_list), 2):
        if is_compatible_pair(s1, s2):
            continue
        pair_probes += 1
        a, b = s1.bits, s2.bits
        n1, n2, n3 = (a & b).bit_count(), (b & ~a).bit_count(), (a & ~b).bit_count()
        values = two_split_order_values(n1, n2, n3, n - n1 - n2 - n3)
        o12, o13, o14, o23, o24, o34 = map(int, values)
        table = (0, o12, o13, o14, o12, 0, o23, o24, o13, o23, 0, o34, o14, o24, o34, 0)
        corner = [3 - (a >> e & 1) - 2 * (b >> e & 1) for e in range(n)]
        signed = solver._signed_weights([table[4 * corner[i] + corner[j]] for i, j in solver.pairs])
        if signed is not None and min(signed, default=0) >= 0:
            continue
        weighting = {s: Fraction(2 if t in (t1, t2) else 0) for t, s in enumerate(split_list)}
        if signed is None:
            return CounterexampleFound(weighting, None, None, 1, None)
        negative = next(s for s, w in zip(split_list, signed) if w < 0)
        return CounterexampleFound(weighting, solver._fractions(signed, 1), negative, 1, None)
    return NoCounterexampleFound(pair_probes, 0)


def two_split_terms(a: int, b: int, n: int) -> tuple[tuple[int, int], ...]:
    """The split decomposition of ``two_split_order_values``: the order
    distance at (2, 1) of 2 * delta_A + 2 * delta_B, for crossing sides A
    and B given as masks over n elements, as six (side mask, coefficient)
    terms.  With corners C1 = A & B, C2 = B - A, C3 = A - B and C4 the rest,
    of sizes n1 .. n4 (blocks 1 to 4),

        O = 2 (n1 n2 + n3 n4) delta_A + 2 (n1 n3 + n2 n4) delta_B
            + n1 n4 (delta_C1 + delta_C4) + n2 n3 (delta_C2 + delta_C3).

    The two splits come first, then the corners, C4 as its complement A | B,
    so every side leaves out an element that A and B both leave out.  The
    identity behind condition (a) of ``is_closed``, under which phase 1
    of ``orderly_test`` skips a pair."""
    c1, c2, c3 = a & b, b & ~a, a & ~b
    n1, n2, n3 = c1.bit_count(), c2.bit_count(), c3.bit_count()
    n4 = n - n1 - n2 - n3
    return ((a, 2 * (n1 * n2 + n3 * n4)), (b, 2 * (n1 * n3 + n2 * n4)),
            (c1, n1 * n4), (a | b, n1 * n4), (c2, n2 * n3), (c3, n2 * n3))


def open_pairs_by_parts(splits):
    """The crossing pairs of splits, in order, that fail closedness, on
    frozensets: the corners of each crossing pair are the intersections
    of the sides of ``Split.parts()``, and a split is in the system when
    one of its parts is a part of a stored split.  The oracle for the
    failing pairs of ``flatlab._crossing_pairs``."""
    _, split_list = ground_and_splits(splits)
    have = {part for split in split_list for part in split.parts()}
    for s1, s2 in combinations(split_list, 2):
        (a1, b1), (a2, b2) = s1.parts(), s2.parts()
        c11, c21, c12, c22 = a1 & a2, b1 & a2, a1 & b2, b1 & b2
        if not (c11 and c21 and c12 and c22):
            continue
        if all(corner in have for corner in (c11, c21, c12, c22)):
            continue
        if c11 | c22 in have:
            diag, anti = len(c11) * len(c22), len(c21) * len(c12)
            if diag == anti:
                continue
            if diag > anti and c11 in have and c22 in have:
                continue
            if diag < anti and c21 in have and c12 in have:
                continue
        yield s1, s2


def is_closed_by_parts(splits):
    """``is_closed`` on frozensets: the first pair of
    ``open_pairs_by_parts``, or None."""
    return next(open_pairs_by_parts(splits), None)


def peel_schedule_by_table(ground, splits):
    """The waves of ``_ExactSolver`` over an n x n table of pair masks:
    sep[x][y] holds the splits separating x and y, its diagonal 0, and
    slot[x][y] the index of pair {x, y} in pair order.  Returns the steps
    (slot, plus, minus) in schedule order and the mask of the splits left
    unsolved.  The oracle for the solver's ``_steps`` and ``_core``."""
    n = ground.n
    split_list = list(splits)
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    side = transpose_bits([split.bits for split in split_list], n)
    sep = [[a ^ b for b in side] for a in side]
    slot = [[m] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        slot[i][j] = slot[j][i] = p
    unsolved = (1 << len(split_list)) - 1
    steps = []
    solved_before = -1
    while unsolved and len(steps) > solved_before:
        solved_before = len(steps)
        for x in range(n):
            sx = sep[x]
            for a in range(n - 1):
                xa = sx[a] & unsolved
                if not xa:
                    continue
                for b in range(a + 1, n):
                    hit = xa & sx[b]
                    if hit and hit & (hit - 1) == 0:
                        unsolved ^= hit
                        xa ^= hit
                        earlier = [m + t for t in bit_indices(sx[a] & sx[b] ^ hit)]
                        plus, minus = (slot[x][a], slot[x][b]), (slot[a][b], *earlier)
                        steps.append((m + hit.bit_length() - 1, plus, minus))
    return steps, unsolved


def fraction_rank_and_solution(vectors, target):
    """Gaussian elimination on Fractions of the augmented system whose
    columns are the given vectors followed by the target.

    Returns (rank of the vectors, whether the target is in their span, the
    unique coefficients writing the target when the vectors are
    independent and it is in the span, else None)."""
    k = len(vectors)
    aug = [[Fraction(v[i]) for v in vectors] + [Fraction(t)] for i, t in enumerate(target)]
    pivot_cols = []
    for col in range(k + 1):
        top = len(pivot_cols)
        pivot = next((r for r in range(top, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[top], aug[pivot] = aug[pivot], aug[top]
        aug[top] = [x / aug[top][col] for x in aug[top]]
        for r in range(len(aug)):
            if r != top and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[top])]
        pivot_cols.append(col)
    in_span = k not in pivot_cols
    rank = len(pivot_cols) - (not in_span)
    if not in_span or rank < k:
        return rank, in_span, None
    return rank, in_span, [aug[r][k] for r in range(k)]


def fraction_parse_distance_matrix(text: str) -> DistanceMatrix:
    """The matrix parser on Fractions, the oracle for
    ``parse_distance_matrix``: ``parse_value`` for every token, then the
    rational ``DistanceMatrix`` constructor, with the same messages."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise FormatError("empty input")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"expected element count, got {lines[0]!r}") from None
    if n < 1:
        raise FormatError("element count must be at least 1")
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    labels = []
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n + 1:
            raise FormatError(f"expected label plus {n} values: {line!r}")
        labels.append(tokens[0])
        rows.append([parse_value(t, f"row {tokens[0]!r}") for t in tokens[1:]])
    try:
        return DistanceMatrix(GroundSet(labels), rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_distance_matrix_by_values(matrix: DistanceMatrix) -> str:
    """The matrix writer entry by entry, the oracle for
    ``format_distance_matrix``: every entry of every row, both halves,
    through ``format_rational``."""
    n = matrix.n
    lines = [str(n)]
    for i, label in enumerate(matrix.ground.labels):
        values = [format_rational(matrix[i, j]) for j in range(n)]
        lines.append(" ".join([label, *values]))
    return "\n".join(lines) + "\n"


def _parse_side_by_labels(part: str, bit: dict, context: str) -> tuple[int, int]:
    labels = [tok.strip() for tok in part.split(",")]
    if any(not tok for tok in labels):
        raise FormatError(f"empty label in {context}")
    mask = 0
    for tok in labels:
        if tok not in bit:
            raise FormatError(f"unknown label {tok!r} in {context}")
        mask |= bit[tok]
    return mask, len(labels)


def parse_split_system_by_labels(text: str) -> WeightedSplitSystem:
    """The split parser label by label: every weight through
    ``parse_value``, each side's labels checked and OR-ed one at a time,
    duplicates found as ``Split`` objects, with the same messages in the
    same order.  The oracle for ``parse_split_system``."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if len(lines) < 2:
        raise FormatError("split system input needs a count line and a label line")
    try:
        n = int(lines[0])
    except ValueError:
        raise FormatError(f"expected element count, got {lines[0]!r}") from None
    labels = lines[1].split()
    if len(labels) != n:
        raise FormatError(f"expected {n} labels, found {len(labels)}")
    try:
        ground = GroundSet(labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    bit = {label: 1 << i for i, label in enumerate(labels)}
    entries = []
    seen = set()
    for line in lines[2:]:
        context = f"split line {line!r}"
        body, _, weight_part = line.partition(":")
        weight = Fraction(1)
        if weight_part.strip():
            weight = parse_value(weight_part.strip(), context)
        sides = body.split("|")
        if len(sides) != 2:
            raise FormatError(f"expected exactly one '|' in {context}")
        left, listed_left = _parse_side_by_labels(sides[0], bit, context)
        right, listed_right = _parse_side_by_labels(sides[1], bit, context)
        if left & right:
            raise FormatError(f"sides overlap in {context}")
        if listed_left + listed_right != n:
            raise FormatError(f"sides do not cover all elements: {line!r}")
        if left.bit_count() + right.bit_count() != n:
            raise FormatError(f"repeated label in {context}")
        split = Split.from_bits(ground, left)
        if split in seen:
            raise FormatError(f"duplicate split in line {line!r}")
        seen.add(split)
        if weight < 0:
            raise FormatError(f"negative weight in {context}")
        entries.append((split, weight))
    try:
        return WeightedSplitSystem(ground, entries)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def insertion_positions_by_sort(rows, seq, z) -> list[int]:
    """Insertion positions 1..len(seq) for element z, sorted by the pair
    (detour, position): the reference order for the greedy insertion that
    proposes ``recover_circular_ordering``'s first ordering."""
    k = len(seq)
    scored = []
    for pos in range(1, k + 1):
        x, y = seq[pos - 1], seq[pos % k]
        scored.append((rows[x][z] + rows[z][y] - rows[x][y], pos))
    scored.sort()
    return [pos for _, pos in scored]


def greedy_insertion_by_sort(matrix: DistanceMatrix) -> list[int]:
    """The greedy insertion sequence of ``recover_circular_ordering``, each
    element put at the first position of ``insertion_positions_by_sort``."""
    rows = matrix.comparison_rows()
    seq = [0, 1, 2]
    for z in range(3, matrix.n):
        seq.insert(insertion_positions_by_sort(rows, seq, z)[0], z)
    return seq


def allowable_pair_by_frozensets(n: int, rng) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (pi, kappa) of ``generators.random_allowable_pair``, drawn the
    same way but telling a swapped pair by a set of frozensets of the
    elements swapped so far; the oracle for its rank test."""
    pi = list(range(n))
    rng.shuffle(pi)
    cur = list(pi)
    swapped = set()
    kappa = []
    for _ in range(n * (n - 1) // 2):
        admissible = [
            k for k in range(n - 1) if frozenset((cur[k], cur[k + 1])) not in swapped
        ]
        k = rng.choice(admissible)
        swapped.add(frozenset((cur[k], cur[k + 1])))
        cur[k], cur[k + 1] = cur[k + 1], cur[k]
        kappa.append(k)
    return tuple(pi), tuple(kappa)


def maximum_flat_by_restriction(splits) -> bool:
    """Maximum flatness decided through restrictions: C(n,2) independent
    splits whose restriction to every 4 elements has all 6 splits of a
    4-element set.  The oracle for the pairwise-separation route of
    ``is_maximum_flat``."""
    ground, split_list = ground_and_splits(splits)
    n = ground.n
    if len(split_list) != n * (n - 1) // 2:
        return False
    if not is_linearly_independent(WeightedSplitSystem.unit(ground, split_list)):
        return False
    return all(
        len(restrict_split_system(split_list, quad)) == 6
        for quad in combinations(range(n), 4)
    )


def pairwise_separation_by_subsets(splits) -> tuple[int, int] | None:
    """First pair x < y with no separating frame, or None, trying every
    subset A of the other elements with B the rest: the frame needs
    A+x+y|B, A+x|B+y, A+y|B+x and A|B+x+y in the system, except the two
    with an empty side.  The oracle for ``pairwise_separation_check``."""
    ground, split_list = ground_and_splits(splits)
    have = set(split_list)
    n = ground.n

    def frame_in_system(x, y, a) -> bool:
        sides = [[*a, x, y], [*a, x], [*a, y], list(a)]
        return all(Split(ground, side) in have for side in sides if 0 < len(side) < n)

    for x, y in combinations(range(n), 2):
        others = [e for e in range(n) if e not in (x, y)]
        if not any(
            frame_in_system(x, y, a)
            for k in range(len(others) + 1)
            for a in combinations(others, k)
        ):
            return (x, y)
    return None


def compatible_pair_brute(s1: Split, s2: Split) -> bool:
    a1, b1 = (set(part) for part in s1.parts())
    a2, b2 = (set(part) for part in s2.parts())
    return any(
        not (p1 & p2) for p1 in (a1, b1) for p2 in (a2, b2)
    )


def incompatible_pair_by_corners(splits):
    """The first pair in canonical order with all four side intersections
    non-empty, or None, testing every pair.  The oracle for
    ``incompatible_pair``."""
    ground, items = ground_and_splits(splits)
    full = (1 << ground.n) - 1
    for s1, s2 in combinations(items, 2):
        a1, a2 = s1.bits, s2.bits
        b1, b2 = full ^ a1, full ^ a2
        if a1 & a2 and a1 & b2 and b1 & a2 and b1 & b2:
            return s1, s2
    return None


def holds_in_by_inequalities(witness, matrix: DistanceMatrix) -> bool:
    """A six-point witness re-evaluated as one block of inequalities per
    (condition, branch), false for an element outside 0..n-1.  The oracle
    for ``SixPointWitness.holds_in``."""
    rows = matrix.comparison_rows()
    a, b, s, t, x, y = witness.elements()
    if not all(0 <= e < matrix.n for e in witness.elements()):
        return False
    if not (rows[x][y] > 0 and rows[x][a] < rows[y][a] and rows[y][b] <= rows[x][b]):
        return False
    if witness.condition == 1 and witness.branch == 1:
        return (
            rows[a][s] < rows[a][t]
            and rows[b][s] < rows[b][t]
            and rows[x][t] <= rows[x][s]
            and rows[y][t] <= rows[y][s]
        )
    if witness.condition == 1 and witness.branch == 2:
        return (
            rows[a][s] <= rows[a][t]
            and rows[b][s] <= rows[b][t]
            and rows[x][t] < rows[x][s]
            and rows[y][t] < rows[y][s]
        )
    if witness.condition == 2 and witness.branch == 1:
        return (
            rows[b][s] < rows[b][t]
            and rows[a][t] <= rows[a][s]
            and rows[x][s] < rows[x][t]
            and rows[y][t] <= rows[y][s]
        )
    if witness.condition == 2 and witness.branch == 2:
        return (
            rows[b][s] <= rows[b][t]
            and rows[a][t] < rows[a][s]
            and rows[x][s] <= rows[x][t]
            and rows[y][t] < rows[y][s]
        )
    return False


def six_point_witness_by_walk(matrix: DistanceMatrix):
    """The first six-point witness found by walking (a, b, s, t, x, y) in
    lexicographic order over the distance rows, one entry at a time,
    condition 1 before 2 and branch 1 before 2 within a tuple; None when
    no tuple holds.  The oracle for ``six_point_witness``."""
    rows = matrix.comparison_rows()
    elements = range(matrix.n)
    for a, b in permutations(elements, 2):
        row_a, row_b = rows[a], rows[b]
        pairs_xy = [
            (x, y)
            for x in elements
            for y in elements
            if rows[x][y] > 0 and rows[x][a] < rows[y][a] and rows[y][b] <= rows[x][b]
        ]
        if not pairs_xy:
            continue
        for s, t in permutations(elements, 2):
            as_lt, as_le = row_a[s] < row_a[t], row_a[s] <= row_a[t]
            bs_lt, bs_le = row_b[s] < row_b[t], row_b[s] <= row_b[t]
            c1a = as_lt and bs_lt
            c1b = as_le and bs_le
            c2a = bs_lt and not as_lt
            c2b = bs_le and row_a[t] < row_a[s]
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


def positive_side_crosses_by_scan(matrix: DistanceMatrix) -> bool:
    """Whether some strict side X(x, y) = {z : D(x, z) < D(y, z)} with
    D(x, y) > 0 and some strict side X(s, t) have all four corners
    non-empty, trying every pair of pairs on element sets."""
    n = matrix.n
    universe = set(range(n))
    sides = {
        (u, v): {z for z in universe if matrix[u, z] < matrix[v, z]}
        for u, v in permutations(universe, 2)
    }
    return any(
        p & q and p - q and q - p and universe - p - q
        for (x, y), p in sides.items()
        if matrix[x, y] > 0
        for q in sides.values()
    )


def quadruple_condition_holds(matrix: DistanceMatrix, seq) -> bool:
    """Direct Fraction evaluation of the circular quadruple condition on
    one ordering, no rescaling."""
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    a, b, c, d = seq[i], seq[j], seq[k], seq[l]
                    rhs = matrix[a, c] + matrix[b, d]
                    if matrix[a, b] + matrix[c, d] > rhs:
                        return False
                    if matrix[a, d] + matrix[b, c] > rhs:
                        return False
    return True


def circular_orderings_brute(matrix: DistanceMatrix) -> list[CircularOrdering]:
    """Every canonical ordering passing the quadruple condition, found by
    trying all (n-1)!; the oracle for circular recovery."""
    n = matrix.n
    if n <= 3:
        return [CircularOrdering(matrix.ground, range(n))]
    found = []
    for perm in permutations(range(1, n)):
        theta = CircularOrdering(matrix.ground, (0,) + perm)
        if theta not in found and quadruple_condition_holds(matrix, theta.sequence):
            found.append(theta)
    return found


def is_consecutive_in(order, sets) -> bool:
    """Whether every bitmask set holds consecutive entries of order."""
    place = {e: i for i, e in enumerate(order)}
    for s in sets:
        spots = [place[e] for e in range(s.bit_length()) if s >> e & 1]
        if max(spots) - min(spots) + 1 != len(spots):
            return False
    return True


def consecutive_order_brute(sets, n: int):
    """The first permutation of range(n) in which every set is
    consecutive, or None: the oracle for ``_consecutive_order``."""
    orders = permutations(range(n))
    return next((perm for perm in orders if is_consecutive_in(perm, sets)), None)


def zero_heavy_circular_distance(n: int, rng, zero_share=0.7) -> DistanceMatrix:
    """Distance of the maximum circular system of a random ordering, each
    split weighted 0 with probability zero_share and 1..3 otherwise: many
    equal entries (and, on few elements, zero-distance pairs), so
    comparisons tie at the ends of their arcs."""
    perm = list(range(n))
    rng.shuffle(perm)
    theta = CircularOrdering(index_ground(n), perm)
    return generate_distance(
        WeightedSplitSystem(
            theta.ground,
            [
                (s, 0 if rng.random() < zero_share else rng.randint(1, 3))
                for s in maximum_circular_splits(theta)
            ],
        )
    )


def strict_side_arcs(matrix: DistanceMatrix, theta: CircularOrdering) -> dict:
    """For every ordered pair (u, v) at positive distance, the positions
    (start, end) of the side {z : D(u,z) < D(v,z)} read forward around the
    ordering, found by scanning every position; raises ValueError when a
    side is not one arc.  The oracle for the circular engine's searches."""
    n = matrix.n
    seq = theta.sequence
    values = [[matrix[x, y] for y in seq] for x in range(n)]
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u == v or matrix[u, v] == 0:
                continue
            members = [p for p in range(n) if values[u][p] < values[v][p]]
            starts = [p for p in members if (p - 1) % n not in members]
            if len(starts) != 1:
                raise ValueError(f"side of {u} against {v} is not an arc")
            arcs[u, v] = (starts[0], (starts[0] + len(members) - 1) % n)
    return arcs


def interval_of_by_scan(theta: CircularOrdering, split: Split):
    """The positions (i, j) of the split's side avoiding the last element
    when they run consecutively, else None, found by testing every element;
    the oracle for ``CircularOrdering.interval_of``."""
    seq = theta.sequence
    side = sorted(
        theta.position(e) for e in range(theta.n) if split.separates(e, seq[-1])
    )
    if side[-1] - side[0] != len(side) - 1:
        return None
    return side[0], side[-1]


def arc_by_walk(theta: CircularOrdering, i: int, j: int) -> tuple[int, ...]:
    """Elements at positions i..j inclusive, moving forward circularly."""
    n = theta.n
    length = (j - i) % n + 1
    return tuple(theta.sequence[(i + k) % n] for k in range(length))


def interval_split_by_slice(theta: CircularOrdering, i: int, j: int) -> Split:
    """The split of the arc (i, j), from the slice i..j of the sequence."""
    return Split(theta.ground, theta.sequence[i : j + 1])


def interval_weight_map_by_scan(theta: CircularOrdering, system: WeightedSplitSystem) -> dict:
    """``interval_weight_map`` through ``interval_of_by_scan``."""
    if system.ground != theta.ground:
        raise ValueError("ground set mismatch")
    out = {}
    for split, weight in system.items():
        interval = interval_of_by_scan(theta, split)
        if interval is None:
            raise ValueError(f"split {split} does not fit on the ordering")
        out[interval] = weight
    return out


def fits_on_ordering_by_transitions(splits, theta: CircularOrdering) -> bool:
    """``fits_on_ordering`` by walking the ordering once per split and
    counting side changes: an arc has exactly two."""
    seq = theta.sequence
    for split in splits:
        if split.ground != theta.ground:
            raise ValueError("ground set mismatch")
        bits = split.bits
        transitions = 0
        prev = (bits >> seq[-1]) & 1
        for e in seq:
            cur = (bits >> e) & 1
            if cur != prev:
                transitions += 1
                prev = cur
        if transitions != 2:
            return False
    return True


def kendall_counts_brute(b1: list[int], b2: list[int]) -> tuple[int, int]:
    """(discordant pairs, pairs tied in exactly one) by scanning all element
    pairs; the oracle for ``kendall_counts``."""
    discordant = tied_one = 0
    n = len(b1)
    for u in range(n):
        for v in range(u + 1, n):
            d1 = b1[u] - b1[v]
            d2 = b2[u] - b2[v]
            if (d1 == 0) != (d2 == 0):
                tied_one += 1
            elif (d1 > 0) != (d2 > 0):
                discordant += 1
    return discordant, tied_one


def kendall_penalized_brute(r1: PartialRanking, r2: PartialRanking, pi) -> Fraction:
    """Penalized Kendall distance by scanning all element pairs; the oracle
    for ``kendall_penalized``."""
    if r1.ground != r2.ground:
        raise ValueError("ground set mismatch")
    discordant, tied_one = kendall_counts_brute(r1.block_indices(), r2.block_indices())
    return discordant + Fraction(pi) * tied_one


def transpose_bits_by_bits(rows, width: int) -> list[int]:
    """The columns of a bit matrix read one bit at a time: bit t of out[e]
    is bit e of rows[t]; the oracle for ``transpose_bits``."""
    digits = [format(row, "b").zfill(width)[::-1] for row in rows]  # digit e is bit e
    return [sum(1 << t for t, row in enumerate(digits) if row[e] == "1") for e in range(width)]


def ultrametric_fixture() -> WeightedSplitSystem:
    """The weighted compatible 5-point system whose order distance follows
    the 4p+3q / 4p+5q / p+4q / 2p+4q patterns."""
    g = GroundSet("abcde")
    return WeightedSplitSystem(
        g,
        {
            Split(g, "a"): 4,
            Split(g, "b"): 2,
            Split(g, "e"): 2,
            Split(g, "c"): 1,
            Split(g, "d"): 1,
            Split(g, "cd"): 1,
        },
    )


def quartet_fixture() -> WeightedSplitSystem:
    """Unit-weighted non-maximum circular system on four elements whose
    order distance needs a strictly larger circular system."""
    g = GroundSet("abcd")
    return WeightedSplitSystem.unit(g, [Split(g, "b"), Split(g, "ab"), Split(g, "ad")])


SIX_POINT_LABELS = ("a", "b", "s", "t", "x", "y")
SIX_POINT_ROWS = (
    (0, 6, 5, 4, 13, 14),
    (6, 0, 2, 3, 12, 11),
    (5, 2, 0, 1, 8, 9),
    (4, 3, 1, 0, 10, 7),
    (13, 12, 8, 10, 0, 15),
    (14, 11, 9, 7, 15, 0),
)


def six_point_table() -> DistanceMatrix:
    """Six-element distance whose midpath system is incompatible although
    every five-element restriction has a compatible one."""
    return DistanceMatrix(GroundSet(SIX_POINT_LABELS), SIX_POINT_ROWS)


WITNESSLESS_ROWS = (
    (0, 2, 3, 0, 0),
    (2, 0, 3, 0, 0),
    (3, 3, 0, 3, 2),
    (0, 0, 3, 0, 0),
    (0, 0, 2, 0, 0),
)


def witnessless_blowup(n: int) -> DistanceMatrix:
    """Zero-rich distance on n elements whose strict comparison splits are
    not compatible although no six-point witness exists: element i copies
    element i mod 5 of ``WITNESSLESS_ROWS`` (drawn by ``Random(463)``), and
    copies of one element are at distance 0."""
    rows = [[WITNESSLESS_ROWS[i % 5][j % 5] for j in range(n)] for i in range(n)]
    return DistanceMatrix.from_scaled(index_ground(n), rows)


def system_from_sides(labels: str, sides: list[str], weights=None) -> WeightedSplitSystem:
    g = GroundSet(labels)
    splits = [Split(g, list(side)) for side in sides]
    if weights is None:
        return WeightedSplitSystem.unit(g, splits)
    return WeightedSplitSystem(g, dict(zip(splits, weights)))
