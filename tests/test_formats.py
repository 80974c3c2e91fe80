import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given

from ordist import (
    DistanceMatrix,
    FormatError,
    GroundSet,
    format_distance_matrix,
    format_rational,
    format_split_system,
    index_ground,
    parse_distance_matrix,
    parse_split_system,
)
from ordist.cli import run
from ordist.formats import parse_value
from helpers import (
    format_distance_matrix_by_values,
    fraction_parse_distance_matrix,
    parse_split_system_by_labels,
)
from strategies import distance_matrices, rationals, split_systems


def test_format_rational():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(0)) == "0"


def test_format_matrix_over_a_common_denominator():
    m = DistanceMatrix.from_scaled(GroundSet("abc"), [[0, 7, 6], [7, 0, 0], [6, 0, 0]], 2)
    assert m.scale == 2
    assert format_distance_matrix(m) == "3\na 0 7/2 3\nb 7/2 0 0\nc 3 0 0\n"


def test_bool_entries_are_written_as_digits():
    m = DistanceMatrix.from_scaled(GroundSet("ab"), [[0, True], [True, 0]])
    text = format_distance_matrix(m)
    assert text == "2\na 0 1\nb 1 0\n"
    assert parse_distance_matrix(text) == m


def test_parse_matrix_with_comments_and_decimals():
    text = """
    # small example
    3
    a 0 1.5 2
    b 3/2 0 1
    c 2 1 0
    """
    m = parse_distance_matrix(text)
    assert m.by_label("a", "b") == Fraction(3, 2)
    assert m.by_label("a", "c") == 2


@given(distance_matrices(values=rationals()))
def test_matrix_round_trip(matrix):
    assert parse_distance_matrix(format_distance_matrix(matrix)) == matrix


def random_matrix(rng, n, kind):
    """A random n x n matrix: bool entries at scale 1 ("bool"), ints over 2
    ("halves"), Fractions over mixed denominators ("mixed") or ints up to
    10**9 ("wide")."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "bool":
                v = rng.random() < 0.5
            elif kind == "halves":
                v = rng.randint(0, 40)
            elif kind == "mixed":
                v = Fraction(rng.randint(0, 60), rng.choice([1, 2, 3, 4, 5, 7, 8, 10, 125]))
            else:
                v = rng.randint(0, 10**9)
            rows[i][j] = rows[j][i] = v
    if kind == "mixed":
        return DistanceMatrix(index_ground(n), rows)
    return DistanceMatrix.from_scaled(index_ground(n), rows, 2 if kind == "halves" else 1)


def test_format_matches_value_oracle():
    rng = random.Random(8080)
    seen = Counter()
    kinds = ("bool", "halves", "mixed", "wide")
    cases = [(kind, 160) for kind in kinds]
    cases += [(rng.choice(kinds), rng.choice([1, 2, 3, rng.randint(4, 9)])) for _ in range(300)]
    for kind, n in cases:
        m = random_matrix(rng, n, kind)
        assert format_distance_matrix(m) == format_distance_matrix_by_values(m), (kind, n)
        seen[f"n={n}"] += 1
        if any(v is True for row in m.comparison_rows() for v in row):
            seen["bool entries"] += 1
        seen[f"scale {min(m.scale, 3)}"] += 1  # 3: any larger scale
    assert all(seen[k] >= 1 for k in ("n=160", "n=1")), seen
    assert all(seen[k] >= 30 for k in ("n=2", "n=3", "bool entries", "scale 2", "scale 3")), seen


def test_read_matrix_shares_one_value_per_pair():
    """Ints above 256 are not cached by Python, so a pair read as two
    tokens would be two objects."""
    rng = random.Random(9)
    n = 12
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(257, 10**9)
    text = format_distance_matrix(DistanceMatrix.from_scaled(index_ground(n), rows))
    read = parse_distance_matrix(text).comparison_rows()
    assert read == rows
    assert all(read[i][j] is read[j][i] for i in range(n) for j in range(i + 1, n))


@given(split_systems(weights=rationals()))
def test_split_system_round_trip(system):
    assert parse_split_system(format_split_system(system)) == system


@pytest.mark.parametrize(
    "token, value",
    [("1_000", 1000), ("1_0/3", Fraction(10, 3)), ("1.5_0", Fraction(3, 2)),
     ("1e1_0", 10**10), ("\u0661_\u0662", 12)],
)
def test_digits_grouped_by_single_underscores_read_on_every_python(token, value):
    # Fraction reads these only from Python 3.11 on; the reader drops each
    # underscore with a digit on both sides first
    assert parse_value(token, "test") == value


@pytest.mark.parametrize("token", ["1__0", "_1", "1_", "1_.5", "1._5", "1e_5"])
def test_other_underscores_are_refused_by_their_own_spelling(token):
    with pytest.raises(FormatError) as info:
        parse_value(token, "test")
    assert str(info.value) == f"bad value {token!r} in test"


def test_grouped_digits_in_a_row_a_weight_and_the_order_parameters(tmp_path):
    m = parse_distance_matrix("2\na 0 1_000\nb 1_000 0")
    assert m[0, 1] == 1000
    system = parse_split_system("2\na b\na | b : 1_000")
    assert [w for _, w in system.items()] == [1000]
    path = tmp_path / "grouped.dist"
    path.write_text("2\na 0 1_000\nb 1_000 0\n", encoding="utf-8")
    plain = run(["order", "-i", str(path), "-p", "2", "-q", "1"])
    grouped = run(["order", "-i", str(path), "-p", "2_0/1_0", "-q", "1_0/1_0"])
    assert (plain.exit_code, plain.report) == (0, "algo: eq1\np: 2\nq: 1\n2\na 0 2\nb 2 0")
    assert (grouped.exit_code, grouped.report) == (plain.exit_code, plain.report)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\na 0",
        "2\na 0 1",
        "2\na 0 1\nb 1 0\nc 0 0",
        "2\na 0 one\nb one 0",
        "2\na 0 1\nb 2 0",
        "2\na 0 -1\nb -1 0",
        "1\na x",
    ],
)
def test_matrix_parse_errors(text):
    with pytest.raises(FormatError):
        parse_distance_matrix(text)


def test_values_too_long_to_print_are_refused(digit_limit, tmp_path, src_env):
    limit = digit_limit
    too_long = ("1e5000", "1e-5000", "1E999999999", "3/" + "1" * (limit + 1), "0." + "1" * limit)
    for token in too_long:
        with pytest.raises(FormatError, match="bad value"):
            parse_distance_matrix(f"2\na 0 {token}\nb {token} 0")
    # 10**(limit - 1) has exactly limit digits
    edge = f"0.0001e{limit + 3}"
    m = parse_distance_matrix(f"2\na 0 {edge}\nb {edge} 0")
    assert m[0, 1] == 10 ** (limit - 1)
    assert parse_distance_matrix(format_distance_matrix(m)) == m
    with pytest.raises(FormatError, match="bad value"):
        parse_split_system("2\na b\na | b : 1e5000\n")
    # plain integers: int() reads up to the limit, one digit more is refused
    widest = "9" * limit
    m = parse_distance_matrix(f"2\na 0 {widest}\nb {widest} 0")
    assert m[0, 1] == 10**limit - 1
    for text in (f"2\na 0 1{widest}\nb 0 0", f"2\na 0 0{widest}\nb 0 0"):
        with pytest.raises(FormatError) as info:
            parse_distance_matrix(text)
        assert str(info.value) == f"bad value {text.split()[3]!r} in row 'a'"
    # the lowest limit Python allows
    token = "1" * 641
    path = tmp_path / "long.dist"
    path.write_text(f"2\na 0 {token}\nb {token} 0\n", encoding="utf-8")
    argv = ["order", "-i", str(path), "-p", "2", "-q", "1"]
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(FormatError) as info:
            parse_distance_matrix(path.read_text(encoding="utf-8"))
        assert str(info.value) == f"bad value {token!r} in row 'a'"
        assert parse_distance_matrix(f"2\na 0 {token[1:]}\nb {token[1:]} 0")[0, 1] > 0
        outcome = run(argv)
        assert (outcome.exit_code, outcome.report) == (2, f"error: {info.value}")
    finally:
        sys.set_int_max_str_digits(limit)
    done = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "ordist", *argv],
        capture_output=True, encoding="utf-8", env=src_env,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {info.value}\n")


ZERO_IN_ANY_EXPONENT = ("0e4306", "0e4307", "0e5000", "0.0e-9000", "-0E5000", "00e99999", "0e99999999")
NOT_ZERO_OR_NOT_A_VALUE = ("1e5000", "0.1e5000", "0/5e5000", "0e5000x", "0e", "e5000")


@pytest.mark.parametrize("token", ZERO_IN_ANY_EXPONENT)
def test_a_zero_mantissa_reads_as_zero_in_any_exponent(digit_limit, token):
    # the exponent guard refuses a huge power before Fraction expands it,
    # but a zero mantissa needs no power
    assert parse_value(token, "test") == 0
    m = parse_distance_matrix(f"2\na 0 {token}\nb {token} 0")
    assert m[0, 1] == 0
    system = parse_split_system(f"2\na b\na | b : {token}")
    assert [w for _, w in system.items()] == [0]


@pytest.mark.parametrize("token", NOT_ZERO_OR_NOT_A_VALUE)
def test_a_huge_exponent_is_refused_unless_the_mantissa_is_zero(digit_limit, token):
    with pytest.raises(FormatError) as info:
        parse_value(token, "test")
    assert str(info.value) == f"bad value {token!r} in test"
    with pytest.raises(FormatError) as info:
        parse_distance_matrix(f"2\na 0 {token}\nb {token} 0")
    assert str(info.value) == f"bad value {token!r} in row 'a'"
    with pytest.raises(FormatError, match="bad value"):
        parse_split_system(f"2\na b\na | b : {token}")


def test_unlimited_digits_read_long_values_exactly(digit_limit):
    wide = "7" * 5000
    texts = [f"2\na 0 {token}\nb {token} 0" for token in (wide, "1e5000")]
    splits = [f"2\na b\na | b : {token}\n" for token in (wide, "1e5000")]
    for text in texts:
        with pytest.raises(FormatError, match="bad value"):
            parse_distance_matrix(text)
    for text in splits:
        with pytest.raises(FormatError, match="bad value"):
            parse_split_system(text)
    sys.set_int_max_str_digits(0)  # no limit
    try:
        expected = [int(wide), 10**5000]
        assert [parse_distance_matrix(text)[0, 1] for text in texts] == expected
        weights = [w for text in splits for _, w in parse_split_system(text).items()]
        assert weights == expected
    finally:
        sys.set_int_max_str_digits(digit_limit)


# other decimal digits: Arabic-Indic, Devanagari, fullwidth
UNICODE_ZEROS = (0x660, 0x966, 0xFF10)
BAD_TOKENS = ("x", "1.2.3", "1/0", "--1", "1e", "3/", "1__0", "0x10")


def spell(value, rng, kinds):
    """One token for the value, in a randomly chosen spelling that fits it,
    recorded in ``kinds``."""
    num, den = value.numerator, value.denominator
    options = ["ratio", "plus"]
    if den == 1:
        options += ["int", "int", "zeros", "unicode", "exponent"]
        if num >= 10:
            options.append("underscore")
        if num == 0:
            options.append("negzero")
    if 10**6 % den == 0:
        options.append("decimal")
    kind = rng.choice(options)
    kinds[kind] += 1
    if kind == "int":
        return str(num)
    if kind == "zeros":
        return "0" * rng.randint(1, 3) + str(num)
    if kind == "unicode":
        zero = rng.choice(UNICODE_ZEROS)
        return "".join(chr(zero + int(d)) for d in str(num))
    if kind == "exponent":
        return f"{num * 10}e-1" if rng.random() < 0.5 else f"{num}e0"
    if kind == "underscore":
        text = str(num)
        return text[0] + "_" + text[1:]
    if kind == "negzero":
        return "-0"
    if kind == "plus":
        return "+" + (str(num) if den == 1 else f"{num}/{den}")
    if kind == "decimal":
        whole, rest = divmod(value * 10**6, 10**6)
        return f"{whole}.{int(rest):06d}".rstrip("0") + "0" * rng.randint(0, 1)
    k = rng.randint(1, 3)
    return f"{num * k}/{den * k}"


def random_matrix_text(rng, kinds, limit, mirrored):
    """A matrix file over mixed spellings; about half carry one fault.
    When ``mirrored``, each token (i, j), i > j, is spelled as (j, i), as
    format_distance_matrix writes it; the draws from ``rng`` are the same
    either way."""
    n = rng.randint(1, 6)
    values = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                v = Fraction(rng.choice([rng.randint(0, 40), rng.randint(1, 10**6)]))
            else:
                v = Fraction(rng.randint(0, 60), rng.choice([2, 3, 4, 5, 7, 8, 10, 125]))
            values[i][j] = values[j][i] = v
    tokens = [[spell(v, rng, kinds) for v in row] for row in values]
    if mirrored:
        for i in range(n):
            tokens[i][:i] = [tokens[j][i] for j in range(i)]
    labels = [f"x{i}" for i in range(n)]
    fault = rng.choice(["none"] * 6 + ["asymmetric", "negative", "diagonal", "bad",
                                       "count", "label", "long"])
    i, j = rng.randrange(n), rng.randrange(n)
    if fault == "asymmetric" and i != j:
        tokens[i][j] = str(values[i][j] + rng.randint(1, 3))
    elif fault == "negative":
        tokens[i][j] = tokens[j][i] = "-" + str(rng.randint(1, 9))
    elif fault == "diagonal":
        tokens[i][i] = rng.choice(["1", "1/2", "0.5"])
    elif fault == "bad":
        tokens[i][j] = rng.choice(BAD_TOKENS)
    elif fault == "count" and rng.random() < 0.5:
        tokens[i].append("0")
    elif fault == "count":
        tokens[i].pop()
    elif fault == "label":
        labels[i] = labels[j]
    elif fault == "long":
        # a plain integer with one digit more than int <-> str allows
        tokens[i][j] = "1" + "0" * limit
    kinds["fault " + fault] += 1
    body = "\n".join(f"{lab} {' '.join(row)}" for lab, row in zip(labels, tokens))
    return f"# seeded\n{n}\n{body}\n"


def rows_by_lower_spelling(text):
    """Rows i >= 1 of a matrix text, up to the first of the wrong length,
    counted as "mirrored" when their tokens (i, j), j < i, repeat the
    tokens (j, i) as written, as "spelled apart" otherwise."""
    lines = [line.split() for line in text.splitlines() if line and not line.startswith("#")]
    n = int(lines[0][0])
    rows = [tokens[1:] for tokens in lines[1:]]
    counts = Counter()
    for i, row in enumerate(rows):
        if len(row) != n:
            break
        if i:
            mirrored = row[:i] == [above[i] for above in rows[:i]]
            counts["mirrored" if mirrored else "spelled apart"] += 1
    return counts


def parse_outcome(parse, text):
    try:
        m = parse(text)
    except FormatError as exc:
        return ("error", str(exc))
    return ("matrix", m.ground, m.scale, m.comparison_rows())


def test_parse_matches_fraction_oracle(digit_limit):
    rng = random.Random(6060)
    kinds = Counter()
    results = Counter()
    rows = Counter()
    for trial in range(400):
        text = random_matrix_text(rng, kinds, digit_limit, mirrored=trial % 2 == 1)
        expected = parse_outcome(fraction_parse_distance_matrix, text)
        assert parse_outcome(parse_distance_matrix, text) == expected, text
        results[expected[0]] += 1
        rows += rows_by_lower_spelling(text)
    spellings = ("int", "zeros", "unicode", "ratio", "decimal", "exponent", "plus",
                 "underscore", "negzero")
    assert all(kinds[k] >= 20 for k in spellings), kinds
    faults = ("asymmetric", "negative", "diagonal", "bad", "count", "label", "long")
    assert all(kinds["fault " + k] >= 10 for k in faults), kinds
    assert results["matrix"] >= 150 and results["error"] >= 100, results
    assert rows["mirrored"] >= 300 and rows["spelled apart"] >= 300, rows


def test_split_parse_weight_defaults_to_one():
    system = parse_split_system("3\na b c\na | b,c\nb | a,c : 2")
    splits = list(system.splits)
    assert {str(s) for s in splits} == {"a | b,c", "a,c | b"}
    assert sorted(w for _, w in system.items()) == [1, 2]


@pytest.mark.parametrize(
    "text",
    [
        "3\na b",
        "3\na b c\na, | b,c",
        "3\na b c\na | b",
        "3\na b c\na,b | b,c",
        "3\na b c\na | b,c | d",
        "3\na b c\na | b,c : -1",
        "3\na b c\na | b,c\nb,c | a",
        "3\na b c\na | b,c : 0.5.1",
        "3\na b c\nd | b,c",
    ],
)
def test_split_parse_errors(text):
    with pytest.raises(FormatError):
        parse_split_system(text)


def test_split_parse_error_order():
    # a repeated label must not stand in for a missing one; the repeat
    # check runs last, so a line that failed an earlier check keeps its
    # message
    cases = {
        "a,a,z | c": "unknown label 'z' in split line 'a,a,z | c'",
        "a,a | a": "sides overlap in split line 'a,a | a'",
        "a,a | b,c": "sides do not cover all elements: 'a,a | b,c'",
        "a | b": "sides do not cover all elements: 'a | b'",
        "a,a | c": "repeated label in split line 'a,a | c'",
        # the repeated a carries onto b's bit, and still no sides overlap
        "a,a | b": "repeated label in split line 'a,a | b'",
        "a | c,c": "repeated label in split line 'a | c,c'",
        "b | a,c,c": "sides do not cover all elements: 'b | a,c,c'",
    }
    for line, message in cases.items():
        with pytest.raises(FormatError) as caught:
            parse_split_system(f"3\na b c\n{line}")
        assert str(caught.value) == message


SPLIT_FAULTS = ("empty", "unknown", "repeat", "overlap", "cover", "duplicate",
                "negative", "bad", "long", "pipes")


def random_split_text(rng, kinds, limit):
    """A split system file whose weights take mixed spellings and whose
    lines pad their separators about a third of the time; about half carry
    one fault on a random line."""
    n = rng.randint(2, 7)
    labels = [f"x{i}" for i in range(n)]
    lines = []
    # distinct splits, as the masks of their sides without element 0
    masks = rng.sample(range(1, 2 ** (n - 1)), min(rng.randint(1, 6), 2 ** (n - 1) - 1))
    for mask in masks:
        side = {e for e in range(n) if mask << 1 >> e & 1}
        if rng.random() < 0.5:
            side = set(range(n)) - side
        parts = [[labels[e] for e in range(n) if (e in side) == keep] for keep in (1, 0)]
        for part in parts:
            rng.shuffle(part)
        weight = ""
        if rng.random() < 0.8:
            value = Fraction(rng.randint(0, 30), rng.choice([1, 1, 2, 3, 4, 10]))
            weight = " : " + spell(value, rng, kinds)
        lines.append([parts, weight])
    fault = rng.choice(["none"] * 10 + list(SPLIT_FAULTS))
    kinds["fault " + fault] += 1
    parts, weight = line = rng.choice(lines)
    part, other = rng.sample(parts, 2)
    if fault == "empty":
        part.insert(rng.randint(0, len(part)), rng.choice(["", " "]))
    elif fault == "unknown":
        part.insert(rng.randint(0, len(part)), rng.choice(["zz", "x9", "X0"]))
    elif fault == "repeat":
        part.append(rng.choice(part))
        if rng.random() < 0.5 and len(other) > 1:
            other.pop()  # the count fits, only the repeat is wrong
    elif fault == "overlap":
        part.append(rng.choice(other))
    elif fault == "cover":
        part.pop(rng.randrange(len(part)))
    elif fault == "duplicate":
        dup = [[list(reversed(parts[1])), parts[0]], rng.choice(["", " : 5"])]
        lines.insert(rng.randint(lines.index(line) + 1, len(lines)), dup)
    elif fault == "negative":
        line[1] = " : -" + rng.choice(["1", "3/2", "0.5"])
    elif fault == "bad":
        line[1] = " : " + rng.choice(BAD_TOKENS + ("", "-"))
    elif fault == "long":
        line[1] = " : 1" + "0" * limit
    elif fault == "pipes":
        line[0] = parts + [rng.choice([[], ["x0"]])]
    body = []
    for parts, weight in lines:
        comma, pipe = ",", " | "
        if rng.random() < 0.3:
            kinds["padded"] += 1
            comma = rng.choice([", ", " , ", "\t,", ",\t"])
            pipe = rng.choice(["|", " |\t", "\t| "])
        body.append(pipe.join(comma.join(part) for part in parts) + weight)
    return f"# seeded\n{n}\n{' '.join(labels)}\n" + "\n".join(body) + "\n"


def split_outcome(parse, text):
    try:
        system = parse(text)
    except FormatError as exc:
        return ("error", str(exc))
    return ("system", system.ground, list(system.items()))


def test_split_parse_matches_label_oracle(digit_limit):
    rng = random.Random(7070)
    kinds = Counter()
    results = Counter()
    for _ in range(400):
        padded = kinds["padded"]
        text = random_split_text(rng, kinds, digit_limit)
        expected = split_outcome(parse_split_system_by_labels, text)
        assert split_outcome(parse_split_system, text) == expected, text
        results[expected[0]] += 1
        if kinds["padded"] > padded:
            results["padded " + expected[0]] += 1
    assert all(kinds["fault " + k] >= 10 for k in SPLIT_FAULTS), kinds
    assert all(kinds[k] >= 20 for k in ("int", "ratio", "decimal", "plus")), kinds
    assert results["system"] >= 150 and results["error"] >= 120, results
    assert results["padded system"] >= 50, results


def test_written_files_end_with_newline():
    m = parse_distance_matrix("1\nsolo 0")
    assert format_distance_matrix(m).endswith("0\n")
