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
    parse_distance_matrix,
    parse_split_system,
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


@given(split_systems(weights=rationals()))
def test_split_system_round_trip(system):
    assert parse_split_system(format_split_system(system)) == system


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


def test_values_too_long_to_print_are_refused(digit_limit):
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


def test_written_files_end_with_newline():
    m = parse_distance_matrix("1\nsolo 0")
    assert format_distance_matrix(m).endswith("0\n")
