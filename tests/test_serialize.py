"""Rational formatting and JSON conversion."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbp.errors import ParseError
from cbp.serialize import format_rational, jsonable, parse_rational


def test_format_always_carries_denominator():
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert format_rational(0) == "0/1"
    assert format_rational(Fraction(22, 7)) == "22/7"


def test_parse_accepts_integers_and_whitespace():
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(" -3/6 ") == Fraction(-1, 2)


@pytest.mark.parametrize("bad", ["", "1/0", "x", "1/2/3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text, value",
    [("1e3", Fraction(1000)), ("-2.5e-3", Fraction(-1, 400)), ("3/7", Fraction(3, 7)), ("7", Fraction(7))],
)
def test_parse_accepts_exponents_and_fractions(text, value):
    assert parse_rational(text) == value


def test_parse_refuses_exponents_past_the_digit_limit():
    # 10**4300 is the largest power of ten built; past it Fraction would
    # spend seconds (1e10000000) or hang (1e999999999) on the power
    assert parse_rational("1e4300") == 10**4300
    assert parse_rational("1E-0004300") == Fraction(1, 10**4300)
    for bad in ("1e4301", "1e999999999", "-2.5E-999999999", "1e1_0000"):
        with pytest.raises(ParseError, match="bad rational"):
            parse_rational(bad)


@given(st.fractions(max_denominator=10**6))
def test_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_jsonable_nesting():
    value = {
        (0, 1): Fraction(1, 2),
        "rows": [((1, -1), Fraction(3))],
        "sets": frozenset({2, 0, 1}),
    }
    converted = jsonable(value)
    assert converted == {
        "(0, 1)": "1/2",
        "rows": [[[1, -1], "3/1"]],
        "sets": [0, 1, 2],
    }
    json.dumps(converted, sort_keys=True)
