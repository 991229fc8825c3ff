from fractions import Fraction

import pytest

from excheck import NEG_INF, InputError, is_finite, parse_rational
from excheck.values import NegInfinity, as_ext_value, ext_to_json, ext_to_str


def test_bottom_is_a_singleton():
    assert NegInfinity() is NEG_INF


def test_addition_absorbs():
    assert NEG_INF + Fraction(5) is NEG_INF
    assert Fraction(5) + NEG_INF is NEG_INF
    assert NEG_INF + NEG_INF is NEG_INF
    assert NEG_INF - Fraction(3) is NEG_INF


def test_ordering_conventions():
    assert NEG_INF <= NEG_INF
    assert not (NEG_INF < NEG_INF)
    assert NEG_INF < Fraction(-10**9)
    assert NEG_INF <= Fraction(0)
    assert Fraction(0) > NEG_INF
    assert not (Fraction(0) < NEG_INF)
    assert NEG_INF == NEG_INF
    assert NEG_INF != Fraction(0)


def test_empty_max_default():
    assert max([], default=NEG_INF) is NEG_INF
    assert max([NEG_INF, Fraction(1), NEG_INF]) == Fraction(1)


def test_no_positive_infinity():
    with pytest.raises(ArithmeticError):
        -NEG_INF
    with pytest.raises(ArithmeticError):
        Fraction(1) - NEG_INF


def test_parse_rational_canonical():
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational("6/4").denominator == 2
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational(" 7/1 ") == Fraction(7)


@pytest.mark.parametrize("bad", ["1.5", "x", "1/0", "3/2/1", "", "1e3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_as_ext_value_rejects_floats():
    with pytest.raises(InputError):
        as_ext_value(1.5)
    assert as_ext_value("-inf") is NEG_INF
    assert as_ext_value(3) == Fraction(3)
    assert not is_finite(NEG_INF)
    assert is_finite(Fraction(0))


def test_json_rendering():
    assert ext_to_json(Fraction(3)) == 3
    assert ext_to_json(Fraction(3, 2)) == "3/2"
    assert ext_to_json(NEG_INF) == "-inf"
    assert ext_to_str(Fraction(-5, 3)) == "-5/3"


@pytest.mark.parametrize("v, text", [
    (Fraction(0), "0"),
    (Fraction(3), "3"),
    (Fraction(-7), "-7"),
    (Fraction(3, 2), "3/2"),
    (Fraction(-5, 3), "-5/3"),
    (Fraction(2**70 + 1, 3), f"{2**70 + 1}/3"),
    (NEG_INF, "-inf"),
])
def test_text_rendering_is_the_json_rendering(v, text):
    assert ext_to_str(v) == text == str(ext_to_json(v))
