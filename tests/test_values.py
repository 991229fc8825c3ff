from fractions import Fraction

import numpy as np
import pytest

from excheck import (
    NEG_INF,
    InputError,
    MatroidSpec,
    PriceSampler,
    PriceVector,
    big_m_vectors,
    fenchel_gap,
    gen_modular_plus_concave,
    is_finite,
    mutate,
    parse_rational,
)
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


# ----------------------------------------------------------------------
# one gate for every finite argument

# (argument name, call of the entry point on rank2 with the argument x, a good x)
_FINITE_ARGUMENTS = [
    ("prices", lambda f, x: PriceVector((1, x)), 2),
    ("grid_step", lambda f, x: PriceSampler(seed=1, grid_step=x), 2),
    ("radius", lambda f, x: PriceSampler(seed=1, radius=x), 2),
    ("box_radius", lambda f, x: fenchel_gap(f, 0b011, 0b100, 0b001, box_radius=x), 2),
    ("m_value", lambda f, x: big_m_vectors(f, 0b011, 0b100, 0b001, PriceVector((0,)), m_value=x),
     20),
    ("weights", lambda f, x: MatroidSpec.uniform(2, 3, weights=(0, x, 1)), 2),
    ("g_seq", lambda f, x: gen_modular_plus_concave(PriceVector.zeros(2), (0, x, x)), 2),
    ("magnitude", lambda f, x: mutate(f, 0, x), 2),
]


@pytest.mark.parametrize("bad", [0.5, True, "0.5", "-inf", np.int64(1), np.float64(0.5)],
                         ids=["float", "bool", "decimal", "-inf", "np.int64", "np.float64"])
@pytest.mark.parametrize("name, call, good", _FINITE_ARGUMENTS,
                         ids=[a[0] for a in _FINITE_ARGUMENTS])
def test_finite_arguments_pass_one_gate(rank2, name, call, good, bad):
    # an exact finite rational is an int, a Fraction or a 'p/q' string, at
    # every entry point; whatever else raises, naming the argument
    with pytest.raises(InputError, match=name):
        call(rank2, bad)
    assert call(rank2, good) == call(rank2, Fraction(good)) == call(rank2, f"{2 * good}/2")
