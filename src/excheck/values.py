"""Exact extended values: rationals plus a ``-inf`` bottom element.

All arithmetic is exact; floating point never enters a comparison.  The
bottom element follows the usual extended-valued conventions: it absorbs
addition, compares below every finite value, and ``-inf <= -inf`` holds.
A maximum over an empty collection is ``-inf`` (pass ``default=NEG_INF``
to :func:`max`).

The gates for arguments from outside the library live here, one per rule.
:func:`as_ext_value` admits an int, a ``Fraction``, a ``'p/q'`` string or
``-inf`` and refuses floats, bools, decimal strings and numpy scalars;
table entries go through it.  :func:`finite_value` applies the same rule
and then refuses ``-inf``, naming the argument in every message; prices,
radii, weights and every other finite argument go through it.
:func:`require_nonnegative_int` admits the integer counts and seeds.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "NEG_INF",
    "NegInfinity",
    "ExtValue",
    "is_finite",
    "as_ext_value",
    "finite_value",
    "require_nonnegative_int",
    "parse_rational",
    "ext_to_json",
    "ext_to_str",
]

from .errors import InputError


class NegInfinity:
    """Absorbing bottom element for extended-rational arithmetic."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "NegInfinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        if isinstance(other, (NegInfinity, Fraction, int)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        # -inf minus a finite value stays at the bottom; -inf - (-inf) is undefined
        if isinstance(other, (Fraction, int)):
            return self
        return NotImplemented

    def __rsub__(self, other):
        raise ArithmeticError("positive infinity is not representable")

    def __neg__(self):
        raise ArithmeticError("positive infinity is not representable")

    def __lt__(self, other):
        if isinstance(other, NegInfinity):
            return False
        if isinstance(other, (Fraction, int)):
            return True
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (NegInfinity, Fraction, int)):
            return True
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (NegInfinity, Fraction, int)):
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, NegInfinity):
            return True
        if isinstance(other, (Fraction, int)):
            return False
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, NegInfinity)

    def __ne__(self, other):
        return not isinstance(other, NegInfinity)

    def __hash__(self):
        return hash("-inf")

    def __repr__(self):
        return "-inf"


NEG_INF = NegInfinity()

ExtValue = Fraction | NegInfinity

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def is_finite(v: ExtValue) -> bool:
    return not isinstance(v, NegInfinity)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal: an integer or a ``p/q`` string.

    Decimal notation is rejected so values never pass through floats.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not an exact rational (use an integer or 'p/q'): {text!r}")
    try:
        if "/" not in s:
            return Fraction(int(s))
        num, den = map(int, s.split("/"))
    except ValueError:  # past the interpreter's limit on the digits of an int
        raise InputError(f"too many digits for an exact rational ({len(s)} characters)") from None
    if den == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def as_ext_value(x) -> ExtValue:
    """Normalize an input to an exact extended value; floats are rejected."""
    if isinstance(x, NegInfinity):
        return NEG_INF
    if isinstance(x, bool):
        raise InputError(f"boolean is not a value: {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if x.strip() in ("-inf", "-infinity"):
            return NEG_INF
        return parse_rational(x)
    if isinstance(x, float):
        raise InputError("floating point values are rejected; use an exact 'p/q' string")
    raise InputError(f"unsupported value: {x!r}")


def finite_value(x, name: str) -> Fraction:
    """Normalize the argument ``name`` to an exact finite rational: the rule
    of :func:`as_ext_value`, and ``-inf`` is refused too."""
    try:
        v = as_ext_value(x)
    except InputError as e:
        raise InputError(f"{name}: {e}") from None
    if not is_finite(v):
        raise InputError(f"{name} must be finite, got {x!r}")
    return v


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}")


def require_nonnegative_int(name: str, value) -> None:
    """Refuse ``value`` with :class:`InputError` unless it is an integer
    (not a bool) of at least zero.  Seeds pass this test: ``Random(-k)`` is
    seeded as ``Random(k)``, so a negative seed would replay another
    seed's draws."""
    _require_int(name, value)
    if value < 0:
        raise InputError(f"{name} must be nonnegative")


def ext_to_json(v: ExtValue):
    """Render a value for JSON output: int, 'p/q' string, or '-inf'."""
    if isinstance(v, NegInfinity):
        return "-inf"
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def ext_to_str(v: ExtValue) -> str:
    """Render a value as text: the JSON rendering, as a string."""
    return str(ext_to_json(v))
