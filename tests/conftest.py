"""Shared instances used across the suite.

rank2: n=3, value min(|S|, 2) everywhere (a rank function; passes all
    discrete-concavity checks; maximizers are the sets with >= 2 elements).
wmat: n=3, additive weights (0, 1, 2) on the two-element subsets, -inf
    elsewhere (a valuated matroid on the uniform matroid U(2,3)).
comp: n=2 with values 0, 1, 1, 3: the two goods are complements, so every
    substitutes-side condition fails.
reference_fields: the fields of a function's integer table, rescaled mask
    by mask from its rational table (the oracle of ``SetFunction.ints``).
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from excheck import MatroidSpec, SetFunction, gen_weighted_matroid
from excheck._fast import int_dtype
from excheck.values import is_finite


@pytest.fixture(scope="session")
def rank2() -> SetFunction:
    return SetFunction.from_callable(3, lambda m: Fraction(min(m.bit_count(), 2)))


@pytest.fixture(scope="session")
def wmat() -> SetFunction:
    return gen_weighted_matroid(MatroidSpec.uniform(2, 3, weights=(0, 1, 2)))


@pytest.fixture(scope="session")
def comp() -> SetFunction:
    return SetFunction(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(3)))


@pytest.fixture(scope="session")
def k4() -> MatroidSpec:
    return MatroidSpec.graphic([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def _reference_fields(f: SetFunction) -> tuple:
    """(n, scale, lo, hi, neg, sent dtype, sent, dom dtype, dom) of f's
    integer table, each mask rescaled on its own from the rational table;
    shares no code with the table's build by value codes."""
    dom = [m for m, v in enumerate(f.table) if is_finite(v)]
    scale = lcm(*(f.table[m].denominator for m in dom))
    nums = {m: f.table[m].numerator * (scale // f.table[m].denominator) for m in dom}
    lo, hi = min(nums.values()), max(nums.values())
    neg = lo - 2 * (hi - lo) - 1
    sent = [nums.get(m, neg) for m in range(1 << f.n)]
    return (f.n, scale, lo, hi, neg, np.dtype(int_dtype(neg, lo, hi)), sent, np.dtype(np.int64),
            dom)


@pytest.fixture(scope="session")
def reference_fields():
    return _reference_fields
