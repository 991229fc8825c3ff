"""Randomized invariants over small instances."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from excheck import (
    NEG_INF,
    PriceVector,
    SetFunction,
    check_family,
    check_local,
    check_multiple_exchange,
    check_single_exchange,
    check_valuated_matroid,
    conjugate,
    effective_domain,
    find_exchange_set,
    shift_by_price,
    slice_pair,
)
from excheck.errors import EmptySliceError
from excheck.sets import iter_submasks

VALUES = st.sampled_from(
    [NEG_INF, Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]
)
RATIONALS = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 2), Fraction(3)]
)


@st.composite
def set_functions(draw, max_n=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    table = list(draw(st.lists(VALUES, min_size=1 << n, max_size=1 << n)))
    if not any(v is not NEG_INF for v in table):
        table[draw(st.integers(0, (1 << n) - 1))] = Fraction(0)
    return SetFunction(n, tuple(table))


@st.composite
def functions_with_xyi(draw, max_n=3):
    f = draw(set_functions(max_n=max_n))
    dom = f.dom_masks
    X = draw(st.sampled_from(dom))
    Y = draw(st.sampled_from(dom))
    candidates = list(iter_submasks(X & ~Y))
    I = draw(st.sampled_from(candidates))
    return f, X, Y, I


@st.composite
def prices(draw, n):
    return PriceVector(tuple(draw(st.lists(RATIONALS, min_size=n, max_size=n))))


@given(set_functions(), RATIONALS, RATIONALS)
@settings(max_examples=120, deadline=None)
def test_shift_composition(f, a, b):
    p = PriceVector((a,) * f.n)
    q = PriceVector((b,) * f.n)
    twice = shift_by_price(shift_by_price(f, p), q)
    once = shift_by_price(f, p + q)
    assert twice.table == once.table
    assert effective_domain(twice).members == effective_domain(f).members


@given(functions_with_xyi())
@settings(max_examples=200, deadline=None)
def test_slice_matches_direct_enumeration(fxyi):
    f, X, Y, I = fxyi
    direct = max(
        (f.table[(X & ~I) | J] + f.table[(Y & ~J) | I] for J in iter_submasks(Y & ~X)),
        default=NEG_INF,
    )
    try:
        sp = slice_pair(f, X, Y, I)
    except EmptySliceError:
        assert direct is NEG_INF or all(
            f.table[(Y & ~J) | I] is NEG_INF for J in iter_submasks(Y & ~X)
        )
        return
    k = len(sp.elements)
    sliced = max(sp.f1.table[m] + sp.f2.table[m] for m in range(1 << k))
    assert sliced == direct


@given(set_functions())
@settings(max_examples=150, deadline=None)
def test_exchange_axioms_are_equivalent(f):
    a = check_single_exchange(f).passed
    b = check_multiple_exchange(f).passed
    c = check_local(f).passed
    assert a == b == c


@given(set_functions())
@settings(max_examples=100, deadline=None)
def test_price_shift_keeps_verdict_and_witness(f):
    p = PriceVector((Fraction(3, 2),) * f.n)
    v0 = check_single_exchange(f)
    v1 = check_single_exchange(shift_by_price(f, p))
    assert v0.passed == v1.passed
    if not v0.passed:
        assert v0.witness.sets == v1.witness.sets
        assert v0.witness.elements == v1.witness.elements


@given(functions_with_xyi())
@settings(max_examples=150, deadline=None)
def test_weak_duality_random_q(fxyi):
    f, X, Y, I = fxyi
    try:
        sp = slice_pair(f, X, Y, I)
    except EmptySliceError:
        return
    k = len(sp.elements)
    primal = max(sp.f1.table[m] + sp.f2.table[m] for m in range(1 << k))
    for qv in (Fraction(0), Fraction(1, 2), Fraction(-2)):
        q = PriceVector((qv,) * k)
        assert conjugate(sp.f1, q) + conjugate(sp.f2, -q) >= primal


@given(set_functions())
@settings(max_examples=100, deadline=None)
def test_multi_exchange_projects_to_domain_family(f):
    if check_multiple_exchange(f).passed:
        assert check_family(effective_domain(f), "b-exc-m").passed


@given(set_functions())
@settings(max_examples=100, deadline=None)
def test_valuated_matroid_certificates_preserve_cardinality(f):
    if not check_valuated_matroid(f).passed:
        return
    dom = f.dom_masks
    for X in dom:
        for Y in dom:
            for I in iter_submasks(X & ~Y):
                cert = find_exchange_set(f, X, Y, I)
                assert cert is not None
                assert cert.j_set.bit_count() == I.bit_count()


@given(set_functions(max_n=3))
@settings(max_examples=60, deadline=None)
def test_checkers_are_deterministic(f):
    assert check_single_exchange(f) == check_single_exchange(f)
    assert check_local(f) == check_local(f)
