"""Differential tests of the one-item and multi-item exchange kernels.

The vectorized int64 route and the exact loop route are called directly on
the same sentinel table; the verdicts built from their hits, witnesses
included, must be equal.  Family scans are compared against the plain
membership scans kept below as the oracles.
"""

from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from excheck import (
    NEG_INF,
    InternalCheckError,
    SetFamily,
    SetFunction,
    Verdict,
    Witness,
    check_family,
    check_local,
    check_multiple_exchange,
    check_single_exchange,
    check_valuated_matroid,
    find_exchange_set,
    with_value,
)
from excheck._fast import IntTable
from excheck.checkers import (
    _FIRST_CHUNK_CELLS,
    _VECTOR_MIN_CELLS,
    _family_multi_witness,
    _family_pm_witness,
    _family_witness,
    _fits_int64,
    _multiple_exchange_verdict,
    _scan_exchange_np,
    _scan_exchange_py,
    _scan_multi_np,
    _scan_multi_py,
    _single_exchange_verdict,
    _valuated_matroid_verdict,
)
from excheck.sets import iter_submasks
from excheck.values import is_finite


def _scan_b_exc(members, ms):
    """Membership form of the b-exc scan, in the canonical (X, Y, i) order."""
    for X in ms:
        for Y in ms:
            xd = X & ~Y
            while xd:
                ib = xd & -xd
                xd ^= ib
                if (X ^ ib) in members and (Y | ib) in members:
                    continue
                ok = False
                yd = Y & ~X
                while yd:
                    jb = yd & -yd
                    yd ^= jb
                    if ((X ^ ib) | jb) in members and ((Y | ib) ^ jb) in members:
                        ok = True
                        break
                if not ok:
                    return (X, Y, ib)
    return None


def _scan_b_exc_m(members, ms):
    """Membership form of the b-exc-m scan, in the canonical (X, Y, I) order."""
    for X in ms:
        for Y in ms:
            xd = X & ~Y
            if not xd:
                continue
            yd = Y & ~X
            for I in iter_submasks(xd):
                if not I:
                    continue
                xmi = X ^ I
                found = False
                for J in iter_submasks(yd):
                    if (xmi | J) in members and ((Y & ~J) | I) in members:
                        found = True
                        break
                if not found:
                    return (X, Y, I)
    return None


def _scan_b_exc_pm(members, ms):
    """Membership form of the b-exc-pm scan: (X, Y, i), clause a before b."""
    for X in ms:
        for Y in ms:
            xd = X & ~Y
            while xd:
                ib = xd & -xd
                xd ^= ib
                yd0 = Y & ~X
                if (X ^ ib) not in members:
                    ok = False
                    yd = yd0
                    while yd:
                        jb = yd & -yd
                        yd ^= jb
                        if ((X ^ ib) | jb) in members:
                            ok = True
                            break
                    if not ok:
                        return (X, Y, ib, "a")
                if (Y | ib) not in members:
                    ok = False
                    yd = yd0
                    while yd:
                        kb = yd & -yd
                        yd ^= kb
                        if ((Y | ib) ^ kb) in members:
                            ok = True
                            break
                    if not ok:
                        return (X, Y, ib, "b")
    return None


def _oracle_family_verdict(family: SetFamily, condition: str = "bnat-exc") -> Verdict:
    """The verdict of the membership oracle for ``condition``: ``bnat-exc``
    (or ``local:domain``), ``bnat-exc-m`` or ``bnat-exc-pm``."""
    members, ms = family.members, family.sorted_members
    if condition == "bnat-exc-m":
        hit = _scan_b_exc_m(members, ms)
        if hit is None:
            return Verdict(True)
        X, Y, I = hit
        return Verdict(False, Witness(condition, sets=(("X", X), ("Y", Y), ("I", I))))
    if condition == "bnat-exc-pm":
        hit = _scan_b_exc_pm(members, ms)
        if hit is None:
            return Verdict(True)
        X, Y, ib, clause = hit
        condition = f"bnat-exc-pm:{clause}"
    else:
        hit = _scan_b_exc(members, ms)
        if hit is None:
            return Verdict(True)
        X, Y, ib = hit
    return Verdict(
        False, Witness(condition, sets=(("X", X), ("Y", Y)), elements=(("i", ib.bit_length()),))
    )


def _multi_routes(s, dom):
    py = _scan_multi_py(s, dom, dom)
    vec = _scan_multi_np(np.array(s, dtype=np.int64), np.array(dom, dtype=np.int64), dom)
    return py, vec


def _assert_multi_routes_agree(f: SetFunction):
    t = IntTable(f)
    py, vec = _multi_routes(t.sent, t.dom)
    assert _multiple_exchange_verdict(f, py) == _multiple_exchange_verdict(f, vec)
    return py


def _both_routes(s, dom, neg, floor):
    py = _scan_exchange_py(s, dom, dom, floor)
    vec = _scan_exchange_np(np.array(s, dtype=np.int64), np.array(dom, dtype=np.int64), dom,
                            neg, floor)
    return py, vec


def _assert_routes_agree(f: SetFunction, valuated: bool = False):
    t = IntTable(f)
    floor = 2 * t.neg - 1 if valuated else None
    py, vec = _both_routes(t.sent, t.dom, t.neg, floor)
    verdict = _valuated_matroid_verdict if valuated else _single_exchange_verdict
    assert verdict(f, py) == verdict(f, vec)
    return py


def _scaled(f: SetFunction, c: int) -> SetFunction:
    return SetFunction(f.n, tuple(v * c if is_finite(v) else NEG_INF for v in f.table))


# ----------------------------------------------------------------------
# exhaustive small universes


def test_n3_universe_both_routes():
    levels = (NEG_INF, Fraction(0), Fraction(1))
    seen = failing = 0
    for tab in product(levels, repeat=8):
        if all(v is NEG_INF for v in tab):
            continue
        f = SetFunction(3, tab)
        failing += _assert_routes_agree(f) is not None
        _assert_routes_agree(f, valuated=True)
        seen += 1
    assert seen == 6560
    assert 0 < failing < seen


def test_n3_universe_multi_routes():
    levels = (NEG_INF, Fraction(0), Fraction(1))
    failing = 0
    for tab in product(levels, repeat=8):
        if any(v is not NEG_INF for v in tab):
            failing += _assert_multi_routes_agree(SetFunction(3, tab)) is not None
    assert 0 < failing < 6560


def test_n3_families_against_oracle():
    for bits in range(1, 256):
        fam = SetFamily(3, frozenset(m for m in range(8) if bits >> m & 1))
        oracle = _oracle_family_verdict(fam)
        assert check_family(fam, "b-exc") == oracle
        delta = [0 if m in fam.members else -1 for m in range(8)]
        py, vec = _both_routes(delta, fam.sorted_members, -1, None)
        assert py == vec
        want = None if oracle.passed else (oracle.witness.set_mask("X"),
                                           oracle.witness.set_mask("Y"),
                                           1 << oracle.witness.element("i") - 1)
        assert py == want

        oracle_m = _oracle_family_verdict(fam, "bnat-exc-m")
        assert check_family(fam, "b-exc-m") == oracle_m
        py, vec = _multi_routes(delta, fam.sorted_members)
        want = None if oracle_m.passed else tuple(mask for _, mask in oracle_m.witness.sets)
        assert py == vec == want
        assert check_family(fam, "b-exc-pm") == _oracle_family_verdict(fam, "bnat-exc-pm")


# ----------------------------------------------------------------------
# randomized tables up to n = 6

RATIONALS = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)]
)


@st.composite
def near_concave(draw, max_n=6):
    """g(|S|) plus weights on a cardinality band, then a few entries changed.

    The unchanged function is M-natural concave, so scans run deep before a
    changed entry (a value or a -inf hole) stops them.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    incs = sorted(draw(st.lists(RATIONALS, min_size=n, max_size=n)), reverse=True)
    g = [Fraction(0)]
    for d in incs:
        g.append(g[-1] + d)
    w = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    tab = []
    for m in range(1 << n):
        k = m.bit_count()
        if lo <= k <= hi:
            tab.append(g[k] + sum(w[e] for e in range(n) if m >> e & 1))
        else:
            tab.append(NEG_INF)
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.integers(0, (1 << n) - 1))
        tab[m] = draw(st.one_of(st.just(NEG_INF), RATIONALS))
    if not any(is_finite(v) for v in tab):
        tab[0] = Fraction(0)
    return SetFunction(n, tuple(tab))


@st.composite
def near_valuated_matroid(draw, max_n=6):
    """Weighted uniform matroid on the k-sets, then a few entries changed."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(1, n - 1))
    w = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    tab = [
        sum((w[e] for e in range(n) if m >> e & 1), Fraction(0)) if m.bit_count() == k
        else NEG_INF
        for m in range(1 << n)
    ]
    ksets = [m for m in range(1 << n) if m.bit_count() == k]
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.sampled_from(ksets))
        tab[m] = draw(st.one_of(st.just(NEG_INF), RATIONALS))
    if not any(is_finite(v) for v in tab):
        tab[ksets[0]] = Fraction(0)
    return SetFunction(n, tuple(tab))


@given(near_concave())
@settings(max_examples=150, deadline=None)
def test_single_exchange_routes_agree(f):
    _assert_routes_agree(f)


@given(st.one_of(near_concave(), near_valuated_matroid()))
@settings(max_examples=150, deadline=None)
def test_multi_exchange_routes_agree(f):
    hit = _assert_multi_routes_agree(f)
    t = IntTable(f)
    if len(t.dom) ** 2 >= _VECTOR_MIN_CELLS:
        assert check_multiple_exchange(f) == _multiple_exchange_verdict(f, hit)


@given(near_valuated_matroid())
@settings(max_examples=100, deadline=None)
def test_valuated_matroid_routes_agree(f):
    _assert_routes_agree(f, valuated=True)
    # the public check agrees with the loop route
    t = IntTable(f)
    if len({m.bit_count() for m in t.dom}) == 1:
        hit = _scan_exchange_py(t.sent, t.dom, t.dom, 2 * t.neg - 1)
        assert check_valuated_matroid(f) == _valuated_matroid_verdict(f, hit)


@given(near_concave())
@settings(max_examples=100, deadline=None)
def test_local_domain_check_against_oracle(f):
    dom = SetFamily(f.n, frozenset(f.dom_masks))
    oracle = _oracle_family_verdict(dom, "local:domain")
    v = check_local(f)
    if oracle.passed:
        assert v.passed or v.witness.condition != "local:domain"
    else:
        assert v == oracle
    assert check_family(dom, "b-exc") == _oracle_family_verdict(dom)


@given(st.integers(4, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_larger_families_against_oracle(n, data):
    k = data.draw(st.integers(1, n - 1))
    members = {m for m in range(1 << n) if m.bit_count() in (k, k + 1)}
    for _ in range(data.draw(st.integers(0, 3))):
        members ^= {data.draw(st.integers(0, (1 << n) - 1))}
    if not members:
        members = {0}
    fam = SetFamily(n, frozenset(members))
    assert check_family(fam, "b-exc") == _oracle_family_verdict(fam)
    assert check_family(fam, "b-exc-m") == _oracle_family_verdict(fam, "bnat-exc-m")
    assert check_family(fam, "b-exc-pm") == _oracle_family_verdict(fam, "bnat-exc-pm")


# ----------------------------------------------------------------------
# several chunks of X rows, and the thread split


@pytest.mark.parametrize("raised", [0b1, 0b11000000, 0b10110101, 0b11111110])
def test_chunked_scan_matches_loops(raised):
    n = 8
    f = SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), 4)))
    g = with_value(f, raised, f.table[raised] + 1)
    assert len(IntTable(g).dom) ** 2 >= 1 << 16  # several chunks
    hit = _assert_routes_agree(g)
    assert hit is not None
    assert check_single_exchange(g) == _single_exchange_verdict(g, hit)
    assert check_single_exchange(g, threads=3) == check_single_exchange(g)


def test_multi_hit_in_a_later_chunk_after_deep_levels():
    # min(|S|, 4) on n = 8 with f({1..5, 8}) raised by one: the first
    # violation lies in the fourth chunk of X rows and every J inside
    # Y\X, up to |J| = 4, must fail before it is reported; earlier tuples
    # of its chunk are repaired only by a J with |J| = 2
    n = 8
    f = SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), 4)))
    g = with_value(f, 0b10011111, Fraction(5))
    hit = _assert_multi_routes_agree(g)
    X, Y, I = hit
    assert (X, Y, I) == (0b1100011, 0b10011111, 0b100000)
    assert X >= 3 * _FIRST_CHUNK_CELLS // (1 << n)  # past the first chunks
    assert (Y & ~X).bit_count() == 4
    assert find_exchange_set(g, 0b1100000, 0b1111, 0b1100000).j_set.bit_count() == 2
    v = check_multiple_exchange(g)
    assert v == _multiple_exchange_verdict(g, hit)
    assert check_multiple_exchange(g, threads=3) == v


# ----------------------------------------------------------------------
# the big-integer route

C = 2**70


def _rank(n, r):
    return SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), r)))


def _uniform_weighted(n, k, w):
    return SetFunction.from_callable(
        n, lambda m: Fraction(sum(w[e] for e in range(n) if m >> e & 1)) if m.bit_count() == k
        else NEG_INF,
    )


W8 = (0, 1, 2, 3, 5, 8, 13, 21)
CASES = [
    (check_single_exchange, _rank(6, 3)),
    (check_single_exchange, with_value(_rank(6, 3), 0b101100, Fraction(4))),
    (check_single_exchange, with_value(_rank(5, 2), 0b11, Fraction(1, 2))),
    (check_single_exchange, SetFunction.from_callable(6, lambda m: Fraction(m.bit_count() ** 2))),
    (check_valuated_matroid, _uniform_weighted(8, 4, W8)),
    (check_valuated_matroid, with_value(_uniform_weighted(8, 4, W8), 0b10111000, Fraction(60))),
    (check_multiple_exchange, _rank(6, 3)),
    (check_multiple_exchange, with_value(_rank(6, 3), 0b101100, Fraction(4))),
    (check_multiple_exchange, with_value(_rank(5, 2), 0b11, Fraction(1, 2))),
    (check_multiple_exchange, _uniform_weighted(7, 3, W8[:7])),
    (check_multiple_exchange, with_value(_uniform_weighted(7, 3, W8[:7]), 0b1110000, Fraction(40))),
]


@pytest.mark.parametrize("check,f", CASES)
def test_scaled_table_takes_big_int_route(check, f):
    t, tc = IntTable(f), IntTable(_scaled(f, C))
    assert len(t.dom) ** 2 >= _VECTOR_MIN_CELLS
    assert _fits_int64(t.neg, t.lo, t.hi)
    assert not _fits_int64(tc.neg, tc.lo, tc.hi)
    v, vc = check(f), check(_scaled(f, C))
    assert v.passed == vc.passed
    if not v.passed:
        w, wc = v.witness, vc.witness
        assert (w.condition, w.sets, w.elements) == (wc.condition, wc.sets, wc.elements)
        assert wc.lhs == w.lhs * C
        assert wc.rhs == (w.rhs * C if is_finite(w.rhs) else NEG_INF)


def test_some_scaled_cases_fail():
    assert sum(not check(f).passed for check, f in CASES) >= 5


# ----------------------------------------------------------------------
# hits are re-checked against the raw table


def test_recheck_rejects_a_non_violation(rank2):
    with pytest.raises(InternalCheckError):
        _single_exchange_verdict(rank2, (0b011, 0b100, 0b001))
    with pytest.raises(InternalCheckError):
        _valuated_matroid_verdict(rank2, (0b011, 0b100, 0b001))
    bases = SetFamily(3, frozenset({0b011, 0b101, 0b110}))
    with pytest.raises(InternalCheckError):
        _family_witness("bnat-exc", bases.members, 0b011, 0b110, 0b001)
    with pytest.raises(InternalCheckError):
        _multiple_exchange_verdict(rank2, (0b011, 0b100, 0b011))
    with pytest.raises(InternalCheckError):
        _family_multi_witness(bases, 0b011, 0b110, 0b001)
    for clause in "ab":
        with pytest.raises(InternalCheckError):
            _family_pm_witness(bases.members, 0b011, 0b110, 0b001, clause)


def test_recheck_accepts_a_violation(comp):
    v = _multiple_exchange_verdict(comp, (0b11, 0b00, 0b01))
    assert (v.witness.lhs, v.witness.rhs) == (3, 2)
    fam = SetFamily(3, frozenset({0b011, 0b100}))
    assert _family_multi_witness(fam, 0b011, 0b100, 0b001).condition == "bnat-exc-m"
    assert _family_pm_witness(fam.members, 0b011, 0b100, 0b001, "a").condition == "bnat-exc-pm:a"
