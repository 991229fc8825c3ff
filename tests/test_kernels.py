"""Differential tests of the exchange kernels, the demand kernel and the
dual box sweep.

The array kernels, on int64 and on object tables, and the loop scans kept
below as their oracles are called directly on the same sentinel table;
the verdicts built from their hits, witnesses included, must be equal.
Family scans are compared against the plain membership scans kept below
as the oracles.  The sampled GS/SI/NC sweeps are compared against
per-price loops over the integer table, with the price streams drawn the
way those loops drew them, one ``randint`` or ``random()`` call at a
time; the sweeps' price blocks are compared against those streams.  The
subset-DP dual sweep, on int64 and on object arrays, is compared against
the per-item grid sweep and the point-by-point loop kept below.  The
rational exchange searches on family indicators are compared against
membership searches.
"""

from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import floor, lcm
from operator import and_, or_
from random import Random
from time import perf_counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from excheck import (
    NEG_INF,
    EmptySliceError,
    InputError,
    InternalCheckError,
    MatroidSpec,
    PriceSampler,
    PriceVector,
    SetFamily,
    SetFunction,
    Verdict,
    Witness,
    check_family,
    check_gs_at,
    check_gs_sampled,
    check_local,
    check_multiple_exchange,
    check_nc_at,
    check_nc_sampled,
    check_si_at,
    check_si_sampled,
    check_single_exchange,
    check_valuated_matroid,
    conjugate,
    demand,
    econ,
    fenchel_gap,
    find_base_exchange,
    find_exchange_set,
    gen_weighted_matroid,
    maximizer_exchange,
    shift_by_price,
    slice_pair,
    with_value,
)
from excheck._fast import IntTable, fits_int64
from excheck.checkers import (
    _FIRST_CHUNK_CELLS,
    _best_exchange_rhs,
    _family_multi_witness,
    _family_pm_witness,
    _family_witness,
    _local_families,
    _local_hit,
    _LocalFamily,
    _multiple_exchange_verdict,
    _scan_exchange_np,
    _scan_multi_np,
    _single_exchange_verdict,
    _valuated_matroid_verdict,
)
from excheck import checkers, duality
from excheck.duality import _dual_sweep
from excheck.econ import (
    _DemandKernel,
    _fixed_price_mask,
    _gs_violating_bundle,
    _nc_violation,
    _price_sweep,
)
from excheck.fileio import obj_to_set_function, set_function_to_obj
from excheck.sets import iter_bits, iter_submasks
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


def _scan_exchange_py(s, dom, floor):
    """Loop form of the one-item scan on a sentinel table ``s`` (a list),
    exact for integers of any size: the oracle of the array kernel."""
    for X in dom:
        fx = s[X]
        for Y in dom:
            lhs = fx + s[Y]
            xd = X & ~Y
            while xd:
                ib = xd & -xd
                xd ^= ib
                xi = X ^ ib
                yi = Y | ib
                best = s[xi] + s[yi] if floor is None else floor
                if lhs > best:
                    yd = Y & ~X
                    while yd:
                        jb = yd & -yd
                        yd ^= jb
                        cand = s[xi | jb] + s[yi ^ jb]
                        if cand > best:
                            best = cand
                            if lhs <= best:
                                break
                    if lhs > best:
                        return (X, Y, ib)
    return None


def _scan_multi_py(s, dom):
    """Loop form of the multi-item scan, exact for integers of any size:
    the oracle of the array kernel."""
    for X in dom:
        fx = s[X]
        for Y in dom:
            xd = X & ~Y
            if not xd:
                continue
            lhs = fx + s[Y]
            yd = Y & ~X
            for I in iter_submasks(xd):
                if not I:
                    continue  # J = empty reproduces (X, Y)
                xmi = X ^ I
                yi = Y | I
                for J in iter_submasks(yd):
                    if s[xmi | J] + s[yi ^ J] >= lhs:
                        break
                else:
                    return (X, Y, I)
    return None


def _multi_routes(t: IntTable):
    """The hits of the loop oracle and of the array kernel on one table."""
    return _scan_multi_py(t.sent.tolist(), t.dom.tolist()), _scan_multi_np(t.sent, t.dom, t.dom)


def _assert_multi_routes_agree(f: SetFunction):
    py, vec = _multi_routes(IntTable(f))
    assert _multiple_exchange_verdict(f, py) == _multiple_exchange_verdict(f, vec)
    return py


def _both_routes(t: IntTable, floor):
    """The hits of the one-item loop oracle and of the array kernel on one table."""
    return (_scan_exchange_py(t.sent.tolist(), t.dom.tolist(), floor),
            _scan_exchange_np(t.sent, t.dom, t.dom, t.neg, floor))


def _assert_routes_agree(f: SetFunction, valuated: bool = False):
    t = IntTable(f)
    floor = 2 * t.neg - 1 if valuated else None
    py, vec = _both_routes(t, floor)
    verdict = _valuated_matroid_verdict if valuated else _single_exchange_verdict
    assert verdict(f, py) == verdict(f, vec)
    return py


# past the int64 guard: a table scaled or shifted by C is an object array
C = 2**70


def _scaled(f: SetFunction, c: int) -> SetFunction:
    return SetFunction(f.n, tuple(v * c if is_finite(v) else NEG_INF for v in f.table))


def _shifted(f: SetFunction, c: int) -> SetFunction:
    """f + c on the domain: with two terms on each side of every inequality
    checked here, verdicts and witness sets stay; c = C takes the object
    route."""
    g = SetFunction(f.n, tuple(v + c if is_finite(v) else NEG_INF for v in f.table))
    assert (g.ints.sent.dtype == object) == (c == C)
    return g


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
        py, vec = _both_routes(fam.indicator.ints, None)
        assert py == vec
        want = None if oracle.passed else (oracle.witness.set_mask("X"),
                                           oracle.witness.set_mask("Y"),
                                           1 << oracle.witness.element("i") - 1)
        assert py == want

        oracle_m = _oracle_family_verdict(fam, "bnat-exc-m")
        assert check_family(fam, "b-exc-m") == oracle_m
        py, vec = _multi_routes(fam.indicator.ints)
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


@given(near_concave(), st.sampled_from([0, C]))
@settings(max_examples=150, deadline=None)
def test_single_exchange_routes_agree(f, c):
    f = _shifted(f, c)
    hit = _assert_routes_agree(f)
    assert check_single_exchange(f) == _single_exchange_verdict(f, hit)


@given(st.one_of(near_concave(), near_valuated_matroid()), st.sampled_from([0, C]))
@settings(max_examples=150, deadline=None)
def test_multi_exchange_routes_agree(f, c):
    f = _shifted(f, c)
    hit = _assert_multi_routes_agree(f)
    assert check_multiple_exchange(f) == _multiple_exchange_verdict(f, hit)


@given(near_valuated_matroid(), st.sampled_from([0, C]))
@settings(max_examples=100, deadline=None)
def test_valuated_matroid_routes_agree(f, c):
    f = _shifted(f, c)
    hit = _assert_routes_agree(f, valuated=True)
    # the public check agrees with the loop oracle
    if len({m.bit_count() for m in f.dom_masks}) == 1:
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


@st.composite
def near_box(draw, max_n=5):
    """Values on every set between A and B, then a few sets toggled in or
    out of the domain; with none toggled the domain is a box."""
    n = draw(st.integers(1, max_n))
    low = draw(st.integers(0, (1 << n) - 1))
    high = low | draw(st.integers(0, (1 << n) - 1))
    dom = {m for m in range(1 << n) if m & low == low and m | high == high}
    for _ in range(draw(st.integers(0, 2))):
        dom ^= {draw(st.integers(0, (1 << n) - 1))}
    dom = dom or {low}
    return SetFunction(n, tuple(draw(RATIONALS) if m in dom else NEG_INF for m in range(1 << n)))


@given(near_box())
@settings(max_examples=150, deadline=None)
def test_local_domain_on_boxes_against_oracle(f):
    dom = SetFamily(f.n, frozenset(f.dom_masks))
    oracle = _oracle_family_verdict(dom, "local:domain")
    low, high = reduce(and_, dom.members), reduce(or_, dom.members)
    if len(dom.members) == 1 << (high & ~low).bit_count():
        assert oracle.passed
    v = check_local(f)
    if oracle.passed:
        assert v.passed or v.witness.condition != "local:domain"
    else:
        assert v == oracle


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


def _oracle_exchange_j(members, X, Y, I):
    """The least J inside Y\\X by (|J|, mask) with (X\\I)uJ and (Y\\J)uI members."""
    yd = Y & ~X
    for J in sorted((J for J in range(yd + 1) if not J & ~yd), key=lambda J: (J.bit_count(), J)):
        if ((X ^ I) | J) in members and ((Y & ~J) | I) in members:
            return J
    return None


@given(st.integers(1, 6), st.data())
@settings(max_examples=50, deadline=None)
def test_indicator_exchange_search_against_membership(n, data):
    members = data.draw(st.frozensets(st.integers(0, (1 << n) - 1), min_size=1))
    fam = SetFamily(n, members)
    # a function whose maximizers are exactly the members
    top = data.draw(st.fractions(-5, 5, max_denominator=4))
    below = st.one_of(st.just(NEG_INF), st.integers(-9, -1).map(top.__add__))
    rest = data.draw(st.lists(below, min_size=1 << n, max_size=1 << n))
    f = SetFunction(n, tuple(top if m in members else rest[m] for m in range(1 << n)))
    assert f.argmax_family.members == members
    ms = sorted(members)
    for _ in range(6):
        X = data.draw(st.sampled_from(ms))
        Y = data.draw(st.sampled_from(ms))
        I = data.draw(st.sampled_from(list(iter_submasks(X & ~Y))))
        expected = _oracle_exchange_j(members, X, Y, I)
        assert find_base_exchange(fam, X, Y, I) == expected
        assert maximizer_exchange(f, X, Y, I) == expected
    outside = [m for m in range(1 << n) if m not in members]
    if outside:
        with pytest.raises(InputError, match="is not a member of the family"):
            find_base_exchange(fam, ms[0], outside[0], 0)
        with pytest.raises(InputError, match="does not maximize the function"):
            maximizer_exchange(f, outside[0], ms[0], 0)


# ----------------------------------------------------------------------
# several chunks of X rows


@pytest.mark.parametrize("raised", [0b1, 0b11000000, 0b10110101, 0b11111110])
def test_chunked_scan_matches_loops(raised):
    n = 8
    f = SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), 4)))
    g = with_value(f, raised, f.table[raised] + 1)
    assert len(IntTable(g).dom) ** 2 >= 1 << 16  # several chunks
    hit = _assert_routes_agree(g)
    assert hit is not None
    assert check_single_exchange(g) == _single_exchange_verdict(g, hit)


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


@pytest.mark.parametrize("n", range(2, 7))
def test_level_skip_on_weighted_uniform_matroids(n, monkeypatch):
    # the bases of U(k, n) are equicardinal, so the multi-item kernel
    # skips level 0 and tries level l only on the tuples with |I| = l
    flags = []
    group = checkers._multi_group

    def spy(*args):
        flags.append(args[-1])
        return group(*args)

    monkeypatch.setattr(checkers, "_multi_group", spy)
    rng = Random(n)
    failing = 0
    for k in range(1, n):
        f = _uniform_weighted(n, k, [rng.randint(-3, 3) for _ in range(n)])
        bases = [m for m in range(1 << n) if m.bit_count() == k]
        some = bases[:: max(1, len(bases) // 5)]
        for raised in [None, *some]:
            g = f if raised is None else with_value(f, raised, f.table[raised] + rng.randint(1, 2))
            py = _assert_multi_routes_agree(g)
            assert raised is not None or py is None
            failing += py is not None
        for dropped in [None, *some]:
            members = frozenset(bases) - {dropped}
            if not members:
                continue
            py, vec = _multi_routes(SetFamily(n, members).indicator.ints)
            assert py == vec == _scan_b_exc_m(members, sorted(members))
            failing += py is not None
    assert (failing > 0) == (n >= 4) and flags and all(flags)


# ----------------------------------------------------------------------
# the big-integer route


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
    assert fits_int64(t.neg, t.lo, t.hi) and t.sent.dtype == np.int64
    assert not fits_int64(tc.neg, tc.lo, tc.hi) and tc.sent.dtype == object
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


@pytest.mark.parametrize("hit", [
    ("local:i", 0, (0b0001, 0b0010)),
    ("local:ii", 0, (0b0001, 0b0010, 0b0100)),
    ("local:iii", 0, (0b0001, 0b0010, 0b0100, 0b1000)),
], ids=["pairs", "triples", "quads"])
def test_local_witnesses_are_rechecked(hit, monkeypatch):
    # min(|S|, 2) on 4 elements holds every local inequality with equality
    # at these tuples, so a kernel reporting one of them is wrong
    f = _rank(4, 2)
    assert check_local(f).passed
    monkeypatch.setattr(checkers, "_local_hit", lambda t: hit)
    with pytest.raises(InternalCheckError, match=hit[0]):
        check_local(f)


def test_recheck_accepts_a_violation(comp):
    v = _multiple_exchange_verdict(comp, (0b11, 0b00, 0b01))
    assert (v.witness.lhs, v.witness.rhs) == (3, 2)
    fam = SetFamily(3, frozenset({0b011, 0b100}))
    assert _family_multi_witness(fam, 0b011, 0b100, 0b001).condition == "bnat-exc-m"
    assert _family_pm_witness(fam.members, 0b011, 0b100, 0b001, "a").condition == "bnat-exc-pm:a"


# ----------------------------------------------------------------------
# local's inequality families against the loops


def _free_bits(t: IntTable, X: int) -> list[int]:
    return [1 << i for i in range(t.n) if not X >> i & 1]


def _loop_tables(t: IntTable):
    """The table as lists: the values (None off the domain) and the
    sentinel table."""
    s = t.sent.tolist()
    return [None if v == t.neg else v for v in s], s


def _scan_local_pairs(t: IntTable):
    vals, s = _loop_tables(t)
    for X in range(1 << t.n):
        if vals[X] is None:
            continue
        free = _free_bits(t, X)
        for ib, jb in combinations(free, 2):
            top = vals[X | ib | jb]
            if top is None:
                continue
            if top + vals[X] > s[X | ib] + s[X | jb]:
                return (X, ib, jb)
    return None


def _scan_local_triples(t: IntTable):
    vals, s = _loop_tables(t)
    for X in range(1 << t.n):
        free = _free_bits(t, X)
        for ib, jb in combinations(free, 2):
            top = vals[X | ib | jb]
            if top is None:
                continue
            for kb in free:
                if kb == ib or kb == jb:
                    continue
                side = vals[X | kb]
                if side is None:
                    continue
                lhs = top + side
                if lhs > s[X | ib | kb] + s[X | jb] and lhs > s[X | jb | kb] + s[X | ib]:
                    return (X, ib, jb, kb)
    return None


def _scan_local_quads(t: IntTable):
    vals, s = _loop_tables(t)
    for X in range(1 << t.n):
        free = _free_bits(t, X)
        pairs = list(combinations(free, 2))
        for a in range(len(pairs)):
            ib, jb = pairs[a]
            top = vals[X | ib | jb]
            if top is None:
                continue
            for b in range(a + 1, len(pairs)):
                kb, lb = pairs[b]
                if (ib | jb) & (kb | lb):
                    continue
                side = vals[X | kb | lb]
                if side is None:
                    continue
                lhs = top + side
                if lhs > s[X | ib | kb] + s[X | jb | lb] and lhs > s[X | jb | kb] + s[X | ib | lb]:
                    return (X, ib, jb, kb, lb)
    return None


LOCAL_SCANS = (("local:i", _scan_local_pairs), ("local:ii", _scan_local_triples),
               ("local:iii", _scan_local_quads))


def _local_oracle(t: IntTable):
    """The first (condition, X, element bits) of the three loop scans, or None."""
    for condition, scan in LOCAL_SCANS:
        hit = scan(t)
        if hit is not None:
            return condition, hit[0], hit[1:]
    return None


def test_n3_universe_local_against_the_loops():
    levels = (NEG_INF, Fraction(0), Fraction(1))
    seen = {}
    for tab in product(levels, repeat=8):
        if all(v is NEG_INF for v in tab):
            continue
        t = SetFunction(3, tab).ints
        hit = _local_hit(t)
        assert hit == _local_oracle(t)
        seen[hit and hit[0]] = seen.get(hit and hit[0], 0) + 1
    assert sum(seen.values()) == 6560
    assert set(seen) == {None, "local:i", "local:ii"}  # (iii) needs four elements


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_local_on_ground_sets_without_some_families(n):
    # below two elements no family has a tuple, below four (iii) has none
    assert [fam.union.size for fam in _local_families(n)] == [
        len(list(combinations(range(n), size))) for size in (2, 3, 4)
    ]
    rng = Random(n)
    for _ in range(200):
        tab = [rng.choice((NEG_INF, Fraction(0), Fraction(1), Fraction(3))) for _ in range(1 << n)]
        tab[rng.randrange(1 << n)] = Fraction(rng.randint(-2, 2))
        t = SetFunction(n, tuple(tab)).ints
        assert _local_hit(t) == _local_oracle(t)


@st.composite
def near_local(draw, max_n=7):
    """g(|S|) plus weights on a band of at most three cardinalities, with a
    few entries changed or made -inf.  Narrow bands make family (i), and
    often (ii), vacuous, so the scans reach (ii) and (iii); on a band of
    one cardinality only (iii) has tuples with a finite lhs."""
    n = draw(st.integers(2, max_n))
    lo = draw(st.integers(0, n))
    hi = min(n, lo + draw(st.integers(0, 2)))
    incs = sorted(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), reverse=True)
    g = [0]
    for d in incs:
        g.append(g[-1] + d)
    w = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    tab = [
        Fraction(g[m.bit_count()] + sum(w[e] for e in range(n) if m >> e & 1))
        if lo <= m.bit_count() <= hi else NEG_INF
        for m in range(1 << n)
    ]
    band = [m for m in range(1 << n) if lo <= m.bit_count() <= hi]
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.one_of(st.sampled_from(band), st.integers(0, (1 << n) - 1)))
        delta = draw(st.one_of(st.just(NEG_INF), RATIONALS))
        tab[m] = delta if not is_finite(tab[m]) or not is_finite(delta) else tab[m] + delta
    if not any(is_finite(v) for v in tab):
        tab[0] = Fraction(0)
    return SetFunction(n, tuple(tab))


@given(st.one_of(near_local(), near_concave(max_n=7), near_valuated_matroid(max_n=7)),
       st.sampled_from([0, C]))
@settings(max_examples=200, deadline=None)
def test_local_kernel_matches_the_loops(f, c):
    f = _shifted(f, c)
    t = f.ints
    hit = _local_hit(t)
    assert hit == _local_oracle(t)
    v = check_local(f)
    if not v.passed and v.witness.condition != "local:domain":
        X, bits = hit[1], hit[2]
        assert v.witness.condition == hit[0] and v.witness.set_mask("X") == X
        assert v.witness.elements == tuple(zip("ijkl", (b.bit_length() for b in bits)))


def test_local_kernel_reaches_family_iii():
    # the weights of U(2, 6) with one 2-set raised: only (iii) has a
    # finite lhs, and the raised pairing exceeds both others at X = 0
    f = _uniform_weighted(6, 2, (0, 1, 2, 3, 5, 8))
    g = with_value(f, 0b000011, f.table[0b000011] + 1)
    for h in (f, g, _scaled(g, C)):
        assert _local_hit(h.ints) == _local_oracle(h.ints)
    assert _local_hit(f.ints) is None
    assert _local_hit(g.ints) == ("local:iii", 0, (0b0001, 0b0010, 0b0100, 0b1000))


@pytest.mark.parametrize("first,cap", [(1, 1), (4, 16), (16, 64)])
@given(f=st.one_of(near_local(max_n=6), near_concave(max_n=6)))
@settings(max_examples=40, deadline=None)
def test_local_blocks_match_the_loops(first, cap, f):
    # tiny block sizes split every family into many blocks, most with
    # fixed high bits, so each table slice and high-bit filter is used
    t = f.ints
    old = checkers._FIRST_CHUNK_CELLS, checkers._LOCAL_BLOCK_CELLS
    checkers._FIRST_CHUNK_CELLS, checkers._LOCAL_BLOCK_CELLS = first, cap
    try:
        fams = [_LocalFamily(f.n, size) for size in (2, 3, 4)]
    finally:
        checkers._FIRST_CHUNK_CELLS, checkers._LOCAL_BLOCK_CELLS = old
    for fam, (condition, scan) in zip(fams, LOCAL_SCANS):
        hit = fam.first_hit(t.sent, 2 * t.lo - 1)
        want = scan(t)
        assert (hit and (hit[0], tuple(1 << e for e in hit[1]))) == (
            want and (want[0], want[1:]))


def test_local_hit_in_a_later_block():
    # min(|S|, 6) on the sets holding element 12, with one raised: every X
    # with a finite lhs in family (i) holds element 12, so the hit lies in
    # a block whose high bits are fixed
    n = 12
    top = 1 << 11
    f = SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), 6)) if m & top
                                  else NEG_INF)
    g = with_value(f, top | 0b1011001, Fraction(7))
    hit = _local_hit(g.ints)
    assert hit == _local_oracle(g.ints)
    assert hit[0] == "local:i"
    assert hit[1] >= 1 << _local_families(n)[0].wmax
    assert _local_hit(f.ints) is None


class _CountingTable(np.ndarray):
    """An int64 table that counts the entries read through fancy indexing."""

    def __getitem__(self, idx):
        if isinstance(idx, np.ndarray):
            self.reads[0] += idx.size
        return np.asarray(self)[idx]


def test_local_failure_at_x_0_reads_only_the_first_block():
    n = 14
    f = SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), 7)))
    g = with_value(f, 0b11, Fraction(3))
    t = g.ints
    fam = _local_families(n)[0]
    s = t.sent.view(_CountingTable)
    s.reads = [0]
    start = perf_counter()
    assert fam.first_hit(s, 2 * t.lo - 1) == (0, (0, 1))
    assert perf_counter() - start < 0.25
    # four entries per (X, E) cell of the first block, a small part of the family
    assert s.reads[0] <= 4 * _FIRST_CHUNK_CELLS < 4 * fam.union.size << (n - 2)
    assert _local_hit(t) == ("local:i", 0, (0b01, 0b10)) == _local_oracle(t)


# ----------------------------------------------------------------------
# the demand kernel against the per-price loops


def _oracle_prices(sampler: PriceSampler, f: SetFunction):
    """The price stream as drawn by the per-price loops, in Fractions."""
    ri = sampler._phase1_radius(f)
    if ri is not None:
        for combo in product(range(-ri, ri + 1), repeat=f.n):
            yield PriceVector(tuple(Fraction(c) for c in combo))
    rng = Random(2 * sampler.seed)
    step = sampler.grid_step
    kmax = floor(sampler.radius_for(f) / step)
    for _ in range(sampler.count):
        yield PriceVector(tuple(step * rng.randint(-kmax, kmax) for _ in range(f.n)))


def _oracle_pairs(sampler: PriceSampler, f: SetFunction):
    ri = sampler._phase1_radius(f)
    if ri is not None:
        for combo in product(range(-ri, ri + 1), repeat=f.n):
            p = PriceVector(tuple(Fraction(c) for c in combo))
            for c in range(f.n):
                yield p, PriceVector(tuple(v + (i == c) for i, v in enumerate(p.entries)))
    rng = Random(2 * sampler.seed + 1)
    step = sampler.grid_step
    kmax = floor(sampler.radius_for(f) / step)
    for _ in range(sampler.count):
        p = tuple(step * rng.randint(-kmax, kmax) for _ in range(f.n))
        raised = [rng.random() < 0.5 for _ in range(f.n)]
        q = tuple(v + step * rng.randint(1, max(1, kmax)) if r else v for v, r in zip(p, raised))
        yield PriceVector(p), PriceVector(q)


class _ScaledView:
    """Integer view of the table shared by every price in a sampled run:
    values and the price grid of 1/d rescaled by one common denominator,
    ``vals`` None off the domain."""

    def __init__(self, f: SetFunction, d: int):
        self.n = f.n
        self.dom = f.dom_masks
        self.scale = lcm(d, *(f.table[m].denominator for m in self.dom))
        self.vals = [v.numerator * (self.scale // v.denominator) if is_finite(v) else None
                     for v in f.table]

    def price_ints(self, p: PriceVector) -> list[int]:
        s = self.scale
        assert all(s % v.denominator == 0 for v in p.entries)
        return [v.numerator * (s // v.denominator) for v in p.entries]

    def price_sums(self, pint: list[int]) -> list[int]:
        sums = [0] * (1 << self.n)
        for m in range(1, 1 << self.n):
            low = m & -m
            sums[m] = sums[m ^ low] + pint[low.bit_length() - 1]
        return sums

    def demand_members(self, p: PriceVector) -> tuple[list[int], int, list[int]]:
        sums = self.price_sums(self.price_ints(p))
        vals = self.vals
        best = None
        members: list[int] = []
        for mask in self.dom:
            v = vals[mask] - sums[mask]
            if best is None or v > best:
                best = v
                members = [mask]
            elif v == best:
                members.append(mask)
        return members, best, sums


def _si_improves_int(vals, sums, X, v, full) -> bool:
    for ib in iter_bits(X):
        m = X ^ ib
        w = vals[m]
        if w is not None and w - sums[m] > v:
            return True
    for jb in iter_bits(full & ~X):
        m = X | jb
        w = vals[m]
        if w is not None and w - sums[m] > v:
            return True
    for ib in iter_bits(X):
        for jb in iter_bits(full & ~X):
            m = (X ^ ib) | jb
            w = vals[m]
            if w is not None and w - sums[m] > v:
                return True
    return False


def _tagged(exact: Verdict, idx: int) -> Verdict:
    assert not exact.passed
    return Verdict(False, replace(exact.witness, elements=(("sample", idx),)))


def _oracle_gs(f: SetFunction, sampler: PriceSampler) -> Verdict:
    view = _ScaledView(f, sampler.grid_step.denominator)
    for idx, (p, q) in enumerate(_oracle_pairs(sampler, f)):
        dp, _, _ = view.demand_members(p)
        dq, _, _ = view.demand_members(q)
        if _gs_violating_bundle(dp, dq, _fixed_price_mask(p, q)) is not None:
            return _tagged(check_gs_at(f, p, q), idx)
    return Verdict(True)


def _oracle_si(f: SetFunction, sampler: PriceSampler) -> Verdict:
    view = _ScaledView(f, sampler.grid_step.denominator)
    full = (1 << f.n) - 1
    for idx, p in enumerate(_oracle_prices(sampler, f)):
        _, best, sums = view.demand_members(p)
        for X in view.dom:
            v = view.vals[X] - sums[X]
            if v != best and not _si_improves_int(view.vals, sums, X, v, full):
                return _tagged(check_si_at(f, p), idx)
    return Verdict(True)


def _oracle_nc(f: SetFunction, sampler: PriceSampler, simultaneous: bool) -> Verdict:
    view = _ScaledView(f, sampler.grid_step.denominator)
    for idx, p in enumerate(_oracle_prices(sampler, f)):
        members, _, _ = view.demand_members(p)
        if _nc_violation(members, simultaneous) is not None:
            return _tagged(check_nc_at(f, p, simultaneous), idx)
    return Verdict(True)


def _assert_sweeps_agree(f: SetFunction, sampler: PriceSampler) -> dict:
    """Every sampled check, alone and in the shared sweep, against the loops."""
    want = {
        "gs": _oracle_gs(f, sampler),
        "si": _oracle_si(f, sampler),
        "nc": _oracle_nc(f, sampler, False),
        "ncsim": _oracle_nc(f, sampler, True),
    }
    assert check_gs_sampled(f, sampler) == want["gs"]
    assert check_si_sampled(f, sampler) == want["si"]
    assert check_nc_sampled(f, sampler) == want["nc"]
    assert check_nc_sampled(f, sampler, simultaneous=True) == want["ncsim"]
    shared = _price_sweep(f, sampler, ("si", "nc", "ncsim"))
    assert shared == {k: want[k] for k in ("si", "nc", "ncsim")}
    return want


def _oracle_demand(f: SetFunction, p: PriceVector):
    vals = {m: f.table[m] - p.sum_over(m) for m in f.dom_masks}
    best = max(vals.values())
    return frozenset(m for m, v in vals.items() if v == best), best


def test_price_streams_match_the_loops():
    for f, sampler in [
        (SetFunction(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(3))),
         PriceSampler(seed=4, count=30)),
        (_rank(5, 2), PriceSampler(seed=9, count=40, grid_step=Fraction(1, 3))),
        (_rank(3, 1), PriceSampler(seed=1, count=10, grid_step=Fraction(2, 3),
                                   radius=Fraction(5, 2))),
        (_rank(3, 3), PriceSampler(seed=2, count=10, radius=Fraction(0))),
    ]:
        assert list(sampler.iter_prices(f)) == list(_oracle_prices(sampler, f))
        assert list(sampler.iter_price_pairs(f)) == list(_oracle_pairs(sampler, f))


# kmax at the edges of the draw widths 2*kmax + 1 and kmax: 2^k - 1, 2^k,
# 2^k + 1, the widest word draw (2^32 - 1) and the first ones past it
KMAX_EDGES = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 2**15 - 1, 2**15, 2**15 + 1,
              2**31 - 1, 2**31, 2**32]


@st.composite
def stream_cases(draw):
    """A cardinality table (values near 2^70 or small) and a sampler whose
    random prices run over |k| <= kmax, or the table's default radius."""
    n = draw(st.integers(0, 5))
    unit = draw(st.sampled_from([1, 1 << 70]))
    f = SetFunction(n, tuple(Fraction(m.bit_count() * unit) for m in range(1 << n)))
    step = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)]))
    kmax = draw(st.one_of(st.none(), st.sampled_from(KMAX_EDGES)))
    radius = None if kmax is None else step * kmax + draw(st.sampled_from([0, step / 2]))
    count = draw(st.sampled_from([0, 1]) | st.integers(2, 40) | st.integers(300, 700))
    seed = draw(st.integers(0, 2**40))
    sampler = PriceSampler(seed=seed, count=count, grid_step=step, radius=radius)
    # integer sweeps of up to 10^5 prices would make this test slow; the
    # parametrized test below runs sweeps of a few thousand
    assume(sampler.pair_count(f) <= 4000)
    return f, sampler


def _assert_streams_match(f, sampler):
    prices = list(sampler.iter_prices(f))
    pairs = list(sampler.iter_price_pairs(f))
    assert prices == list(_oracle_prices(sampler, f))
    assert pairs == list(_oracle_pairs(sampler, f))
    assert (len(prices), len(pairs)) == (sampler.price_count(f), sampler.pair_count(f))
    # the sweeps' blocks, in the kernel's dtype, hold the same integers
    dtype = sampler._kernel(f).dtype
    for cells, is_pairs in ((1 << f.n, False), (2 << f.n, True)):
        got = [b.tolist() for b in sampler._blocks(f, dtype, cells, is_pairs)]
        want = [b.tolist() for b in sampler._blocks(f, object, cells, is_pairs)]
        assert got == want


@given(stream_cases())
@settings(max_examples=60, deadline=None)
def test_price_blocks_match_the_loops(case):
    _assert_streams_match(*case)


@pytest.mark.parametrize("kmax", KMAX_EDGES)
def test_price_blocks_at_the_width_edges(kmax):
    f = _rank(3, 2)
    step = Fraction(1, 2)
    sampler = PriceSampler(seed=kmax, count=300, grid_step=step, radius=step * kmax)
    _assert_streams_match(f, sampler)


def test_price_blocks_on_a_2_70_table():
    # the default radius makes the draws 73 bits wide: the per-call route
    f = SetFunction(3, tuple(Fraction(m.bit_count() << 70) for m in range(8)))
    _assert_streams_match(f, PriceSampler(seed=4, count=300))
    # a small radius draws from the words and runs the integer sweep first
    _assert_streams_match(f, PriceSampler(seed=4, count=300, radius=Fraction(3)))


def test_first_hit_in_a_later_block_keeps_its_index():
    f = _rank(5, 2)
    sampler = PriceSampler(seed=3, count=400)
    d = sampler.grid_step.denominator
    rows = [[int(v * d) for v in p.entries] for p in _oracle_prices(sampler, f)]
    target = rows[300]  # past the blocks of 32, 64 and 128 rows
    idx = rows.index(target)
    assert idx > 224
    blocks = sampler._blocks(f, np.int64, 1 << f.n, pairs=False)
    hits = econ._first_hits(
        blocks, ("t",), lambda b, _: {"t": econ._first((b == target).all(axis=1))}
    )
    assert hits == {"t": (idx, target)}


def test_n2_universe_sweeps_match_the_loops():
    levels = (NEG_INF, Fraction(0), Fraction(1))
    failing = 0
    for tab in product(levels, repeat=4):
        if any(v is not NEG_INF for v in tab):
            want = _assert_sweeps_agree(SetFunction(2, tab), PriceSampler(seed=5, count=20))
            failing += not want["gs"].passed
    assert 0 < failing < 80


def test_n3_slice_sweeps_match_the_loops():
    # every 97th {-inf, 0, 1} function on n = 3; the integer sweep runs
    levels = (NEG_INF, Fraction(0), Fraction(1))
    tables = [tab for tab in product(levels, repeat=8) if any(v is not NEG_INF for v in tab)]
    verdicts = set()
    for tab in tables[::97]:
        want = _assert_sweeps_agree(SetFunction(3, tab), PriceSampler(seed=6, count=10))
        verdicts.add(tuple(v.passed for v in want.values()))
    assert {(True,) * 4, (False,) * 4} <= verdicts


@st.composite
def random_tables(draw, max_n, min_n=0):
    """A seeded random table of rationals with -inf holes."""
    n = draw(st.integers(min_n, max_n))
    rng = Random(draw(st.integers(0, 2**32)))
    holes = rng.random() / 2
    tab = [NEG_INF if rng.random() < holes else Fraction(rng.randint(-20, 20), rng.randint(1, 6))
           for _ in range(1 << n)]
    if not any(is_finite(v) for v in tab):
        tab[rng.randrange(1 << n)] = Fraction(0)
    return SetFunction(n, tuple(tab))


@st.composite
def priced_tables(draw, max_n=10):
    f = draw(random_tables(max_n))
    prices = st.one_of(RATIONALS, st.fractions(-9, 9, max_denominator=12))
    return f, PriceVector(tuple(draw(prices) for _ in range(f.n)))


SAMPLERS = st.builds(
    PriceSampler,
    seed=st.integers(0, 10**6),
    count=st.integers(0, 60),
    grid_step=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(3, 4)]),
    # small radii keep the integer sweep of n <= 4 short; the default
    # radius runs on the small universes and the bumped instances
    radius=st.sampled_from([Fraction(0), Fraction(3, 2), Fraction(5, 2)]),
)


@given(st.one_of(near_concave(), near_valuated_matroid(), random_tables(5, 2)), SAMPLERS)
@settings(max_examples=150, deadline=None)
def test_sweeps_match_the_loops(f, sampler):
    _assert_sweeps_agree(f, sampler)


@pytest.mark.parametrize("raised,by", [(0b11, 1), (0b110, Fraction(1, 2)), (0b111, 1), (0b11111, 2)])
def test_bumped_sweeps_match_the_loops(raised, by):
    # hits fall past the first chunks, up to sample 298
    f = _rank(5, 2)
    g = with_value(f, raised, f.table[raised] + by)
    passed = set()
    for sampler in (PriceSampler(seed=3, count=300),
                    PriceSampler(seed=8, count=200, grid_step=Fraction(1, 3),
                                 radius=Fraction(3))):
        passed |= {v.passed for v in _assert_sweeps_agree(g, sampler).values()}
    assert False in passed


@given(priced_tables())
@settings(max_examples=80, deadline=None)
def test_demand_matches_the_rational_argmax(fp):
    f, p = fp
    d = demand(f, p)
    assert (d.members.members, d.value) == _oracle_demand(f, p)
    assert type(d.value) is Fraction


# the big-integer route

BIG_CASES = [
    (_scaled(SetFunction(2, (Fraction(0), Fraction(1), Fraction(1), Fraction(3))), C),
     PriceSampler(seed=4, count=60, grid_step=Fraction(C, 2), radius=Fraction(7 * C))),
    (_scaled(_rank(5, 2), C), PriceSampler(seed=2, count=40)),
    (_scaled(with_value(_rank(5, 2), 0b111, Fraction(3)), C),
     PriceSampler(seed=2, count=200, grid_step=Fraction(C, 2), radius=Fraction(5 * C))),
    (with_value(_rank(4, 2), 0b1111, Fraction(3)),
     PriceSampler(seed=7, count=40, radius=Fraction(2**70))),
]


@pytest.mark.parametrize("f,sampler", BIG_CASES)
def test_big_integer_sweeps_match_the_loops(f, sampler):
    assert sampler._kernel(f).dtype is object
    _assert_sweeps_agree(f, sampler)


def test_some_big_integer_sweeps_fail():
    assert sum(not _oracle_gs(f, s).passed for f, s in BIG_CASES) >= 2


def test_big_integer_demand():
    f = _scaled(with_value(_rank(6, 3), 0b111000, Fraction(5, 2)), C)
    for p in (PriceVector((C,) * 6), PriceVector(tuple(Fraction(C * k, 3) for k in range(6)))):
        d = demand(f, p)
        assert (d.members.members, d.value) == _oracle_demand(f, p)


def test_route_guard_boundary():
    # |values| = 0, n = 1, scale 1: the sentinel is -(bound + 1), and int64
    # holds while twice its magnitude stays below 2^62
    f = SetFunction(1, (Fraction(0), Fraction(0)))
    assert _DemandKernel(f, 1, 2**61 - 2).dtype is np.int64
    assert _DemandKernel(f, 1, 2**61 - 1).dtype is object
    for k in (2**61 - 2, 2**61 - 1, -(2**61) + 2, -(2**61) + 1):
        p = PriceVector((Fraction(k),))
        d = demand(f, p)
        assert (d.members.members, d.value) == _oracle_demand(f, p)
    # small scaled values but a price unit past int64, even at price zero
    g = SetFunction(1, (Fraction(0), Fraction(1, 3**50)))
    assert _DemandKernel(g, 1, 0).dtype is object
    assert _DemandKernel(g, 3**50, 0).dtype is np.int64
    for p in (PriceVector((0,)), PriceVector((Fraction(1, 3**50),))):
        d = demand(g, p)
        assert (d.members.members, d.value) == _oracle_demand(g, p)


def test_demand_scale_set_by_the_price_alone():
    # an all-zero table times a multiplier past int64 stays zero on int64
    z = SetFunction(2, (Fraction(0),) * 4)
    assert _DemandKernel(z, 3**50, 1).dtype is np.int64
    for p in (PriceVector((Fraction(1, 3**50), 0)), PriceVector((1, Fraction(-2, 3**50)))):
        d = demand(z, p)
        assert (d.members.members, d.value) == _oracle_demand(z, p)


def test_forged_sweep_hits_are_rejected(rank2, monkeypatch):
    sampler = PriceSampler(seed=1, count=20)
    monkeypatch.setattr(econ, "_gs_flags", lambda kern, pq: np.ones(len(pq), dtype=bool))
    monkeypatch.setattr(econ, "_si_flags", lambda kern, u, dem: np.ones(len(u), dtype=bool))
    monkeypatch.setattr(econ, "_nc_first", lambda dem, simultaneous: 0)
    with pytest.raises(InternalCheckError):
        check_gs_sampled(rank2, sampler)
    with pytest.raises(InternalCheckError):
        check_si_sampled(rank2, sampler)
    for simultaneous in (False, True):
        with pytest.raises(InternalCheckError):
            check_nc_sampled(rank2, sampler, simultaneous)


# ----------------------------------------------------------------------
# the dual box sweep


def _grid_conjugate(items, a, axes, shape, sign, dtype):
    """Max over items of v + sign * q(J) on the grid of the trailing axes,
    one full pass per finite item; ``a`` is the leading coordinate."""
    acc = None
    for mask, v in items:
        t0 = v + (sign * a if mask & 1 else 0)
        expr = None
        for d, ax in enumerate(axes):
            if mask >> (d + 1) & 1:
                expr = ax if expr is None else expr + ax
        if expr is None:
            if acc is None:
                acc = np.full(shape, t0, dtype=dtype)
            else:
                np.maximum(acc, t0, out=acc)
        else:
            arr = t0 + expr if sign > 0 else t0 - expr
            if acc is None:
                acc = np.broadcast_to(arr, shape).copy()
            else:
                np.maximum(acc, arr, out=acc)
    assert acc is not None
    return acc


def _per_item_sweep(items1, items2, k, radius):
    """The whole box, slab by slab, with the per-item grid conjugates, on
    object arrays when a value leaves int64's comfortable range."""
    if k == 0:
        return items1[0][1] + items2[0][1], ()
    big = max(abs(v) for _, v in items1 + items2) >= 1 << 60
    dtype = object if big else np.int64
    m = 2 * radius + 1
    shape = (m,) * (k - 1)
    axis_vals = np.arange(-radius, radius + 1).astype(dtype)
    axes = []
    for d in range(k - 1):
        sh = [1] * (k - 1)
        sh[d] = m
        axes.append(axis_vals.reshape(sh))
    best_val = None
    best_q = ()
    for a in range(-radius, radius + 1):
        total = np.asarray(_grid_conjugate(items1, a, axes, shape, -1, dtype)
                           + _grid_conjugate(items2, a, axes, shape, +1, dtype))
        mn = int(total.min())
        if best_val is None or mn < best_val:
            idx = np.unravel_index(int(total.argmin()), shape)
            best_val = mn
            best_q = (a,) + tuple(int(i) - radius for i in idx)
    return best_val, best_q


def _dual_sweep_py(items1, items2, k, radius, primal_int):
    """The sweep on Python integers, point by point in box order, with the
    same weak-duality check and first-slab exit as the library's sweep."""
    kk = max(k, 1)
    lead = radius if k else 0
    best_val = None
    best_q: tuple[int, ...] = ()
    for a in range(-lead, lead + 1):
        for rest in product(range(-radius, radius + 1), repeat=kk - 1):
            q = ((a,) + rest)[:k]
            g1 = max(v - sum(q[b.bit_length() - 1] for b in iter_bits(mask)) for mask, v in items1)
            g2 = max(v + sum(q[b.bit_length() - 1] for b in iter_bits(mask)) for mask, v in items2)
            total = g1 + g2
            if primal_int is not None and total < primal_int:
                raise InternalCheckError("weak duality failed during the dual sweep")
            if best_val is None or total < best_val:
                best_val, best_q = total, q
        if best_val == primal_int:
            break
    assert best_val is not None
    return best_val, best_q


def _slice_items(f: SetFunction, X: int, Y: int, I: int):
    """(items1, items2, k) of an integer-valued f: the finite (local mask,
    value) entries of both slices, read from the slice functions' own tables."""
    sp = slice_pair(f, X, Y, I)
    items = [[(m, int(v)) for m, v in enumerate(g.table) if is_finite(v)] for g in (sp.f1, sp.f2)]
    assert all(v == int(v) for g in (sp.f1, sp.f2) for v in g.table if is_finite(v))
    return items[0], items[1], len(sp.elements)


def _slice_primal(items1, items2):
    vals2 = dict(items2)
    sums = [v + vals2[mask] for mask, v in items1 if mask in vals2]
    return max(sums) if sums else None


def _dual_value(items1, items2, q):
    def price(mask):
        return sum(q[i] for i in range(len(q)) if mask >> i & 1)

    return max(v - price(mask) for mask, v in items1) + max(v + price(mask) for mask, v in items2)


@st.composite
def slice_tables(draw, max_k=5):
    """Two scaled slice tables on k elements with -inf holes, each with at
    least one finite entry."""
    k = draw(st.integers(0, max_k))
    top = draw(st.sampled_from([2, 6, 40]))

    def side():
        t = draw(st.lists(st.one_of(st.none(), st.integers(-top, top)),
                          min_size=1 << k, max_size=1 << k))
        if all(v is None for v in t):
            t[draw(st.integers(0, (1 << k) - 1))] = draw(st.integers(-top, top))
        return [(mask, v) for mask, v in enumerate(t) if v is not None]

    return k, side(), side()


@given(slice_tables(), st.integers(0, 4), st.sampled_from(["none", "primal", "below"]),
       st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_dual_sweep_matches_the_oracles(tables, radius, mode, drop):
    k, items1, items2 = tables
    expected = _per_item_sweep(items1, items2, k, radius)
    # "below" leaves a positive gap to the box minimum, so nothing stops early
    primal_int = {"none": None, "primal": _slice_primal(items1, items2),
                  "below": expected[0] - drop}[mode]
    assert _dual_sweep(items1, items2, k, radius, primal_int) == expected
    if (2 * radius + 1) ** k <= 729:
        assert _dual_sweep_py(items1, items2, k, radius, primal_int) == expected


@given(slice_tables(max_k=4), st.integers(0, 3), st.sampled_from(["scale", "shift"]),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_dual_sweep_object_route_matches_the_oracles(tables, radius, how, with_primal):
    # values of 2^70 and more: 2 * bound passes the int64 guard, so the DP runs on object arrays
    k, items1, items2 = tables
    big = 1 << 70
    lift = (lambda v: v * big) if how == "scale" else (lambda v: v + big)
    items1 = [(mask, lift(v)) for mask, v in items1]
    items2 = [(mask, lift(v)) for mask, v in items2]
    primal_int = _slice_primal(items1, items2) if with_primal else None
    expected = _per_item_sweep(items1, items2, k, radius)
    assert _dual_sweep(items1, items2, k, radius, primal_int) == expected
    if (2 * radius + 1) ** k <= 729:
        assert _dual_sweep_py(items1, items2, k, radius, primal_int) == expected


def test_dual_sweep_fallback_agrees(rank2, wmat):
    cases = [(rank2, 0b011, 0b101, 0b010), (rank2, 0b001, 0b110, 0b001), (wmat, 0b011, 0b110, 0b001)]
    for f, X, Y, I in cases:
        items1, items2, k = _slice_items(f, X, Y, I)
        fast = _dual_sweep(items1, items2, k, 5, None)
        slow = _dual_sweep_py(items1, items2, k, 5, None)
        assert fast == slow


def _matroid_slices():
    """(items1, items2, k) of U(3, 6) with weights 0, 1, 2, 0, 1, 2 at X = {1, 2, 3}:
    every slice domain is equicardinal, so g1(q) + g2(-q) is constant along
    (1, ..., 1) and the minimizers form lines across many slabs."""
    f = gen_weighted_matroid(MatroidSpec.uniform(3, 6, weights=(0, 1, 2, 0, 1, 2)))
    X = 0b000111
    for Y in f.dom_masks:
        xd = X & ~Y
        if (Y & ~X).bit_count() < 2:
            continue
        for I in (xd & -xd, xd):
            yield _slice_items(f, X, Y, I)


def test_dual_sweep_first_minimizer_on_matroid_slices():
    cases = list(_matroid_slices())
    assert len(cases) == 20
    radius = 9  # the default radius: 2 * (value range) + 1
    for items1, items2, k in cases:
        primal_int = _slice_primal(items1, items2)
        expected = _per_item_sweep(items1, items2, k, radius)
        assert expected[0] == primal_int  # the gap closes, so the sweep stops early
        got = _dual_sweep(items1, items2, k, radius, primal_int)
        assert got == expected
        if k <= 2:
            assert _dual_sweep_py(items1, items2, k, radius, primal_int) == expected
        # the next point on the line of minimizers lies in a later slab
        q = got[1]
        assert min(q) == -radius
        step = tuple(x + 1 for x in q)
        assert _dual_value(items1, items2, step) == got[0]


def test_dual_sweep_big_values_near_the_guard():
    # 2 * bound just below 2^60 stays on int64 with the sentinel -2*bound-1
    big = 2**59 - 64
    items1 = [(0, -big), (0b011, big), (0b101, big - 3), (0b110, -big + 7)]
    items2 = [(0, big - 1), (0b001, -big), (0b111, big - 5)]
    for primal_int in (None, _slice_primal(items1, items2)):
        expected = _dual_sweep_py(items1, items2, 3, 2, primal_int)
        assert _dual_sweep(items1, items2, 3, 2, primal_int) == expected
        assert expected == _per_item_sweep(items1, items2, 3, 2)


@pytest.mark.parametrize("top", [2**59 - 7, 2**59 - 6, 2**59 - 5, 2**60 + 3])
def test_dual_sweep_values_straddling_the_guard(top, monkeypatch):
    # with radius 2 and k = 3, 2 * bound = 2 * (top + 6) crosses 2^60 between
    # the first two cases; record which route each one takes
    routes = []
    real = duality._SlabConjugate

    def spy(items, k, radius, sentinel, sign, dtype):
        routes.append(dtype)
        return real(items, k, radius, sentinel, sign, dtype)

    monkeypatch.setattr(duality, "_SlabConjugate", spy)
    items1 = [(0, -top), (0b011, top), (0b101, top - 3), (0b110, -top + 7), (0b111, 5)]
    items2 = [(0, top - 1), (0b001, -top), (0b010, 2**40), (0b111, top - 5)]
    for primal_int in (None, _slice_primal(items1, items2)):
        expected = _dual_sweep_py(items1, items2, 3, 2, primal_int)
        assert _dual_sweep(items1, items2, 3, 2, primal_int) == expected
        assert expected == _per_item_sweep(items1, items2, 3, 2)
    assert set(routes) == {np.int64 if 2 * (top + 6) < 2**60 else object}


def test_forged_primal_above_the_box_minimum_raises():
    f = gen_weighted_matroid(MatroidSpec.uniform(2, 4, weights=(0, 1, 2, 0)))
    items1, items2, _ = _slice_items(f, 0b0011, 0b1100, 0b0001)
    # above the minimum of the first slab, which the sweep always visits
    forged = min(_dual_value(items1, items2, (-2, b)) for b in range(-2, 3)) + 1
    for sweep in (_dual_sweep, _dual_sweep_py):
        with pytest.raises(InternalCheckError):
            sweep(items1, items2, 2, 2, forged)
    # the same slices lifted by 2^70 take the object route
    lift = 1 << 70
    big1 = [(mask, v + lift) for mask, v in items1]
    big2 = [(mask, v + lift) for mask, v in items2]
    for sweep in (_dual_sweep, _dual_sweep_py):
        with pytest.raises(InternalCheckError):
            sweep(big1, big2, 2, 2, forged + 2 * lift)


def test_oversized_slab_is_refused_before_allocating(monkeypatch):
    # k = 10 at radius 4: 9^10 points pass the box cap, but one slab holds
    # 9^9 entries, over _MAX_SLAB_ENTRIES
    def no_buffers(*args):
        raise AssertionError("a slab buffer was allocated")

    monkeypatch.setattr(duality, "_SlabConjugate", no_buffers)
    assert 9**10 <= duality._MAX_BOX_POINTS and 9**9 > duality._MAX_SLAB_ENTRIES
    with pytest.raises(InputError, match="slab"):
        _dual_sweep([(0, 0)], [(0, 0)], 10, 4, None)


def test_long_box_of_one_coordinate_is_refused(monkeypatch):
    # k = 1 at radius 10^9: 2 * 10^9 + 1 points pass the box cap, but each
    # of as many slabs costs a few numpy calls
    # k = 0 sweeps a single slab at any radius
    assert _dual_sweep([(0, 0)], [(0, 0)], 0, 10**12, 0) == (0, ())

    def no_buffers(*args):
        raise AssertionError("a slab buffer was allocated")

    monkeypatch.setattr(duality, "_SlabConjugate", no_buffers)
    m = 2 * 10**9 + 1
    assert m <= duality._MAX_BOX_POINTS < m * duality._SLAB_POINTS
    with pytest.raises(InputError, match=f"dual box has {m} slabs"):
        _dual_sweep([(0, 0), (1, 1)], [(0, 0), (1, 0)], 1, 10**9, None)


def test_object_route_slab_cap_is_smaller(monkeypatch):
    # k = 6 at radius 15: one slab holds 31^5 entries, between the object
    # route's cap and the int64 route's
    class Reached(Exception):
        pass

    def no_buffers(*args):
        raise Reached

    monkeypatch.setattr(duality, "_SlabConjugate", no_buffers)
    assert duality._MAX_OBJECT_SLAB_ENTRIES < 31**5 <= duality._MAX_SLAB_ENTRIES
    big = [(0, 1 << 70)]
    with pytest.raises(InputError, match="slab"):
        _dual_sweep(big, big, 6, 15, None)
    # the same shape on int64 values passes the cap and goes on to allocate
    with pytest.raises(Reached):
        _dual_sweep([(0, 0)], [(0, 0)], 6, 15, None)


# ----------------------------------------------------------------------
# the integer table cached on each function


def _int_fields(t: IntTable):
    return (t.n, t.scale, t.lo, t.hi, t.neg, t.sent.dtype, t.sent.tolist(), t.dom.dtype,
            t.dom.tolist())


def _loaded(f: SetFunction) -> SetFunction:
    """f through the file loader, which hands over the integer table it fills."""
    return obj_to_set_function(set_function_to_obj(f))


# mixed denominators, -inf holes and an entry of size 2^70
MIXED = SetFunction(3, (Fraction(1, 2), NEG_INF, Fraction(-2, 3), Fraction(2**70),
                        Fraction(5, 6), NEG_INF, Fraction(7), Fraction(-1, 4)))


@pytest.mark.parametrize("parent,X,Y,I", [
    (MIXED, 0b011, 0b100, 0b011),
    (_loaded(MIXED), 0b011, 0b100, 0b011),
    (_scaled(with_value(_rank(4, 2), 0b0110, Fraction(1, 3)), C), 0b0011, 0b1100, 0b0001),
])
def test_derived_functions_build_their_own_table(parent, X, Y, I):
    t = parent.ints
    assert _int_fields(t) == _int_fields(IntTable(parent))
    assert t.sent.dtype == object  # the big-integer route
    n = parent.n
    sp = slice_pair(parent, X, Y, I)
    derived = [
        with_value(parent, 0b001, Fraction(3, 7)),
        with_value(parent, 0b010, NEG_INF),
        shift_by_price(parent, PriceVector(tuple(Fraction(k, 5) for k in range(n)))),
        sp.f1,
        sp.f2,
        SetFunction.from_callable(n, parent.value),
    ]
    for g in derived:
        assert "ints" not in vars(g)
        assert g.ints is not t
        assert _int_fields(g.ints) == _int_fields(IntTable(g))
        assert g.dom_masks == tuple(m for m, v in enumerate(g.table) if is_finite(v))
        finite = [v for v in g.table if is_finite(v)]
        assert g.value_range == (min(finite), max(finite))


@given(priced_tables(max_n=6), st.data())
@settings(max_examples=60, deadline=None)
def test_demand_and_gap_read_the_cached_table(fp, data):
    f, p = fp
    g = _loaded(f) if f.n else SetFunction(0, f.table)  # files need n >= 1
    d = demand(f, p)
    assert d == demand(g, p)
    assert (d.members.members, d.value) == _oracle_demand(f, p)

    dom = f.dom_masks
    pairs = [(X, Y) for X in dom for Y in dom if (Y & ~X).bit_count() <= 3]
    X, Y = data.draw(st.sampled_from(pairs))
    I = data.draw(st.sampled_from(list(iter_submasks(X & ~Y))))
    t = IntTable(f)
    r = data.draw(st.integers(0, 2))
    rep = fenchel_gap(f, X, Y, I, box_radius=Fraction(r, t.scale))
    assert rep == fenchel_gap(g, X, Y, I, box_radius=Fraction(r, t.scale))
    assert (rep.scale, rep.box_radius) == (t.scale, Fraction(r, t.scale))
    assert fenchel_gap(f, X, X, 0).box_radius == Fraction(2 * (t.hi - t.lo) + 1, t.scale)
    try:
        sp = slice_pair(f, X, Y, I)
    except EmptySliceError:
        assert rep.primal is NEG_INF and rep.dual is NEG_INF
        return
    assert rep.primal == _best_exchange_rhs(f.table, X, Y, I)
    box = product(range(-r, r + 1), repeat=len(sp.elements))
    prices = [PriceVector(tuple(Fraction(v, t.scale) for v in q)) for q in box]
    assert rep.dual == min(conjugate(sp.f1, q) + conjugate(sp.f2, -q) for q in prices)
