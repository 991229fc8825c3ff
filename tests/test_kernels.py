"""Differential tests of the exchange kernels, the demand kernel and the
dual box sweep.

The array kernels, on int16, int32, int64 and object tables (tables
shifted to either side of each dtype's edge), and the loop scans kept
below as their oracles are called directly on the same sentinel table;
the verdicts built from their hits, witnesses included, must be equal.
Family scans are compared against the plain membership scans kept below
as the oracles, and so are stacks of families, which the NC and NC-sim
checks pass to the multi-item kernel as demand sets.  The sampled
GS/SI/NC sweeps are compared against per-price loops over the integer
table, with the price streams drawn the way those loops drew them, one
``randint`` or ``random()`` call at a time; the sweeps' price blocks are
compared against those streams, and every row's SI and GS flag of a
block against the at-price checks.  The subset-DP dual sweep, on int64 and
on object arrays, is compared against the per-item grid sweep and the
point-by-point loop kept below.  ``fenchel_gap``, ``demand`` and the
sampled checks run on instances moved to either side of each integer
rung's edge, each against the same call forced onto the object route,
and the widest int16 instances against the loops.  The rational exchange
searches on family indicators are compared against membership searches.
"""

from collections import Counter
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
from hypothesis import HealthCheck, assume, given, settings

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
from excheck._fast import IntTable, int_dtype
from excheck.checkers import (
    _FIRST_CHUNK_CELLS,
    _exchange_verdict,
    _local_families,
    _local_hit,
    _LocalFamily,
    _scan_exchange_np,
    _scan_multi_np,
    _stack_hit,
)
from excheck import checkers, duality
from excheck.duality import _dual_sweep
from excheck.econ import (
    _DemandKernel,
    _fixed_price_mask,
    _gs_violating_bundle,
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


def _scan_b_exc_m(members, ms, one_sided=False):
    """Membership form of the b-exc-m scan, in the canonical (X, Y, I) order.

    NC-sim at a price is this scan on the demand set; NC is its
    ``one_sided`` form, where only X-I+J must stay a member.
    """
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
                    if (xmi | J) in members and (one_sided or ((Y & ~J) | I) in members):
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


def _scan_exchange_py(s, dom):
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
                best = s[xi] + s[yi]
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


def _mnat_verdict(f: SetFunction, hit):
    """The verdict of a one-item hit on f, re-checked as check_single_exchange does."""
    tab = f.table
    return _exchange_verdict("mnat-exc", hit, tab, tab, tab, one_item=True, values=True)


def _valuated_verdict(f: SetFunction, hit):
    """The same under valuated-matroid's condition name, as check_valuated_matroid does."""
    tab = f.table
    return _exchange_verdict("valuated-matroid:exchange", hit, tab, tab, tab, one_item=True,
                             values=True)


def _scan_swaps_py(s, dom, floor):
    """The valuated-matroid swap axiom read literally, as a loop scan on a
    sentinel table ``s`` (a list): (X, Y, i) fails when s(X) + s(Y)
    exceeds every s(X-i+j) + s(Y+i-j) with j in Y\\X and ``floor``, which
    stands for the empty maximum.  There is no deletion term s(X-i) + s(Y+i)."""
    for X in dom:
        for Y in dom:
            lhs = s[X] + s[Y]
            for ib in iter_bits(X & ~Y):
                swaps = [s[(X ^ ib) | jb] + s[(Y | ib) ^ jb] for jb in iter_bits(Y & ~X)]
                if lhs > max([floor, *swaps]):
                    return X, Y, ib
    return None


def _swap_verdict(f: SetFunction, hit) -> Verdict:
    """The verdict of a hit of :func:`_scan_swaps_py` on f: its rhs is the
    best swap, -inf when Y\\X is empty."""
    if hit is None:
        return Verdict(True)
    X, Y, ib = hit
    tab = f.table
    rhs = max((tab[(X ^ ib) | jb] + tab[(Y | ib) ^ jb] for jb in iter_bits(Y & ~X)),
              default=NEG_INF)
    return Verdict(False, Witness("valuated-matroid:exchange", sets=(("X", X), ("Y", Y)),
                                  elements=(("i", ib.bit_length()),), lhs=tab[X] + tab[Y],
                                  rhs=rhs))


def _mnat_m_verdict(f: SetFunction, hit):
    """The verdict of a multi-item hit on f, as check_multiple_exchange does."""
    tab = f.table
    return _exchange_verdict("mnat-exc-m", hit, tab, tab, tab, values=True)


def _multi_routes(t: IntTable):
    """The hits of the loop oracle and of the array kernel on one table."""
    return (_scan_multi_py(t.sent.tolist(), t.dom.tolist()),
            _scan_multi_np(t.sent, t.sent, t.dom, t.n))


def _assert_multi_routes_agree(f: SetFunction):
    py, vec = _multi_routes(IntTable(f))
    assert _mnat_m_verdict(f, py) == _mnat_m_verdict(f, vec)
    return py


def _both_routes(t: IntTable):
    """The hits of the one-item loop oracle and of the array kernel on one table."""
    return (_scan_exchange_py(t.sent.tolist(), t.dom.tolist()),
            _scan_exchange_np(t.sent, t.dom, t.neg))


def _assert_routes_agree(f: SetFunction, valuated: bool = False):
    """The loop oracle and the kernel give one verdict on f.  With
    ``valuated`` (f must be equicardinal) the literal swap-axiom scan, its
    empty maximum below every two-term sum, finds the kernel's hit, and
    check_valuated_matroid gives that scan's verdict."""
    t = IntTable(f)
    py, vec = _both_routes(t)
    assert _mnat_verdict(f, py) == _mnat_verdict(f, vec)
    if valuated:
        swap = _scan_swaps_py(t.sent.tolist(), t.dom.tolist(), 2 * t.neg - 1)
        assert swap == vec
        assert check_valuated_matroid(f) == _swap_verdict(f, swap)
    return py


# past the int64 guard: a table scaled or shifted by C is an object array
C = 2**70

# IntTable's dtypes, narrowest first, and the edge of each integer one: a
# table takes it while twice its largest magnitude is below 2^bits
RUNGS = [np.int16, np.int32, np.int64, object]
EDGE_BITS = {np.int16: 14, np.int32: 30, np.int64: 62}

# shifts of the randomized tables: 0 (small tables take int16), C, and
# (rung, above, sign), which moves a table up (sign 1) or down (-1) to just
# below the rung's edge 2 * max = 2^bits or, with ``above``, just past it
SHIFTS = st.sampled_from([0, C] + [(rung, above, sign) for rung in (np.int16, np.int32)
                                   for above in (False, True) for sign in (1, -1)])


def _scaled(f: SetFunction, c: int) -> SetFunction:
    return SetFunction(f.n, tuple(v * c if is_finite(v) else NEG_INF for v in f.table))


def _edge_shift(f: SetFunction, rung, above: bool, sign: int) -> int:
    """The integer shift of :data:`SHIFTS`' edge entry (rung, above, sign):
    the table's scale stays, and moving up its largest magnitude is hi,
    moving down -neg."""
    t = f.ints
    room = (1 << (EDGE_BITS[rung] - 1)) - 1 - (t.hi if sign > 0 else -t.neg)
    return sign * (room // t.scale + above)


def _shifted(f: SetFunction, c) -> SetFunction:
    """f + c on the domain: with two terms on each side of every inequality
    checked here, verdicts and witness sets stay.  c = 0 keeps the int16
    route, c = C takes the object route, and an edge entry of
    :data:`SHIFTS` the dtype on its side of the edge."""
    want = np.int16 if c == 0 else object
    if isinstance(c, tuple):
        rung, above, _ = c
        want = RUNGS[RUNGS.index(rung) + above]
        c = _edge_shift(f, *c)
    g = SetFunction(f.n, tuple(v + c if is_finite(v) else NEG_INF for v in f.table))
    assert g.ints.sent.dtype == want
    return g


# ----------------------------------------------------------------------
# exhaustive small universes


def test_n3_universe_both_routes():
    levels = (NEG_INF, Fraction(0), Fraction(1))
    seen = failing = equi = 0
    for tab in product(levels, repeat=8):
        if all(v is NEG_INF for v in tab):
            continue
        f = SetFunction(3, tab)
        valuated = len({m.bit_count() for m in f.dom_masks}) == 1
        failing += _assert_routes_agree(f, valuated) is not None
        equi += valuated
        seen += 1
    assert (seen, equi) == (6560, 56)
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
        py, vec = _both_routes(fam.indicator.ints)
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


@given(near_concave(), SHIFTS)
@settings(max_examples=150, deadline=None)
def test_single_exchange_routes_agree(f, c):
    f = _shifted(f, c)
    hit = _assert_routes_agree(f)
    assert check_single_exchange(f) == _mnat_verdict(f, hit)


@given(st.one_of(near_concave(), near_valuated_matroid()), SHIFTS)
@settings(max_examples=150, deadline=None)
def test_multi_exchange_routes_agree(f, c):
    f = _shifted(f, c)
    hit = _assert_multi_routes_agree(f)
    assert check_multiple_exchange(f) == _mnat_m_verdict(f, hit)


@given(near_valuated_matroid(), SHIFTS)
@settings(max_examples=100, deadline=None)
def test_valuated_matroid_routes_agree(f, c):
    f = _shifted(f, c)
    hit = _assert_routes_agree(f, valuated=True)
    # the public check agrees with the loop oracle
    assert check_valuated_matroid(f) == _valuated_verdict(f, hit)


@st.composite
def equicardinal_tables(draw, max_n=7):
    """Tables finite on k-sets only: weighted U(k, n) raised or lowered at
    one basis (or left as it is), or some of its bases with random
    rational values."""
    # with k or n - k below 2 every |X\Y| is 1, and the one swap repairs every tuple
    n = draw(st.integers(min_value=4, max_value=max_n))
    k = draw(st.integers(2, n - 2))
    ksets = [m for m in range(1 << n) if m.bit_count() == k]
    if draw(st.booleans()):
        w = draw(st.lists(RATIONALS, min_size=n, max_size=n))
        tab = {m: sum((w[e] for e in range(n) if m >> e & 1), Fraction(0)) for m in ksets}
        tab[draw(st.sampled_from(ksets))] += draw(RATIONALS)
    else:
        kept = draw(st.lists(st.sampled_from(ksets), min_size=2, unique=True))
        values = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        tab = {m: draw(values) for m in kept}
    return SetFunction(n, tuple(tab.get(m, NEG_INF) for m in range(1 << n)))


@given(equicardinal_tables(), SHIFTS)
@settings(max_examples=200, deadline=None)
def test_valuated_matroid_is_the_mnat_scan_on_equicardinal_tables(f, c):
    # X-i and Y+i lie off an equicardinal domain, so the deletion term of
    # the mnat-exc scan never repairs a tuple: the kernel's hit is that of
    # the literal swap-axiom scan, and so is check_valuated_matroid's verdict
    _assert_routes_agree(_shifted(f, c), valuated=True)


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
    assert check_single_exchange(g) == _mnat_verdict(g, hit)


def _count_table_builds(monkeypatch):
    """The bits b of every column-table build of the one-item kernel."""
    builds = []
    scan = checkers._scan_per_element

    def spy(da, n, prepare, *sizes):
        def counted(b, yc):
            builds.append(b)
            return prepare(b, yc)

        return scan(da, n, counted, *sizes)

    monkeypatch.setattr(checkers, "_scan_per_element", spy)
    return builds


@pytest.mark.parametrize("room", [0, 1 << 12, None], ids=["no-cache", "some", "default"])
@pytest.mark.parametrize("raised", [None, 0b1, 0b11111110])
def test_column_tables_once_per_scan_within_the_cache_budget(raised, room, monkeypatch):
    n = 8
    f = SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), 4)))
    g = f if raised is None else with_value(f, raised, f.table[raised] + 1)
    if room is not None:
        monkeypatch.setattr(checkers, "_GRID_CACHE_BYTES", room)
    builds = _count_table_builds(monkeypatch)
    hit = _assert_routes_agree(g)
    assert (hit is None) == (raised is None)
    bits = [1 << i for i in range(n)]
    if room is None:  # every element's tables fit: one build each, at most
        assert len(builds) == len(set(builds)) and set(builds) <= set(bits)
    if raised is None:  # a full scan of three chunks
        assert sorted(set(builds)) == bits
        # 128 columns of n int16 and n boolean entries per element: 3 KB,
        # so a budget of 4 KB keeps one element's tables
        assert (len(builds) > n) == (room is not None)
    else:
        assert check_single_exchange(g) == _mnat_verdict(g, hit)


def test_early_exit_builds_only_the_first_chunks_tables(monkeypatch):
    # the violation sits in the first chunk: one build per element it reaches
    n = 8
    f = SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), 4)))
    g = with_value(f, 0b1, f.table[0b1] + 1)
    builds = _count_table_builds(monkeypatch)
    assert check_single_exchange(g).witness is not None
    assert len(builds) == len(set(builds)) <= n


# ----------------------------------------------------------------------
# the one-item kernel's dominance test


# 1 on the 2-sets of four elements, 0 below, -inf above: the difference
# s(X-i+j) - s(X) reads neg - hi for j in a 2-set X, and s(Y) - s(Y+i-j)
# reads hi - neg for j outside a 2-set Y
TWO_SETS = SetFunction.from_callable(
    4, lambda m: NEG_INF if m.bit_count() > 2 else Fraction(m.bit_count() == 2))


@pytest.mark.parametrize("rung", RUNGS[:3])
@pytest.mark.parametrize("above", [False, True], ids=["below", "at"])
def test_dominance_differences_at_the_rung_edges(rung, above):
    # v -> a*v + c puts hi at M = 2^(bits-1) - 1 (+1 at the edge) and the
    # sentinel within 2 of -M: hi - neg, the widest difference, is within
    # 2 of 2*M, the bound the table's dtype admits
    top = (1 << (EDGE_BITS[rung] - 1)) - 1 + above
    a = (2 * top - 1) // 3
    f = SetFunction(4, tuple(v * a + top - a if is_finite(v) else NEG_INF
                             for v in TWO_SETS.table))
    t = f.ints
    assert t.sent.dtype == RUNGS[RUNGS.index(rung) + above]
    assert (t.hi, 2 * max(abs(t.neg), t.hi)) == (top, 2 * top)
    assert t.hi - t.neg >= 2 * top - 2
    hit = _assert_routes_agree(f)
    assert hit is not None and hit == _assert_routes_agree(TWO_SETS)
    assert check_single_exchange(f) == _mnat_verdict(f, hit)


def _spy_one_item(monkeypatch) -> list:
    """Record each chunk of the one-item kernel as ("chunk", its X rows) and
    each sweep as ("sweep", i-bit, X rows, j bits, whether it found a cell)."""
    calls = []
    grid_chunk, first_violation = checkers._grid_chunk, checkers._first_violation

    def chunk_spy(da, xa, *args):
        calls.append(("chunk", xa))
        return grid_chunk(da, xa, *args)

    def sweep_spy(sa, xr, b, y0, yb, jb, neg):
        k = first_violation(sa, xr, b, y0, yb, jb, neg)
        calls.append(("sweep", b, xr, jb, k is not None))
        return k

    monkeypatch.setattr(checkers, "_grid_chunk", chunk_spy)
    monkeypatch.setattr(checkers, "_first_violation", sweep_spy)
    return calls


@pytest.mark.parametrize("c", [1, C], ids=["int16", "object"])
def test_one_item_hit_in_a_later_row_block(c, monkeypatch):
    # blocks of one row: f({2, 3, 4, 6, 7, 8}) lowered by one fails first
    # at X = {1, ..., 4, 6, 7, 8}, and the sweep of i = 1 passes the 15
    # earlier rows holding 1 of the hit's chunk, one block each
    monkeypatch.setattr(checkers, "_BLOCK_BYTES", 1 << 4)
    f = _scaled(_rank(8, 4), c)
    g = with_value(f, 0b11101110, f.table[0b11101110] - c)
    calls = _spy_one_item(monkeypatch)
    hit = _assert_routes_agree(g)
    X, _, ib = hit
    sweeps = [call[1:] for call in calls if call[0] == "sweep"]
    assert all(len(xr) == 1 for _, xr, _, _ in sweeps)
    assert {int(xr[0]) for _, xr, _, bad in sweeps if bad} == {X}
    last = max(k for k, call in enumerate(calls) if call[0] == "chunk")
    chunk = [call[1:] for call in calls[last:] if call[0] == "sweep" and call[1] == ib]
    assert (X, ib, len(chunk)) == (0b11101111, 1, 16)
    assert chunk[-1][3] and not any(bad for *_, bad in chunk[:-1])
    assert check_single_exchange(g) == _mnat_verdict(g, hit)


def test_sweeps_without_a_repairing_j(monkeypatch):
    # every table on one or two elements with values in {-inf, 0, 1}: some
    # sweeps have no column holding a j, so only the deletion term can
    # repair, and some have rows holding every j, whose swap terms all
    # read the sentinel
    calls = _spy_one_item(monkeypatch)
    seen = failing = 0
    for n in (1, 2):
        for tab in product((NEG_INF, Fraction(0), Fraction(1)), repeat=1 << n):
            if all(v is NEG_INF for v in tab):
                continue
            f = SetFunction(n, tab)
            failing += _assert_routes_agree(f) is not None
            seen += 1
    assert seen == 8 + 80 and 0 < failing < seen
    sweeps = [call[2:] for call in calls if call[0] == "sweep"]
    assert any(jb.size == 0 and bad for _, jb, bad in sweeps)
    assert any(jb.size == 0 and not bad for _, jb, bad in sweeps)
    assert any(jb.size and ((xr & jb) != 0).all() for xr, jb, _ in sweeps)


def test_chunk_schedule_of_the_one_item_kernel(monkeypatch):
    # chunks grow 8x from about 4,096 cells: a passing scan at n = 9 reads
    # 8, 64 and 440 rows, and a table raised at row 1 at n = 12 fails in
    # its second chunk
    calls = _spy_one_item(monkeypatch)
    assert check_single_exchange(_rank(9, 4)).passed
    assert [len(call[1]) for call in calls if call[0] == "chunk"] == [8, 64, 440]
    calls.clear()
    f = _rank(12, 6)
    g = with_value(f, 0b1, f.table[0b1] + 1)
    assert check_single_exchange(g).witness.set_mask("X") == 0b1
    assert [len(call[1]) for call in calls if call[0] == "chunk"] == [1, 8]


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
    assert v == _mnat_m_verdict(g, hit)


@pytest.mark.parametrize("n", range(2, 7))
def test_level_skip_on_weighted_uniform_matroids(n, monkeypatch):
    # the bases of U(k, n) are equicardinal, so the multi-item kernel
    # skips level 0 and tries level l only on the tuples with |I| = l;
    # below n = 4 every cell has |X\Y| = 1 and is dropped, so no group runs
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
    assert (failing > 0) == (n >= 4) and all(flags) and bool(flags) == (n >= 4)


# ----------------------------------------------------------------------
# the complement identity of the multi-item scan


def _repaired(s, X, Y, I):
    """Whether some J inside Y\\X repairs (X, Y, I) on the table ``s`` (a list)."""
    lhs = s[X] + s[Y]
    return any(s[(X ^ I) | J] + s[(Y & ~J) | I] >= lhs for J in iter_submasks(Y & ~X))


@given(st.one_of(near_concave(max_n=5), near_valuated_matroid(max_n=5)), SHIFTS)
@settings(max_examples=60, deadline=None)
def test_complement_identity_on_the_loop_oracle(f, c):
    # J repairs (X, Y, I) exactly when (Y\X)\J repairs (X, Y, (X\Y)\I):
    # the two swapped sets trade places, so both sums read the same two
    # entries; I = X\Y is repaired by J = Y\X, so the least failing I of
    # a cell never holds X\Y's top element
    t = IntTable(_shifted(f, c))
    s, dom = t.sent.tolist(), t.dom.tolist()
    for X in dom:
        for Y in dom:
            xd = X & ~Y
            for I in iter_submasks(xd):
                assert _repaired(s, X, Y, I) == _repaired(s, X, Y, xd ^ I)
    hit = _scan_multi_py(s, dom)
    assert hit == _scan_multi_np(t.sent, t.sent, t.dom, t.n)
    if hit is not None:
        X, Y, I = hit
        assert I < 1 << ((X & ~Y).bit_length() - 1)


@pytest.mark.parametrize("kind", ["uniform", "rank"])
def test_canonical_witness_past_two_items(kind, multi_block):
    if kind == "uniform":
        # the bases of U(3, 6), f({4, 5, 6}) raised: an equicardinal table,
        # whose last level (|I| = |X\Y| = 3) has no tuples left to try
        f = with_value(_uniform_weighted(6, 3, W8[:6]), 0b111000, Fraction(17))
        want = (0b111, 0b111000, 0b1)
    else:
        # min(|S|, 4) on n = 6, f({1, 3, 4, 6}) and f({1, 5, 6}) lowered by
        # one: the least failing cell has |X\Y| = 3 and |Y\X| = 1, and
        # its least failing I two elements
        f = _rank(6, 4)
        for m in (0b101101, 0b110001):
            f = with_value(f, m, f.table[m] - 1)
        want = (0b11101, 0b100001, 0b1100)
    hit = _assert_multi_routes_agree(f)
    assert hit == want and (hit[0] & ~hit[1]).bit_count() == 3
    assert check_multiple_exchange(f) == _mnat_m_verdict(f, hit)


# ----------------------------------------------------------------------
# families past one chunk


def _toggled_family(n: int, kind: str, toggles: int) -> SetFamily:
    """The sets of size k - 1 or k (k = n // 2), the bases of U(k, n) or of
    a partition matroid, with ``toggles`` seeded sets moved in or out."""
    rng = Random(f"{n}:{kind}:{toggles}")
    k = n // 2
    if kind == "band":
        members = {m for m in range(1 << n) if m.bit_count() in (k - 1, k)}
    elif kind == "uniform":
        members = {m for m in range(1 << n) if m.bit_count() == k}
    else:
        spec = MatroidSpec.partition([[1, 2, 3], [4, 5, 6], list(range(7, n + 1))], [2, 2, 1])
        members = set(spec.bases().members)
    for _ in range(toggles):
        members ^= {rng.randrange(1 << n)}
    return SetFamily(n, frozenset(members or {0}))


def _count_calls(monkeypatch, name: str) -> list:
    """Record each call of the checkers function ``name`` (its first argument)."""
    calls = []
    fn = getattr(checkers, name)

    def spy(*args):
        calls.append(args[0])
        return fn(*args)

    monkeypatch.setattr(checkers, name, spy)
    return calls


@pytest.mark.parametrize("toggles", range(4))
@pytest.mark.parametrize("kind", ["band", "uniform", "partition"])
@pytest.mark.parametrize("n", [7, 8])
def test_family_scans_past_one_chunk_against_oracle(n, kind, toggles, monkeypatch):
    # small chunks, blocks and column-table budget: the scans read many
    # chunks of X rows, sweep each grid in blocks of one or two rows and
    # rebuild an element's column tables on every chunk.  Chunks grow 8x,
    # so the cap of 64 // members rows, and at least 4, keeps even the
    # 9 members of the n = 7 partition matroid in three chunks: 1, 7, 1
    monkeypatch.setattr(checkers, "_FIRST_CHUNK_CELLS", 16)
    monkeypatch.setattr(checkers, "_BLOCK_BYTES", 1 << 9)
    monkeypatch.setattr(checkers, "_MIN_CAP_ROWS", 4)
    monkeypatch.setattr(checkers, "_GRID_CACHE_BYTES", 1 << 8)
    chunks = _count_calls(monkeypatch, "_grid_chunk")
    multi_chunks = _count_calls(monkeypatch, "_multi_chunk")
    builds = _count_table_builds(monkeypatch)
    fam = _toggled_family(n, kind, toggles)
    for axiom, condition in (("b-exc", "bnat-exc"), ("b-exc-pm", "bnat-exc-pm"),
                             ("b-exc-m", "bnat-exc-m")):
        for calls in (chunks, multi_chunks, builds):
            calls.clear()
        v = check_family(fam, axiom)
        assert v == _oracle_family_verdict(fam, condition)
        if toggles == 0:  # the untouched families pass, so every chunk is read
            assert v.passed
            if axiom == "b-exc-m":
                assert len(multi_chunks) > 2
            else:
                assert len(chunks) > 2 and len(builds) > len(set(builds))
    rng = Random(n)
    f = SetFunction(n, tuple(Fraction(rng.randint(-3, 3)) if m in fam.members else NEG_INF
                             for m in range(1 << n)))
    oracle = _oracle_family_verdict(fam, "local:domain")
    v = check_local(f)
    if oracle.passed:
        assert v.passed or v.witness.condition != "local:domain"
    else:
        assert v == oracle


def test_family_column_tables_are_charged_their_own_size(monkeypatch):
    # a family sweep keeps about 25 bytes per column and no n x columns
    # table, so a budget of that size keeps every element's tables for the
    # whole scan of a passing family: one build per element
    n = 8
    fam = _toggled_family(n, "band", 0)
    da = np.array(fam.sorted_members)
    columns = sum(int((da & (1 << i) == 0).sum()) for i in range(n))
    monkeypatch.setattr(checkers, "_GRID_CACHE_BYTES", 25 * columns)
    monkeypatch.setattr(checkers, "_FIRST_CHUNK_CELLS", 16)
    builds = _count_table_builds(monkeypatch)
    assert check_family(fam, "b-exc").passed and check_family(fam, "b-exc-pm").passed
    assert sorted(builds) == sorted(2 * [1 << i for i in range(n)])


def test_no_family_builds_an_integer_table(monkeypatch):
    # U(3, 6)'s bases without {1, 2, 3} and {1, 2, 4}: every family axiom
    # and local's domain check fail, so each re-check reads the indicator
    n = 6
    fam = SetFamily(n, frozenset(m for m in range(1 << n) if m.bit_count() == 3) - {0b111, 0b1011})
    f = SetFunction(n, tuple(Fraction(0) if m in fam.members else NEG_INF for m in range(1 << n)))
    f.ints, f.argmax_family  # the function's own table is built before counting
    builds = []
    fill = IntTable._fill

    def spy(self, *args):
        builds.append(args[0])
        fill(self, *args)

    monkeypatch.setattr(IntTable, "_fill", spy)
    assert not any(check_family(fam, axiom) for axiom in ("b-exc", "b-exc-m", "b-exc-pm"))
    assert check_local(f).witness.condition == "local:domain"
    for X, Y, I in [(0b10101, 0b101010, 0b1), (0b10101, 0b101010, 0b101),
                    (0b11010, 0b100101, 0b10)]:
        assert find_base_exchange(fam, X, Y, I) == maximizer_exchange(f, X, Y, I)
    assert builds == []
    assert "ints" not in fam.indicator.__dict__


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
    assert int_dtype(t.neg, t.lo, t.hi) is not object and t.sent.dtype == np.int16
    assert int_dtype(tc.neg, tc.lo, tc.hi) is object and tc.sent.dtype == object
    assert IntTable(_scaled(f, 2**40)).sent.dtype == np.int64
    v = check(f)
    for c in (2**40, C):
        vc = check(_scaled(f, c))
        assert v.passed == vc.passed
        if not v.passed:
            w, wc = v.witness, vc.witness
            assert (w.condition, w.sets, w.elements) == (wc.condition, wc.sets, wc.elements)
            assert wc.lhs == w.lhs * c
            assert wc.rhs == (w.rhs * c if is_finite(w.rhs) else NEG_INF)


def test_some_scaled_cases_fail():
    assert sum(not check(f).passed for check, f in CASES) >= 5


# min(|S|, 2) on four elements with f({1, 2, 3}) raised to 3: lo = 0,
# hi = 3 and the sentinel -7; it fails the one- and multi-item exchanges
EDGE_BASE = with_value(_rank(4, 2), 0b0111, Fraction(3))


@pytest.mark.parametrize("rung", RUNGS[:3])
@pytest.mark.parametrize("above", [False, True], ids=["below", "at"])
@pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
def test_kernels_at_the_exact_rung_edges(rung, above, sign):
    # twice the largest magnitude is 2^bits - 2, the last value of the
    # rung, or 2^bits, the first value of the next one; moving up the
    # largest magnitude is hi, moving down the sentinel's
    bits = EDGE_BITS[rung]
    top = (1 << (bits - 1)) - 1 + above
    c = top - 3 if sign > 0 else 7 - top
    f = SetFunction(4, tuple(v + c if is_finite(v) else NEG_INF for v in EDGE_BASE.table))
    t = f.ints
    assert 2 * max(abs(t.neg), abs(t.lo), abs(t.hi)) == (1 << bits) - 2 + 2 * above
    assert t.sent.dtype == RUNGS[RUNGS.index(rung) + above]
    for check in (check_single_exchange, check_multiple_exchange, check_local,
                  check_valuated_matroid):
        want, got = check(EDGE_BASE), check(f)
        assert got.passed == want.passed
        if not want.passed:
            assert (got.witness.condition, got.witness.sets, got.witness.elements) == (
                want.witness.condition, want.witness.sets, want.witness.elements)
    assert not check_single_exchange(f).passed and not check_multiple_exchange(f).passed
    hit = _assert_routes_agree(f)
    assert check_single_exchange(f) == _mnat_verdict(f, hit)
    hit = _assert_multi_routes_agree(f)
    assert check_multiple_exchange(f) == _mnat_m_verdict(f, hit)
    assert _local_hit(t) == _local_oracle(t)
    X, Y, I = hit
    assert find_exchange_set(f, X, Y, I) is None
    assert find_exchange_set(f, 0b0111, 0b1000, 0b0011).j_set == 0b1000


# ----------------------------------------------------------------------
# hits are re-checked against the raw table


def _family_recheck(condition: str, family: SetFamily, hit, dom=None):
    """A family hit re-checked as check_family does: the indicator twice, or
    against an all-zero table for a clause of ``bnat-exc-pm``; ``dom``
    replaces the indicator as the domain table."""
    ind = family.indicator.table
    zero = (0,) * len(ind)
    sides = {"bnat-exc-pm:a": (ind, zero), "bnat-exc-pm:b": (zero, ind)}
    t1, t2 = sides.get(condition, (ind, ind))
    return _exchange_verdict(condition, hit, t1, t2, ind if dom is None else dom,
                             one_item=condition != "bnat-exc-m")


def test_recheck_rejects_a_non_violation(rank2):
    with pytest.raises(InternalCheckError):
        _mnat_verdict(rank2, (0b011, 0b100, 0b001))
    with pytest.raises(InternalCheckError):
        _valuated_verdict(rank2, (0b011, 0b100, 0b001))
    bases = SetFamily(3, frozenset({0b011, 0b101, 0b110}))
    with pytest.raises(InternalCheckError):
        _family_recheck("bnat-exc", bases, (0b011, 0b110, 0b001))
    with pytest.raises(InternalCheckError):
        _mnat_m_verdict(rank2, (0b011, 0b100, 0b011))
    with pytest.raises(InternalCheckError):
        _family_recheck("bnat-exc-m", bases, (0b011, 0b110, 0b001))
    for clause in "ab":
        with pytest.raises(InternalCheckError):
            _family_recheck(f"bnat-exc-pm:{clause}", bases, (0b011, 0b110, 0b001))


@pytest.mark.parametrize("clause, outside", [("a", "Y"), ("a", "X"), ("b", "Y"), ("b", "X")])
def test_recheck_rejects_a_pm_hit_off_the_family(clause, outside):
    # (X, Y, i) = ({1, 2}, {3}, 1) has no repair in either clause when
    # both sets are members; with one of them dropped from the family the
    # one-sided values may still read as a violation, so only the domain
    # table can reject the hit
    X, Y, ib = 0b011, 0b100, 0b001
    fam = SetFamily(3, frozenset({0b011, 0b100}))
    assert _family_recheck(f"bnat-exc-pm:{clause}", fam, (X, Y, ib)).witness is not None
    off = SetFamily(3, frozenset({Y if outside == "X" else X}))
    with pytest.raises(InternalCheckError, match=f"bnat-exc-pm:{clause}"):
        _family_recheck(f"bnat-exc-pm:{clause}", off, (X, Y, ib))
    # where the zero table is the one read at the dropped set, a domain
    # table holding every set lets the hit through: the values miss it
    if (clause, outside) in (("a", "Y"), ("b", "X")):
        everything = (0,) * 8
        assert not _family_recheck(f"bnat-exc-pm:{clause}", off, (X, Y, ib), dom=everything)


def test_recheck_rejects_a_one_item_hit_of_two_elements():
    # f is 5 on {1, 2, 3} and 0 elsewhere: (X, Y, I) = ({1, 2, 3}, {}, {1, 2})
    # violates the multi-item axiom, but no one-item scan reports a pair
    f = SetFunction.from_callable(3, lambda m: Fraction(5 if m == 0b111 else 0))
    hit = (0b111, 0b000, 0b011)
    v = _mnat_m_verdict(f, hit)
    assert (v.witness.lhs, v.witness.rhs) == (5, 0)
    with pytest.raises(InternalCheckError):
        _mnat_verdict(f, hit)
    with pytest.raises(InternalCheckError):
        _valuated_verdict(f, hit)
    fam = SetFamily(3, frozenset({0b111, 0b000}))
    assert _family_recheck("bnat-exc-m", fam, hit).witness.condition == "bnat-exc-m"
    with pytest.raises(InternalCheckError):
        _family_recheck("bnat-exc", fam, hit)


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
    v = _mnat_m_verdict(comp, (0b11, 0b00, 0b01))
    assert (v.witness.lhs, v.witness.rhs) == (3, 2)
    fam = SetFamily(3, frozenset({0b011, 0b100}))
    hit = (0b011, 0b100, 0b001)
    assert _family_recheck("bnat-exc-m", fam, hit).witness.condition == "bnat-exc-m"
    assert _family_recheck("bnat-exc-pm:a", fam, hit).witness.condition == "bnat-exc-pm:a"


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
       SHIFTS)
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
    """A table that counts the entries read through fancy indexing."""

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
        if _scan_b_exc_m(frozenset(members), members, not simultaneous) is not None:
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


def _assert_flags_match(f: SetFunction, sampler: PriceSampler, block: int):
    """Every row's SI and GS flag on one price block and one pair block (the
    ``block``-th, or the last) against the at-price checks; returns both
    flag arrays.  The sweeps compare only first hits, so this is what sees
    a wrong flag on a later row of a block."""
    kern = sampler._kernel(f)
    d = sampler.grid_step.denominator
    out = []
    for cells, pairs in ((1 << f.n, False), (2 << f.n, True)):
        blocks = list(sampler._blocks(f, kern.dtype, cells, pairs))
        if not blocks:
            out.append(np.zeros(0, dtype=bool))
            continue
        rows = blocks[min(block, len(blocks) - 1)]
        if pairs:
            flags = econ._gs_flags(kern, rows)
            want = [not check_gs_at(f, econ._grid_price(r[: f.n], d),
                                    econ._grid_price(r[f.n :], d)).passed
                    for r in rows.tolist()]
        else:
            u, _, demanded = kern(rows)
            flags = econ._si_flags(kern, u, demanded)
            want = [not check_si_at(f, econ._grid_price(r, d)).passed for r in rows.tolist()]
        assert flags.tolist() == want
        out.append(flags)
    return out


@st.composite
def flag_cases(draw):
    """A table of small integers with -inf holes, n <= 5, whose sweeps run
    on int16, or the same table times 2^70, whose sweeps run on object
    arrays; a sampler of small radius; a block index."""
    n = draw(st.integers(0, 5))
    rng = Random(draw(st.integers(0, 2**32)))
    holes = rng.random() / 2
    tab = [NEG_INF if rng.random() < holes else Fraction(rng.randint(-6, 6))
           for _ in range(1 << n)]
    tab[rng.randrange(1 << n)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6))
    big = draw(st.booleans())
    f = SetFunction(n, tuple(tab))
    return (_scaled(f, C) if big else f), big, draw(SAMPLERS), draw(st.integers(0, 3))


@given(flag_cases())
@settings(max_examples=60, deadline=None)
def test_sweep_flags_match_the_at_price_checks_on_every_row(case):
    f, big, sampler, block = case
    assert sampler._kernel(f).dtype is (object if big else np.int16)
    _assert_flags_match(f, sampler, block)


def test_sweep_flags_hold_past_a_blocks_first_row():
    # rank(5, 2) with f({1, ..., 5}) raised by two: the fourth blocks of both
    # streams mix failing and passing rows.  Times 2^70, with the grid and
    # radius scaled alike, the same integers k are drawn, so the object
    # route must raise the same flags
    g = with_value(_rank(5, 2), 0b11111, Fraction(4))
    small = PriceSampler(seed=3, count=300, radius=Fraction(3, 2))
    big = PriceSampler(seed=3, count=300, grid_step=Fraction(C, 2), radius=Fraction(3 * C, 2))
    assert small._kernel(g).dtype is np.int16 and big._kernel(_scaled(g, C)).dtype is object
    want = _assert_flags_match(g, small, 3)
    for flags in want:
        assert flags[1:].sum() > 10 and not flags.all()
    got = _assert_flags_match(_scaled(g, C), big, 3)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


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
    # |values| = 0, n = 1, scale 1: the sentinel is -(bound + 1), and each
    # rung holds while twice its magnitude stays below 2^14, 2^30 or 2^62
    f = SetFunction(1, (Fraction(0), Fraction(0)))
    for edge, below, above in ((2**13, np.int16, np.int32), (2**29, np.int32, np.int64),
                               (2**61, np.int64, object)):
        assert _DemandKernel(f, 1, edge - 2).dtype is below
        assert _DemandKernel(f, 1, edge - 1).dtype is above
        for k in (edge - 2, edge - 1, -edge + 2, -edge + 1):
            p = PriceVector((Fraction(k),))
            d = demand(f, p)
            assert (d.members.members, d.value) == _oracle_demand(f, p)
    # small scaled values but a price unit past each rung, even at price zero
    for den, want in ((2**13 - 1, np.int16), (2**13, np.int32), (2**29 - 1, np.int32),
                      (2**29, np.int64), (3**50, object)):
        g = SetFunction(1, (Fraction(0), Fraction(1, den)))
        assert _DemandKernel(g, 1, 0).dtype is want
        assert _DemandKernel(g, den, 0).dtype is np.int16
        for p in (PriceVector((0,)), PriceVector((Fraction(1, den),))):
            d = demand(g, p)
            assert (d.members.members, d.value) == _oracle_demand(g, p)


def test_demand_scale_set_by_the_price_alone():
    # an all-zero table times a multiplier past any rung stays zero on int16
    z = SetFunction(2, (Fraction(0),) * 4)
    for den in (2**13, 2**29, 2**61, 3**50):
        assert _DemandKernel(z, den, 1).dtype is np.int16
        for p in (PriceVector((Fraction(1, den), 0)), PriceVector((1, Fraction(-2, den)))):
            d = demand(z, p)
            assert (d.members.members, d.value) == _oracle_demand(z, p)


def test_empty_ground_set_kernel_holds_its_price_rows():
    # with n = 0 the sentinel has no price terms, so the bound on the grid
    # integers sets the dtype: the integer sweep scales its rows by d
    f = SetFunction(0, (Fraction(0),))
    sampler = PriceSampler(seed=1, count=5, grid_step=Fraction(1, 10**5))
    assert sampler._kernel(f).dtype is np.int32
    for check in (check_gs_sampled, check_si_sampled, check_nc_sampled):
        assert check(f, sampler).passed


def test_forged_sweep_hits_are_rejected(rank2, monkeypatch):
    sampler = PriceSampler(seed=1, count=20)
    monkeypatch.setattr(econ, "_gs_flags", lambda kern, pq: np.ones(len(pq), dtype=bool))
    monkeypatch.setattr(econ, "_si_flags", lambda kern, u, dem: np.ones(u.shape[1], dtype=bool))
    # rank2 has no NC violation at any price, so the sweep and check_nc_at
    # both take the forged (X, Y, I) and the J re-check on the exact
    # demand set rejects it
    monkeypatch.setattr(econ, "_stack_hit", lambda mem, one_sided: (0, 0b1, 0b10, 0b1))
    with pytest.raises(InternalCheckError):
        check_gs_sampled(rank2, sampler)
    with pytest.raises(InternalCheckError):
        check_si_sampled(rank2, sampler)
    for simultaneous in (False, True):
        with pytest.raises(InternalCheckError, match="raw data"):
            check_nc_sampled(rank2, sampler, simultaneous)
        with pytest.raises(InternalCheckError, match="raw data"):
            check_nc_at(rank2, PriceVector((0, 0, 0)), simultaneous)


@pytest.mark.parametrize("simultaneous", [False, True], ids=["nc", "ncsim"])
def test_nc_recheck_rejects_a_hit_off_the_demand_set(rank2, simultaneous, monkeypatch):
    # at p = 0 rank2 demands every set of two or three elements; (X, Y, I)
    # = ({1, 2}, {3}, {1, 2}) has no J keeping X-I+J demanded, so NC's
    # one-sided values read as a violation; Y is not demanded, which only
    # the domain table shows for NC
    p = PriceVector((0, 0, 0))
    assert {m for m in range(8) if m.bit_count() >= 2} == demand(rank2, p).members.members
    monkeypatch.setattr(econ, "_stack_hit", lambda mem, one_sided: (0, 0b011, 0b100, 0b011))
    with pytest.raises(InternalCheckError, match="raw data"):
        check_nc_at(rank2, p, simultaneous)


# ----------------------------------------------------------------------
# the multi-item kernel on stacks of families


def _stack(n, rows):
    """The rows x 2^n membership matrix of the member lists ``rows``."""
    mem = np.zeros((len(rows), 1 << n), dtype=bool)
    for r, ms in enumerate(rows):
        mem[r, ms] = True
    return mem


def _assert_stack_agrees(n, rows, one_sided):
    """The kernel's least (row, X, Y, I) is the oracle's first failing row
    and its first hit."""
    want = None
    for r, ms in enumerate(rows):
        hit = _scan_b_exc_m(frozenset(ms), ms, one_sided)
        if hit is not None:
            want = (r, *hit)
            break
    assert _stack_hit(_stack(n, rows), one_sided) == want
    return want


@pytest.fixture(params=[False, True], ids=["default-blocks", "one-cell-blocks"])
def multi_block(request, monkeypatch):
    # with one-cell blocks every X is its own chunk, so chunks split rows
    if request.param:
        monkeypatch.setattr(checkers, "_MULTI_BLOCK", 1)


@pytest.mark.parametrize("one_sided", [False, True], ids=["ncsim", "nc"])
def test_stacked_kernel_on_every_small_family(one_sided, multi_block):
    for n in range(1, 4):
        masks = range(1 << n)
        families = [[m for m in masks if bits >> m & 1] for bits in range(1, 1 << len(masks))]
        failing = [ms for ms in families if _assert_stack_agrees(n, [ms], one_sided)]
        passing = [ms for ms in families if ms not in failing]
        assert passing and bool(failing) == (n > 1)
        _assert_stack_agrees(n, families, one_sided)
        assert _assert_stack_agrees(n, passing, one_sided) is None
        if failing:
            assert _assert_stack_agrees(n, passing + failing[::-1], one_sided)[0] == len(passing)


@pytest.mark.parametrize("one_sided,want", [(True, 0b010), (False, 0b001)], ids=["nc", "ncsim"])
def test_one_sided_scan_keeps_every_i(one_sided, want, multi_block):
    # D = {{2}, {1, 2}, {3}}: at (X, Y) = ({1, 2}, {3}) NC's least failing I
    # is {2}, X\Y's top element, so a scan of half the I would miss it;
    # NC-sim fails at I = {1} and, as the complement identity says, at {2}
    row = _stack(3, [[0b010, 0b011, 0b100]])
    assert _stack_hit(row, one_sided) == (0, 0b011, 0b100, want)


def _spy_i_bits(monkeypatch) -> list:
    """Record each group the multi-item kernel runs: whether it reads one
    table on both sides, its |X\\Y|, and, per cell, X\\Y and the bits of
    it that the cell's I are built from."""
    groups = []
    group, low_bits = checkers._multi_group, checkers._low_bits

    def spy_group(s1, s2, X, Y, xd, yd, a, *rest):
        groups.append((s2 is s1, a, xd, []))
        return group(s1, s2, X, Y, xd, yd, a, *rest)

    def spy_bits(v, k):
        out = low_bits(v, k)
        _, _, xd, built = groups[-1]
        if np.shares_memory(v, xd):  # a block of X\Y, not of Y\X
            built += zip(v.tolist(), np.bitwise_or.reduce(out, axis=0).tolist())
        return out

    monkeypatch.setattr(checkers, "_multi_group", spy_group)
    monkeypatch.setattr(checkers, "_low_bits", spy_bits)
    return groups


def test_symmetric_scans_build_half_the_i(monkeypatch):
    # one table on both sides: no group with |X\Y| = 1 runs and no I holds
    # X\Y's top element; the one-sided form keeps both
    groups = _spy_i_bits(monkeypatch)
    n = 3
    for bits in range(1, 1 << (1 << n)):
        row = _stack(n, [[m for m in range(1 << n) if bits >> m & 1]])
        for one_sided in (False, True):
            _stack_hit(row, one_sided)
    for _, f in CASES:
        check_multiple_exchange(f)
    sym = [a for symmetric, a, _, _ in groups if symmetric]
    one = [a for symmetric, a, _, _ in groups if not symmetric]
    assert min(sym) == 2 and min(one) == 1
    cells = 0
    for symmetric, _, _, built in groups:
        for xd, used in built:
            top = 1 << (xd.bit_length() - 1)
            assert used == (xd ^ top if symmetric else xd)
            cells += 1
    assert cells


def _sample_family(rng: Random, n: int) -> list[int]:
    """A box [A, A | B], a band of sizes, a box with one set dropped, or
    random masks (empty and singleton families included)."""
    kind = rng.randrange(4)
    full = (1 << n) - 1
    if kind in (0, 2):
        A = rng.randrange(1 << n)
        B = rng.randrange(1 << n) & ~A
        ms = [A | S for S in iter_submasks(B)]
        if kind == 2 and len(ms) > 2:
            ms.remove(rng.choice(ms))
        return sorted(ms)
    if kind == 1:
        lo = rng.randint(0, n)
        hi = rng.randint(lo, n)
        return [m for m in range(full + 1) if lo <= m.bit_count() <= hi]
    return sorted(rng.sample(range(full + 1), rng.choice([0, 1, 2, 3, rng.randint(4, 12)])))


@pytest.mark.parametrize("one_sided", [False, True], ids=["ncsim", "nc"])
def test_stacked_kernel_on_mixed_stacks(one_sided, multi_block):
    rng = Random(15)
    rows_failing = []
    for _ in range(80):
        n = rng.randint(4, 5)
        rows = [_sample_family(rng, n) for _ in range(rng.randint(1, 8))]
        hit = _assert_stack_agrees(n, rows, one_sided)
        rows_failing.append(None if hit is None else hit[0])
    # some stacks pass, and some fail past their first row
    assert None in rows_failing and any(r for r in rows_failing if r is not None)


def test_zero_function_demands_every_set_and_passes_nc():
    n = 6
    f = SetFunction.from_callable(n, lambda m: Fraction(0))
    p = PriceVector((0,) * n)
    assert demand(f, p).members.members == frozenset(range(1 << n))
    # radius 0: every sampled price is p = 0
    sampler = PriceSampler(seed=1, count=3, radius=0)
    for simultaneous in (False, True):
        assert check_nc_at(f, p, simultaneous).passed
        assert check_nc_sampled(f, sampler, simultaneous).passed
    assert _price_sweep(f, sampler, ("nc", "ncsim")) == {"nc": Verdict(True), "ncsim": Verdict(True)}


# ----------------------------------------------------------------------
# one group per |X\Y|, and each level's J in rounds


@st.composite
def mixed_width_tables(draw, max_n=6):
    """g(|S|) plus weights on the sets of sizes lo..hi, some of them
    dropped (so the domain is not a box), then one or two entries raised
    or lowered; or seeded values 0..3 on such a domain, which fail at once.
    Each |X\\Y| group of a chunk holds cells of several |Y\\X|, so the
    first hit may lie in a cell narrower than others of its group."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    lo = draw(st.integers(0, 1))
    hi = draw(st.integers(max(2, lo), n))
    dom = [m for m in range(1 << n) if lo <= m.bit_count() <= hi]
    dropped = set(draw(st.lists(st.sampled_from(dom), max_size=3)))
    dom = [m for m in dom if m not in dropped] or [0]
    if draw(st.booleans()):
        rng = Random(draw(st.integers(0, 10**6)))
        vals = {m: Fraction(rng.randint(0, 3)) for m in dom}
    else:
        incs = sorted(draw(st.lists(RATIONALS, min_size=n, max_size=n)), reverse=True)
        w = draw(st.lists(RATIONALS, min_size=n, max_size=n))
        g = [sum(incs[:k], Fraction(0)) for k in range(n + 1)]
        vals = {m: g[m.bit_count()] + sum(w[e] for e in range(n) if m >> e & 1) for m in dom}
        for _ in range(draw(st.integers(1, 2))):
            m = draw(st.sampled_from(dom))
            vals[m] += draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)]))
    return SetFunction(n, tuple(vals.get(m, NEG_INF) for m in range(1 << n)))


@given(mixed_width_tables(), SHIFTS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mixed_width_groups_match_the_loop_oracle(multi_block, f, c):
    f = _shifted(f, c)
    hit = _assert_multi_routes_agree(f)
    assert check_multiple_exchange(f) == _mnat_m_verdict(f, hit)


@st.composite
def mixed_width_stacks(draw):
    """Stacks of one to four families at n = 4..6, each a band of sizes
    with some sets dropped or random masks."""
    n = draw(st.integers(4, 6))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lo = draw(st.integers(0, n - 2))
            hi = draw(st.integers(lo + 1, n))
            band = [m for m in range(1 << n) if lo <= m.bit_count() <= hi]
            dropped = set(draw(st.lists(st.sampled_from(band), max_size=3)))
            ms = [m for m in band if m not in dropped]
        else:
            ms = sorted(set(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=24))))
        rows.append(ms or [0])
    return n, rows


@given(mixed_width_stacks(), st.booleans())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mixed_width_stacks_match_the_oracle(multi_block, stack, one_sided):
    n, rows = stack
    _assert_stack_agrees(n, rows, one_sided)


def test_one_group_per_size_of_x_minus_y(monkeypatch):
    # every chunk runs one group per |X\Y| among its cells (|X\Y| >= 2 when
    # one table is read on both sides, >= 1 on a one-sided stack): 47
    # groups for a full scan of min(|S|, 3) at n = 8
    present, ran = [], []
    chunk, group = checkers._multi_chunk, checkers._multi_group

    def spy_chunk(s1, s2, X, Y, pc, equi):
        least = 2 if s2 is s1 else 1
        present.append(sorted({a for a in pc[X & ~Y].tolist() if a >= least}))
        ran.append([])
        return chunk(s1, s2, X, Y, pc, equi)

    def spy_group(s1, s2, X, Y, xd, yd, a, *rest):
        ran[-1].append(a)
        return group(s1, s2, X, Y, xd, yd, a, *rest)

    monkeypatch.setattr(checkers, "_multi_chunk", spy_chunk)
    monkeypatch.setattr(checkers, "_multi_group", spy_group)
    assert check_multiple_exchange(_rank(8, 3)).passed
    assert ran == present and sum(map(len, ran)) == 47
    ran.clear()
    present.clear()
    band = [m for m in range(1 << 6) if 2 <= m.bit_count() <= 4]
    bases = [m for m in band if m.bit_count() == 3]
    for one_sided in (False, True):
        assert _stack_hit(_stack(6, [band, bases]), one_sided) is None
    assert ran == present and len(ran) == 2 and all(ran)


def _spy_j_tries(monkeypatch) -> list:
    """Spy on the multi-item kernel's repair test.  Per group it runs: the
    Y\\X of each built (X, Y, I) tuple under its key (X-I, Y+I, s1(X) +
    s2(Y)), the three numbers the test reads, and a count of the J tried
    on each key; a key names one tuple barring coincidences, which
    :func:`_assert_j_tries_within` allows for.  With the group's widths
    and the hit it returned, as (cell width, widest cell)."""
    groups = []
    group, unrepaired = checkers._multi_group, checkers._unrepaired

    def spy_group(s1, s2, X, Y, xd, yd, a, *rest):
        owners = {}
        for x, y, d in zip(X.tolist(), Y.tolist(), xd.tolist()):
            low = d ^ (1 << (d.bit_length() - 1)) if s2 is s1 else d  # the bits I is built from
            lhs = int(s1[x]) + int(s2[y])
            for I in iter_submasks(low):
                if I:
                    owners.setdefault((x ^ I, y | I, lhs), []).append(y & ~x)
        entry = [owners, Counter(), None]
        groups.append(entry)
        out = group(s1, s2, X, Y, xd, yd, a, *rest)
        if out is not None:
            widths = [v.bit_count() for v in yd.tolist()]
            entry[2] = (widths[out[0]], max(widths))
        return out

    def spy_unrepaired(s1, s2, xi, yi, lhs, J=None):
        cols = np.broadcast_arrays(xi, yi, lhs, 0 if J is None else J)
        groups[-1][1].update(zip(*(col.ravel().tolist() for col in cols)))
        return unrepaired(s1, s2, xi, yi, lhs, J)

    monkeypatch.setattr(checkers, "_multi_group", spy_group)
    monkeypatch.setattr(checkers, "_unrepaired", spy_unrepaired)
    return groups


def _assert_j_tries_within(groups, most):
    """No built tuple tries a J outside its Y\\X or twice, nor more than
    ``most(Y\\X)`` J in all."""
    for owners, tries, _ in groups:
        per_key = Counter()
        for (x, y, lhs, J), count in tries.items():
            yds = owners[x, y, lhs]
            assert count <= sum(J & ~yd == 0 for yd in yds)
            per_key[x, y, lhs] += count
        for key, count in per_key.items():
            assert count <= sum(most(yd) for yd in owners[key])


def _probe_table(n: int, seed: int) -> SetFunction:
    """Seeded values 0..9 on the sets of at most n // 2 elements."""
    rng = Random(f"{n}:{seed}")
    return SetFunction(n, tuple(Fraction(rng.randint(0, 9)) if m.bit_count() <= n // 2
                                else NEG_INF for m in range(1 << n)))


def test_no_tuple_tries_a_j_twice_on_violation_dense_tables(monkeypatch):
    # nine seeded tables that fail within a few cells: each J a tuple
    # tries lies inside its own Y\X, so none tries more than 2^|Y\X|,
    # even where its group holds wider cells; and most hits lie in a cell
    # narrower than the widest of its group
    groups = _spy_j_tries(monkeypatch)
    narrow = 0
    for n in (8, 10, 11):
        for seed in (1, 2, 3):
            groups.clear()
            f = _probe_table(n, seed)
            t = f.ints
            assert _scan_multi_py(t.sent.tolist(), t.dom.tolist()) == _scan_multi_np(
                t.sent, t.sent, t.dom, t.n)
            assert not check_multiple_exchange(f).passed
            _assert_j_tries_within(groups, lambda yd: 1 << yd.bit_count())
            (width, widest), = [g[2] for g in groups if g[2] is not None][-1:]
            narrow += width < widest
    assert narrow >= 5


@pytest.mark.parametrize("n", range(4, 8))
def test_weighted_uniform_matroids_settle_on_each_levels_first_j(n, monkeypatch):
    # on a weighted U(k, n) both sides of every exchange sum to w(X) + w(Y),
    # so the first J of size |I| repairs each tuple: one J per tuple, and
    # no later round runs
    later = _count_calls(monkeypatch, "_later_tries")
    groups = _spy_j_tries(monkeypatch)
    rng = Random(n)
    for k in range(2, n - 1):
        f = _uniform_weighted(n, k, [rng.randint(-3, 3) for _ in range(n)])
        assert check_multiple_exchange(f).passed
    assert groups and not later
    _assert_j_tries_within(groups, lambda yd: 1)


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
    _check_sweep_on_tables(tables, radius, mode, drop)


def _check_sweep_on_tables(tables, radius, mode, drop, lift=0):
    k, items1, items2 = tables
    items1 = [(mask, v + lift) for mask, v in items1]
    items2 = [(mask, v + lift) for mask, v in items2]
    expected = _per_item_sweep(items1, items2, k, radius)
    # "below" leaves a positive gap to the box minimum, so nothing stops early
    primal_int = {"none": None, "primal": _slice_primal(items1, items2),
                  "below": expected[0] - drop}[mode]
    assert _dual_sweep(items1, items2, k, radius, primal_int)[:2] == expected
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
    assert _dual_sweep(items1, items2, k, radius, primal_int)[:2] == expected
    if (2 * radius + 1) ** k <= 729:
        assert _dual_sweep_py(items1, items2, k, radius, primal_int) == expected


def test_dual_sweep_fallback_agrees(rank2, wmat):
    cases = [(rank2, 0b011, 0b101, 0b010), (rank2, 0b001, 0b110, 0b001), (wmat, 0b011, 0b110, 0b001)]
    for f, X, Y, I in cases:
        items1, items2, k = _slice_items(f, X, Y, I)
        fast = _dual_sweep(items1, items2, k, 5, None)[:2]
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
    _check_matroid_slices()


def _check_matroid_slices():
    cases = list(_matroid_slices())
    assert len(cases) == 20
    radius = 9  # the default radius: 2 * (value range) + 1
    for items1, items2, k in cases:
        primal_int = _slice_primal(items1, items2)
        expected = _per_item_sweep(items1, items2, k, radius)
        assert expected[0] == primal_int  # the gap closes, so the sweep stops early
        got = _dual_sweep(items1, items2, k, radius, primal_int)[:2]
        assert got == expected
        if k <= 2:
            assert _dual_sweep_py(items1, items2, k, radius, primal_int) == expected
        # the next point on the line of minimizers lies in a later slab
        q = got[1]
        assert min(q) == -radius
        step = tuple(x + 1 for x in q)
        assert _dual_value(items1, items2, step) == got[0]


def test_dual_sweep_big_values_near_the_guard():
    _check_values_near_the_guard()


def _check_values_near_the_guard():
    # 2 * bound just below 2^60 stays on int64 with the sentinel -2*bound-1
    big = 2**59 - 64
    items1 = [(0, -big), (0b011, big), (0b101, big - 3), (0b110, -big + 7)]
    items2 = [(0, big - 1), (0b001, -big), (0b111, big - 5)]
    for primal_int in (None, _slice_primal(items1, items2)):
        expected = _dual_sweep_py(items1, items2, 3, 2, primal_int)
        assert _dual_sweep(items1, items2, 3, 2, primal_int)[:2] == expected
        assert expected == _per_item_sweep(items1, items2, 3, 2)


@pytest.mark.parametrize("top", [2**59 - 7, 2**59 - 6, 2**59 - 5, 2**60 + 3])
def test_dual_sweep_values_straddling_the_guard(top, monkeypatch):
    _check_values_straddling_the_guard(top, monkeypatch)


def _check_values_straddling_the_guard(top, monkeypatch):
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
        assert _dual_sweep(items1, items2, 3, 2, primal_int)[:2] == expected
        assert expected == _per_item_sweep(items1, items2, 3, 2)
    assert set(routes) == {np.int64 if 2 * (top + 6) < 2**60 else object}


def test_forged_primal_above_the_box_minimum_raises():
    _check_forged_primal()


def _check_forged_primal():
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


@pytest.fixture
def one_row_blocks(monkeypatch):
    """Every block of the sweep's last pass is one row of the grid axis q_1,
    so every slab of k >= 2 splits into 2R + 1 blocks."""
    monkeypatch.setattr(duality, "_SWEEP_BLOCK_BYTES", 1)


@given(slice_tables(), st.integers(0, 4), st.sampled_from(["none", "primal", "below"]),
       st.integers(1, 5), st.sampled_from([0, 1 << 70]))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_row_blocks_match_the_oracles(one_row_blocks, tables, radius, mode, drop, lift):
    # a lift of 2^70 takes the object route
    _check_sweep_on_tables(tables, radius, mode, drop, lift)


def test_one_row_blocks_on_matroid_slices_and_a_forged_primal(one_row_blocks):
    _check_matroid_slices()
    _check_values_near_the_guard()
    _check_forged_primal()


def test_every_block_is_checked_against_the_primal(monkeypatch):
    # g1(q) + g2(-q) = -q_1 in blocks of two rows of q_1: minima 1, -1, -2
    # in every slab, so a forged primal of 0 neither stops the sweep nor
    # lies above a slab's first block, only above its second
    for lift, budget in ((0, 2 * 8), (1 << 70, 2 * 64)):  # an object entry counts 64 bytes
        monkeypatch.setattr(duality, "_SWEEP_BLOCK_BYTES", budget)
        items1, items2 = [(0b10, lift)], [(0b00, lift)]
        assert _dual_sweep(items1, items2, 2, 2, None) == (2 * lift - 2, (-2, 2), 25)
        for sweep in (_dual_sweep, _dual_sweep_py):
            with pytest.raises(InternalCheckError):
                sweep(items1, items2, 2, 2, 2 * lift)


@pytest.mark.parametrize("top", [2**59 - 7, 2**59 - 6, 2**59 - 5, 2**60 + 3])
def test_one_row_blocks_on_values_straddling_the_guard(one_row_blocks, top, monkeypatch):
    _check_values_straddling_the_guard(top, monkeypatch)


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
    assert _dual_sweep([(0, 0)], [(0, 0)], 0, 10**12, 0)[:2] == (0, ())

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
def test_derived_functions_build_their_own_table(parent, X, Y, I, reference_fields):
    t = parent.ints
    assert _int_fields(t) == _int_fields(IntTable(parent)) == reference_fields(parent)
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
        assert _int_fields(g.ints) == _int_fields(IntTable(g)) == reference_fields(g)
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
    assert rep.primal == max(f.table[(X ^ I) | J] + f.table[(Y & ~J) | I]
                             for J in iter_submasks(Y & ~X))
    box = product(range(-r, r + 1), repeat=len(sp.elements))
    prices = [PriceVector(tuple(Fraction(v, t.scale) for v in q)) for q in box]
    assert rep.dual == min(conjugate(sp.f1, q) + conjugate(sp.f2, -q) for q in prices)


# ----------------------------------------------------------------------
# the dual sweep and the demand kernel on every rung of int_dtype

# each integer rung's edge from both sides, with instances moved up
# (sign 1) or down (-1) to it: below the edge a kernel takes the rung,
# past it the next one, and past int64's edge the object route
DTYPE_EDGES = [(rung, above, sign) for rung in (np.int16, np.int32, np.int64)
               for above in (False, True) for sign in (1, -1)]
EDGE_IDS = [f"{np.dtype(r).name}-{'above' if a else 'below'}-{'up' if s > 0 else 'down'}"
            for r, a, s in DTYPE_EDGES]


def _edge_value(rung) -> int:
    """The largest magnitude v for which int_dtype(v) is ``rung``."""
    return (1 << (EDGE_BITS[rung] - 1)) - 1


def _run_on(call, rule=int_dtype):
    """(call(), the set of dtypes taken) with the dual sweep and the demand
    kernel picking their dtype by ``rule``."""
    seen = set()

    def pick(*values):
        dtype = rule(*values)
        seen.add(dtype)
        return dtype

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(duality, "int_dtype", pick)
        mp.setattr(econ, "int_dtype", pick)
        return call(), seen


def _both_kernel_routes(call, want):
    """call() on the dtype the rule picks, which must be ``want``, and on
    the object route; the two results must be equal."""
    got, seen = _run_on(call)
    assert seen == {want}
    assert got == _run_on(call, lambda *values: object)[0]
    return got


def _gap_instance(k, items1, items2, lift):
    """(f, X, Y, I) on k + 2 elements whose exchange slices are the two
    tables lifted by ``lift``: X = {1, 2}, I = {1} and Y = {3, ..., k + 2},
    so f({2} u J) = items1[J] and f({1} u (Y\\J)) = items2[J].  X and Y
    carry the first entry of items1 and every other mask is -inf, so the
    value range is the tables'."""
    y0 = ((1 << k) - 1) << 2
    tab = [NEG_INF] * (1 << (k + 2))
    for mask, v in items1:
        tab[0b10 | mask << 2] = Fraction(v + lift)
    for mask, v in items2:
        tab[0b01 | (y0 ^ mask << 2)] = Fraction(v + lift)
    tab[0b11] = tab[y0] = Fraction(items1[0][1] + lift)
    return SetFunction(k + 2, tuple(tab)), 0b11, y0, 0b01


@pytest.mark.parametrize("edge", DTYPE_EDGES, ids=EDGE_IDS)
@given(tables=slice_tables(max_k=4), radius=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_fenchel_gap_on_every_dtype_matches_the_object_route(edge, tables, radius):
    # the sweep's bound, max |value| + R * k, lands just inside or just past
    # the rung: int_dtype(4 * bound) takes it while bound <= edge // 4
    rung, above, sign = edge
    k, items1, items2 = tables
    vals = [v for _, v in items1 + items2]
    room = _edge_value(rung) // 4 - radius * k - (max(vals) if sign > 0 else -min(vals))
    lift = sign * (room + above)
    f, X, Y, I = _gap_instance(k, items1, items2, lift)
    rep = _both_kernel_routes(lambda: fenchel_gap(f, X, Y, I, box_radius=radius),
                              RUNGS[RUNGS.index(rung) + above])
    if (rung, above) == (np.int16, False):
        # the widest int16 box against the point-by-point sweep
        lifted = [[(mask, v + lift) for mask, v in items] for items in (items1, items2)]
        primal = _slice_primal(*lifted)
        dual, q = _dual_sweep_py(*lifted, k, radius, primal)
        assert (rep.dual, rep.primal) == (dual, NEG_INF if primal is None else primal)
        assert rep.q_star is None or rep.q_star.entries == q


def _demand_shift(f: SetFunction, kern: _DemandKernel, rung, above: bool, sign: int) -> int:
    """The integer c for which the demand kernel of f + c, on the price
    grid and bound of ``kern`` (f's kernel), has its sentinel just inside
    ``rung`` or, with ``above``, just past it."""
    t = f.ints
    mult = kern.scale // t.scale
    rest = -kern.sent - max(abs(t.lo), abs(t.hi)) * mult  # the price terms and 1
    top = (_edge_value(rung) - rest) // mult  # the largest scaled |value| inside
    room = top - (t.hi if sign > 0 else -t.lo)
    return sign * (room // t.scale + above)


def _plus(f: SetFunction, c: int) -> SetFunction:
    """f + c on the domain: its demand sets and default price radius stay."""
    return SetFunction(f.n, tuple(v + c if is_finite(v) else NEG_INF for v in f.table))


# small values and prices, so the price terms of the sentinel stay far
# below int16's edge
HALVES = st.sampled_from([Fraction(v, 2) for v in range(-8, 9)])


@st.composite
def small_tables(draw, max_n):
    n = draw(st.integers(0, max_n))
    tab = draw(st.lists(st.one_of(st.just(NEG_INF), HALVES), min_size=1 << n, max_size=1 << n))
    if not any(is_finite(v) for v in tab):
        tab[0] = Fraction(0)
    return SetFunction(n, tuple(tab))


@pytest.mark.parametrize("edge", DTYPE_EDGES, ids=EDGE_IDS)
@given(f=small_tables(6), data=st.data())
@settings(max_examples=20, deadline=None)
def test_demand_on_every_dtype_matches_the_object_route(edge, f, data):
    rung, above, sign = edge
    prices = st.fractions(-3, 3, max_denominator=3)
    p = PriceVector(tuple(data.draw(prices) for _ in range(f.n)))
    d = lcm(*(v.denominator for v in p.entries))
    row = [v.numerator * (d // v.denominator) for v in p.entries]
    kern = _DemandKernel(f, d, max(map(abs, row), default=0))
    g = _plus(f, _demand_shift(f, kern, rung, above, sign))
    got = _both_kernel_routes(lambda: demand(g, p), RUNGS[RUNGS.index(rung) + above])
    assert (got.members.members, got.value) == _oracle_demand(g, p)


@pytest.mark.parametrize("edge", DTYPE_EDGES, ids=EDGE_IDS)
@given(f=small_tables(4), sampler=SAMPLERS)
@settings(max_examples=12, deadline=None)
def test_sampled_checks_on_every_dtype_match_the_object_route(edge, f, sampler):
    rung, above, sign = edge
    g = _plus(f, _demand_shift(f, sampler._kernel(f), rung, above, sign))

    def verdicts():
        return (check_gs_sampled(g, sampler), check_si_sampled(g, sampler),
                check_nc_sampled(g, sampler), check_nc_sampled(g, sampler, simultaneous=True),
                _price_sweep(g, sampler, ("si", "nc", "ncsim")))

    got = _both_kernel_routes(verdicts, RUNGS[RUNGS.index(rung) + above])
    if (rung, above) == (np.int16, False):
        # the widest int16 sweep against the per-price loops
        want = _assert_sweeps_agree(g, sampler)
        assert got[:4] == (want["gs"], want["si"], want["nc"], want["ncsim"])
