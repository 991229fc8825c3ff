import tracemalloc
from fractions import Fraction

import pytest

from excheck import (
    NEG_INF,
    InputError,
    PriceVector,
    SetFunction,
    big_m_vectors,
    check_submodular_pair,
    conjugate,
    conjugate_argmax,
    fenchel_gap,
    slice_pair,
)
from excheck import duality


def test_conjugate_examples(rank2):
    assert conjugate(rank2, PriceVector.zeros(3)) == 2
    assert conjugate(rank2, PriceVector((1, 1, 1))) == 0
    # huge prices force the empty set whenever it is feasible
    big = PriceVector((100, 100, 100))
    value, argmax = conjugate_argmax(rank2, big)
    assert value == rank2.value(0) and argmax == 0


def test_conjugate_certificate(rank2):
    p = PriceVector((Fraction(1, 2), 2, -1))
    value, argmax = conjugate_argmax(rank2, p)
    sums = p.subset_sums
    assert value == rank2.value(argmax) - sums[argmax]
    assert all(value >= rank2.table[m] - sums[m] for m in range(8))


def test_conjugate_length_mismatch(rank2):
    with pytest.raises(InputError):
        conjugate(rank2, PriceVector((0, 0)))


def test_submodular_pair_examples(rank2, comp):
    v = check_submodular_pair(rank2, PriceVector.zeros(3), PriceVector((1, 1, 1)))
    assert v.passed

    p = PriceVector((Fraction(5, 2), -1, Fraction(1, 3)))
    assert check_submodular_pair(rank2, p, p).passed  # join = meet = p

    # complements break submodularity of the conjugate: crossing prices
    v = check_submodular_pair(comp, PriceVector((2, 0)), PriceVector((0, 2)))
    assert not v.passed
    assert v.witness.lhs == 2 and v.witness.rhs == 3


def test_fenchel_gap_rank2(rank2):
    rep = fenchel_gap(rank2, 0b011, 0b100, 0b001)
    assert rep.primal == 3 and rep.dual == 3 and rep.gap == 0
    assert rep.y0_elements == (3,)
    assert rep.q_star.entries == (Fraction(1),)


def test_fenchel_gap_empty_ground(rank2, comp):
    rep = fenchel_gap(rank2, 0b011, 0b011, 0)
    assert rep.primal == rep.dual == 2 * rank2.value(0b011)
    assert rep.gap == 0 and rep.q_star.entries == ()

    rep = fenchel_gap(comp, 0b11, 0, 0b01)
    assert rep.primal == 2 and rep.dual == 2 and rep.gap == 0


def _box_points(rep):
    m = 2 * int(rep.box_radius * rep.scale) + 1
    return m ** len(rep.y0_elements)


def test_closing_gap_stops_at_the_first_slab():
    f = SetFunction.from_callable(6, lambda m: Fraction(min(m.bit_count(), 3)))
    rep = fenchel_gap(f, 0b000011, 0b011100, 0b000001)
    assert rep.gap == 0 and len(rep.y0_elements) == 3
    radius = int(rep.box_radius)
    m = 2 * radius + 1
    slabs = int(rep.q_star.entries[0]) + radius + 1
    assert rep.points_visited == slabs * m**2 < _box_points(rep)

    # a one-point box too small to close the gap
    rep = fenchel_gap(f, 0b000011, 0b011100, 0b000001, box_radius=Fraction(0))
    assert rep.gap == 1 and rep.points_visited == 1


def _rank7_closing_box():
    """min(|S|, 7) on ten elements with |Y\\X| = 5: the default radius is 15,
    so the box is 31^5 and one slab holds 31^4 entries."""
    f = SetFunction.from_callable(10, lambda m: min(m.bit_count(), 7))
    return f, 0b0000011111, 0b1111100000, 0b0000000001


def test_closing_gap_stops_inside_a_multi_block_slab(monkeypatch):
    # one row of q_1 per block: the count ends at the row holding q_star
    monkeypatch.setattr(duality, "_SWEEP_BLOCK_BYTES", 1)
    f = SetFunction.from_callable(6, lambda m: Fraction(min(m.bit_count(), 3)))
    rep = fenchel_gap(f, 0b000011, 0b011100, 0b000001)
    assert rep.gap == 0 and rep.q_star.entries == (1, 1, 1)
    radius = int(rep.box_radius)
    m = 2 * radius + 1
    assert rep.points_visited == (1 + radius) * m**2 + (1 + radius + 1) * m == 1935

    # the default budget splits a 31^4 slab into one-row blocks by itself
    monkeypatch.undo()
    f, X, Y, I = _rank7_closing_box()
    rep = fenchel_gap(f, X, Y, I)
    assert rep.gap == 0 and rep.q_star.entries == (1,) * 5 and int(rep.box_radius) == 15
    assert rep.points_visited == 16 * 31**4 + 17 * 31**3 < 17 * 31**4


def test_dual_sweep_memory_stays_within_blocks():
    # the whole slab of 31^4 int64 entries per buffer took about 16 MB;
    # the sweep holds 2 * 31^3 entries per side plus one block
    f, X, Y, I = _rank7_closing_box()
    f.ints  # the cached integer table is built before tracing starts
    tracemalloc.start()
    try:
        rep = fenchel_gap(f, X, Y, I)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.gap == 0
    assert peak < 4 * 2**20


def test_fenchel_gap_positive():
    # values chosen so the averaged (fractional) pairing beats every common J
    f = SetFunction.from_entries(
        4,
        [
            (0b0011, -10),          # X
            (0b1100, 0),            # Y
            (0b0000, 0),
            (0b0100, -10),
            (0b1000, -10),
            (0b0111, 0),            # {1,2,3}
            (0b1011, 0),            # {1,2,4}
            (0b1111, -10),
        ],
    )
    rep = fenchel_gap(f, 0b0011, 0b1100, 0b0011)
    assert rep.primal == -10
    assert rep.dual == 0
    assert rep.gap == 10
    assert rep.q_star is None
    assert rep.note is not None
    assert rep.points_visited == _box_points(rep)  # a positive gap sweeps the whole box


def test_infinite_gap_visits_the_whole_box():
    # slices with disjoint finite supports: the primal is -inf
    f = SetFunction.from_entries(3, [(0b011, 0), (0b100, 0), (0b010, 0), (0b001, 0)])
    rep = fenchel_gap(f, 0b011, 0b100, 0b001)
    assert rep.gap is None and rep.points_visited == _box_points(rep) == 3


def test_fenchel_gap_degenerate_slice():
    f = SetFunction.from_entries(3, [(0b011, 0), (0b100, 0)])
    rep = fenchel_gap(f, 0b011, 0b100, 0b001)
    assert rep.primal is NEG_INF and rep.dual is NEG_INF
    assert rep.gap == 0 and rep.q_star is None
    assert "degenerate" in rep.note
    assert rep.points_visited == 0  # no sweep


def test_fenchel_box_monotone(rank2):
    # enlarging the box never increases the dual
    duals = []
    for radius in (0, 1, 2, 5, 9):
        rep = fenchel_gap(rank2, 0b011, 0b100, 0b001, box_radius=Fraction(radius))
        duals.append(rep.dual)
    assert all(a >= b for a, b in zip(duals, duals[1:]))


def test_fenchel_fractional_values():
    f = SetFunction(2, (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    rep = fenchel_gap(f, 0b01, 0b10, 0b01)
    assert rep.gap == 0
    assert rep.scale == 2
    assert rep.primal == rep.dual == 1


def test_default_box_attains_global_integer_min():
    """For finite primal the default radius already contains a global
    integer minimizer; with disjoint slice supports the dual objective can
    be unbounded below and only the min found in the box is reported."""
    from random import Random

    from excheck import is_finite
    from excheck.errors import EmptySliceError

    rng = Random(99)
    finite_cases = degenerate = 0
    while finite_cases < 120:
        n = rng.randint(2, 4)
        tab = [
            rng.choice([NEG_INF, Fraction(0), Fraction(1), Fraction(2), Fraction(-1)])
            for _ in range(1 << n)
        ]
        if not any(v is not NEG_INF for v in tab):
            tab[0] = Fraction(0)
        f = SetFunction(n, tuple(tab))
        dom = f.dom_masks
        X, Y = rng.choice(dom), rng.choice(dom)
        I = 0
        m = X & ~Y
        while m:
            b = m & -m
            m ^= b
            if rng.random() < 0.5:
                I |= b
        try:
            r1 = fenchel_gap(f, X, Y, I)
        except EmptySliceError:
            continue
        if not is_finite(r1.primal):
            assert r1.gap is None or r1.gap == 0
            degenerate += 1
            continue
        lo, hi = f.value_range
        r2 = fenchel_gap(f, X, Y, I, box_radius=2 * (hi - lo) + 6)
        assert r1.dual == r2.dual and r1.gap == r2.gap
        assert r1.gap >= 0
        finite_cases += 1
    assert finite_cases == 120


def test_weak_duality_every_q(rank2, wmat):
    for f, X, Y, I in ((rank2, 0b011, 0b100, 0b001), (wmat, 0b011, 0b110, 0b001)):
        sp = slice_pair(f, X, Y, I)
        primal = max(
            sp.f1.table[m] + sp.f2.table[m] for m in range(1 << len(sp.elements))
        )
        for qv in (-3, Fraction(-1, 2), 0, Fraction(5, 3), 7):
            q = PriceVector((qv,) * len(sp.elements))
            assert conjugate(sp.f1, q) + conjugate(sp.f2, -q) >= primal


# ----------------------------------------------------------------------
# big-M construction


def _check_relations(f, X, Y, I, q, pair):
    sp = slice_pair(f, X, Y, I)
    m = pair.m_value
    c = X & Y
    x0_keep = (X & ~Y) & ~I
    q_total = sum(q.entries, Fraction(0))
    assert conjugate(sp.f1, q) == conjugate(f, pair.p1) - m * (
        x0_keep.bit_count() + c.bit_count()
    )
    assert conjugate(sp.f2, -q) == conjugate(f, pair.p2) - m * (
        I.bit_count() + c.bit_count()
    ) + q_total
    assert conjugate(f, pair.p1.join(pair.p2)) >= f.value(Y) - q_total + m * c.bit_count()
    assert conjugate(f, pair.p1.meet(pair.p2)) >= f.value(X) + m * X.bit_count()


def test_big_m_worked_example(rank2):
    q = PriceVector((Fraction(1),))
    pair = big_m_vectors(rank2, 0b011, 0b100, 0b001, q, m_value=Fraction(10))
    assert pair.p1.entries == (Fraction(10), Fraction(-10), Fraction(1))
    assert pair.p2.entries == (Fraction(-10), Fraction(10), Fraction(1))
    assert conjugate(rank2, pair.p1) == 11
    assert conjugate(rank2, pair.p2) == 11
    g2mq = conjugate(rank2, pair.p2) - 10 * 1 + 1
    assert g2mq == 2
    _check_relations(rank2, 0b011, 0b100, 0b001, q, pair)


def test_big_m_threshold_and_above(rank2, wmat):
    cases = [
        (rank2, 0b011, 0b100, 0b001, PriceVector((Fraction(-3, 2),))),
        (rank2, 0b011, 0b101, 0b010, PriceVector((Fraction(2),))),
        (wmat, 0b011, 0b110, 0b001, PriceVector((Fraction(0),))),
    ]
    for f, X, Y, I, q in cases:
        pair = big_m_vectors(f, X, Y, I, q)
        _check_relations(f, X, Y, I, q, pair)
        bigger = big_m_vectors(f, X, Y, I, q, m_value=10 * pair.m_value)
        _check_relations(f, X, Y, I, q, bigger)


def test_big_m_degenerate_regions(rank2):
    # I = X\Y leaves no kept region; C empty
    q = PriceVector((Fraction(0),))
    pair = big_m_vectors(rank2, 0b011, 0b100, 0b011, q)
    assert not any(v == -pair.m_value for v in pair.p1.entries[:2])
    _check_relations(rank2, 0b011, 0b100, 0b011, q, pair)

    # q = 0 reduces to pure selection identities
    pair = big_m_vectors(rank2, 0b011, 0b100, 0b001, PriceVector((0,)))
    _check_relations(rank2, 0b011, 0b100, 0b001, PriceVector((0,)), pair)


def test_big_m_rejects_small_m(rank2):
    q = PriceVector((Fraction(1),))
    with pytest.raises(InputError):
        big_m_vectors(rank2, 0b011, 0b100, 0b001, q, m_value=Fraction(1))


def test_big_m_needs_nonempty_slices():
    f = SetFunction.from_entries(3, [(0b011, 0), (0b100, 0)])
    with pytest.raises(InputError):
        big_m_vectors(f, 0b011, 0b100, 0b001, PriceVector((0,)))


def test_big_m_wrong_q_length(rank2):
    with pytest.raises(InputError):
        big_m_vectors(rank2, 0b011, 0b100, 0b001, PriceVector((0, 0)))
