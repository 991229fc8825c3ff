from fractions import Fraction

import pytest

from excheck import (
    NEG_INF,
    EmptySliceError,
    EnumerationSpec,
    InputError,
    MatroidSpec,
    PriceVector,
    SetFamily,
    SetFunction,
    effective_domain,
    mask_from_elements,
    shift_by_price,
    slice_pair,
    with_value,
)
from excheck.sets import iter_bits, iter_submasks


def test_eval_examples(rank2, wmat, comp):
    assert rank2.value(0b111) == 2
    assert wmat.value(0b001) is NEG_INF
    assert comp.value(0b11) == 3


def test_eval_out_of_range(rank2):
    with pytest.raises(InputError):
        rank2.value(8)
    with pytest.raises(InputError):
        rank2.value(-1)


def test_effective_domain_examples(rank2, wmat, comp):
    assert effective_domain(wmat).members == {0b011, 0b101, 0b110}
    assert len(effective_domain(rank2)) == 8
    assert len(effective_domain(comp)) == 4


def test_table_invariants():
    with pytest.raises(InputError):
        SetFunction(2, (NEG_INF,) * 4)  # empty domain
    with pytest.raises(InputError):
        SetFunction(2, (Fraction(0),) * 3)  # wrong length
    with pytest.raises(InputError):
        SetFunction(21, (Fraction(0),) * (1 << 21))
    with pytest.raises(InputError):
        SetFunction(2, (0.5, 0, 0, 0))  # floats rejected


def test_bool_ground_size_rejected():
    with pytest.raises(InputError, match="ground-set size"):
        SetFunction(True, (Fraction(0), Fraction(1)))
    with pytest.raises(InputError, match="ground-set size"):
        SetFamily(True, frozenset({0b1}))
    with pytest.raises(InputError, match="ground-set size"):
        SetFamily(False, frozenset())

    def fn(mask):
        raise AssertionError("the function was called before n was checked")

    # n is checked before 1 << n: no shift error, no 2^21 table, no call of fn
    for n in (-1, 2.0, 21, True):
        for entries in ([], [(0, 1)]):
            with pytest.raises(InputError, match="ground-set size"):
                SetFunction.from_entries(n, entries)
        with pytest.raises(InputError, match="ground-set size"):
            SetFunction.from_callable(n, fn)


def test_from_entries_duplicate():
    with pytest.raises(InputError):
        SetFunction.from_entries(2, [(0b01, 1), (0b01, 2)])


def test_shift_examples(rank2, wmat):
    shifted = shift_by_price(rank2, PriceVector((1, 1, 1)))
    assert shifted.value(0b011) == 0
    assert shift_by_price(rank2, PriceVector.zeros(3)).table == rank2.table
    assert shift_by_price(wmat, PriceVector((0, 0, 1))).value(0b110) == 2
    with pytest.raises(InputError):
        shift_by_price(rank2, PriceVector((1, 1)))


def test_shift_keeps_domain(wmat):
    shifted = shift_by_price(wmat, PriceVector((Fraction(1, 3), 2, -1)))
    assert effective_domain(shifted).members == effective_domain(wmat).members


def test_slice_examples(rank2, wmat):
    sp = slice_pair(rank2, 0b011, 0b100, 0b001)
    assert sp.elements == (3,)
    assert sp.f1.value(0) == 1 and sp.f1.value(1) == 2
    assert sp.f2.value(0) == 2 and sp.f2.value(1) == 1

    # X = Y forces I empty and an empty slice ground set
    sp = slice_pair(rank2, 0b011, 0b011, 0)
    assert sp.elements == ()
    assert sp.f1.value(0) == rank2.value(0b011) == sp.f2.value(0)

    sp = slice_pair(wmat, 0b011, 0b110, 0b001)
    assert sp.f1.value(1) == 3 and sp.f1.value(0) is NEG_INF
    assert sp.f2.value(0) is NEG_INF and sp.f2.value(1) == 1


def test_slice_preconditions(rank2, wmat):
    with pytest.raises(InputError):
        slice_pair(rank2, 0b011, 0b100, 0b100)  # I not inside X\Y
    with pytest.raises(InputError):
        slice_pair(wmat, 0b001, 0b110, 0)  # X outside the domain


def test_slice_empty_domain_raises():
    f = SetFunction.from_entries(3, [(0b011, 0), (0b100, 0)])
    with pytest.raises(EmptySliceError):
        slice_pair(f, 0b011, 0b100, 0b001)


def test_price_vector_ops():
    p = PriceVector((Fraction(1, 2), -1))
    q = PriceVector((0, 3))
    assert p.join(q).entries == (Fraction(1, 2), Fraction(3))
    assert p.meet(q).entries == (Fraction(0), Fraction(-1))
    assert (p + q).entries == (Fraction(1, 2), Fraction(2))
    assert (-p).entries == (Fraction(-1, 2), Fraction(1))
    assert p.leq(q) is False and p.meet(q).leq(p) is True
    assert p.sum_over(0b11) == Fraction(-1, 2)
    assert p.abs_sum() == Fraction(3, 2)
    with pytest.raises(InputError):
        PriceVector((0.5, 1))


def test_with_value(rank2):
    g = with_value(rank2, 0b011, 3)
    assert g.value(0b011) == 3
    assert rank2.value(0b011) == 2  # original untouched


def test_maximizers(rank2, comp):
    assert rank2.max_value == 2
    assert set(rank2.argmax_masks) == {0b011, 0b101, 0b110, 0b111}
    assert comp.argmax_masks == (0b11,)


def test_subset_helpers():
    assert mask_from_elements([3, 1]) == 0b101
    with pytest.raises(InputError):
        mask_from_elements([1, 1])
    with pytest.raises(InputError):
        mask_from_elements([0])


_U23 = MatroidSpec.uniform(2, 3)
_LABEL_RULE = "element labels are positive integers, got "
_NEGATIVE_MASK = "a mask is a nonnegative integer, got -1"


@pytest.mark.parametrize(
    "probe, message",
    [
        pytest.param(lambda: PriceVector((1, 2)).entry(1.5), _LABEL_RULE + "1.5",
                     id="entry-float"),
        pytest.param(lambda: PriceVector((1, 2)).entry(True), _LABEL_RULE + "True",
                     id="entry-bool"),
        pytest.param(lambda: PriceVector((1, 2)).entry(3), "element 3 exceeds ground-set size 2",
                     id="entry-past-n"),
        pytest.param(lambda: PriceVector((1, 2)).sum_over(4),
                     "subset out of range for ground set of size 2: 4", id="sum-over-past-n"),
        pytest.param(lambda: PriceVector((1, 2)).sum_over(True),
                     "subset out of range for ground set of size 2: True", id="sum-over-bool"),
        # next(), not list(): a negative mask used to make both iterators endless
        pytest.param(lambda: next(iter_bits(-1)), _NEGATIVE_MASK, id="iter-bits-negative"),
        pytest.param(lambda: next(iter_submasks(-1)), _NEGATIVE_MASK, id="iter-submasks-negative"),
        pytest.param(lambda: EnumerationSpec("2", (0, 1)), "n must be an integer, got '2'",
                     id="enumeration-str"),
        pytest.param(lambda: EnumerationSpec(2.0, (0, 1)), "n must be an integer, got 2.0",
                     id="enumeration-float"),
        pytest.param(lambda: EnumerationSpec(True, (0, 1)), "n must be an integer, got True",
                     id="enumeration-bool"),
        pytest.param(lambda: _U23.rank(True), "subset out of range for ground set of size 3: True",
                     id="rank-bool"),
        pytest.param(lambda: _U23.rank(1.5), "subset out of range for ground set of size 3: 1.5",
                     id="rank-float"),
        pytest.param(lambda: _U23.rank(8), "subset out of range for ground set of size 3: 8",
                     id="rank-past-n"),
        pytest.param(lambda: MatroidSpec.uniform(True, 3), "k must be an integer, got True",
                     id="uniform-bool"),
        pytest.param(lambda: MatroidSpec.uniform("2", 3), "k must be an integer, got '2'",
                     id="uniform-str"),
        pytest.param(lambda: MatroidSpec.uniform(1.5, 3), "k must be an integer, got 1.5",
                     id="uniform-float"),
        pytest.param(lambda: MatroidSpec.free("2"), "n must be an integer, got '2'",
                     id="free-str"),
        pytest.param(lambda: MatroidSpec.partition([[1, 2]], [1.9]),
                     "capacity must be an integer, got 1.9", id="partition-float-cap"),
        pytest.param(lambda: MatroidSpec.partition([[1.5, 2]], [1]),
                     "block element must be an integer, got 1.5", id="partition-float-element"),
        pytest.param(lambda: MatroidSpec.partition([["1", 2]], [1]),
                     "block element must be an integer, got '1'", id="partition-str-element"),
        pytest.param(lambda: MatroidSpec.graphic([(1.5, 2), (2, 3)]),
                     "edge endpoint must be an integer, got 1.5", id="graphic-float-vertex"),
        pytest.param(lambda: MatroidSpec.graphic([("1", 2), (2, 3)]),
                     "edge endpoint must be an integer, got '1'", id="graphic-str-vertex"),
        pytest.param(lambda: MatroidSpec(kind="bogus", n=2).bases(),
                     "unknown matroid kind 'bogus'", id="matroid-unknown-kind"),
    ],
)
def test_labels_masks_and_generator_arguments_are_refused(probe, message):
    with pytest.raises(InputError) as exc:
        probe()
    assert str(exc.value) == message
