from fractions import Fraction

import pytest

from excheck import (
    NEG_INF,
    EnumerationSpec,
    InputError,
    MatroidSpec,
    PriceSampler,
    PriceVector,
    check_family,
    check_single_exchange,
    check_valuated_matroid,
    enumerate_functions,
    gen_modular_plus_concave,
    gen_rank_valuation,
    gen_weighted_matroid,
    mutate,
    with_value,
)


def test_uniform_weighted_is_wmat(wmat):
    f = gen_weighted_matroid(MatroidSpec.uniform(2, 3, weights=(0, 1, 2)))
    assert f.table == wmat.table
    assert check_valuated_matroid(f).passed


def test_graphic_weighted_k4(k4):
    spec = MatroidSpec.graphic(k4.edges, weights=[0] * 6)
    f = gen_weighted_matroid(spec)
    assert len(f.dom_masks) == 16  # spanning trees of the complete graph on 4
    assert all(f.table[m] == 0 for m in f.dom_masks)
    assert check_valuated_matroid(f).passed


def test_free_weighted_is_modular():
    w = (1, 2, 3)
    f = gen_weighted_matroid(MatroidSpec.free(3, weights=w))
    assert len(f.dom_masks) == 8
    assert f.value(0b101) == 4
    assert check_single_exchange(f).passed


def test_weighted_needs_weights():
    with pytest.raises(InputError):
        gen_weighted_matroid(MatroidSpec.uniform(2, 3))


def test_rank_valuation_examples(rank2):
    f = gen_rank_valuation(MatroidSpec.uniform(2, 3))
    assert f.table == rank2.table

    part = gen_rank_valuation(MatroidSpec.partition([(1, 2), (3,)], [1, 1]))
    for m in range(8):
        expected = min((m & 0b011).bit_count(), 1) + min((m >> 2) & 1, 1)
        assert part.value(m) == expected

    tri = gen_rank_valuation(MatroidSpec.graphic([(1, 2), (2, 3), (1, 3)]))
    assert tri.max_value == 2
    assert tri.value(0b111) == 2 and tri.value(0b011) == 2 and tri.value(0b001) == 1


def test_rank_valuation_passes_exchange():
    for spec in (
        MatroidSpec.uniform(3, 5),
        MatroidSpec.free(4),
        MatroidSpec.partition([(1, 2, 3), (4,)], [2, 1]),
    ):
        assert check_single_exchange(gen_rank_valuation(spec)).passed


def test_matroid_spec_validation():
    with pytest.raises(InputError):
        MatroidSpec.uniform(4, 3)
    with pytest.raises(InputError):
        MatroidSpec.graphic([(1, 1)])
    with pytest.raises(InputError):
        MatroidSpec.graphic([(i, i + 1) for i in range(1, 8)])  # too many vertices
    with pytest.raises(InputError):
        MatroidSpec.partition([(1, 2), (2, 3)], [1, 1])  # overlapping blocks
    with pytest.raises(InputError):
        MatroidSpec.partition([(1, 3)], [1])  # not a partition of 1..n


def test_modular_plus_concave(rank2):
    f = gen_modular_plus_concave(PriceVector.zeros(3), [0, 1, 2, 2])
    assert f.table == rank2.table

    w = PriceVector((1, 2, 3))
    g = gen_modular_plus_concave(w, [0, 0, 0, 0])
    assert g.value(0b111) == 6

    h = gen_modular_plus_concave(PriceVector.zeros(3), [0, 2, 3, 3])
    assert check_single_exchange(h).passed


def test_modular_plus_concave_validation():
    with pytest.raises(InputError):
        gen_modular_plus_concave(PriceVector.zeros(3), [0, 1, 2])  # wrong length
    with pytest.raises(InputError):
        gen_modular_plus_concave(PriceVector.zeros(3), [0, 1, 3, 6])  # convex


def test_mutate(rank2):
    bumped = with_value(rank2, 0b011, 3)
    assert not check_single_exchange(bumped).passed  # the 3-element complements analogue

    assert mutate(rank2, seed=5, magnitude=0).table == rank2.table
    a = mutate(rank2, seed=5, magnitude=Fraction(1, 2))
    b = mutate(rank2, seed=5, magnitude=Fraction(1, 2))
    assert a.table == b.table
    diff = [m for m in range(8) if a.table[m] != rank2.table[m]]
    assert len(diff) == 1
    assert abs(a.table[diff[0]] - rank2.table[diff[0]]) == Fraction(1, 2)


@pytest.mark.parametrize("seed,message", [
    (-1, "seed must be nonnegative"), (-7, "seed must be nonnegative"),
    (True, "seed must be an integer, got True"), (1.0, "seed must be an integer, got 1.0"),
])
def test_mutate_refuses_what_price_samplers_refuse(rank2, seed, message):
    # Random(-k) is seeded as Random(k): a negative seed would replay its
    # positive twin's mutation
    with pytest.raises(InputError, match=f"^{message}$"):
        mutate(rank2, seed=seed, magnitude=1)
    with pytest.raises(InputError, match=f"^{message}$"):
        PriceSampler(seed=seed, count=1)
    assert mutate(rank2, seed=0, magnitude=1).table == mutate(rank2, seed=0, magnitude=1).table


def test_mutated_instances_judged_by_checker(wmat):
    f = with_value(wmat, 0b101, 5)
    # whatever the verdict, it must be reproducible and witness-backed
    v = check_single_exchange(f)
    if not v.passed:
        assert v.witness is not None
    assert v == check_single_exchange(f)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_functions(EnumerationSpec(2, (0, 1)))) == 16
    assert sum(1 for _ in enumerate_functions(EnumerationSpec(2, (NEG_INF, 0)))) == 15
    spec = EnumerationSpec(3, (NEG_INF, 0, 1))
    assert spec.universe_size() == 6561
    assert sum(1 for _ in enumerate_functions(spec)) == 6560


def test_enumeration_lex_order_and_uniqueness():
    tables = [f.table for f in enumerate_functions(EnumerationSpec(2, (NEG_INF, 0)))]
    assert len(set(tables)) == len(tables)
    # first assignment keeps the earliest alphabet letters except the last slot
    assert tables[0] == (NEG_INF, NEG_INF, NEG_INF, Fraction(0))


def test_enumeration_validation():
    with pytest.raises(InputError):
        EnumerationSpec(4, (0,))
    with pytest.raises(InputError):
        EnumerationSpec(2, ())
    with pytest.raises(InputError):
        EnumerationSpec(2, (NEG_INF,))
    with pytest.raises(InputError):
        list(enumerate_functions(EnumerationSpec(3, tuple(range(10)))))  # 10^8 refused


def test_weighted_matroid_families_pass_multi_exchange(k4):
    for spec in (MatroidSpec.uniform(2, 4), MatroidSpec.partition([(1, 2), (3, 4)], [1, 1]), k4):
        fam = spec.bases()
        assert check_family(fam, "b-exc-m").passed
