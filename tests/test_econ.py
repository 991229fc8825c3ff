from fractions import Fraction

import pytest

from excheck import (
    InputError,
    PriceSampler,
    PriceVector,
    SetFunction,
    check_gs_at,
    check_gs_sampled,
    check_multiple_exchange,
    check_nc_at,
    check_nc_sampled,
    check_si_at,
    check_si_sampled,
    check_snc,
    demand,
    equivalence_report,
)

HALF = Fraction(1, 2)


def test_demand_examples(rank2, comp):
    d = demand(rank2, PriceVector.zeros(3))
    assert d.members.members == {0b011, 0b101, 0b110, 0b111}
    assert d.value == 2

    d = demand(comp, PriceVector((3 * HALF, 3 * HALF)))
    assert d.members.members == {0, 0b11}
    assert d.value == 0

    d = demand(rank2, PriceVector((-100, -100, -100)))
    assert d.members.members == {0b111}


def test_demand_members_share_value(comp):
    p = PriceVector((Fraction(1, 3), Fraction(5, 7)))
    d = demand(comp, p)
    vals = {comp.value(m) - p.sum_over(m) for m in d.members.members}
    assert vals == {d.value}
    others = set(range(4)) - d.members.members
    assert all(comp.value(m) - p.sum_over(m) < d.value for m in others)


def test_demand_length_mismatch(comp):
    with pytest.raises(InputError):
        demand(comp, PriceVector((1,)))


def test_gs_at_documented_prices(comp, rank2):
    p = PriceVector((3 * HALF, 3 * HALF))
    q = PriceVector((3 * HALF, 5 * HALF))
    v = check_gs_at(comp, p, q)
    assert not v.passed
    assert v.witness.set_mask("X") == 0b11

    assert check_gs_at(rank2, PriceVector.zeros(3), PriceVector((1, 0, 2))).passed
    with pytest.raises(InputError):
        check_gs_at(comp, q, p)  # needs p <= q


def test_gs_single_good_passes():
    f = SetFunction(1, (Fraction(0), Fraction(5)))
    sampler = PriceSampler(seed=7, count=100)
    assert check_gs_sampled(f, sampler).passed


def test_gs_sampled(comp, rank2):
    sampler = PriceSampler(seed=3, count=100)
    v = check_gs_sampled(comp, sampler)
    assert not v.passed
    p, q = v.witness.price("p"), v.witness.price("q")
    assert not check_gs_at(comp, p, q).passed  # the refutation replays exactly

    assert check_gs_sampled(rank2, PriceSampler(seed=3, count=60)).passed


def test_si_at_documented_price(comp, rank2):
    v = check_si_at(comp, PriceVector((2, 2)))
    assert not v.passed
    assert v.witness.set_mask("X") == 0b11
    assert v.witness.lhs == -1

    assert check_si_at(rank2, PriceVector((HALF, 1, 0))).passed


def test_si_vacuous_when_everything_demanded():
    f = SetFunction(2, (Fraction(0), Fraction(0), Fraction(0), Fraction(0)))
    assert check_si_at(f, PriceVector.zeros(2)).passed


def test_si_sampled(comp, rank2):
    v = check_si_sampled(comp, PriceSampler(seed=11, count=50))
    assert not v.passed
    p = v.witness.price("p")
    assert not check_si_at(comp, p).passed

    assert check_si_sampled(rank2, PriceSampler(seed=11, count=60)).passed


def test_nc_at_examples(comp, rank2):
    v = check_nc_at(comp, PriceVector((3 * HALF, 3 * HALF)))
    assert not v.passed
    w = v.witness
    assert w.set_mask("X") == 0b11 and w.set_mask("Y") == 0 and w.set_mask("I") == 0b01

    assert check_nc_at(rank2, PriceVector.zeros(3), simultaneous=True).passed

    # singleton demand set is trivially fine
    assert check_nc_at(comp, PriceVector((-10, -10))).passed


def test_nc_sampled(comp, rank2):
    v = check_nc_sampled(comp, PriceSampler(seed=5, count=50))
    assert not v.passed
    assert check_nc_sampled(rank2, PriceSampler(seed=5, count=40), simultaneous=True).passed


def test_snc_is_multiple_exchange(rank2, wmat, comp):
    for f in (rank2, wmat, comp):
        assert check_snc(f) == check_multiple_exchange(f)


def test_equivalence_report_pass(rank2):
    rep = equivalence_report(rank2, PriceSampler(seed=1, count=40))
    assert rep.all_pass
    assert rep.single_exchange.passed and rep.multiple_exchange.passed and rep.local.passed
    for sv in (rep.gs, rep.si, rep.nc, rep.ncsim):
        assert sv.verdict.passed and sv.samples > 0


def test_equivalence_report_fail(comp):
    rep = equivalence_report(comp, PriceSampler(seed=1, count=200))
    assert not rep.exact_pass
    assert not rep.single_exchange.passed
    assert not rep.multiple_exchange.passed
    assert not rep.local.passed
    # the complements instance is refuted by sampling on every condition
    assert not rep.gs.verdict.passed
    assert not rep.si.verdict.passed
    assert not rep.nc.verdict.passed
    assert not rep.ncsim.verdict.passed


def test_sampler_determinism(comp):
    a = check_gs_sampled(comp, PriceSampler(seed=42, count=80))
    b = check_gs_sampled(comp, PriceSampler(seed=42, count=80))
    assert a == b

    ps1 = list(PriceSampler(seed=9, count=10).iter_prices(comp))
    ps2 = list(PriceSampler(seed=9, count=10).iter_prices(comp))
    assert ps1 == ps2


def test_sampler_radius_default(comp):
    s = PriceSampler(seed=0, count=1)
    assert s.radius_for(comp) == 7  # twice the value range plus one
    assert PriceSampler(seed=0, count=1, radius=Fraction(2)).radius_for(comp) == 2


def test_sampler_validation():
    with pytest.raises(InputError):
        PriceSampler(seed=0, grid_step=Fraction(0))
    with pytest.raises(InputError):
        PriceSampler(seed=0, count=-1)
    with pytest.raises(InputError):
        PriceSampler(seed=0, radius=Fraction(-1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grid_step": 0.1},
        {"grid_step": 0.5},
        {"grid_step": True},
        {"radius": 2.5},
        {"radius": False},
        {"count": 2.0},
        {"count": True},
        {"seed": 1.0},
        {"seed": True},
        # Random(-1) is seeded as Random(1)
        {"seed": -1},
    ],
)
def test_sampler_rejects_inexact_inputs(kwargs):
    args = {"seed": 0, **kwargs}
    with pytest.raises(InputError):
        PriceSampler(**args)


def test_sampler_accepts_exact_inputs(comp):
    s = PriceSampler(seed=0, count=3, grid_step=1, radius=2)
    assert (s.grid_step, s.radius) == (Fraction(1), Fraction(2))
    assert list(s.iter_prices(comp))[-1].entries[0].denominator == 1
