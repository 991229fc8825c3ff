import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import excheck
from excheck import (
    NEG_INF,
    InputError,
    PriceVector,
    SetFamily,
    SetFunction,
    check_family,
    check_local,
    check_multiple_exchange,
    check_single_exchange,
    check_valuated_matroid,
    effective_domain,
    find_base_exchange,
    find_exchange_set,
    is_generalized_matroid,
    mask_from_elements,
    maximizer_exchange,
    shift_by_price,
)


# ----------------------------------------------------------------------
# one-item exchange


def test_single_exchange_rank2(rank2):
    assert check_single_exchange(rank2).passed


def test_single_exchange_comp_witness(comp):
    v = check_single_exchange(comp)
    assert not v.passed
    w = v.witness
    assert w.condition == "mnat-exc"
    assert w.set_mask("X") == 0b11 and w.set_mask("Y") == 0
    assert w.element("i") == 1
    assert w.lhs == 3 and w.rhs == 2
    # replaying the inequality on the witness reproduces the violation
    lhs = comp.value(0b11) + comp.value(0)
    best = comp.value(0b10) + comp.value(0b01)  # only the deletion branch exists
    assert lhs == w.lhs and best == w.rhs and lhs > best


def test_modular_full_domain_passes():
    w = PriceVector((2, -1, Fraction(1, 2), 0))
    f = SetFunction.from_callable(4, lambda m: w.sum_over(m))
    assert check_single_exchange(f).passed


# ----------------------------------------------------------------------
# exchange sets


def test_find_exchange_set_examples(rank2, wmat, comp):
    c = find_exchange_set(rank2, 0b011, 0b100, 0b011)
    assert c.j_set == 0b100 and c.lhs == 3 and c.rhs == 3

    c = find_exchange_set(wmat, 0b011, 0b110, 0b001)
    assert c.j_set == 0b100 and c.lhs == 4 and c.rhs == 4

    assert find_exchange_set(comp, 0b11, 0, 0b01) is None


def test_find_exchange_set_minimality(rank2):
    # I empty: J = empty already certifies, despite larger J also working
    c = find_exchange_set(rank2, 0b011, 0b100, 0)
    assert c.j_set == 0


def test_find_exchange_set_preconditions(rank2, wmat):
    with pytest.raises(InputError):
        find_exchange_set(rank2, 0b011, 0b100, 0b100)
    with pytest.raises(InputError):
        find_exchange_set(wmat, 0b001, 0b110, 0)


def test_multiple_exchange_verdicts(rank2, wmat, comp):
    assert check_multiple_exchange(rank2).passed
    assert check_multiple_exchange(wmat).passed
    v = check_multiple_exchange(comp)
    assert not v.passed
    assert v.witness.set_mask("X") == 0b11
    assert v.witness.set_mask("Y") == 0
    assert v.witness.set_mask("I") == 0b01


# ----------------------------------------------------------------------
# valuated matroids


def test_valuated_matroid_examples(rank2, wmat):
    assert check_valuated_matroid(wmat).passed

    v = check_valuated_matroid(rank2)
    assert not v.passed
    assert v.witness.condition == "valuated-matroid:cardinality"
    assert v.witness.set_mask("X") == 0 and v.witness.set_mask("Y") == 0b001

    singletons = SetFunction.from_entries(3, [(0b001, 0), (0b010, 0), (0b100, 0)])
    assert check_valuated_matroid(singletons).passed


def test_valuated_matroid_exchange_failure():
    # equi-cardinal domain that is not a matroid basis family
    f = SetFunction.from_entries(4, [(0b0011, 0), (0b1100, 0)])
    v = check_valuated_matroid(f)
    assert not v.passed
    assert v.witness.condition == "valuated-matroid:exchange"
    assert v.witness.rhs is NEG_INF


# ----------------------------------------------------------------------
# local characterization


def test_local_examples(rank2, wmat, comp):
    v = check_local(comp)
    assert not v.passed
    w = v.witness
    assert w.condition == "local:i"
    assert w.set_mask("X") == 0 and w.element("i") == 1 and w.element("j") == 2
    assert w.lhs == 3 and w.rhs == 2

    assert check_local(rank2).passed
    assert check_local(wmat).passed


def test_local_domain_condition():
    f = SetFunction.from_entries(2, [(0, 0), (0b11, 0)])
    v = check_local(f)
    assert not v.passed
    assert v.witness.condition == "local:domain"


def test_local_matches_single_on_small_families():
    tables = [
        (0, 1, 1, 1, 1, 2, 2, 2),
        (0, 0, 0, 1, 0, 1, 1, 1),
        (NEG_INF, 0, 0, NEG_INF, 0, 1, 1, NEG_INF),
        (0, 2, 1, 2, 1, 3, 2, 2),
    ]
    for tab in tables:
        f = SetFunction(3, tab)
        assert check_local(f).passed == check_single_exchange(f).passed


# ----------------------------------------------------------------------
# maximizer exchange


def test_maximizer_exchange_examples(rank2, comp):
    assert maximizer_exchange(rank2, 0b011, 0b101, 0b010) == 0b100
    assert maximizer_exchange(rank2, 0b011, 0b101, 0) == 0
    assert maximizer_exchange(comp, 0b11, 0b11, 0) == 0


def test_maximizer_exchange_preconditions(rank2):
    with pytest.raises(InputError):
        maximizer_exchange(rank2, 0b001, 0b011, 0)  # X not maximal
    with pytest.raises(InputError):
        maximizer_exchange(rank2, 0b011, 0b101, 0b100)  # I outside X\Y


def test_maximizer_exchange_can_fail():
    f = SetFunction.from_entries(2, [(0b01, 1), (0b10, 1), (0, 0)])
    assert maximizer_exchange(f, 0b01, 0b10, 0b01) == 0b10
    # maximizers {1,2} and {3} with all partial swaps suboptimal
    g = SetFunction.from_callable(3, lambda m: 1 if m in (0b011, 0b100) else 0)
    assert maximizer_exchange(g, 0b011, 0b100, 0b001) is None


# ----------------------------------------------------------------------
# family axioms


def test_family_axiom_examples(k4):
    u23 = SetFamily(3, frozenset({0b011, 0b101, 0b110}))
    assert check_family(u23, "b-exc").passed

    bad = SetFamily(2, frozenset({0, 0b11}))
    v = check_family(bad, "b-exc")
    assert not v.passed
    assert v.witness.set_mask("X") == 0b11
    assert v.witness.set_mask("Y") == 0
    assert v.witness.element("i") == 1

    allsub = SetFamily(2, frozenset(range(4)))
    for axiom in ("b-exc", "b-exc-m", "b-exc-pm"):
        assert check_family(allsub, axiom).passed


def test_family_axiom_validation():
    fam = SetFamily(2, frozenset({0b01}))
    for axiom in ("nonsense", 5, None):
        with pytest.raises(InputError, match="unknown family axiom"):
            check_family(fam, axiom)
    with pytest.raises(InputError):
        check_family(SetFamily(2, frozenset()), "b-exc")


def test_generalized_matroid_recognition(k4):
    assert is_generalized_matroid(k4.bases())
    assert not is_generalized_matroid(SetFamily(2, frozenset({0, 0b11})))


def test_family_pm_clause_witness():
    fam = SetFamily(2, frozenset({0b01, 0b10}))
    # X={1}, Y={2}: clause a has the repair X-1+2; clause b: Y+1={1,2} missing,
    # Y+1-2={1} present, so b-exc-pm passes here
    assert check_family(fam, "b-exc-pm").passed
    fam2 = SetFamily(3, frozenset({0b011, 0b100}))
    v = check_family(fam2, "b-exc-pm")
    assert not v.passed
    assert v.witness.condition.startswith("bnat-exc-pm:")


# ----------------------------------------------------------------------
# base exchange


def test_find_base_exchange_k4(k4):
    bases = k4.bases()
    assert len(bases) == 16
    X = mask_from_elements([1, 4, 6])
    Y = mask_from_elements([2, 3, 5])
    assert X in bases.members and Y in bases.members and X & Y == 0
    J = find_base_exchange(bases, X, Y, mask_from_elements([1]))
    assert J is not None and J.bit_count() == 1

    assert find_base_exchange(bases, X, Y, 0) == 0


def test_find_base_exchange_non_matroid():
    fam = SetFamily(4, frozenset({0b0011, 0b1100}))
    assert find_base_exchange(fam, 0b0011, 0b1100, 0b0001) is None
    with pytest.raises(InputError):
        find_base_exchange(fam, 0b0101, 0b1100, 0)


_MASK_SEARCHES = {
    "find_base_exchange": "find_base_exchange(SetFamily(3, frozenset((3, 5, 6))), {X}, {Y}, {I})",
    "maximizer_exchange": ("maximizer_exchange(SetFunction.from_callable(3, lambda m: "
                           "min(m.bit_count(), 2)), {X}, {Y}, {I})"),
}


@pytest.mark.parametrize("bad", [-1, 1 << 3])
@pytest.mark.parametrize("arg", ["X", "Y", "I"])
@pytest.mark.parametrize("search", sorted(_MASK_SEARCHES))
def test_family_searches_range_check_their_masks(search, arg, bad):
    # in a subprocess with a timeout, so a search that never returns fails the test
    masks = dict(X=0b011, Y=0b101, I=0b010)
    masks[arg] = bad
    call = _MASK_SEARCHES[search].format(**masks)
    message = _raise_in_subprocess(f"from excheck import *; {call}")
    assert message == f"{arg} out of range for ground set of size 3: {bad}"


def test_elements_of_refuses_a_negative_mask():
    message = _raise_in_subprocess("from excheck import elements_of; elements_of(-1)")
    assert message == "a mask is a nonnegative integer, got -1"


def _raise_in_subprocess(code: str) -> str:
    """The message of the InputError that ``code`` raises in a fresh
    interpreter, which must finish within 20 s."""
    script = (f"from excheck import InputError\ntry:\n    {code}\n"
              "except InputError as e:\n    print(e)")
    env = dict(os.environ, PYTHONPATH=str(Path(excheck.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# ----------------------------------------------------------------------
# determinism


def test_repeat_runs_bit_identical(comp):
    a = check_single_exchange(comp)
    b = check_single_exchange(comp)
    assert a == b and a.witness.as_dict() == b.witness.as_dict()


# ----------------------------------------------------------------------
# price-shift invariance


def test_price_shift_invariance(comp, rank2, wmat):
    prices = [PriceVector((Fraction(1, 2), -2)), PriceVector((3, 0))]
    for p in prices:
        shifted = shift_by_price(comp, p)
        v0, v1 = check_single_exchange(comp), check_single_exchange(shifted)
        assert v0.passed == v1.passed
        assert v0.witness.sets == v1.witness.sets
        assert v0.witness.elements == v1.witness.elements
    for f in (rank2, wmat):
        p = PriceVector((1, Fraction(-1, 3), 2))
        assert check_single_exchange(shift_by_price(f, p)).passed


def test_domain_projection(rank2, wmat):
    # a passing multi-item exchange projects onto the family axiom of the domain
    for f in (rank2, wmat):
        assert check_multiple_exchange(f).passed
        assert check_family(effective_domain(f), "b-exc-m").passed
