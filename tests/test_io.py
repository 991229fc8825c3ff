import json
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from excheck import NEG_INF, InputError, SetFamily, SetFunction
from excheck._fast import IntTable
from excheck.fileio import (
    load_instance,
    load_set_family,
    load_set_function,
    obj_to_set_function,
    save_set_family,
    save_set_function,
    set_function_to_obj,
)


def test_function_round_trip(tmp_path, wmat):
    path = tmp_path / "wmat.json"
    save_set_function(wmat, path)
    back = load_set_function(path)
    assert back.table == wmat.table and back.n == wmat.n


def test_fractional_values_round_trip(tmp_path):
    f = SetFunction.from_entries(2, [(0, Fraction(-3, 2)), (0b11, Fraction(7))])
    path = tmp_path / "f.json"
    save_set_function(f, path)
    raw = json.loads(path.read_text())
    values = {tuple(e["set"]): e["value"] for e in raw["entries"]}
    assert values == {(): "-3/2", (1, 2): 7}
    assert load_set_function(path).table == f.table


def test_omitted_subsets_are_bottom(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(
        json.dumps(
            {"kind": "set_function", "n": 2, "entries": [{"set": [1], "value": 4}]}
        )
    )
    f = load_set_function(path)
    assert f.value(0b01) == 4
    assert f.value(0) is NEG_INF and f.value(0b11) is NEG_INF


def test_duplicate_sets_rejected():
    obj = {
        "kind": "set_function",
        "n": 2,
        "entries": [{"set": [1], "value": 1}, {"set": [1], "value": 2}],
    }
    with pytest.raises(InputError):
        obj_to_set_function(obj)


def test_decimal_values_rejected():
    obj = {"kind": "set_function", "n": 2, "entries": [{"set": [1], "value": 1.5}]}
    with pytest.raises(InputError):
        obj_to_set_function(obj)


def test_empty_domain_rejected():
    obj = {"kind": "set_function", "n": 2, "entries": []}
    with pytest.raises(InputError):
        obj_to_set_function(obj)


def test_bad_inputs(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_instance(path)

    path.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(InputError):
        load_instance(path)

    path.write_text(json.dumps({"kind": "set_function", "n": 0, "entries": []}))
    with pytest.raises(InputError):
        load_instance(path)

    path.write_text(
        json.dumps({"kind": "set_function", "n": 2, "entries": [{"set": [3], "value": 0}]})
    )
    with pytest.raises(InputError):
        load_instance(path)

    with pytest.raises(InputError):
        load_instance(tmp_path / "missing.json")


def test_family_round_trip(tmp_path, k4):
    fam = k4.bases()
    path = tmp_path / "k4.json"
    save_set_family(fam, path)
    back = load_set_family(path)
    assert back == fam


def test_family_duplicates_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps({"kind": "set_family", "n": 2, "members": [[1], [1]]})
    )
    with pytest.raises(InputError):
        load_set_family(path)


def test_load_instance_dispatch(tmp_path, comp):
    fpath = tmp_path / "f.json"
    save_set_function(comp, fpath)
    assert isinstance(load_instance(fpath), SetFunction)

    mpath = tmp_path / "m.json"
    save_set_family(SetFamily(2, frozenset({0b01})), mpath)
    assert isinstance(load_instance(mpath), SetFamily)


def test_values_written_sorted_and_sparse(comp):
    obj = set_function_to_obj(comp)
    assert [e["set"] for e in obj["entries"]] == [[], [1], [2], [1, 2]]


# ----------------------------------------------------------------------
# the one-pass loader against the general constructor


def _int_fields(t: IntTable):
    return (t.n, t.scale, t.lo, t.hi, t.neg, t.sent.dtype, t.sent.tolist(), t.dom.dtype,
            t.dom.tolist())


JSON_VALUES = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**70), 2**70),
    st.fractions(-9, 9, max_denominator=12).map(str),  # "p/q", or "p" when q = 1
    st.just("-inf"),
)


@st.composite
def function_objects(draw):
    """An instance object with unsorted element lists and omitted sets,
    together with the (mask, raw value) pairs it lists."""
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, min_size=1))
    pairs = [(m, draw(JSON_VALUES)) for m in masks]
    entries = [
        {"set": draw(st.permutations([e for e in range(1, n + 1) if m >> (e - 1) & 1])),
         "value": v}
        for m, v in pairs
    ]
    return {"kind": "set_function", "n": n, "entries": entries}, pairs


@given(function_objects())
@settings(max_examples=200, deadline=None)
def test_loader_matches_from_entries(case):
    obj, pairs = case
    try:
        want = SetFunction.from_entries(obj["n"], pairs)
    except InputError as e:  # every listed value is -inf
        with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
            obj_to_set_function(obj)
        return
    f = obj_to_set_function(obj)
    assert f == want and f.table == want.table
    assert _int_fields(f.ints) == _int_fields(IntTable(f))
    assert f.dom_masks == want.dom_masks and f.value_range == want.value_range


def _entries(*pairs):
    return [{"set": s, "value": v} for s, v in pairs]


@pytest.mark.parametrize(
    "entries,message",
    [
        (_entries(([1, True], 1)), "element labels are positive integers, got True"),
        (_entries(([1], 1), ([2], True)), "boolean is not a value: True"),
        (_entries(([1], 3), ([2], 1.5)),
         "decimal value 1.5 rejected; use an integer or a 'p/q' string"),
        (_entries(([2, 0], 1)), "element labels are positive integers, got 0"),
        (_entries(([4], 1)), "element 4 exceeds ground-set size 3"),
        (_entries(([1.0], 1)), "element labels are positive integers, got 1.0"),
        (_entries(([2, 3, 2], 1)), "duplicate element 2"),
        (_entries(([1, 2], 1), ([3], 0), ([2, 1], "1/2")), "duplicate subset {1,2}"),
        (_entries(("12", 1)), "subsets are JSON lists of elements, got '12'"),
        (_entries(([1], 1)) + [[2, 1]], "each entry needs 'set' and 'value', got [2, 1]"),
        ([{"set": [1]}], "each entry needs 'set' and 'value', got {'set': [1]}"),
        (_entries(([1], "-inf"), ([], " -inf")),
         "effective domain is empty: every entry is -inf"),
        ([], "the function has no finite entries (empty effective domain)"),
        # a repeated set is reported only after every value has been read
        (_entries(([1], 1), ([1], 2), ([2], "x")),
         "not an exact rational (use an integer or 'p/q'): 'x'"),
        (_entries(([1], 1), ([1], 2), ([2], 2.5)),
         "decimal value 2.5 rejected; use an integer or a 'p/q' string"),
        # a bad value is read after its entry's set
        (_entries(([5], "x")), "element 5 exceeds ground-set size 3"),
        (_entries(([5], 0.5)), "decimal value 0.5 rejected; use an integer or a 'p/q' string"),
        (_entries(([1], "1/0")), "zero denominator: '1/0'"),
    ],
)
def test_loader_error_messages(entries, message):
    obj = {"kind": "set_function", "n": 3, "entries": entries}
    with pytest.raises(InputError) as exc:
        obj_to_set_function(obj)
    assert str(exc.value) == message


def test_loader_seeds_the_integer_table():
    obj = {"kind": "set_function", "n": 2,
           "entries": _entries(([2, 1], "3/4"), ([], -2), ([2], "-inf"), ([1], 2**70))}
    f = obj_to_set_function(obj)
    assert "ints" in vars(f)  # handed over by the loader, not built on first use
    t = f.ints
    assert (t.scale, t.lo, t.hi, t.dom.tolist()) == (4, -8, 2**72, [0, 1, 3])
    assert t.sent.dtype == object  # 2^72 is past the int64 guard
    assert t.sent.tolist() == [-8, 2**72, t.neg, 3]
    assert _int_fields(t) == _int_fields(IntTable(f))
