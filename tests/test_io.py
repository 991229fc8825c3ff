import gc
import json
import re
import sys
import threading
import time
from fractions import Fraction
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from excheck import NEG_INF, InputError, SetFamily, SetFunction
from excheck import fileio
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
from excheck.sets import elements_of, mask_from_elements


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


def _listed(pairs):
    """Entries of the (mask, value) pairs, each set as its ascending element list."""
    return [{"set": list(elements_of(m)), "value": v} for m, v in pairs]


# (n, pairs) a table built from value codes can get wrong: one value on
# many sets, two spellings of one value, an explicit -inf next to unlisted
# sets, and {0, h} on either side of the int16, int32 and int64 rungs'
# edges (4h + 2 = 2^14, 2^30, 2^62) and past 2^62, where the object route starts
CODED_CASES = [
    (5, [(m, "3/7") for m in range(32)]),
    (3, [(0, "1/2"), (1, "2/4"), (3, 1), (6, "2/4")]),
    (4, [(0, 2), (3, "-inf"), (5, "1/3"), (15, " -inf")]),
    *((2, [(0, 0), (3, h)]) for h in (2**12 - 1, 2**12, 2**28 - 1, 2**28, 2**60 - 1, 2**60,
                                      2**62 + 1)),
]
# Python values, which no file holds, so only obj_to_set_function reads them
PYTHON_CASES = [
    (3, [(m, Fraction(m, 3) if m % 3 else NEG_INF) for m in range(8)]),
    (8, [(m, Fraction(m % 5, 1 + m % 4) if m % 7 else NEG_INF) for m in range(256)]),
]


def _examples(*args_list):
    """Hypothesis examples, one per tuple of arguments."""
    def run_each(test):
        for args in args_list:
            test = example(*args)(test)
        return test
    return run_each


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
@_examples(*((({"kind": "set_function", "n": n, "entries": _listed(pairs)}, pairs),)
             for n, pairs in CODED_CASES + PYTHON_CASES))
@settings(max_examples=200, deadline=None)
def test_loader_matches_from_entries(reference_fields, case):
    obj, pairs = case
    try:
        want = SetFunction.from_entries(obj["n"], pairs)
    except InputError as e:  # every listed value is -inf
        with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
            obj_to_set_function(obj)
        return
    f = obj_to_set_function(obj)
    assert f == want and f.table == want.table
    assert _int_fields(f.ints) == _int_fields(IntTable(f)) == reference_fields(f)
    assert f.dom_masks == want.dom_masks and f.value_range == want.value_range


def _entries(*pairs):
    return [{"set": s, "value": v} for s, v in pairs]


LOADER_ERRORS = [
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
    # a bool next to an equal int, as a value and as an element
    (_entries(([1], True), ([2], 1)), "boolean is not a value: True"),
    (_entries(([1], 1), ([True], 2)), "element labels are positive integers, got True"),
    (_entries(([2**70], 1)), f"element {2**70} exceeds ground-set size 3"),
    (_entries(([], 1), ([2], 0), ([], "-inf")), "duplicate subset {}"),
    (_entries(([1], "1/x")), "not an exact rational (use an integer or 'p/q'): '1/x'"),
    (_entries(([1], "3/-2")), "not an exact rational (use an integer or 'p/q'): '3/-2'"),
    # two faults: the first in entry order is reported
    (_entries(([1], 2.5), ([4], 1)),
     "decimal value 2.5 rejected; use an integer or a 'p/q' string"),
    (_entries(([1, 1], 1), ([2], None)), "duplicate element 1"),
    pytest.param(
        _entries(([1], "1/" + "7" * 5000)),
        "too many digits for an exact rational (5002 characters)",
        marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="no int digit limit"),
    ),
]


@pytest.mark.parametrize("entries,message", LOADER_ERRORS)
def test_loader_error_messages(entries, message):
    obj = {"kind": "set_function", "n": 3, "entries": entries}
    with pytest.raises(InputError) as exc:
        obj_to_set_function(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indent-2"])
@pytest.mark.parametrize("entries,message", LOADER_ERRORS)
def test_loader_error_messages_from_files(tmp_path, monkeypatch, entries, message, indent):
    monkeypatch.setattr(fileio, "_SCAN_MIN", 0)  # every size tries the scanner first
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "set_function", "n": 3, "entries": entries},
                               indent=indent))
    with pytest.raises(InputError) as exc:
        load_instance(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("entries,message", LOADER_ERRORS)
def test_loader_error_messages_after_the_scanner(tmp_path, monkeypatch, entries, message):
    monkeypatch.setattr(fileio, "_SCAN_MIN", 0)  # every size tries the scanner first
    text = json.dumps({"kind": "set_function", "n": 3, "entries": entries}, indent="\t")
    assert fileio._scan_function(text.encode()) is None  # no fault builds: the loop reports it
    path = tmp_path / "f.json"
    path.write_text(text)
    assert _message(load_set_function, path) == _message(load_instance, path) == message


def test_loader_seeds_the_integer_table(reference_fields):
    obj = {"kind": "set_function", "n": 2,
           "entries": _entries(([2, 1], "3/4"), ([], -2), ([2], "-inf"), ([1], 2**70))}
    f = obj_to_set_function(obj)
    assert "ints" in vars(f)  # handed over by the loader, not built on first use
    t = f.ints
    assert (t.scale, t.lo, t.hi, t.dom.tolist()) == (4, -8, 2**72, [0, 1, 3])
    assert t.sent.dtype == object  # 2^72 is past the int64 guard
    assert t.sent.tolist() == [-8, 2**72, t.neg, 3]
    assert _int_fields(t) == _int_fields(IntTable(f)) == reference_fields(f)


# ----------------------------------------------------------------------
# the faults the per-entry loops report: catalogues of Python objects

CHUNKS = st.sampled_from([1, 3, 64, fileio._CHUNK])  # small chunks put faults past the first


def _message(load, *args):
    """The message of the input error ``load(*args)`` raises."""
    with pytest.raises(InputError) as exc:
        load(*args)
    return str(exc.value)


def _same_function(f, g, reference_fields):
    return (f.n == g.n and f.table == g.table
            and _int_fields(f.ints) == _int_fields(g.ints) == reference_fields(g))


@st.composite
def raw_entries(draw):
    """(n, entries, rnd): entries as ``json.loads`` gives them, for n <= 8,
    with shuffled element lists and values from a small drawn pool."""
    n = draw(st.integers(1, 8))
    rnd = draw(st.randoms(use_true_random=False))
    pool = draw(st.lists(st.one_of(JSON_VALUES, st.just(" -inf")), min_size=1, max_size=5))
    entries = []
    for m in rnd.sample(range(1 << n), draw(st.integers(1, 1 << n))):
        elems = [e for e in range(1, n + 1) if m >> (e - 1) & 1]
        rnd.shuffle(elems)
        entries.append({"set": elems, "value": rnd.choice(pool)})
    return n, entries, rnd


def _insert(entries, rnd, *items):
    for item in items:
        entries.insert(rnd.randint(0, len(entries)), item)


def _some_set(n, rnd):
    return rnd.sample(range(1, n + 1), rnd.randint(0, n))


def _twice(elems):
    """One set as two element lists, the second reversed."""
    return elems, elems[::-1]


# each fault inserts entries that make any table an input error
ENTRY_FAULTS = {
    "bool value next to an equal int": lambda n, es, r: _insert(
        es, r, {"set": _some_set(n, r), "value": 1}, {"set": _some_set(n, r), "value": True}),
    "bool element next to an equal int": lambda n, es, r: _insert(
        es, r, {"set": [1], "value": 0}, {"set": [True], "value": 0}),
    "bool element": lambda n, es, r: _insert(es, r, {"set": [True], "value": 0}),
    "float element": lambda n, es, r: _insert(es, r, {"set": [1.0], "value": 0}),
    "2^70 element": lambda n, es, r: _insert(es, r, {"set": [2**70], "value": 0}),
    "element 0": lambda n, es, r: _insert(es, r, {"set": [0], "value": 0}),
    "element n + 1": lambda n, es, r: _insert(es, r, {"set": [n + 1], "value": 0}),
    "element 256": lambda n, es, r: _insert(es, r, {"set": [256], "value": 0}),
    "negative element": lambda n, es, r: _insert(es, r, {"set": [-1], "value": 0}),
    "repeated element": lambda n, es, r: _insert(es, r, {"set": [n, 1, n], "value": 0}),
    "string set": lambda n, es, r: _insert(es, r, {"set": "12", "value": 0}),
    "tuple set": lambda n, es, r: _insert(es, r, {"set": (1,), "value": 0}),
    "repeated set": lambda n, es, r: _insert(
        es, r, *({"set": s, "value": v} for s, v in zip(_twice(_some_set(n, r)), (1, "1/2")))),
    "empty set twice": lambda n, es, r: _insert(
        es, r, {"set": [], "value": 0}, {"set": [], "value": "1/2"}),
    "decimal value": lambda n, es, r: _insert(es, r, {"set": _some_set(n, r), "value": 1.5}),
    "bad p/q": lambda n, es, r: _insert(
        es, r, {"set": _some_set(n, r), "value": r.choice(["1/x", "3/-2", "1/2/3", "1/0", ""])}),
    "long p/q": lambda n, es, r: _insert(
        es, r, {"set": _some_set(n, r), "value": "1/" + "7" * 5000}),
    "null value": lambda n, es, r: _insert(es, r, {"set": _some_set(n, r), "value": None}),
    "list entry": lambda n, es, r: _insert(es, r, [[1], 0]),
    "entry without value": lambda n, es, r: _insert(es, r, {"set": _some_set(n, r)}),
}
if not hasattr(sys, "get_int_max_str_digits"):  # no digit limit: a long p/q is valid
    del ENTRY_FAULTS["long p/q"]
# faults no file can hold: json.dumps writes a tuple as a list
_PYTHON_ONLY_FAULTS = {"tuple set"}


def _full_entries(n):
    f = SetFunction.from_callable(n, lambda m: Fraction(m.bit_count() * (n - m.bit_count()), 2))
    return set_function_to_obj(f)["entries"]


@st.composite
def raw_members(draw):
    n = draw(st.integers(1, 8))
    rnd = draw(st.randoms(use_true_random=False))
    members = [[e for e in range(1, n + 1) if m >> (e - 1) & 1]
               for m in rnd.sample(range(1 << n), draw(st.integers(0, 1 << n)))]
    for m in members:
        rnd.shuffle(m)
    return n, members, rnd


# each fault inserts members that make any family an input error
MEMBER_FAULTS = {
    "bool element next to an equal int": lambda n, ms, r: _insert(ms, r, [1], [True]),
    "float element": lambda n, ms, r: _insert(ms, r, [1.0]),
    "2^70 element": lambda n, ms, r: _insert(ms, r, [2**70]),
    "element n + 1": lambda n, ms, r: _insert(ms, r, [n + 1]),
    "repeated element": lambda n, ms, r: _insert(ms, r, [1, 1]),
    "string member": lambda n, ms, r: _insert(ms, r, "1"),
    "repeated member": lambda n, ms, r: _insert(ms, r, *_twice(_some_set(n, r))),
}


# ----------------------------------------------------------------------
# the text scanner against the JSON parser it stands in for

LAYOUTS = {
    "compact": lambda obj: json.dumps(obj),
    "indent 2": lambda obj: json.dumps(obj, indent=2),
    "indent tab": lambda obj: json.dumps(obj, indent="\t"),
    "no spaces": lambda obj: json.dumps(obj, separators=(",", ":")),
    "CRLF": lambda obj: json.dumps(obj, indent=2).replace("\n", "\r\n"),
}


def _load_outcome(path, scan):
    """What ``load_instance`` makes of ``path``, with or without the
    scanner: the instance, or its error message."""
    try:
        return fileio._load(path, fileio._obj_to_instance, scan=scan)
    except InputError as e:
        return str(e)


def _same_outcome(got, want, reference_fields):
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return _same_function(got, want, reference_fields)


def _spy_on_scanner(mp):
    """Patch the scanner with a spy; the list gets each call's result."""
    built, scan = [], fileio._scan_function

    def spy(text):
        built.append(scan(text))
        return built[-1]

    mp.setattr(fileio, "_scan_function", spy)
    return built


def _scanner_took(text, path, reference_fields):
    """Check that every loader gives the JSON path's outcome on ``text``
    (written to ``path`` as UTF-8 bytes) and that the scanner, run directly,
    builds nothing else; return whether the scanner read the text."""
    path.write_bytes(text.encode("utf-8"))
    want = _load_outcome(path, scan=False)
    direct = fileio._scan_function(text.encode("utf-8"))
    if direct is not None:
        assert _same_function(direct, obj_to_set_function(json.loads(text)), reference_fields)
    with pytest.MonkeyPatch.context() as mp:
        built = _spy_on_scanner(mp)
        assert _same_outcome(_load_outcome(path, scan=True), want, reference_fields)
        if not isinstance(want, str):
            assert _same_function(load_set_function(path), want, reference_fields)
            assert _same_function(load_instance(path), want, reference_fields)
    # the loaders hand the reader the file's bytes, so it takes the text
    # there exactly when it takes it here
    assert all((f is not None) == (direct is not None) for f in built)
    return bool(built) and all(f is not None for f in built)


def _fits_the_scanner(entries):
    """Whether the scanner reads these entries: each integer value has at
    most 18 digits, no string value holds whitespace, and some value is
    finite."""
    return (all(type(e["value"]) is not int or len(str(abs(e["value"]))) <= 18 for e in entries)
            and all(type(e["value"]) is not str or re.search(r"\s", e["value"]) is None
                    for e in entries)
            and any(str(e["value"]).strip() != "-inf" for e in entries))


@given(raw_entries(), st.sampled_from(sorted(LAYOUTS)), CHUNKS)
@settings(max_examples=200, deadline=None)
def test_scanner_matches_the_json_path_in_every_layout(tmp_path_factory, reference_fields, case,
                                                       layout, chunk):
    n, entries, _ = case
    text = LAYOUTS[layout]({"kind": "set_function", "n": n, "entries": entries})
    path = tmp_path_factory.getbasetemp() / "layout.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_SCAN_MIN", 0)  # the scanner takes every size
        mp.setattr(fileio, "_CHUNK", chunk)
        read = _scanner_took(text, path, reference_fields)
    assert read == _fits_the_scanner(entries)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_scanner_reads_two_digit_elements_in_every_layout(tmp_path, reference_fields, layout):
    n = 12  # elements 10..12 take two digits; 3,276 of the 4,096 sets are listed
    f = SetFunction.from_callable(
        n, lambda m: Fraction(m % 11 - 5, 1 + m % 3) if m % 5 else NEG_INF)
    text = LAYOUTS[layout](set_function_to_obj(f))
    assert _scanner_took(text, tmp_path / "f.json", reference_fields)
    assert load_instance(tmp_path / "f.json").table == f.table


# value tokens wider than one 8-byte word, up to 29 bytes, next to narrow ones
WIDE_VALUES = st.one_of(
    st.integers(10**17, 10**18 - 1),  # 18 digits
    st.integers(-(10**18) + 1, -(10**17)),
    st.just(-123456789012345678),
    st.builds("{}/{}".format, st.integers(-(10**12), 10**12), st.integers(10**8, 10**12)),
    st.just("-inf"),
    st.integers(-9, 9),
)


@given(st.integers(1, 6), st.data(), st.sampled_from(sorted(LAYOUTS)), CHUNKS)
@settings(max_examples=150, deadline=None)
def test_scanner_reads_value_tokens_wider_than_a_word(tmp_path_factory, reference_fields, n,
                                                      data, layout, chunk):
    pool = data.draw(st.lists(WIDE_VALUES, min_size=1, max_size=4))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, min_size=1))
    entries = [{"set": list(elements_of(m)), "value": data.draw(st.sampled_from(pool))}
               for m in masks]
    text = LAYOUTS[layout]({"kind": "set_function", "n": n, "entries": entries})
    path = tmp_path_factory.getbasetemp() / "wide.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_SCAN_MIN", 0)
        mp.setattr(fileio, "_CHUNK", chunk)
        read = _scanner_took(text, path, reference_fields)
    assert read == any(e["value"] != "-inf" for e in entries)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_scanner_refuses_a_value_token_past_its_width(tmp_path, monkeypatch, reference_fields,
                                                      layout):
    monkeypatch.setattr(fileio, "_SCAN_MIN", 0)
    for width, took in ((fileio._WIDE, True), (fileio._WIDE + 1, False)):
        value = "1/" + "3" * (width - 4)  # with its quotes, ``width`` bytes
        obj = json.loads(_SMALL_TEXT)
        obj["entries"][3]["value"] = value
        assert _scanner_took(LAYOUTS[layout](obj), tmp_path / "f.json", reference_fields) is took
        assert load_instance(tmp_path / "f.json").table[0b011] == Fraction(1, int(value[2:]))


_SMALL_TEXT = (
    '{"kind": "set_function", "n": 3, "entries": [{"set": [], "value": 0}, '
    '{"set": [1], "value": 1}, {"set": [2], "value": "1/2"}, {"set": [1, 2], "value": 2}, '
    '{"set": [3], "value": -1}, {"set": [1, 3], "value": 5}, {"set": [2, 3], "value": "-inf"}, '
    '{"set": [1, 2, 3], "value": 3}]}'
)

# (text to replace in _SMALL_TEXT, its replacement): each result is valid
# JSON outside the scanner's grammar, malformed JSON, or a table that is an
# input error
SCANNER_REFUSALS = {
    "key order swapped": ('"kind": "set_function", "n": 3', '"n": 3, "kind": "set_function"'),
    "entry keys swapped": ('{"set": [1], "value": 1}', '{"value": 1, "set": [1]}'),
    "extra top-level key": ('"n": 3,', '"n": 3, "x": 1,'),
    "extra key at the end": ('"value": 3}]}', '"value": 3}], "x": 1}'),
    "duplicated set key": ('{"set": [1], "value": 1}', '{"set": [2], "set": [1], "value": 1}'),
    "escaped key": ('{"set": [1], "value": 1}', '{"\\u0073et": [1], "value": 1}'),
    "escaped slash": ('"1/2"', '"1\\/2"'),
    "decimal value": ('"value": 1}', '"value": 1.0}'),
    "exponent value": ('"value": 1}', '"value": 1e3}'),
    "NaN value": ('"value": 1}', '"value": NaN}'),
    "true value": ('"value": 1}', '"value": true}'),
    "decimal element": ('[1]', '[1.0]'),
    "exponent element": ('[1]', '[1e0]'),
    "NaN element": ('[1]', '[NaN]'),
    "true element": ('[1]', '[true]'),
    "element 0": ('[1]', '[0]'),
    "element 01": ('[1]', '[01]'),
    "element 100": ('[1]', '[100]'),
    "element n + 1": ('[1]', '[4]'),
    "negative zero": ('"value": 0}', '"value": -0}'),
    "19-digit value": ('"value": 1}', '"value": 1234567890123456789}'),
    "n = 0": ('"n": 3', '"n": 0'),
    "n = 21": ('"n": 3', '"n": 21'),
    "UTF-8 BOM": ('{"kind"', '\ufeff{"kind"'),
    "trailing data": ('"value": 3}]}', '"value": 3}]} 1'),
    "no entries": (_SMALL_TEXT[_SMALL_TEXT.index("[{") :], "[]}"),
    "missing comma": ('}, {"set": [1]', '} {"set": [1]'),
    "trailing comma": ('"value": 3}]}', '"value": 3},]}'),
    "trailing comma in a set": ('[1, 2]', '[1, 2,]'),
    "numbers without a comma": ('[1, 2]', '[1 2]'),
    "control character in a value": ('"1/2"', '"1/\t2"'),
    "whitespace in a key": ('{"set": [1], "value": 1}', '{"se t": [1], "value": 1}'),
    "whitespace in a value string": ('"1/2"', '"1 /2"'),
    "whitespace after a minus sign": ('"value": -1}', '"value": - 1}'),
    "comma in a value string": ('"1/2"', '"1,/2"'),
    "[ in a value string": ('"1/2"', '"[1/2"'),
    "] in a value string": ('"1/2"', '"1/2]"'),
    "non-ASCII character in a value string": ('"1/2"', '"\u00bd"'),
    "NUL between tokens": ('"value": 1}', '"value":\x00 1}'),
    "DEL between tokens": ('"value": 1}', '"value": 1\x7f}'),
    "form feed after the closing brace": ('"value": 3}]}', '"value": 3}]}\x0c'),
    # str.strip would drop it, but JSON refuses a control character in a string
    "vertical tab in a value string": ('"1/2"', '"\x0b1/2"'),
    # as many "[" as "]", but a list closes before it opens
    "lists closed before they open": ('[2], "value": "1/2"}, {"set": [1, 2]',
                                      '2], "value": "1/2"}, {"set": [1, 2'),
    "repeated element": ('[1, 2]', '[1, 2, 1]'),
    "duplicate set": ('[2, 3]', '[3, 1]'),
}


@pytest.mark.parametrize("fault", sorted(SCANNER_REFUSALS))
def test_scanner_refuses_texts_outside_its_grammar(tmp_path, monkeypatch, reference_fields, fault):
    monkeypatch.setattr(fileio, "_SCAN_MIN", 0)
    assert fileio._scan_function(_SMALL_TEXT.encode()) is not None
    old, new = SCANNER_REFUSALS[fault]
    assert _SMALL_TEXT.count(old) == 1
    text = _SMALL_TEXT.replace(old, new)
    for chunk in (1, fileio._CHUNK):  # one list per chunk, and all in one
        monkeypatch.setattr(fileio, "_CHUNK", chunk)
        assert fileio._scan_function(text.encode("utf-8")) is None
    assert not _scanner_took(text, tmp_path / "f.json", reference_fields)


def test_scanner_reads_a_long_whitespace_run_once(monkeypatch):
    # a reader that went back over a run at each of its bytes would take
    # time quadratic in its length: hours for these 10^6 spaces
    monkeypatch.setattr(fileio, "_SCAN_MIN", 0)
    for stray in ("x", '{"set": [1], "value": 1} '):
        text = _SMALL_TEXT.replace('{"set": [1]', " " * 10**6 + stray + '{"set": [1]')
        start = time.perf_counter()
        assert fileio._scan_function(text.encode()) is None
        assert time.perf_counter() - start < 5


# a full table and a sparse one with two-digit elements
_FUZZ_OBJECTS = [
    json.loads(_SMALL_TEXT),
    {"kind": "set_function", "n": 11, "entries": _entries(
        ([], 4), ([10], "-3/4"), ([2, 11], -7), ([1, 10, 11], "5"), ([11], " -inf"), ([3, 5], 0))},
]
# what a mutation writes: digits and whitespace, which keep many texts in
# the grammar, then JSON punctuation and a few characters outside it
_FUZZ_CHARS = "0123456789" * 6 + " \t\r\n" * 6 + '{}[],:"-/.eE+\\utrNa\ufeff\x00\x7f'


@given(st.sampled_from(range(len(_FUZZ_OBJECTS))), st.sampled_from(sorted(LAYOUTS)),
       st.randoms(use_true_random=False), st.integers(1, 3), CHUNKS)
@settings(max_examples=400, deadline=None)
def test_mutated_texts_load_as_the_json_path_reads_them(tmp_path_factory, reference_fields,
                                                       which, layout, rnd, mutations, chunk):
    chars = list(LAYOUTS[layout](_FUZZ_OBJECTS[which]))
    for _ in range(mutations):
        at, op = rnd.randrange(len(chars)), rnd.choice("irdn")
        if op == "i":
            chars.insert(at, rnd.choice(_FUZZ_CHARS))
        elif op == "r":
            chars[at] = rnd.choice(_FUZZ_CHARS)
        elif op == "d":
            del chars[at]
        else:  # a digit changed: a value, or an element that may repeat or leave 1..n
            chars[rnd.choice([i for i, c in enumerate(chars) if c.isdigit()])] = rnd.choice(
                "0123456789")
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_SCAN_MIN", 0)
        mp.setattr(fileio, "_CHUNK", chunk)
        _scanner_took("".join(chars), path, reference_fields)


# ----------------------------------------------------------------------
# every fault through files, and families in every layout

@given(raw_entries(), st.lists(st.sampled_from(sorted(ENTRY_FAULTS)), min_size=1, max_size=2),
       st.sampled_from(sorted(LAYOUTS)), CHUNKS)
@settings(max_examples=300, deadline=None)
def test_loaders_report_every_fault_from_files(tmp_path_factory, case, faults, layout, chunk):
    n, entries, rnd = case
    for fault in faults:
        ENTRY_FAULTS[fault](n, entries, rnd)
    obj = {"kind": "set_function", "n": n, "entries": entries}
    want = _message(fileio._loop_function, n, entries)
    assert _message(obj_to_set_function, obj) == want
    if not _PYTHON_ONLY_FAULTS.isdisjoint(faults):
        return
    text = LAYOUTS[layout](obj)
    assert _message(obj_to_set_function, json.loads(text)) == want
    path = tmp_path_factory.getbasetemp() / "fault.json"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_SCAN_MIN", 0)  # the scanner sees every size first
        mp.setattr(fileio, "_CHUNK", chunk)
        assert _message(load_instance, path) == _message(load_set_function, path) == want


@pytest.mark.parametrize("chunk", [1, 5, fileio._CHUNK])
@pytest.mark.parametrize("fault", sorted(ENTRY_FAULTS))
def test_loaders_report_each_fault_from_files(tmp_path, monkeypatch, fault, chunk):
    # the subsets of {2, 3, 4}: no fault's element list is already listed
    entries = [{"set": [e for e in (2, 3, 4) if m >> (e - 2) & 1], "value": m} for m in range(8)]
    ENTRY_FAULTS[fault](4, entries, Random(fault))
    obj = {"kind": "set_function", "n": 4, "entries": entries}
    want = _message(fileio._loop_function, 4, entries)
    assert _message(obj_to_set_function, obj) == want
    if fault in _PYTHON_ONLY_FAULTS:
        return
    monkeypatch.setattr(fileio, "_SCAN_MIN", 0)  # the scanner sees every size first
    monkeypatch.setattr(fileio, "_CHUNK", chunk)
    for layout, dump in sorted(LAYOUTS.items()):
        text = dump(obj)
        assert fileio._scan_function(text.encode()) is None, layout
        path = tmp_path / "f.json"
        path.write_bytes(text.encode("utf-8"))
        assert _message(load_instance, path) == _message(load_set_function, path) == want, layout


# (fault, its message, whether the scanner read each chunk it decoded): the
# fault is the second chunk's sixth entry, and the 8,193 entries make three
# chunks of 4,096.  The element lists are decoded before the values are
# read, so a bad value is refused after the last chunk
SECOND_CHUNK_FAULTS = [
    ({"set": [1, True], "value": 0}, "element labels are positive integers, got True",
     [True, False]),
    ({"set": [3], "value": True}, "boolean is not a value: True", [True, True, True]),
    ({"set": [2, 14], "value": 0}, "element 14 exceeds ground-set size 13", [True, False]),
    ({"set": [2, 1, 2], "value": 0}, "duplicate element 2", [True, False]),
    ({"set": [3], "value": "1/x"}, "not an exact rational (use an integer or 'p/q'): '1/x'",
     [True, True, True]),
    ({"set": [2, 1], "value": 0}, "duplicate subset {1,2}", [True, True, True]),
]


@pytest.mark.parametrize("fault,message,chunks", SECOND_CHUNK_FAULTS)
def test_scanner_refuses_a_fault_in_the_second_chunk(tmp_path, monkeypatch, reference_fields,
                                                     fault, message, chunks):
    monkeypatch.setattr(fileio, "_CHUNK", 4096)
    n = 13  # 8,192 entries: two chunks
    obj = {"kind": "set_function", "n": n, "entries": _full_entries(n)}
    assert len(obj["entries"]) == 2 * fileio._CHUNK > fileio._SCAN_MIN
    assert _scanner_took(json.dumps(obj, indent=2), tmp_path / "f.json", reference_fields)
    obj["entries"].insert(fileio._CHUNK + 5, fault)
    text = json.dumps(obj, indent=2)
    decoded, decode = [], fileio._list_masks
    monkeypatch.setattr(fileio, "_list_masks",
                        lambda *args: decoded.append(decode(*args)) or decoded[-1])
    assert fileio._scan_function(text.encode()) is None
    assert [masks is not None for masks in decoded] == chunks
    path = tmp_path / "g.json"
    path.write_text(text)
    assert _message(load_instance, path) == message


@given(raw_members(), st.lists(st.sampled_from(sorted(MEMBER_FAULTS)), max_size=2),
       st.sampled_from(sorted(LAYOUTS)))
@settings(max_examples=200, deadline=None)
def test_family_loaders_match_an_independent_build_in_every_layout(tmp_path_factory, case,
                                                                    faults, layout):
    n, members, rnd = case
    for fault in faults:
        MEMBER_FAULTS[fault](n, members, rnd)
    path = tmp_path_factory.getbasetemp() / "family.json"
    path.write_bytes(LAYOUTS[layout]({"kind": "set_family", "n": n, "members": members})
                     .encode("utf-8"))
    if faults:
        want = _message(fileio._loop_family, n, members)
        assert _message(load_set_family, path) == _message(load_instance, path) == want
    else:
        want = SetFamily(n, frozenset(mask_from_elements(m, n) for m in members))
        for load in (load_set_family, load_instance):
            got = load(path)
            assert got == want and got.sorted_members == want.sorted_members


# ----------------------------------------------------------------------
# reading and writing with the collector paused


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The collector switched on or off for the test, and restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


_BIG_N = 9  # 512 entries and members, at least _SCAN_MIN


def _big_function_obj():
    return set_function_to_obj(SetFunction.from_callable(_BIG_N, lambda m: Fraction(m % 7, 3)))


def _big_family_obj():
    return {"kind": "set_family", "n": _BIG_N,
            "members": [list(elements_of(m)) for m in range(1 << _BIG_N)]}


def _with_repeated_element(obj):
    """``obj`` with its last entry or member given a repeated element: the
    scanner refuses a function text so, and the per-entry loop raises."""
    rows = obj.get("entries") or obj["members"]
    last = rows[-1]
    if isinstance(last, dict):
        last["set"] = [1, 1]
    else:
        last[:] = [1, 1]
    assert len(rows) >= fileio._SCAN_MIN
    return obj


def _keys_reordered(obj):
    """``obj`` with "n" first: the same instance, in a text the scanner
    refuses, so loaders parse it as JSON."""
    return {"n": obj["n"], **obj}


# text or bytes of each file the loaders read; None is a path that does not exist
INSTANCE_FILES = {
    "function": lambda: json.dumps(_big_function_obj()),
    "function, keys reordered": lambda: json.dumps(_keys_reordered(_big_function_obj())),
    "family": lambda: json.dumps(_big_family_obj()),
    "function, repeated element": lambda: json.dumps(_with_repeated_element(_big_function_obj())),
    "family, repeated element": lambda: json.dumps(_with_repeated_element(_big_family_obj())),
    "unreadable": lambda: None,
    "not UTF-8": lambda: b'{"kind": "set_\xff"}',
    # big enough for the reader, which refuses it for a byte past ASCII
    "function, not UTF-8": lambda: json.dumps(_big_function_obj()).encode().replace(
        b'"1/3"', b'"1/\xff3"', 1),
    "malformed JSON": lambda: "{not json",
    "unknown kind": lambda: json.dumps({"kind": "mystery", "n": 2}),
}
LOADERS = {"load_set_function": load_set_function, "load_set_family": load_set_family,
           "load_instance": load_instance}
_STAGE_ERRORS = ["unreadable", "not UTF-8", "function, not UTF-8", "malformed JSON",
                 "unknown kind"]
# (loader, file, the class of what it returns or raises)
LOAD_CASES = [
    ("load_set_function", "function", SetFunction),
    ("load_set_function", "function, repeated element", InputError),
    ("load_set_family", "family", SetFamily),
    ("load_set_family", "family, repeated element", InputError),
    ("load_instance", "function", SetFunction),
    ("load_instance", "function, keys reordered", SetFunction),
    ("load_instance", "family", SetFamily),
    ("load_instance", "function, repeated element", InputError),
    ("load_instance", "family, repeated element", InputError),
    *((loader, name, InputError) for loader in LOADERS for name in _STAGE_ERRORS),
]


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    return path


@pytest.mark.parametrize("loader,name,outcome", LOAD_CASES)
def test_loaders_leave_the_collector_as_they_found_it(tmp_path, collector, loader, name,
                                                      outcome):
    path = _write(tmp_path / "instance.json", INSTANCE_FILES[name]())
    if outcome is InputError:
        with pytest.raises(InputError) as exc:
            LOADERS[loader](path)
        if "repeated element" in name:
            assert str(exc.value) == "duplicate element 1"  # the loop's message
        if "not UTF-8" in name:  # the message of Path.read_text's error, position and all
            with pytest.raises(UnicodeDecodeError) as decode:
                path.read_text(encoding="utf-8")
            assert str(exc.value) == f"{path} is not UTF-8 text: {decode.value}"
    else:
        assert isinstance(LOADERS[loader](path), outcome)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_json_errors_count_lines_as_read_text_does(tmp_path, newline):
    # the JSON path reads the file's bytes with read_text's universal
    # newlines, so an error's line, column and offset are the same
    text = json.dumps(json.loads(_SMALL_TEXT), indent=2).replace('"value": 5', '"value": 5,,')
    path = tmp_path / "f.json"
    path.write_bytes(text.replace("\n", newline).encode())
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(path.read_text(encoding="utf-8"))
    assert want.value.lineno > 1
    assert _message(load_instance, path) == f"{path} is not valid JSON: {want.value}"


@pytest.mark.parametrize("save,inst", [
    (save_set_function, SetFunction.from_callable(3, lambda m: Fraction(m, 2))),
    (save_set_family, SetFamily(3, frozenset({0b011, 0b101}))),
    (save_set_function, None),  # fails inside the pause
    (save_set_family, None),
])
@pytest.mark.parametrize("where", ["file", "missing directory"])
def test_savers_leave_the_collector_as_they_found_it(tmp_path, collector, save, inst, where):
    path = tmp_path / "out.json" if where == "file" else tmp_path / "missing" / "out.json"
    if inst is None or where != "file":
        with pytest.raises((AttributeError, OSError)):
            save(inst, path)
    else:
        save(inst, path)
        assert (load_set_function if save is save_set_function else load_set_family)(path) == inst
    assert gc.isenabled() is collector


def test_the_parsed_tree_is_freed_before_the_collector_resumes(tmp_path, monkeypatch):
    live = []  # entry dicts of the tree alive at each resume

    class Collector:  # the gc module, whose enable() first counts them
        def __getattr__(self, name):
            return getattr(gc, name)

        def enable(self):
            # every tracked object made in the pause is still in generation 0
            live.append(sum(type(o) is dict and "set" in o for o in gc.get_objects(0)))
            gc.enable()

    monkeypatch.setattr(fileio, "gc", Collector())
    # the scanner reads the first file without a tree; the second is parsed as JSON
    path = _write(tmp_path / "f.json", INSTANCE_FILES["function"]())
    parsed_path = _write(tmp_path / "p.json", INSTANCE_FILES["function, keys reordered"]())
    assert fileio._scan_function(parsed_path.read_bytes()) is None
    was = gc.isenabled()
    gc.enable()
    try:
        f = load_instance(path)
        assert load_instance(parsed_path) == f
        save_set_function(f, tmp_path / "g.json")
    finally:
        (gc.enable if was else gc.disable)()
    assert live == [0, 0, 0]


def test_concurrent_loads_end_with_the_collector_on(tmp_path):
    # the switch is process-wide: a load that finds it off leaves it alone,
    # and each load that turned it off turns it back on, so it ends on
    fpath = _write(tmp_path / "f.json", INSTANCE_FILES["function"]())
    mpath = _write(tmp_path / "m.json", INSTANCE_FILES["family"]())
    wants = [(fpath, load_instance(fpath)), (mpath, load_instance(mpath))]
    same, errors = [], []

    def work(path, want):
        try:
            for _ in range(5):
                same.append(load_instance(path) == want)
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    threads = [threading.Thread(target=work, args=wants[i % 2]) for i in range(4)]
    was, interval = gc.isenabled(), sys.getswitchinterval()
    gc.enable()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        ended_on = gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        (gc.enable if was else gc.disable)()
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and same == [True] * 20 and ended_on


def test_large_loads_leave_no_cyclic_garbage(tmp_path):
    fpath = _write(tmp_path / "f.json", INSTANCE_FILES["function"]())  # read by the scanner
    ppath = _write(tmp_path / "p.json", INSTANCE_FILES["function, keys reordered"]())  # parsed
    mpath = _write(tmp_path / "m.json", INSTANCE_FILES["family"]())
    gc.collect()
    f, g, fam = load_set_function(fpath), load_set_function(ppath), load_set_family(mpath)
    assert f == g and f.n == fam.n == _BIG_N and len(fam.sorted_members) == 1 << _BIG_N
    del f, g, fam
    assert gc.collect() == 0


def test_large_round_trip_through_the_scanner(tmp_path, monkeypatch, reference_fields):
    n = 13  # 7,680 listed sets: 8 chunks, the last one half full
    f = SetFunction(n, tuple(Fraction(m * 7919 % 1001 - 500, 1 + m % 6) if m % 16 else NEG_INF
                             for m in range(1 << n)))
    path = tmp_path / "big.json"
    save_set_function(f, path)
    assert -(-len(json.loads(path.read_text())["entries"]) // fileio._CHUNK) == 8

    def no_parse(path, text):
        raise AssertionError("the scanner left the text to the JSON parser")

    monkeypatch.setattr(fileio, "_parse_json", no_parse)
    loaded = load_instance(path)
    assert loaded.table == f.table and _int_fields(loaded.ints) == reference_fields(f)
