"""JSON instance files.

Set function: ``{"kind": "set_function", "n": N, "entries": [{"set": [...],
"value": v}, ...]}`` with sorted 1-based element lists and values given as
integers or exact ``"p/q"`` strings.  Omitted subsets are -inf; duplicate
sets are an input error; decimal numbers are rejected.

Set family: ``{"kind": "set_family", "n": N, "members": [[...], ...]}``.

Files are read as UTF-8 and parsed with :func:`json.loads`; text that is
not UTF-8, JSON nested past the recursion limit and an integer past the
interpreter's digit limit are input errors like malformed JSON.

A set function of at least ``_BULK_MIN`` entries is built in bulk, one
chunk of ``_CHUNK`` entries at a time: the ``set`` lists and the values
are pulled out with list calls, their types are tested on the raw lists
(never on deduplicated keys, where ``True``, ``1`` and ``1.0`` are one
key), and numpy turns the flattened elements into masks with a range test
and an OR-against-sum test for a repeated element.  A code table over all
2^n masks holds each entry's value code; it catches a repeated set, and
each distinct value is parsed once.

Smaller files, and any file that fails a bulk test or holds a value that
does not parse, go through the per-entry loop, which validates each entry
in order through the general validators.  It is the one source of error
messages, so every message, its order and the exit code are the same
whichever path ran first.  It records a value code per entry as well, and
both paths end in the same build from the code table: the rational table
and the :class:`~excheck._fast.IntTable` are gathered by code
(``SetFunction._from_codes``).  A set family reads its members through the
same chunked mask helper, with its own per-member loop as the error path;
both family paths end in ``SetFamily._from_sorted``.

Every load (read, parse and build) and every file text (object and
``json.dumps``) runs with CPython's cyclic garbage collector paused, in
``_gc_paused``.  A parse allocates a few containers per entry, and on
refute's ``mpc14_2`` (n = 14, 16,384 entries) one load with the collector
running set off 41-43 generation-0, 3-4 generation-1 and up to one full
collection, each a walk over the tree parsed so far; ``gc.collect()``
right after it freed 0 objects.  The pause is safe: the parsed tree has
no cycles, reference counting frees it, and it is a temporary of the
paused call, so it is released before the collector resumes and no later
collection walks it.  The collector is switched off only if it was on,
and back on in a ``finally``.
"""

from __future__ import annotations

import gc
import json
from array import array
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import MAX_GROUND_SIZE, SetFamily, SetFunction
from .errors import InputError
from .sets import elements_of, mask_from_elements, set_str
from .values import NEG_INF, ExtValue, as_ext_value, ext_to_json, is_finite

__all__ = [
    "load_instance",
    "load_set_function",
    "load_set_family",
    "save_set_function",
    "save_set_family",
    "set_function_to_obj",
    "set_family_to_obj",
    "obj_to_set_function",
    "obj_to_set_family",
]


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise InputError(f"{path}: {e}") from None
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top-level JSON object expected")
    return obj


def _ground_size(obj) -> int:
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1 or n > MAX_GROUND_SIZE:
        raise InputError(f"'n' must be an integer in 1..{MAX_GROUND_SIZE}, got {n!r}")
    return n


def _element_list(raw, n: int) -> int:
    if not isinstance(raw, list):
        raise InputError(f"subsets are JSON lists of elements, got {raw!r}")
    return mask_from_elements(raw, n)


# Entries per chunk of the bulk paths: each chunk's flat element list
# and arrays stay small next to the parsed JSON they are read from.
_CHUNK = 4096
# Below this many entries (or members) the per-entry loop is about as fast
# as the bulk path, whose fixed cost is a few dozen array calls: on an Intel
# Xeon under CPython 3.11 and numpy 2.4, the bulk build took 3-13% longer at
# 128 entries and 6-17% less at 256.
_BULK_MIN = 256


# 1 << (e - 1) at index e, 0 at index 0
_ELEMENT_BIT = np.array([0] + [1 << e for e in range(MAX_GROUND_SIZE)], dtype=np.int64)


def _chunk_masks(sets: list, n: int) -> np.ndarray | None:
    """The masks of ``sets`` as int64, or None unless each is a list of
    distinct ints in 1..n.  Types are tested on the raw lists, since a set
    or dict of the elements would let a bool hide behind an equal int."""
    if set(map(type, sets)) != {list}:
        return None
    flat = list(chain.from_iterable(sets))
    if list(map(type, flat)).count(int) != len(flat):
        return None
    try:  # a trailing 0 closes the last segment
        elems = np.frombuffer(bytes(flat) + b"\0", dtype=np.uint8)
    except ValueError:  # an element outside 0..255
        return None
    if flat and (elems[:-1].min() < 1 or elems.max() > n):
        return None
    bits = _ELEMENT_BIT[elems]
    lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    masks = np.bitwise_or.reduceat(bits, np.cumsum(lens) - lens)
    masks[lens == 0] = 0  # reduceat reads one element for an empty segment
    # OR and sum of a segment agree unless an element repeats in it
    return masks if masks.sum() == bits.sum() else None


def _bulk_function(n: int, entries: list) -> SetFunction | None:
    """The function of ``entries``, built chunk by chunk in arrays, or None
    when any entry fails a bulk test; the caller then runs the per-entry
    loop, which reports the first fault."""
    size = 1 << n
    ctab = np.zeros(size, dtype=np.int32)  # value code (1, 2, ...) by mask, 0 when unlisted
    code_of: dict = {}  # raw int or string -> its code, keyed only after the type test
    for at in range(0, len(entries), _CHUNK):
        chunk = entries[at : at + _CHUNK]
        if set(map(type, chunk)) != {dict}:
            return None
        try:
            sets = list(map(itemgetter("set"), chunk))
            vals = list(map(itemgetter("value"), chunk))
        except KeyError:
            return None
        if not set(map(type, vals)) <= {int, str}:
            return None
        masks = _chunk_masks(sets, n)
        if masks is None:
            return None
        for v in dict.fromkeys(vals):
            code_of.setdefault(v, len(code_of) + 1)
        ctab[masks] = np.fromiter(map(code_of.__getitem__, vals), dtype=np.int32,
                                  count=len(vals))
    if np.count_nonzero(ctab) != len(entries):
        return None  # a repeated set
    try:
        parsed = [NEG_INF] + [Fraction(v) if type(v) is int else as_ext_value(v) for v in code_of]
        return SetFunction._from_codes(n, ctab, parsed)
    except InputError:  # a value that does not parse, or no finite one
        return None


def _loop_function(n: int, entries: list) -> SetFunction:
    """The function of ``entries``, built one entry at a time; the exact
    path for every error message and its order."""
    codes = array("q", bytes(8 << n))  # value code (1, 2, ...) by mask, 0 when unlisted
    values: list[ExtValue] = [NEG_INF]  # the value of each code
    code_of: dict = {}  # raw int or string -> its code; keyed only after a type test
    dup = None
    for item in entries:
        if not isinstance(item, dict) or "set" not in item or "value" not in item:
            raise InputError(f"each entry needs 'set' and 'value', got {item!r}")
        value = item["value"]
        if isinstance(value, float):
            raise InputError(
                f"decimal value {value!r} rejected; use an integer or a 'p/q' string"
            )
        raw = item["set"]
        mask = -1
        if type(raw) is list:
            mask = 0
            for e in raw:
                if type(e) is not int or not 0 < e <= n:
                    mask = -1
                    break
                mask |= 1 << (e - 1)
        if mask < 0 or mask.bit_count() != len(raw):  # a repeated element lowers the count
            mask = _element_list(raw, n)  # unusual input: raises the usual error
        if type(value) is int or type(value) is str:
            code = code_of.get(value)
            if code is None:
                code = code_of[value] = len(values)
                values.append(Fraction(value) if type(value) is int else as_ext_value(value))
        else:  # a Python value: a code of its own
            code = len(values)
            values.append(as_ext_value(value))
        if codes[mask]:
            if dup is None:
                dup = mask  # reported once every value has been parsed
            continue
        codes[mask] = code
    if not entries:
        raise InputError("the function has no finite entries (empty effective domain)")
    if dup is not None:
        raise InputError(f"duplicate subset {set_str(dup)}")
    return SetFunction._from_codes(n, np.frombuffer(codes, dtype=np.int64), values)


def obj_to_set_function(obj: dict) -> SetFunction:
    if obj.get("kind") != "set_function":
        raise InputError(f"expected kind 'set_function', got {obj.get('kind')!r}")
    n = _ground_size(obj)
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise InputError("'entries' must be a list")
    f = _bulk_function(n, entries) if len(entries) >= _BULK_MIN else None
    return f if f is not None else _loop_function(n, entries)


def _bulk_family(n: int, raw: list) -> SetFamily | None:
    """The family of the member lists ``raw``, or None when any member
    fails a bulk test or repeats."""
    seen = np.zeros(1 << n, dtype=bool)
    for at in range(0, len(raw), _CHUNK):
        masks = _chunk_masks(raw[at : at + _CHUNK], n)
        if masks is None:
            return None
        seen[masks] = True
    if np.count_nonzero(seen) != len(raw):
        return None
    return SetFamily._from_sorted(n, tuple(np.flatnonzero(seen).tolist()))


def _loop_family(n: int, raw: list) -> SetFamily:
    """The family of ``raw``, read one member at a time; the exact path for
    every error message and its order."""
    members = set()
    for item in raw:
        mask = _element_list(item, n)
        if mask in members:
            raise InputError(f"duplicate member {sorted(item)}")
        members.add(mask)
    return SetFamily._from_sorted(n, tuple(sorted(members)))


def obj_to_set_family(obj: dict) -> SetFamily:
    if obj.get("kind") != "set_family":
        raise InputError(f"expected kind 'set_family', got {obj.get('kind')!r}")
    n = _ground_size(obj)
    raw = obj.get("members")
    if not isinstance(raw, list):
        raise InputError("'members' must be a list of subsets")
    fam = _bulk_family(n, raw) if len(raw) >= _BULK_MIN else None
    return fam if fam is not None else _loop_family(n, raw)


@contextmanager
def _gc_paused():
    """Run the body with the cyclic garbage collector off, if it was on."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _load(path, convert):
    """``convert`` of the JSON object in ``path``, read, parsed and built
    with the collector paused.  The object is a temporary of this call, so
    the tree is freed before the pause ends."""
    with _gc_paused():
        return convert(_load_json(path))


def _obj_to_instance(obj: dict) -> SetFunction | SetFamily:
    kind = obj.get("kind")
    if kind == "set_function":
        return obj_to_set_function(obj)
    if kind == "set_family":
        return obj_to_set_family(obj)
    raise InputError(f"unknown instance kind {kind!r}")


def load_set_function(path) -> SetFunction:
    return _load(path, obj_to_set_function)


def load_set_family(path) -> SetFamily:
    return _load(path, obj_to_set_family)


def load_instance(path) -> SetFunction | SetFamily:
    """Load either kind, dispatching on the 'kind' field."""
    return _load(path, _obj_to_instance)


def set_function_to_obj(f: SetFunction) -> dict:
    entries = [
        {"set": list(elements_of(m)), "value": ext_to_json(f.table[m])}
        for m in range(1 << f.n)
        if is_finite(f.table[m])
    ]
    return {"kind": "set_function", "n": f.n, "entries": entries}


def set_family_to_obj(fam: SetFamily) -> dict:
    return {
        "kind": "set_family",
        "n": fam.n,
        "members": [list(elements_of(m)) for m in fam.sorted_members],
    }


def _instance_text(to_obj, inst) -> str:
    """The file text of the object ``to_obj(inst)``, built and dumped with
    the collector paused; the object is a temporary of this call, so its
    tree is freed before the pause ends."""
    with _gc_paused():
        return json.dumps(to_obj(inst), indent=2) + "\n"


def save_set_function(f: SetFunction, path) -> None:
    Path(path).write_text(_instance_text(set_function_to_obj, f))


def save_set_family(fam: SetFamily, path) -> None:
    Path(path).write_text(_instance_text(set_family_to_obj, fam))
