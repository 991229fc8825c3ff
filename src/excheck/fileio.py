"""JSON instance files.

Set function: ``{"kind": "set_function", "n": N, "entries": [{"set": [...],
"value": v}, ...]}`` with sorted 1-based element lists and values given as
integers or exact ``"p/q"`` strings.  Omitted subsets are -inf; duplicate
sets are an input error; decimal numbers are rejected.

Set family: ``{"kind": "set_family", "n": N, "members": [[...], ...]}``.

Files are read as UTF-8, by one of two paths.  A set-function file of at
least ``_SCAN_MIN`` entries in the text grammar below is read by a scanner,
without a JSON tree.  Every other file (every set family, every small
function and every text outside the grammar) is parsed with
:func:`json.loads` and read entry by entry.  Text that is not UTF-8, JSON
nested past the recursion limit and an integer past the interpreter's
digit limit are input errors like malformed JSON.

The per-entry loop validates each entry in order through the general
validators, so it is the one source of error messages: every message, its
order and the exit code are the same whether or not the scanner saw the
file first.  One helper, ``_entry_mask``, reads each element list (a set's or a
member's) with a fast test for distinct ints in 1..n, and leaves anything
else to :func:`~excheck.sets.mask_from_elements` for its message.  The
function loop records a value code per mask, each distinct value parsed
once, and both function paths end in the same build from that code table:
the rational table and the :class:`~excheck._fast.IntTable` are gathered by
code (``SetFunction._from_codes``).  A family ends in
``SetFamily._from_sorted``.  The loop is the slower path on large texts: on
refute's ``mpc14_5`` (n = 14, 16,384 entries), the parsed object builds in
15.6-17.3 ms, where a numpy build from the tree took 8.6-9.0 ms (best of 7;
``json.loads`` itself takes 16-19 ms).  That build was deleted: the scanner
reads every large text that :func:`save_set_function` or ``json.dumps``
writes, so only a large text outside the grammar pays the difference.

The text path (``_scan_function``) takes a set-function file of at least
``_SCAN_MIN`` entries that is exactly ``{"kind": "set_function", "n": N,
"entries": [...]}`` with entries ``{"set": [...], "value": v}``, keys in
that order and JSON whitespace anywhere between tokens, so the compact
``json.dumps`` layout, the ``indent=2`` layout of
:func:`save_set_function` and any other indent qualify.  One compiled
pattern splits the text into element-list texts and value tokens, and
each piece between two entries must be a comma.  Numpy decodes the element
lists one chunk of ``_CHUNK`` at a time: the numbers, their alternation
with commas, the range 1..n and, by OR against sum, a repeated element.
Each distinct value token is parsed once (an integer, or a string's
contents through :func:`~excheck.values.as_ext_value`), and the build is
``SetFunction._from_codes`` again.  The grammar is a strict subset of JSON
whose :func:`json.loads` result is unambiguous: fixed keys (so none is
repeated), strings without escapes or control characters, integers of at
most 18 digits and no ``-0``, elements of one or two digits with no
leading zero, and n in 1..``MAX_GROUND_SIZE``.  So where the scanner takes
a text, the JSON path reads the same entries and builds the same function.
It refuses everything else, unchanged, to the JSON path: any text outside
the grammar and any semantic fault (an element out of range or repeated,
a repeated set, a value that does not parse, no finite value), so every
error message, its order and the exit code come from the loop.  The
pattern starts at ``{``, not at whitespace, so its search reads a run of
whitespace once and the scan stays linear in the text.  On refute's
``mpc14_5`` (801 KB), a load takes 30.5-34.5 ms through ``json.loads`` and
the per-entry loop and 14.5-22.2 ms through the scanner, with a
``tracemalloc`` peak of 6.6 against 4.3 MB; an n = 12 file of 4,096
entries takes 7.7-9.2 against 4.9-5.8 ms (best of 15 in each of three
rounds).  All timings here are on an Intel Xeon under CPython 3.11 and
numpy 2.4.

Every load (read, scan or parse, and build) and every file text (object
and ``json.dumps``) runs with CPython's cyclic garbage collector paused,
in ``_gc_paused``.  A parse allocates a few containers per entry, and on
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
import re
from array import array
from contextlib import contextmanager
from fractions import Fraction
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


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from None


def _parse_json(path, text: str) -> dict:
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


def _entry_mask(raw, n: int) -> int:
    """The mask of the element list ``raw``: a list of distinct ints in
    1..n is read by the fast loop, and anything else is left to the list
    test and :func:`mask_from_elements`, which raise the usual errors."""
    if type(raw) is list:
        mask = 0
        for e in raw:
            if type(e) is not int or not 0 < e <= n:
                break
            mask |= 1 << (e - 1)
        else:
            if mask.bit_count() == len(raw):  # a repeated element lowers the count
                return mask
    elif not isinstance(raw, list):
        raise InputError(f"subsets are JSON lists of elements, got {raw!r}")
    return mask_from_elements(raw, n)


# Entries per chunk of the scanner: each chunk's byte buffer and arrays
# stay small next to the text they are read from.
_CHUNK = 4096
# Below this many entries the scanner is about as fast as ``json.loads`` and
# the per-entry loop, since its fixed cost is a few dozen array calls: on an
# Intel Xeon under CPython 3.11 and numpy 2.4 (best of 200, six runs), an
# indent-2 text of 256 entries took 0.29-0.35 ms through the scanner and
# 0.37-0.43 ms through the JSON path, and at 128 entries neither won
# (0.19-0.22 against 0.20-0.23 ms).
_SCAN_MIN = 256


# 1 << (e - 1) at index e, 0 at index 0
_ELEMENT_BIT = np.array([0] + [1 << e for e in range(MAX_GROUND_SIZE)], dtype=np.int64)


def _segment_masks(elems: np.ndarray, lens: np.ndarray) -> np.ndarray | None:
    """The OR of the bits of each run of ``lens`` elements, or None when an
    element repeats in a run.  ``elems`` holds elements in 1..n followed by
    one 0, which closes the last run when it is empty."""
    bits = _ELEMENT_BIT[elems]
    masks = np.bitwise_or.reduceat(bits, np.cumsum(lens) - lens)
    masks[lens == 0] = 0  # reduceat reads one element for an empty segment
    # OR and sum of a segment agree unless an element repeats in it
    return masks if masks.sum() == bits.sum() else None


def _loop_function(n: int, entries: list) -> SetFunction:
    """The function of ``entries``, built one entry at a time; the one
    source of every error message and its order."""
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
        mask = _entry_mask(item["set"], n)
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
    return _loop_function(n, entries)


_WS = r"[ \t\n\r]*"  # JSON whitespace: json.loads allows it between any two tokens


def _spaced(*tokens: str) -> str:
    """The pattern of the tokens in order, with JSON whitespace allowed
    between them.  The patterns below are compiled through ``re``'s cache
    on the first scan, so a process that never scans does not pay for it."""
    return _WS.join(tokens)


_HEAD = _spaced("", r"\{", '"kind"', ":", '"set_function"', ",", '"n"', ":", "([1-9][0-9]?)",
                ",", '"entries"', ":", r"\[", "")
# one entry: the inside of its element list (checked by _text_masks) and its
# value, an integer of at most 18 digits or a string with no escape or
# control character.  It starts at "{", not at whitespace, so a search
# tries each whitespace run once, not once per character.
_ENTRY = _spaced(r"\{", '"set"', ":", r"\[([0-9, \t\n\r]*)\]", ",", '"value"', ":",
                 r'(0|-?[1-9][0-9]{0,17}|"[^"\\\x00-\x1f]*")', r"\}")
_GAP = _spaced("", ",", "")
_TAIL = _spaced("", r"\]", r"\}", "")


def _text_masks(sets: list, n: int) -> np.ndarray | None:
    """The masks of the element-list texts ``sets`` (each the inside of a
    list's brackets, made of digits, commas and JSON whitespace), or None
    unless each lists distinct elements in 1..n, comma-separated and each
    written as one or two digits with no leading zero."""
    raw = ("]" + "]".join(sets) + "]").encode("ascii")
    digit = (np.frombuffer(raw, dtype=np.uint8) - ord("0")) < 10
    numbers = np.count_nonzero(digit[1:] > digit[:-1])
    buf = np.frombuffer(raw.translate(None, b" \t\n\r"), dtype=np.uint8)
    val = buf - ord("0")  # a digit's value, and 10 or more for "," and "]"
    digit = val < 10
    first = np.flatnonzero(digit[1:] > digit[:-1]) + 1  # the first digit of each number
    if first.size != numbers:  # dropping whitespace joined two numbers
        return None
    second = val[first + 1]  # in range: the buffer ends with "]"
    two = second < 10
    commas = np.flatnonzero(buf == ord(","))
    if (np.count_nonzero(digit) != first.size + np.count_nonzero(two)  # three digits or more
            or not (digit[commas - 1].all() and digit[commas + 1].all())):
        return None  # each comma lies between two numbers, so each number between commas or ends
    tens = val[first]
    elems = np.where(two, tens * 10 + second, tens)
    if first.size and (tens.min() == 0 or elems.max() > n):  # a leading zero or out of range
        return None
    lens = np.diff(np.searchsorted(first, np.flatnonzero(buf == ord("]"))))
    return _segment_masks(np.append(elems, 0), lens)


def _scan_function(text: str) -> SetFunction | None:
    """The function of a set-function file text, read without building a
    JSON tree, or None unless the text is in the scanner's grammar (see the
    module docstring), holds at least ``_SCAN_MIN`` entries and builds
    without an input error; the caller then parses the text as JSON."""
    if text.count('"value"') < _SCAN_MIN:  # in the grammar, one per entry
        return None
    parts = re.split(_ENTRY, text)  # head, then (set, value, gap) per entry; the last gap the tail
    head = re.fullmatch(_HEAD, parts[0])
    gaps = set(parts[3:-1:3])  # one or two strings in any one layout
    if (head is None or re.fullmatch(_TAIL, parts[-1]) is None
            or not all(re.fullmatch(_GAP, gap) for gap in gaps)):
        return None
    n = int(head[1])
    if n > MAX_GROUND_SIZE:
        return None
    sets, vals = parts[1::3], parts[2::3]
    del parts  # frees the gaps before the arrays are built
    masks = np.empty(len(sets), dtype=np.int64)
    for at in range(0, len(sets), _CHUNK):
        chunk = _text_masks(sets[at : at + _CHUNK], n)
        if chunk is None:
            return None
        masks[at : at + _CHUNK] = chunk
    code_of = {tok: code for code, tok in enumerate(dict.fromkeys(vals), 1)}
    ctab = np.zeros(1 << n, dtype=np.int32)  # value code (1, 2, ...) by mask, 0 when unlisted
    ctab[masks] = np.fromiter(map(code_of.__getitem__, vals), dtype=np.int32, count=len(vals))
    if np.count_nonzero(ctab) != len(vals):
        return None  # a repeated set
    try:
        parsed = [NEG_INF] + [as_ext_value(tok[1:-1]) if tok[0] == '"' else Fraction(int(tok))
                              for tok in code_of]
        return SetFunction._from_codes(n, ctab, parsed)
    except InputError:  # a value that does not parse, or no finite one
        return None


def _loop_family(n: int, raw: list) -> SetFamily:
    """The family of ``raw``, read one member at a time; the one source of
    every error message and its order."""
    members = set()
    for item in raw:
        mask = _entry_mask(item, n)
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
    return _loop_family(n, raw)


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


def _load(path, convert, scan: bool = False):
    """The instance in ``path``, read and built with the collector paused:
    with ``scan``, by ``_scan_function`` of the text when it takes it, and
    otherwise as ``convert`` of the parsed JSON object.  The object is a
    temporary of this call, so the tree is freed before the pause ends."""
    with _gc_paused():
        text = _read_text(path)
        f = _scan_function(text) if scan else None
        return f if f is not None else convert(_parse_json(path, text))


def _obj_to_instance(obj: dict) -> SetFunction | SetFamily:
    kind = obj.get("kind")
    if kind == "set_function":
        return obj_to_set_function(obj)
    if kind == "set_family":
        return obj_to_set_family(obj)
    raise InputError(f"unknown instance kind {kind!r}")


def load_set_function(path) -> SetFunction:
    return _load(path, obj_to_set_function, scan=True)


def load_set_family(path) -> SetFamily:
    return _load(path, obj_to_set_family)


def load_instance(path) -> SetFunction | SetFamily:
    """Load either kind, dispatching on the 'kind' field."""
    return _load(path, _obj_to_instance, scan=True)


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
