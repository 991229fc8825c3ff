"""JSON instance files.

Set function: ``{"kind": "set_function", "n": N, "entries": [{"set": [...],
"value": v}, ...]}`` with sorted 1-based element lists and values given as
integers or exact ``"p/q"`` strings.  Omitted subsets are -inf; duplicate
sets are an input error; decimal numbers are rejected.

Set family: ``{"kind": "set_family", "n": N, "members": [[...], ...]}``.

Files are read as bytes, by one of two paths.  A set-function file of at
least ``_SCAN_MIN`` entries in the grammar below is read by a byte-level
reader, without a JSON tree.  Every other file (every set family, every
small function and every text outside the grammar) is decoded as UTF-8
with universal newlines, as :meth:`pathlib.Path.read_text` decodes it,
parsed with :func:`json.loads` and read entry by entry.  Bytes that are
not UTF-8, JSON nested past the recursion limit and an integer past the
interpreter's digit limit are input errors like malformed JSON.

The per-entry loop validates each entry in order through the general
validators, so it is the one source of error messages: every message, its
order and the exit code are the same whether or not the reader saw the
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
``json.loads`` itself takes 16-19 ms).  That build was deleted: the reader
takes every large text that :func:`save_set_function` or ``json.dumps``
writes, so only a large text outside the grammar pays the difference.

The byte path (``_scan_function``) takes a set-function file of at least
``_SCAN_MIN`` entries that is exactly ``{"kind": "set_function", "n": N,
"entries": [...]}`` with entries ``{"set": [...], "value": v}``, keys in
that order and JSON whitespace between tokens, so the compact
``json.dumps`` layout, the ``indent=2`` layout of
:func:`save_set_function` and any other indent qualify.  It drops the
whitespace with ``bytes.translate`` and refuses a compact text with a byte
outside printable ASCII.  The brackets tile what is left: each entry owns
one ``[`` and one ``]``, each list closes after it opens, the head up to
the first entry's list is one pattern, the ten bytes ``],"value":`` after
each list and ``},{"set":[`` before each list but the first are compared
in one gather each, and the text ends with ``}]}``.  Numpy decodes the
element lists one chunk of ``_CHUNK`` entries at a time: an element is
one or two digits after ``[`` or ``,``; the elements, each with the byte
after it, must cover the lists exactly (one length identity per chunk),
and each must be in 1..n, without a leading zero and, by OR against sum,
not repeated in its list.  The value tokens, the bytes between each
``"value":`` and its ``}``, are packed into words of zero-padded bytes
and numbered with ``np.unique``; each distinct token must be an integer of
at most 18 digits or a string of at most ``_WIDE`` bytes without escapes
or the bytes ``, : [ ] { }``, and is parsed once.  The build is
``SetFunction._from_codes`` again.  No dropped whitespace may have been
inside a token: the compact text holds one run of string and number bytes
per token (5 in the head, and per entry its key ``"set"``, its elements,
``"value"`` and the value), and the file, counted in slices of ``_SLICE``
bytes, must hold as many, since whitespace inside a string or a number
would split one.  The grammar is a strict subset of JSON whose
:func:`json.loads` result is unambiguous: fixed keys (so none is
repeated), strings without escapes, whitespace or control characters,
integers of at most 18 digits and no ``-0``, elements of one or two
digits with no leading zero, and n in 1..``MAX_GROUND_SIZE``.  So where
the reader takes a text, the JSON path reads the same entries and builds
the same function.  It refuses everything else, unchanged, to the JSON
path: any text outside the grammar and any semantic fault (an element out
of range or repeated, a repeated set, a value that does not parse, no
finite value), so every error message, its order and the exit code come
from the loop.  Each step is linear in the text.  On refute's
``mpc14_5`` (801 KB), a load takes about 31 ms through ``json.loads`` and
the per-entry loop, and 7.4 ms through the reader against 13.9 ms through
the regular-expression scanner it replaced, with a ``tracemalloc`` peak
of 2.9 against 4.5 MB; a 256-entry file of the dual workload (9 KB) loads
in 0.22-0.23 ms against 0.26 ms (best of 200, the two readers
alternating).  All timings here are on an Intel Xeon under CPython 3.11
and numpy 2.4.

Every load (read, scan or parse, and build) and every file text (object
and ``json.dumps``) runs with CPython's cyclic garbage collector paused,
in ``_gc_paused``.  A parse allocates a few containers per entry, and on
refute's ``mpc14_2`` (n = 14, 16,384 entries) one load with the collector
running set off 41-43 generation-0, 3-4 generation-1 and up to one full
collection, each a walk over the tree parsed so far; ``gc.collect()``
right after it freed 0 objects.  The pause is safe: the parsed tree has
no cycles, reference counting frees it, and it is a temporary of the
paused call, so it is released before the collector resumes and no later
collection walks it.  The collector is switched back on, in a
``finally``, only if it was on.
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


def _parse_json(path, data: bytes) -> dict:
    """The object in the file bytes ``data``, decoded as ``Path.read_text``
    decodes them: UTF-8, with universal newlines."""
    try:
        obj = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from None
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


# Entries per chunk of the reader's element-list decoder: each chunk's
# temporaries stay small next to the text.
_CHUNK = 1024
# Below this many entries the reader is about as fast as ``json.loads`` and
# the per-entry loop, since its fixed cost is a few dozen array calls: on an
# Intel Xeon under CPython 3.11 and numpy 2.4 (best of 400, three runs), an
# indent-2 text of 256 entries took 0.34-0.36 ms through the reader and
# 0.46-0.48 ms through the JSON path, and at 128 entries the JSON path won
# (0.27-0.28 against 0.29 ms).
_SCAN_MIN = 256
# Bytes per slice of the reader's whitespace test.
_SLICE = 1 << 16
# The widest value token the reader reads, a multiple of 8 bytes; a wider
# one sends the text to the JSON path.
_WIDE = 32


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


# 1 for a byte of a string or a number, 0 for whitespace and , : [ ] { }
_TOKEN_BYTE = bytes(int(b > 32 and b not in b",:[]{}") for b in range(256))
# a digit's value, 10 for "[" and ",", which come before an element, 11 otherwise
_DIGIT = bytes(b - 48 if 48 <= b < 58 else 10 if b in b"[," else 11 for b in range(256))
# the element that starts with the _DIGIT codes d and e, read as the
# little-endian word d + 256e: d, or 10d + e when e is a digit too, and 0
# when d is 0 (a leading zero, or the element 0)
_ELEMENT = np.array([0 if not 0 < w % 256 < 10 else w % 256 if w >> 8 > 9
                     else 10 * (w % 256) + (w >> 8) for w in range(12 << 8)], dtype=np.uint8)
# 1 << (e - 1) at index e, 0 at index 0
_ELEMENT_BIT = np.array([0] + [1 << e for e in range(MAX_GROUND_SIZE)], dtype=np.int64)
# a word with its low min(t, 8) bytes set at index t, and none at a negative t
_LOW_BYTES = np.array([(1 << 8 * min(t, 8)) - 1 for t in range(_WIDE + 1)] + [0] * _WIDE, "u8")
# The two patterns are compiled through ``re``'s cache on first use, so a
# process that reads no large function file does not pay for them.
_HEAD = rb'\{"kind":"set_function","n":([1-9][0-9]?),"entries":\[\{"set":\['
# an integer of at most 18 digits, or a string without escapes or , : [ ] { }
_VALUE = rb'0|-?[1-9][0-9]{0,17}|"[^"\\,:\[\]{}]*"'


def _list_masks(buf: bytes, lb: np.ndarray, rb: np.ndarray, a: int, b: int,
                n: int) -> tuple[np.ndarray, int] | None:
    """The masks of entries a..b-1, whose element lists open at ``lb[a:b]``
    and close at ``rb[a-1:b-1]`` in the compact text ``buf``, and their
    number of elements; or None unless each list holds distinct elements in
    1..n, comma-separated and each one or two digits with no leading zero."""
    digits = buf[lb[a] : rb[b - 2] + 1].translate(_DIGIT)
    d = np.frombuffer(digits, dtype=np.uint8)
    before = np.flatnonzero((d[1:] < 10) & (d[:-1] == 10))  # the "[" or "," before each element
    # the 2 bytes from each offset after the first; in range, as the slice ends with "]"
    pairs = np.ndarray((d.size - 2,), dtype="<u2", buffer=digits, offset=1, strides=(1,))
    elems = _ELEMENT[pairs[before]]
    opens, closes = lb[a:b] - lb[a], rb[a - 1 : b - 1] - lb[a]  # offsets in the slice
    segs = np.searchsorted(before, opens)  # where each list's elements start
    lens = np.searchsorted(before, closes) - segs
    # the elements, each with the byte after it, and each empty list's "]"
    # cover the lists' insides and "]"s exactly when no other byte is there;
    # _ELEMENT is 0 for a leading zero
    if (2 * before.size + np.count_nonzero(elems > 9) + lens.size - np.count_nonzero(lens)
            != (closes - opens).sum()
            or before.size and not 0 < elems.min() <= elems.max() <= n):
        return None
    bits = _ELEMENT_BIT[np.append(elems, 0)]  # the 0 closes the last list when it is empty
    masks = np.bitwise_or.reduceat(bits, segs)
    masks[lens == 0] = 0  # reduceat reads one element for an empty list
    # OR and sum of a list agree unless an element repeats in it
    return (masks, before.size) if masks.sum() == bits.sum() else None


def _token_runs(data: bytes) -> int:
    """The number of runs of string and number bytes in ``data`` that
    start after its first byte, counted in slices of ``_SLICE`` bytes."""
    flags = (np.frombuffer(data[max(at - 1, 0) : at + _SLICE].translate(_TOKEN_BYTE), dtype=bool)
             for at in range(0, len(data), _SLICE))
    return sum(np.count_nonzero(t[1:] > t[:-1]) for t in flags)


def _scan_function(data: bytes) -> SetFunction | None:
    """The function of the bytes of a set-function file, read without
    building a JSON tree, or None unless the text is in the reader's
    grammar (see the module docstring), holds at least ``_SCAN_MIN``
    entries and builds without an input error; the caller then parses the
    text as JSON."""
    buf = data.translate(None, b" \t\n\r") + bytes(_WIDE)  # compact, then zeros for the views
    c = np.frombuffer(buf, dtype=np.uint8)[:-_WIDE]
    lb, rb = np.flatnonzero(c == ord("[")), np.flatnonzero(c == ord("]"))
    k = lb.size - 1  # one "[" per entry, and one opens the entries
    head = re.match(_HEAD, buf)  # up to the first entry's "[", so lb[0] and lb[1] are its own
    if k < max(_SCAN_MIN, 1) or rb.size != k + 1 or head is None:
        return None
    n = int(head[1])
    ten = np.ndarray((c.size,), dtype="V10", buffer=buf, strides=(1,))  # 10 bytes per offset
    start = rb[:-1] + 10  # each value token, from after its list to before "}"
    width = np.append(lb[2:] - 9, c.size - 3) - start  # the windows cannot overlap, so >= 0
    if (n > MAX_GROUND_SIZE or buf[c.size - 3 : c.size] != b"}]}" or c.min() < 33
            or c.max() > 126 or width.max() > _WIDE or (rb[:-1] <= lb[1:]).any()
            or ten[rb[:-1]].tobytes() != b'],"value":' * k
            or ten[lb[2:] - 9].tobytes() != b'},{"set":[' * (k - 1)):
        return None
    chunks = []
    for at in range(1, k + 1, _CHUNK):
        chunks.append(_list_masks(buf, lb, rb, at, min(at + _CHUNK, k + 1), n))
        if chunks[-1] is None:
            return None
    # the compact text has one run of string or number bytes per token,
    # 5 in the head and 3 + its elements per entry; whitespace dropped
    # inside a token would have split one in the file
    if _token_runs(data) != 5 + 3 * k + sum(count for _, count in chunks):
        return None
    # each token as q words padded with zero bytes (one word, or a string of
    # q), the words read from a view of the 8 bytes from each offset
    q = -(-int(width.max()) // 8)
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    keys = np.stack([words[start + 8 * j] & _LOW_BYTES[width - 8 * j] for j in range(q)], 1)
    tokens, codes = np.unique(keys[:, 0] if q == 1 else keys.view(f"S{8 * q}")[:, 0],
                              return_inverse=True)
    ctab = np.zeros(1 << n, dtype=np.int32)  # value code (1, 2, ...) by mask, 0 when unlisted
    ctab[np.concatenate([masks for masks, _ in chunks])] = codes + 1
    tokens = tokens.view(f"S{8 * q}").tolist()  # an empty token is b"", outside the grammar
    if np.count_nonzero(ctab) != k or not all(re.fullmatch(_VALUE, t) for t in tokens):
        return None  # a repeated set, or a value outside the grammar
    try:
        return SetFunction._from_codes(n, ctab, [NEG_INF] + [as_ext_value(json.loads(t))
                                                             for t in tokens])
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
    """Run the body with the cyclic garbage collector off, and switch it
    back on after the body only if it was on before."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _load(path, convert, scan: bool = False):
    """The instance in ``path``, read and built with the collector paused:
    with ``scan``, by ``_scan_function`` of the file's bytes when it takes
    them, and otherwise as ``convert`` of the parsed JSON object.  The
    object is a temporary of this call, so the tree is freed before the
    pause ends."""
    with _gc_paused():
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            raise InputError(f"cannot read {path}: {e}") from None
        f = _scan_function(data) if scan else None
        return f if f is not None else convert(_parse_json(path, data))


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
