"""JSON instance files.

Set function: ``{"kind": "set_function", "n": N, "entries": [{"set": [...],
"value": v}, ...]}`` with sorted 1-based element lists and values given as
integers or exact ``"p/q"`` strings.  Omitted subsets are -inf; duplicate
sets are an input error; decimal numbers are rejected.

Set family: ``{"kind": "set_family", "n": N, "members": [[...], ...]}``.

A set function is loaded in one pass over its entries, which validates
each entry and its element list, catches a repeated set with a byte per
subset, and fills the rational table and the integer table of
:class:`~excheck._fast.IntTable` together.  A JSON integer is its own
numerator; each distinct ``"p/q"`` or ``"-inf"`` string is parsed once.
Unusual input (a bool or out-of-range element, a bool or decimal value)
goes through the general validators, so every error message is the one
:func:`~excheck.sets.mask_from_elements` and
:func:`~excheck.values.as_ext_value` give.  The function is then built
without normalizing its values again, with the integer table in place.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

from ._fast import IntTable
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
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from None
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


def obj_to_set_function(obj: dict) -> SetFunction:
    if obj.get("kind") != "set_function":
        raise InputError(f"expected kind 'set_function', got {obj.get('kind')!r}")
    n = _ground_size(obj)
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise InputError("'entries' must be a list")
    size = 1 << n
    table: list[ExtValue] = [NEG_INF] * size
    nums: list = [None] * size  # JSON ints as they are, other values as Fractions
    seen = bytearray(size)
    parsed: dict = {}  # raw int or string -> its value; keyed only after a type test
    dom: list[int] = []
    dup = None
    fractional = False
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
        if type(value) is int:
            v = parsed.get(value)
            if v is None:
                v = parsed[value] = Fraction(value)
            num = value
        else:
            if type(value) is str:
                v = parsed.get(value)
                if v is None:
                    v = parsed[value] = as_ext_value(value)
            else:
                v = as_ext_value(value)
            num = v  # rescaled below, once the scale is known
            fractional = fractional or v is not NEG_INF
        if seen[mask]:
            if dup is None:
                dup = mask  # reported once every value has been parsed
            continue
        seen[mask] = 1
        if v is not NEG_INF:
            table[mask] = v
            nums[mask] = num
            dom.append(mask)
    if not entries:
        raise InputError("the function has no finite entries (empty effective domain)")
    if dup is not None:
        raise InputError(f"duplicate subset {set_str(dup)}")
    if not dom:
        raise InputError("effective domain is empty: every entry is -inf")
    dom.sort()
    scale = 1
    if fractional:
        scale = lcm(*(nums[m].denominator for m in dom if type(nums[m]) is not int))
        for m in dom:
            v = nums[m]
            nums[m] = v * scale if type(v) is int else v.numerator * (scale // v.denominator)
    finite = [nums[m] for m in dom]
    ints = IntTable.from_parts(n, scale, nums, dom, min(finite), max(finite))
    return SetFunction._from_normalized(n, tuple(table), ints)


def obj_to_set_family(obj: dict) -> SetFamily:
    if obj.get("kind") != "set_family":
        raise InputError(f"expected kind 'set_family', got {obj.get('kind')!r}")
    n = _ground_size(obj)
    raw = obj.get("members")
    if not isinstance(raw, list):
        raise InputError("'members' must be a list of subsets")
    members = set()
    for item in raw:
        mask = _element_list(item, n)
        if mask in members:
            raise InputError(f"duplicate member {sorted(item)}")
        members.add(mask)
    return SetFamily(n, frozenset(members))


def load_set_function(path) -> SetFunction:
    return obj_to_set_function(_load_json(path))


def load_set_family(path) -> SetFamily:
    return obj_to_set_family(_load_json(path))


def load_instance(path) -> SetFunction | SetFamily:
    """Load either kind, dispatching on the 'kind' field."""
    obj = _load_json(path)
    kind = obj.get("kind")
    if kind == "set_function":
        return obj_to_set_function(obj)
    if kind == "set_family":
        return obj_to_set_family(obj)
    raise InputError(f"unknown instance kind {kind!r}")


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


def save_set_function(f: SetFunction, path) -> None:
    Path(path).write_text(json.dumps(set_function_to_obj(f), indent=2) + "\n")


def save_set_family(fam: SetFamily, path) -> None:
    Path(path).write_text(json.dumps(set_family_to_obj(fam), indent=2) + "\n")
