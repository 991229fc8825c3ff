"""Bitmask subsets of a ground set {1..n}: element e is bit e-1.

Witnesses and file formats use sorted 1-based element lists; everything
internal works on the integer masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import InputError

__all__ = [
    "mask_from_elements",
    "elements_of",
    "set_str",
    "iter_bits",
    "iter_submasks",
    "submasks_smallest_first",
]


def mask_from_elements(elements: Iterable[int], n: int | None = None) -> int:
    """Build a mask from 1-based element labels; duplicates are an error."""
    mask = 0
    for e in elements:
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise InputError(f"element labels are positive integers, got {e!r}")
        if n is not None and e > n:
            raise InputError(f"element {e} exceeds ground-set size {n}")
        bit = 1 << (e - 1)
        if mask & bit:
            raise InputError(f"duplicate element {e}")
        mask |= bit
    return mask


def _check_nonnegative(mask: int) -> None:
    if mask < 0:
        raise InputError(f"a mask is a nonnegative integer, got {mask!r}")


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based element labels of a mask; a negative mask raises
    :class:`InputError`."""
    _check_nonnegative(mask)
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length())
        mask ^= bit
    return tuple(out)


def set_str(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def iter_bits(mask: int) -> Iterator[int]:
    """Single-bit masks of ``mask``, lowest first; a negative mask raises
    :class:`InputError` at the first step."""
    _check_nonnegative(mask)
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` in ascending numeric order (0 first, mask
    last); a negative mask raises :class:`InputError` at the first step."""
    _check_nonnegative(mask)
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def submasks_smallest_first(mask: int) -> list[int]:
    """Submasks ordered by (cardinality, numeric value)."""
    return sorted(iter_submasks(mask), key=lambda m: (m.bit_count(), m))
