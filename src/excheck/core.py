"""Core types: set functions, set families, price vectors, and restrictions.

A :class:`SetFunction` is a dense table of exact extended values over all
2^n subsets of {1..n}, with at least one finite entry.  Next to the
rational table it keeps one integer table (:attr:`SetFunction.ints`, an
:class:`~excheck._fast.IntTable`: one array of the narrowest exact
integer dtype, int16, int32 or int64, or, past the int64 guard, of Python
integers), built once on first use or handed over by the
file loader; the checkers, ``fenchel_gap``, the demand kernel and
``dom_masks``/``value_range`` all read it.  Functions derived from another
one (``with_value``, ``shift_by_price``, ``slice_pair``) build their own.
A :class:`SetFamily` reaches the checkers' kernels as its membership, with
no integer table; its indicator function (0 on the members, -inf
elsewhere), built once per family on first use, is the exact table that
re-checks a family witness.  :func:`shifted_argmax` is the one
exact argmax of f - p on the rational table, for conjugates and demand.
All types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._fast import IntTable
from .errors import EmptySliceError, InputError
from .sets import elements_of, iter_bits, mask_from_elements, set_str
from .values import NEG_INF, ExtValue, as_ext_value, finite_value, is_finite

__all__ = [
    "MAX_GROUND_SIZE",
    "SetFunction",
    "SetFamily",
    "PriceVector",
    "SlicePair",
    "effective_domain",
    "shift_by_price",
    "slice_pair",
    "with_value",
]

# Dense tables get large fast; one million entries is the ceiling.
MAX_GROUND_SIZE = 20

_ZERO = Fraction(0)


def _check_mask(mask: int, n: int, name: str = "subset") -> None:
    if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0 or mask >= (1 << n):
        raise InputError(f"{name} out of range for ground set of size {n}: {mask!r}")


def _check_ground_size(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0 or n > MAX_GROUND_SIZE:
        raise InputError(f"ground-set size must be in 0..{MAX_GROUND_SIZE}, got {n!r}")


def _check_some_finite(tab) -> None:
    if not any(is_finite(v) for v in tab):
        raise InputError("effective domain is empty: every entry is -inf")


@dataclass(frozen=True)
class SetFunction:
    """Extended-rational set function given by its full value table.

    ``table[S]`` is the value on the subset whose characteristic bitmask is
    ``S``.  Entries are exact rationals or ``NEG_INF``; at least one entry
    must be finite.  ``n = 0`` is permitted (a single-entry table) so that
    restrictions to an empty ground set are representable; external file
    formats require ``1 <= n <= 20``.
    """

    n: int
    table: tuple[ExtValue, ...]

    def __post_init__(self):
        _check_ground_size(self.n)
        tab = tuple(as_ext_value(v) for v in self.table)
        if len(tab) != (1 << self.n):
            raise InputError(f"table must have exactly {1 << self.n} entries, got {len(tab)}")
        _check_some_finite(tab)
        object.__setattr__(self, "table", tab)

    @classmethod
    def _from_normalized(cls, n: int, table: tuple, ints: IntTable | None = None) -> "SetFunction":
        """Wrap a table the caller has already normalized and validated
        (0 <= n <= MAX_GROUND_SIZE, 2^n entries, each a Fraction or NEG_INF,
        one finite), together with its integer table when there is one."""
        f = cls.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "table", table)
        if ints is not None:
            f.__dict__["ints"] = ints
        return f

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray, values: list[ExtValue]) -> "SetFunction":
        """The function that is ``values[codes[m]]`` on each mask m, with
        its integer table (see :meth:`IntTable.from_codes`); raises when
        every value is -inf."""
        _check_some_finite(values)
        table = tuple(np.array(values, dtype=object)[codes].tolist())
        return cls._from_normalized(n, table, IntTable.from_codes(n, codes, values))

    @classmethod
    def from_entries(cls, n: int, entries) -> "SetFunction":
        """Build from (mask, value) pairs; unmentioned subsets are -inf."""
        _check_ground_size(n)
        tab: list[ExtValue] = [NEG_INF] * (1 << n)
        seen = set()
        for mask, value in entries:
            _check_mask(mask, n)
            if mask in seen:
                raise InputError(f"duplicate subset {set_str(mask)}")
            seen.add(mask)
            tab[mask] = as_ext_value(value)
        _check_some_finite(tab)
        return cls._from_normalized(n, tuple(tab))

    @classmethod
    def from_callable(cls, n: int, fn) -> "SetFunction":
        _check_ground_size(n)
        return cls(n, tuple(fn(mask) for mask in range(1 << n)))

    def value(self, subset: int) -> ExtValue:
        """Value on a subset; total for every in-range mask."""
        _check_mask(subset, self.n)
        return self.table[subset]

    @cached_property
    def ints(self) -> IntTable:
        """The integer table of the function, built once."""
        return IntTable(self)

    @cached_property
    def dom_masks(self) -> tuple[int, ...]:
        """Masks with finite value, ascending, as Python integers."""
        return tuple(self.ints.dom.tolist())

    @cached_property
    def value_range(self) -> tuple[Fraction, Fraction]:
        """(min, max) over the finite entries."""
        t = self.ints
        return (Fraction(t.lo, t.scale), Fraction(t.hi, t.scale))

    @cached_property
    def max_value(self) -> Fraction:
        return self.value_range[1]

    @cached_property
    def argmax_masks(self) -> tuple[int, ...]:
        top = self.max_value
        return tuple(m for m in self.dom_masks if self.table[m] == top)

    @cached_property
    def argmax_family(self) -> "SetFamily":
        """The maximizers as a family (``maximizer_exchange`` searches its members)."""
        return SetFamily._from_sorted(self.n, self.argmax_masks)


@dataclass(frozen=True)
class SetFamily:
    """A family of subsets of {1..n}, kept as a frozenset of bitmasks."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        _check_ground_size(self.n)
        mem = frozenset(self.members)
        for m in mem:
            _check_mask(m, self.n, "member")
        object.__setattr__(self, "members", mem)

    @classmethod
    def _from_sorted(cls, n: int, masks: tuple[int, ...]) -> "SetFamily":
        """Wrap ascending, distinct, in-range masks without validating them again."""
        fam = cls.__new__(cls)
        object.__setattr__(fam, "n", n)
        object.__setattr__(fam, "members", frozenset(masks))
        fam.__dict__["sorted_members"] = masks
        return fam

    @cached_property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    @cached_property
    def indicator(self) -> SetFunction:
        """0 on the members, -inf elsewhere: the function whose exchange
        axioms are the family's, and the exact table every family
        re-check reads.  The kernels read membership instead, so no
        integer table is built here; reading its ``ints`` builds one."""
        if not self.members:
            raise InputError("the family has no members")
        tab: list[ExtValue] = [NEG_INF] * (1 << self.n)
        for m in self.members:
            tab[m] = _ZERO
        return SetFunction._from_normalized(self.n, tuple(tab))

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PriceVector:
    """Exact rational price per ground-set element (entry i prices element i+1)."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        entries = tuple(finite_value(v, "prices") for v in self.entries)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def zeros(cls, n: int) -> "PriceVector":
        return cls((Fraction(0),) * n)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, element: int) -> Fraction:
        """Price of a 1-based element, its label checked as by
        :func:`~excheck.sets.mask_from_elements`."""
        mask_from_elements((element,), len(self.entries))
        return self.entries[element - 1]

    def sum_over(self, mask: int) -> Fraction:
        _check_mask(mask, len(self.entries))
        total = Fraction(0)
        for bit in iter_bits(mask):
            total += self.entries[bit.bit_length() - 1]
        return total

    @cached_property
    def subset_sums(self) -> tuple[Fraction, ...]:
        """Sums over every mask of the full ground set (dynamic programming)."""
        n = len(self.entries)
        sums = [Fraction(0)] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            sums[m] = sums[m ^ low] + self.entries[low.bit_length() - 1]
        return tuple(sums)

    def _zip(self, other: "PriceVector"):
        """The entries of both vectors side by side; the lengths must agree."""
        if len(other) != len(self):
            raise InputError("price vectors have different lengths")
        return zip(self.entries, other.entries)

    def __add__(self, other: "PriceVector") -> "PriceVector":
        return PriceVector(tuple(a + b for a, b in self._zip(other)))

    def __neg__(self) -> "PriceVector":
        return PriceVector(tuple(-a for a in self.entries))

    def join(self, other: "PriceVector") -> "PriceVector":
        """Component-wise maximum."""
        return PriceVector(tuple(max(a, b) for a, b in self._zip(other)))

    def meet(self, other: "PriceVector") -> "PriceVector":
        """Component-wise minimum."""
        return PriceVector(tuple(min(a, b) for a, b in self._zip(other)))

    def leq(self, other: "PriceVector") -> bool:
        """Component-wise <=."""
        return all(a <= b for a, b in self._zip(other))

    def abs_sum(self) -> Fraction:
        return sum((abs(a) for a in self.entries), Fraction(0))


@dataclass(frozen=True)
class SlicePair:
    """Two restrictions of a set function used by the exchange analysis.

    For fixed X, Y, I the first function maps J inside y0 = Y\\X to the value
    on (X\\I) u J, the second to the value on (Y\\J) u I.  Both live on the
    ground set y0, relabelled 1..k in ascending order of the parent labels
    recorded in ``elements``.
    """

    y0: int
    elements: tuple[int, ...]
    f1: SetFunction
    f2: SetFunction


def _check_price_length(p: PriceVector, n: int) -> None:
    if len(p) != n:
        raise InputError(f"price vector length {len(p)} does not match ground set {n}")


def effective_domain(f: SetFunction) -> SetFamily:
    """The family of subsets where the function is finite."""
    return SetFamily._from_sorted(f.n, f.dom_masks)


def shifted_argmax(f: SetFunction, p: PriceVector) -> tuple[list[int], Fraction]:
    """The maximizers of f(Z) - p(Z), ascending, and the maximum, computed
    exactly on the rational table."""
    _check_price_length(p, f.n)
    sums = p.subset_sums
    tab = f.table
    best = None
    members: list[int] = []
    for m in f.dom_masks:
        v = tab[m] - sums[m]
        if best is None or v > best:
            best = v
            members = [m]
        elif v == best:
            members.append(m)
    assert best is not None
    return members, best


def shift_by_price(f: SetFunction, p: PriceVector) -> SetFunction:
    """Subtract the additive price of each subset; -inf entries stay -inf."""
    _check_price_length(p, f.n)
    sums = p.subset_sums
    tab = tuple(v - sums[m] if is_finite(v) else NEG_INF for m, v in enumerate(f.table))
    return SetFunction(f.n, tab)


def validate_exchange_args(
    f: SetFunction | SetFamily, X: int, Y: int, I: int,
    not_member: str = "is not in the effective domain",
) -> None:
    """The one precondition of every exchange entry point on (X, Y, I): the
    three masks in range, X and Y finite under a function or members of a
    family (``not_member`` ends the message when one is not), and I
    inside X\\Y."""
    for name, S in (("X", X), ("Y", Y), ("I", I)):
        _check_mask(S, f.n, name)
    for name, S in (("X", X), ("Y", Y)):
        if (S not in f.members) if isinstance(f, SetFamily) else not is_finite(f.table[S]):
            raise InputError(f"{name}={set_str(S)} {not_member}")
    if I & ~(X & ~Y):
        raise InputError(f"I={set_str(I)} is not a subset of X\\Y={set_str(X & ~Y)}")


def slice_masks(
    f: SetFunction, X: int, Y: int, I: int
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """The relabelling behind both exchange slices of (X, Y, I).

    Returns the elements of y0 = Y\\X, ascending, and, for every local mask
    J of the slices (bit i standing for the i-th of those elements), the
    parent masks (X\\I) u J and (Y\\J) u I.  Raises
    :class:`EmptySliceError` when f is -inf on every mask of a slice.  The
    caller validates (X, Y, I).
    """
    c = X & Y
    y0 = Y & ~X
    elems = elements_of(y0)
    js = [0]
    for e in elems:
        bit = 1 << (e - 1)
        js += [j | bit for j in js]
    base1 = (X & ~Y & ~I) | c
    base2 = I | c
    masks1 = [base1 | j for j in js]
    masks2 = [base2 | (y0 ^ j) for j in js]
    tab = f.table
    for through, masks in (("(X\\I) u J", masks1), ("(Y\\J) u I", masks2)):
        if not any(is_finite(tab[m]) for m in masks):
            raise EmptySliceError(
                f"slice through {through} has empty effective domain for "
                f"X={set_str(X)}, Y={set_str(Y)}, I={set_str(I)}"
            )
    return elems, masks1, masks2


def slice_pair(f: SetFunction, X: int, Y: int, I: int) -> SlicePair:
    """Restrict f to the two exchange slices determined by (X, Y, I).

    Requires X and Y in the effective domain and I inside X\\Y.  Raises
    :class:`EmptySliceError` when either restriction is -inf everywhere,
    which cannot happen for discrete-concave functions but is reachable in
    general.
    """
    validate_exchange_args(f, X, Y, I)
    elems, masks1, masks2 = slice_masks(f, X, Y, I)
    k = len(elems)
    tab = f.table
    f1 = SetFunction._from_normalized(k, tuple(tab[m] for m in masks1))
    f2 = SetFunction._from_normalized(k, tuple(tab[m] for m in masks2))
    return SlicePair(y0=Y & ~X, elements=elems, f1=f1, f2=f2)


def with_value(f: SetFunction, subset: int, value) -> SetFunction:
    """Copy of f with one table entry replaced."""
    _check_mask(subset, f.n)
    tab = list(f.table)
    tab[subset] = as_ext_value(value)
    return SetFunction(f.n, tuple(tab))
