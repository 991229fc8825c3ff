"""The integer table of a set function: the one integer representation.

Values are rescaled by the least common denominator so every comparison in
the hot loops is pure integer arithmetic.  The ``-inf`` entries become a
sentinel placed far enough below the finite range that any two-term sum
containing the sentinel compares strictly below any two-term sum of finite
entries; loops must still skip tuples whose left-hand side would contain a
sentinel (those are vacuous by convention).

The table is one numpy array over all 2^n masks, of the narrowest integer
dtype that :func:`int_dtype` admits for the sentinel and the finite range:
int16, int32 or int64, else an object array of the same Python integers.
Every kernel runs unchanged on each of them, so the object array is the
exact fallback and the narrow dtypes only move fewer bytes per entry.

There is one build, :meth:`IntTable.from_codes`: an integer code for
each mask and the exact value of each code.  The scale, the range and the
sentinel are worked out once per code, and the table is one gather of a
per-code array.  The file loader hands over the value codes it parsed,
and ``IntTable(f)`` gives each mask of f's rational table its own code.
A set family builds none: the kernels read its membership directly, and
its indicator function gets a table only when its ``ints`` are read.
Each :class:`~excheck.core.SetFunction` keeps one table, built on first
use or handed over by the file loader (see :attr:`SetFunction.ints`).
The checkers, the dual sweep of ``fenchel_gap`` and the demand kernel all
read that array.  The dual sweep and the demand kernel copy what they
read into arrays of their own, of the dtype :func:`int_dtype` admits for
the bounds of their own arithmetic, so every integer kernel follows the
one rule: the narrowest integer dtype, else the object route.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm
from typing import TYPE_CHECKING

import numpy as np

from .values import NEG_INF, ExtValue

if TYPE_CHECKING:
    from .core import SetFunction

__all__ = ["IntTable", "int_dtype"]

# The integer dtypes, narrowest first, each with the bound that twice the
# largest magnitude must stay below: a two-term sum of such values, or a
# floor 2*v - 1, then lies a bit inside the dtype.
_RUNGS = ((np.int16, 1 << 14), (np.int32, 1 << 30), (np.int64, 1 << 62))


def int_dtype(*values: int):
    """The narrowest of int16, int32 and int64 in which twice the largest
    magnitude among ``values`` is below 2^14, 2^30 or 2^62, so every sum of
    two values that large is exact with room to spare; ``object`` when none
    is.  Each caller passes bounds on the terms its own arithmetic adds."""
    top = 2 * max(abs(v) for v in values)
    for dtype, safe in _RUNGS:
        if top < safe:
            return dtype
    return object


class IntTable:
    """Scaled numerators of a set function over all 2^n masks.

    ``sent[m]`` is the value on m times ``scale``, or ``neg`` off the
    effective domain; ``dom`` holds the ascending finite masks (int64), and
    ``lo``/``hi`` the range of the finite entries.  ``sent`` has the dtype
    ``int_dtype(neg, lo, hi)``: int16, int32 or int64, or an object array
    of Python integers past the int64 bound.  The kernels add at most two
    entries and compare with the floor 2*lo - 1, all inside it.

    Every table comes from :meth:`from_codes`; ``IntTable(f)`` runs it on
    f's rational table with one code per mask.
    """

    __slots__ = ("n", "scale", "lo", "hi", "neg", "sent", "dom")

    def __init__(self, f: SetFunction):
        # each mask its own code: rescaling an entry costs less than hashing it
        self._fill(f.n, np.arange(len(f.table)), f.table)

    @classmethod
    def from_codes(cls, n: int, codes: np.ndarray, values: Sequence[ExtValue]) -> "IntTable":
        """The table of the function that is ``values[codes[m]]`` on each
        mask m.  ``codes`` is an integer array over all 2^n masks; each of
        ``values`` is a Fraction or ``NEG_INF``, at least one is finite,
        and each finite one is the value of some mask."""
        t = cls.__new__(cls)
        t._fill(n, codes, values)
        return t

    def _fill(self, n, codes, values) -> None:
        scale = lcm(*(v.denominator for v in values if v is not NEG_INF))
        nums = [None if v is NEG_INF else v.numerator * (scale // v.denominator) for v in values]
        finite = [x for x in nums if x is not None]
        lo, hi = min(finite), max(finite)
        # sentinel + any finite value < 2*lo, so sentinel sums lose every comparison
        neg = lo - 2 * (hi - lo) - 1
        by_code = np.array([neg if x is None else x for x in nums], dtype=int_dtype(neg, lo, hi))
        self.n = n
        self.scale = scale
        self.lo = lo
        self.hi = hi
        self.neg = neg
        self.sent = by_code[codes]
        self.dom = (self.sent != neg).nonzero()[0].astype(np.int64, copy=False)
