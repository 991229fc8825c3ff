"""The integer table of a set function: the one integer representation.

Values are rescaled by the least common denominator so every comparison in
the hot loops is pure integer arithmetic.  The ``-inf`` entries become a
sentinel placed far enough below the finite range that any two-term sum
containing the sentinel compares strictly below any two-term sum of finite
entries; loops must still skip tuples whose left-hand side would contain a
sentinel (those are vacuous by convention).

The table is one numpy array over all 2^n masks: int64 when
:func:`fits_int64` admits the sentinel and the finite range, else an
object array of the same Python integers, which every kernel runs on
unchanged as its exact fallback.  Each :class:`~excheck.core.SetFunction`
keeps one table, built on first use or handed over by the file loader,
which fills it while it parses the entries (see :attr:`SetFunction.ints`).
The checkers, the dual sweep of ``fenchel_gap`` and the demand kernel all
read that array.  ``IntTable(f)`` builds a fresh table from the rational
entries.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm
from typing import TYPE_CHECKING

import numpy as np

from .values import is_finite

if TYPE_CHECKING:
    from .core import SetFunction

__all__ = ["IntTable", "fits_int64"]

# A two-term sum of values that pass fits_int64 stays below this, a bit
# inside int64.
_INT64_SAFE = 1 << 62


def fits_int64(*values: int) -> bool:
    """Whether twice the largest magnitude among ``values`` is below 2^62,
    so every sum of two values that large is exact in int64 with room to
    spare.  Each kernel passes bounds on the terms its own arithmetic adds."""
    return 2 * max(abs(v) for v in values) < _INT64_SAFE


class IntTable:
    """Scaled numerators of a set function over all 2^n masks.

    ``sent[m]`` is the value on m times ``scale``, or ``neg`` off the
    effective domain; ``dom`` holds the ascending finite masks (int64), and
    ``lo``/``hi`` the range of the finite entries.  ``sent`` is int64 when
    ``fits_int64(neg, lo, hi)``, else an object array of Python integers.
    """

    __slots__ = ("n", "scale", "lo", "hi", "neg", "sent", "dom")

    def __init__(self, f: SetFunction):
        scale = 1
        for v in f.table:
            if is_finite(v):
                scale = lcm(scale, v.denominator)
        tab = f.table
        dom = [m for m, v in enumerate(tab) if is_finite(v)]
        self._fill(f.n, scale, dom, [tab[m].numerator * (scale // tab[m].denominator) for m in dom])

    @classmethod
    def from_parts(cls, n: int, scale: int, dom: Sequence[int], vals: Sequence[int]) -> "IntTable":
        """A table from already scaled numerators ``vals`` on the ascending,
        nonempty masks ``dom``."""
        t = cls.__new__(cls)
        t._fill(n, scale, dom, vals)
        return t

    def _fill(self, n, scale, dom, vals) -> None:
        lo, hi = min(vals), max(vals)
        # sentinel + any finite value < 2*lo, so sentinel sums lose every comparison
        neg = lo - 2 * (hi - lo) - 1
        self.n = n
        self.scale = scale
        self.lo = lo
        self.hi = hi
        self.neg = neg
        self.dom = np.array(dom, dtype=np.int64)
        self.sent = np.full(1 << n, neg, dtype=np.int64 if fits_int64(neg, lo, hi) else object)
        self.sent[self.dom] = vals
