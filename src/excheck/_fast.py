"""The integer table of a set function: the one integer representation.

Values are rescaled by the least common denominator so every comparison in
the hot loops is pure integer arithmetic.  The ``-inf`` entries become a
sentinel placed far enough below the finite range that any two-term sum
containing the sentinel compares strictly below any two-term sum of finite
entries; loops must still skip tuples whose left-hand side would contain a
sentinel (those are vacuous by convention).

Each :class:`~excheck.core.SetFunction` keeps one table, built on first use
or handed over by the file loader, which fills it while it parses the
entries (see :attr:`SetFunction.ints`).  The checkers, the dual sweep of
``fenchel_gap`` and the demand kernel all read that table, and the
scanners also read its int64 arrays, built once.  ``IntTable(f)`` builds a
fresh table from the rational entries; ``extra_denominator`` adds one more
denominator to the scale.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING

import numpy as np

from .values import is_finite

if TYPE_CHECKING:
    from .core import SetFunction

__all__ = ["IntTable"]


class IntTable:
    """Scaled numerators of a set function over all 2^n masks.

    ``vals[m]`` is the value on m times ``scale`` (None off the effective
    domain), ``sent`` the same table with ``neg`` off the domain, ``dom``
    the ascending finite masks, and ``lo``/``hi`` the range of the finite
    entries.
    """

    __slots__ = ("n", "size", "scale", "lo", "hi", "neg", "vals", "sent", "dom", "_arrays")

    def __init__(self, f: SetFunction, extra_denominator: int = 1):
        scale = extra_denominator
        for v in f.table:
            if is_finite(v):
                scale = lcm(scale, v.denominator)
        vals: list[int | None] = []
        dom: list[int] = []
        for mask, v in enumerate(f.table):
            if is_finite(v):
                vals.append(v.numerator * (scale // v.denominator))
                dom.append(mask)
            else:
                vals.append(None)
        finite = [vals[m] for m in dom]
        self._fill(f.n, scale, vals, dom, min(finite), max(finite))

    @classmethod
    def from_parts(cls, n: int, scale: int, vals: list, dom: list, lo: int, hi: int) -> "IntTable":
        """A table from already scaled numerators (``dom`` ascending, nonempty)."""
        t = cls.__new__(cls)
        t._fill(n, scale, vals, dom, lo, hi)
        return t

    def _fill(self, n, scale, vals, dom, lo, hi) -> None:
        # sentinel + any finite value < 2*lo, so sentinel sums lose every comparison
        neg = lo - 2 * (hi - lo) - 1
        self.n = n
        self.size = 1 << n
        self.scale = scale
        self.lo = lo
        self.hi = hi
        self.neg = neg
        self.vals = vals
        self.sent = [neg if v is None else v for v in vals]
        self.dom = dom
        self._arrays = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``sent`` and ``dom`` as int64 arrays, built on the first call.

        Only for tables whose sentinel and range fit in int64; the scanners
        test that first.
        """
        if self._arrays is None:
            self._arrays = (np.array(self.sent, dtype=np.int64), np.array(self.dom, dtype=np.int64))
        return self._arrays
