"""Seeded random price rows read in bulk from the generator's 32-bit words.

The sampled price streams are defined by per-call loops of
``Random.randint`` and ``Random.random``.  :func:`price_draws` and
:func:`pair_draws` return the same integers, in the same order, as numpy
blocks: :class:`Words` draws the generator's outputs in bulk and reads them
the way those calls consume them.  Widths of more than 32 bits keep the
per-call loop, which is exact for integers of any size.

This module holds draw code only; its callers validate seeds and counts
(:func:`excheck.values.require_nonnegative_int`) before drawing.
"""

from __future__ import annotations

from random import Random

import numpy as np

# a random pair block is read from the generator's words about this many at a time
_WALK_WORDS = 1 << 12


def price_draws(rng: Random, n: int, kmax: int, a: int, dtype):
    """draw(k): the next k rows [a * rng.randint(-kmax, kmax) for each of n
    coordinates], as an array of ``dtype``."""
    width = 2 * kmax + 1
    if width.bit_length() > 32:
        def draw(k):
            rows = [[a * rng.randint(-kmax, kmax) for _ in range(n)] for _ in range(k)]
            return np.array(rows, dtype=dtype).reshape(k, n)
    else:
        words = Words(rng)

        def draw(k):
            return (words.below(width, k * n).reshape(k, n) - kmax).astype(dtype) * a
    return draw


def pair_draws(rng: Random, n: int, kmax: int, a: int, dtype):
    """draw(k): the next k pair rows p + q, where p is drawn as in
    :func:`price_draws`, then each coordinate is raised when
    rng.random() < 0.5, and the raised ones, in order, by
    a * rng.randint(1, max(1, kmax))."""
    width = 2 * kmax + 1
    kup = max(1, kmax)
    if width.bit_length() > 32:
        def draw(k):
            rows = []
            for _ in range(k):
                p = [a * rng.randint(-kmax, kmax) for _ in range(n)]
                raised = [rng.random() < 0.5 for _ in range(n)]
                rows.append(p + [v + a * rng.randint(1, kup) if r else v
                                 for v, r in zip(p, raised)])
            return np.array(rows, dtype=dtype).reshape(k, 2 * n)
    else:
        words = Words(rng)

        def draw(k):
            draws, up = words.pairs(k, n, width, kup)
            p = (draws - kmax).astype(dtype) * a
            return np.concatenate((p, p + up.astype(dtype) * a), axis=1)
    return draw


def _margin(words: float) -> int:
    """Words to draw for an expected need: a little more, so one draw
    usually suffices; the surplus stays buffered for the next block."""
    return int(words * 1.125) + 64


class Words:
    """The 32-bit outputs of a seeded ``Random``, drawn in bulk, read in order.

    CPython's Mersenne Twister serves ``getrandbits(k)`` for 1 <= k <= 32 as
    its next output shifted right by 32 - k, and ``getrandbits(32 * m)`` as
    its next m outputs, the first in the lowest bits.  ``randint(lo, hi)`` is
    lo plus the first of repeated getrandbits(w.bit_length()) draws that falls
    below the width w = hi - lo + 1, and ``random()`` reads two outputs and
    is below 0.5 exactly when the first is below 2^31.  Reading the outputs
    with these rules gives what those calls return, for widths below 2^32.
    """

    def __init__(self, rng: Random):
        self.rng = rng
        self.buf = np.empty(0, dtype=np.int64)

    def _draw(self, count: int):
        raw = self.rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        self.buf = np.concatenate((self.buf, np.frombuffer(raw, dtype="<u4")))

    def below(self, width: int, count: int) -> np.ndarray:
        """The next ``count`` results of randbelow(width), as int64."""
        shift = 32 - width.bit_length()
        while True:
            vals = self.buf >> shift
            pos = np.flatnonzero(vals < width)
            if len(pos) >= count:
                break
            self._draw(_margin((count - len(pos)) * (1 << 32 - shift) / width))
        if count:
            self.buf = self.buf[pos[count - 1] + 1 :]
        return vals[pos[:count]]

    def pairs(self, rows: int, n: int, width: int, kup: int):
        """The draws of the next ``rows`` random pairs, as two int64 (rows, n)
        arrays: n results of randbelow(width), then (after n random() flags)
        1 + randbelow(kup) for each raised coordinate, 0 for the others."""
        if n == 0:
            return np.zeros((rows, 0), dtype=np.int64), np.zeros((rows, 0), dtype=np.int64)
        s1, s2 = 32 - width.bit_length(), 32 - kup.bit_length()
        per_row = n * ((1 << 32 - s1) / width + 2 + (1 << 32 - s2) / kup / 2)
        step = max(1, int(_WALK_WORDS / per_row))
        if rows > step:  # walk about _WALK_WORDS words at a time
            parts = [self.pairs(min(step, rows - i), n, width, kup) for i in range(0, rows, step)]
            return tuple(np.concatenate(x) for x in zip(*parts))
        while True:
            w = self.buf
            size = len(w)
            # for every start s in the buffer: ``a`` is one past the row's n-th
            # accepted p draw, ``b`` = a + 2n one past its flags, ``end`` one
            # past its last raise draw; a row runs past the buffer when end > size
            ok1 = (w >> s1) < width
            ok2 = (w >> s2) < kup
            acc1 = np.append(np.flatnonzero(ok1), size)  # accepted words, then a stop
            acc2 = np.append(np.flatnonzero(ok2), size)
            before1 = np.concatenate(([0], np.cumsum(ok1)))  # accepted words before t
            before2 = np.concatenate(([0], np.cumsum(ok2)))
            a = acc1[np.minimum(before1[:size] + n - 1, len(acc1) - 1)] + 1
            b = a + 2 * n
            low = w < 1 << 31  # random() < 0.5, read at the first of its two words
            alt = np.zeros(size + 2, dtype=np.int64)  # flags at u < t, u = t mod 2
            alt[2::2] = np.cumsum(low[0::2])
            alt[3::2] = np.cumsum(low[1::2])
            a_in, b_in = np.minimum(a, size), np.minimum(b, size)
            raised = alt[b_in] - alt[a_in]
            last = acc2[np.minimum(before2[b_in] + raised - 1, len(acc2) - 1)] + 1
            end = np.where(b > size, size + 1, np.where(raised > 0, last, b))
            starts = []
            s = 0
            while len(starts) < rows and s < size and end.item(s) <= size:
                starts.append(s)
                s = end.item(s)
            if len(starts) == rows:
                break
            self._draw(_margin((rows - len(starts)) * per_row))
        starts = np.array(starts, dtype=np.int64)
        draws = w[acc1[before1[starts][:, None] + np.arange(n)]] >> s1
        flags = low[a[starts][:, None] + 2 * np.arange(n)]
        up = np.zeros((rows, n), dtype=np.int64)
        k2 = before2[b[starts]][:, None] + np.cumsum(flags, axis=1) - 1
        up[flags] = (w[acc2[k2[flags]]] >> s2) + 1
        self.buf = w[s:]
        return draws, up
