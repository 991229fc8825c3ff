"""Conjugates, submodularity spot checks, duality-gap reports, and the
big-M price construction that reduces slice conjugates to the global one.

The dual side of the gap report minimizes g1(q) + g2(-q) exactly over the
integer points of the box [-R, R]^k (m = 2R + 1 values per coordinate),
after all values are rescaled to integers, so every number that enters a
comparison is exact.  Here g1(q) = max_J f1(J) - q(J) and g2(-q) =
max_J f2(J) + q(J) over subsets J of the k elements of Y\\X.  Both slice
tables are read straight from the function's integer table
(``SetFunction.ints``) at the slice masks.

The sweep runs slab by slab over coordinate 0 in increasing order.  On
slab q_0 = a, each conjugate is a subset dynamic program on arrays:
coordinate 0 is folded into the dense 2^(k-1)-entry slice table,
h(J) = max(f(J), f(J + e_0) -/+ a), and every further coordinate c turns
the table's {0, 1} axis into the grid axis q_c with one max-plus pass,
max(h(J), h(J + e_c) -/+ q_c), last coordinate first.  The passes down to
coordinate 2 run once per slab and leave 2 m^(k-2) entries; the last
pass, for coordinate 1, runs block by block over consecutive rows of the
grid axis q_1, each block at most 2^15 entries (256 KB at 8 bytes an
entry) or one row of m^(k-2), and each block of the two sides is summed
in place and minimized before the next is written.  So a side holds about
2 m^(k-2) entries plus one block, where a whole slab held m^(k-1) in
each of its buffers.  The last pass writes m^(k-1) entries per slab twice
(an add and a max) and each earlier pass a factor of about m/2 fewer, so
a slab costs about 2 m^(k-1) element operations per conjugate plus the
sum and its minimum: under 8 m^k for the whole box, where one pass per
finite slice entry cost 2 (|dom f1| + |dom f2|) m^k.  Entries off the
domain hold the sentinel -2*bound - 1, below every finite entry at every
grid point (bound = max |value| + R*k).  A slab entry then lies in
[-3*bound - 1, bound] and the total of the two sides in
[-6*bound - 2, 2*bound], so the same program runs on the narrowest of
int16, int32 and int64 that :func:`~excheck._fast.int_dtype` admits for
4*bound (8*bound below 2^14, 2^30 or 2^62), the rule of the exchange
scans' tables, and past that on numpy object arrays of Python integers,
so every route is exact.  Blocks are sized at 8 bytes per entry on every
integer dtype, so the block schedule, the early exit and the points
visited do not depend on it; an object block holds an eighth of those
entries.  A box whose slab holds more than 2 * 10^8 entries on an
integer route, or 2.5 * 10^7 on the object route, where an entry takes
about seven times the memory of an int64 one, is refused with
:class:`InputError` before any array is allocated, as is one of more
than 10^10 points, or whose points plus 1000 per slab (a slab's
fixed cost of a few numpy calls) exceed 10^10: a box of k = 1 at radius
10^9 has 2 * 10^9 + 1 one-point slabs, hours of sweeping.  The slab caps
predate the blocks and still bound the time of one slab.

By weak duality no point of the box lies below the primal value, and
every block's minimum is checked against it (a violation raises
``InternalCheckError``).  So the sweep stops after the first block whose
minimum equals the primal: every earlier block lies strictly above the
primal, so the first minimizer of that block in C order, which is
lexicographic, is the lexicographically first minimizer of the whole
box, the same point a full sweep returns.  When the gap is positive or
the primal is -inf, every block is visited.  The exit rests on weak
duality alone.  For M-natural-concave f, steepest descent on the dual
would reach some minimizer, but the report names the lexicographically
first one, which can sit at the end of a line of minimizers.

Measured on a 2-core host with CPython 3.11 and numpy 2.4, one
``fenchel_gap`` call on min(|S|, 3) with the default radius (m = 15),
each in a fresh process, runs on int16: k = 6 takes 0.0036-0.0038 s at a
peak RSS of 30 MB, from 0.016-0.018 s at 33 MB on int64 (1.9 s with one
pass per slice entry); k = 7 takes 0.087-0.089 s at 40 MB, from
0.37 s at 68 MB on int64 (0.94 s at 230 MB with whole slabs), with the
same 85,809,375 points visited.  A full 15^7 box on int16 costs about
1.0 ns a point, against 4.1 ns on int64.  On min(|S|, 7) with k = 5
(31^5 points, closing at q = (1, ..., 1)) the traced peak allocation is
0.42 MB on int16, from 1.6 MB on int64 and 15.2 MB with whole slabs.  On
the object route a full 15^5 box with values near 2^70 takes
0.15-0.3 s, where the point-by-point loop it replaced took 50-68 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from ._fast import int_dtype
from .checkers import Verdict, Witness
from .core import (
    PriceVector,
    SetFunction,
    shifted_argmax,
    slice_masks,
    slice_pair,
    validate_exchange_args,
)
from .errors import EmptySliceError, InputError, InternalCheckError
from .sets import elements_of
from .values import NEG_INF, ExtValue, ext_to_str, finite_value

__all__ = [
    "conjugate",
    "conjugate_argmax",
    "check_submodular_pair",
    "DualityReport",
    "fenchel_gap",
    "BigMPair",
    "big_m_vectors",
]

_MAX_BOX_POINTS = 10**10
# a slab's fixed cost, a few numpy calls (about 10 us on a 2-core host),
# in box points (about 1 ns each on int16 and 4 ns on int64)
_SLAB_POINTS = 1000
_MAX_SLAB_ENTRIES = 2 * 10**8
# an object slab entry (a pointer and a Python integer) takes about seven
# times the memory of an int64 one, so that route admits smaller slabs
_MAX_OBJECT_SLAB_ENTRIES = _MAX_SLAB_ENTRIES // 8
# the sweep's last pass (coordinate 1) writes blocks of rows of the grid
# axis q_1, at most this many bytes of entries or a single row
_SWEEP_BLOCK_BYTES = 1 << 18


def conjugate(f: SetFunction, p: PriceVector) -> Fraction:
    """Convex conjugate value: max over all Z of f(Z) minus the price of Z.

    Always finite because the effective domain is nonempty.
    """
    return conjugate_argmax(f, p)[0]


def conjugate_argmax(f: SetFunction, p: PriceVector) -> tuple[Fraction, int]:
    """Conjugate value together with the smallest maximizing subset."""
    members, value = shifted_argmax(f, p)
    return value, members[0]


def check_submodular_pair(f: SetFunction, p: PriceVector, p2: PriceVector) -> Verdict:
    """Check g(p) + g(p2) >= g(p join p2) + g(p meet p2) exactly.

    This lower-bound form holds whenever the conjugate is submodular,
    which discrete concavity of f guarantees; general functions can fail
    it, and the witness then records both sides.
    """
    lhs = conjugate(f, p) + conjugate(f, p2)
    rhs = conjugate(f, p.join(p2)) + conjugate(f, p.meet(p2))
    if lhs >= rhs:
        return Verdict(True)
    return Verdict(
        False,
        Witness("conjugate-submodularity", prices=(("p", p), ("p2", p2)), lhs=lhs, rhs=rhs),
    )


@dataclass(frozen=True)
class DualityReport:
    """Both sides of the exchange duality on one (X, Y, I) instance.

    ``gap`` is dual minus primal (never negative); ``None`` encodes an
    infinite gap (primal is -inf while the dual stays finite).  ``q_star``
    is populated only when the gap closes.  ``box_radius`` records the
    search radius actually used, in original (unscaled) units, and
    ``scale`` the denominator-clearing factor, so a nonzero gap is
    diagnosable.  ``points_visited`` counts the box points the dual sweep
    evaluated, block by block (0 on a degenerate instance): fewer than the
    box holds when the sweep stopped at the block where the dual reached
    the primal.
    """

    primal: ExtValue
    dual: ExtValue
    q_star: PriceVector | None
    gap: Fraction | None
    y0_elements: tuple[int, ...]
    box_radius: Fraction
    scale: int
    note: str | None = None
    points_visited: int = 0


def _dual_sweep(items1, items2, k, radius, primal_int):
    """Exact min of g1(q) + g2(-q) over integer q in [-R, R]^k.

    ``items1`` and ``items2`` are the (local mask, scaled value) entries of
    the two slices.  Returns (minimum, q as int tuple, points evaluated),
    taking the lexicographically first minimizer.  Every evaluated block is
    checked against the primal value, and the sweep stops after the first
    block whose minimum equals it (see the module docstring).
    """
    m = 2 * radius + 1
    if m**k > _MAX_BOX_POINTS:
        raise InputError(
            f"dual box has {m}^{k} integer points; shrink box_radius or the instance"
        )
    # k = 0 sweeps one slab; otherwise every slab can be visited
    slabs = m if k else 1
    cost = m**k + _SLAB_POINTS * slabs
    if cost > _MAX_BOX_POINTS:
        raise InputError(
            f"dual box has {slabs} slabs of coordinate 0, about {cost} point evaluations "
            f"at {_SLAB_POINTS} per slab, more than {_MAX_BOX_POINTS}; "
            "shrink box_radius or the instance"
        )
    # k = 0 runs as k = 1 with a coordinate no domain set contains, fixed at 0
    kk = max(k, 1)
    bound = max(abs(v) for _, v in items1 + items2) + radius * k
    # numpy wraps integer overflow without a warning, so this bound is the
    # only guard.  A slab entry is a table entry or the sentinel
    # -2 * bound - 1 plus at most k price terms of magnitude R, so it lies in
    # [-3 * bound - 1, bound], and the total of the two sides in
    # [-6 * bound - 2, 2 * bound].  int_dtype(4 * bound) keeps 8 * bound below
    # 2^14, 2^30 or 2^62, so every such value is inside int16, int32 or int64
    dtype = int_dtype(4 * bound)
    cap = _MAX_OBJECT_SLAB_ENTRIES if dtype is object else _MAX_SLAB_ENTRIES
    if m ** (kk - 1) > cap:
        raise InputError(
            f"dual box slab has {m}^{kk - 1} entries, more than {cap}; "
            "shrink box_radius or the instance"
        )
    sides = [_SlabConjugate(items, kk, radius, -2 * bound - 1, sign, dtype)
             for items, sign in ((items1, -1), (items2, +1))]
    lead = radius if k else 0
    best_val = None
    best_q: tuple[int, ...] = ()
    visited = 0
    for a in range(-lead, lead + 1):
        for side in sides:
            side.slab(a)
        for start in sides[0].starts:
            # the first side's block is scratch until its next block
            total = sides[0].block(start)
            total += sides[1].block(start)
            visited += total.size
            mn = int(total.min())
            if primal_int is not None and mn < primal_int:
                raise InternalCheckError("weak duality failed during the dual sweep")
            if best_val is None or mn < best_val:
                idx = np.unravel_index(int(total.argmin()), total.shape)
                best_val = mn
                rest = tuple(int(i) - radius for i in idx[1:])
                best_q = ((a, start + int(idx[0]) - radius) + rest)[:k]
                if mn == primal_int:
                    return best_val, best_q, visited
    assert best_val is not None
    return best_val, best_q, visited


class _SlabConjugate:
    """max over J of t(J) + sign * q(J) on one slab q_0 = a of the box,
    block by block over the grid axis q_1.

    The scaled slice table is dense over the 2^k subsets, with ``sentinel``
    off the domain, in arrays of ``dtype`` (int16, int32 or int64, or
    object for Python integers).  ``slab(a)`` folds coordinate 0 into the
    table, h_a(J) = max(t(J), t(J + e_0) + sign * a) over J without element 0;
    then each further coordinate c, last first down to 2, replaces the
    table's {0, 1} axis by the grid axis q_c: max(h(J), h(J + e_c) + sign * q_c).
    ``block(start)`` runs the same pass for coordinate 1 on the rows
    q_1 = start - R, ... of the grid, at most ``_SWEEP_BLOCK_BYTES`` of
    entries counted at 8 bytes an integer entry (or one row), and returns
    them with axes q_1, ..., q_{k-1} in order, so a C-order index
    enumerates the block lexicographically; the
    block starts of one slab are ``starts``.  All arrays are reused, and the
    block is overwritten by the next call.
    """

    def __init__(self, items, k, radius, sentinel, sign, dtype):
        t = np.full(1 << k, sentinel, dtype=dtype)
        for mask, v in items:
            t[mask] = v
        # axis c of the (2,) * k view is element c's bit
        t = t.reshape((2,) * k).T
        self.without0 = t[0, ...].copy()
        self.with0 = t[1, ...].copy()
        self.sign = sign
        self.h = np.empty_like(self.without0)
        m = 2 * radius + 1
        # the grid axis exists only for k >= 2, where the slab cap bounds m
        steps = np.array([sign * v for v in range(-radius, radius + 1)] if k > 1 else [],
                         dtype=dtype)
        # each pass reads the previous pass's buffer through fixed views
        self.passes = []
        cur = self.h
        for c in range(k - 1, 1, -1):  # coordinate c is axis c - 1
            lead = (slice(None),) * (c - 1)
            out = np.empty((2,) * (c - 1) + (m,) * (k - c), dtype=dtype)
            self.passes.append((
                np.expand_dims(cur[lead + (0, ...)], c - 1),  # views, never scalars
                np.expand_dims(cur[lead + (1, ...)], c - 1),
                steps.reshape((m,) + (1,) * (k - 1 - c)),
                out,
            ))
            cur = out
        if k == 1:
            # a slab is one point: one block of one row, the folded table itself
            self.starts = range(1)
            self.final = None
            return
        row = m ** (k - 2)
        # blocks are sized at 8 bytes per integer entry on every integer
        # dtype, so the block schedule, and with it the early exit and
        # ``points_visited``, does not depend on the dtype; an object entry
        # (a pointer and a Python integer) counts eight times that, as in
        # the slab caps
        entry = 64 if dtype is object else 8
        rows = min(m, max(1, _SWEEP_BLOCK_BYTES // (entry * row)))
        self.starts = range(0, m, rows)
        self.final = (cur[0:1], cur[1:2], steps.reshape((m,) + (1,) * (k - 2)),
                      np.empty((rows,) + (m,) * (k - 2), dtype=dtype))

    def slab(self, a):
        np.add(self.with0, self.sign * a, out=self.h)
        np.maximum(self.h, self.without0, out=self.h)
        for without_c, with_c, steps, out in self.passes:
            np.add(with_c, steps, out=out)
            np.maximum(out, without_c, out=out)

    def block(self, start):
        if self.final is None:
            return self.h.reshape(1)
        without1, with1, steps, buf = self.final
        rows = steps[start : start + len(buf)]
        out = buf[: len(rows)]
        np.add(with1, rows, out=out)
        np.maximum(out, without1, out=out)
        return out


def fenchel_gap(
    f: SetFunction, X: int, Y: int, I: int, box_radius: Fraction | None = None
) -> DualityReport:
    """Compare both sides of the exchange duality on one instance.

    Both slices are read from ``f.ints`` at their parent masks.  The
    primal side enumerates J over subsets of Y\\X; the dual side
    minimizes g1(q) + g2(-q) over integer q in a box, after clearing
    denominators, with the slab-by-slab subset DP described in the module
    docstring, on the narrowest of int16, int32 and int64 that holds
    8 times the sweep's bound or, past int64, on object arrays of Python
    integers.  Each slab is evaluated in blocks of rows of its second
    coordinate, and the sweep stops after the first block whose minimum
    reaches the primal, so a closing gap usually costs a fraction of the
    box (see ``points_visited``), and ``q_star`` is the
    lexicographically first minimizer of the box either way.  The default
    radius is twice the finite value range plus one (in cleared units); a
    caller-supplied ``box_radius`` is interpreted in original units and
    floored onto the integer grid.  It must be an exact finite rational
    (an int, a ``Fraction`` or a ``'p/q'`` string, see
    :func:`~excheck.values.finite_value`); anything else raises
    :class:`InputError`.  Cost grows as about 8 m^k for
    m = 2R + 1 values per coordinate, and memory as O(2 m^(k-2) + block)
    per side: on int16, k = 6 with m = 15 takes about 0.004 s and k = 7
    about 0.09 s at a peak RSS of 40 MB, and a full 15^5 box on the
    object route 0.15-0.3 s.  A box whose slab (m^(k-1) entries) exceeds
    2 * 10^8 raises :class:`InputError` before anything is allocated.
    """
    validate_exchange_args(f, X, Y, I)
    t = f.ints
    scale = t.scale
    default_radius = 2 * (t.hi - t.lo) + 1
    if box_radius is None:
        radius = default_radius
    else:
        br = finite_value(box_radius, "box_radius")
        if br < 0:
            raise InputError("box_radius must be nonnegative")
        radius = floor(br * scale)

    try:
        elems, masks1, masks2 = slice_masks(f, X, Y, I)
    except EmptySliceError as e:
        return DualityReport(
            primal=NEG_INF,
            dual=NEG_INF,
            q_star=None,
            gap=Fraction(0),
            y0_elements=elements_of(Y & ~X),
            box_radius=Fraction(radius, scale),
            scale=scale,
            note=f"degenerate instance: {e}; both sides are -inf",
        )

    k = len(elems)
    # Python integers: the sweep's bound and the primal are unbounded sums
    s1, s2 = t.sent[masks1].tolist(), t.sent[masks2].tolist()
    items1 = [(j, v) for j, v in enumerate(s1) if v != t.neg]
    items2 = [(j, v) for j, v in enumerate(s2) if v != t.neg]
    primal_int = max((a + b for a, b in zip(s1, s2) if a != t.neg and b != t.neg), default=None)

    dual_int, q_ints, visited = _dual_sweep(items1, items2, k, radius, primal_int)

    dual = Fraction(dual_int, scale)
    primal, gap, q_star = NEG_INF, None, None
    note = "primal is -inf (the slices have disjoint finite supports); gap is infinite"
    if primal_int is not None:
        primal = Fraction(primal_int, scale)
        gap = dual - primal
        if gap < 0:
            raise InternalCheckError("dual fell below primal; the sweep is broken")
        q_frac = PriceVector(tuple(Fraction(qi, scale) for qi in q_ints))
        if gap == 0:
            q_star, note = q_frac, None
        else:
            r = Fraction(radius, scale)
            note = (
                f"no certificate in the box [{-r}, {r}]^{k}; "
                f"best q = ({','.join(ext_to_str(v) for v in q_frac.entries)})"
            )
    return DualityReport(
        primal=primal,
        dual=dual,
        q_star=q_star,
        gap=gap,
        y0_elements=elems,
        box_radius=Fraction(radius, scale),
        scale=scale,
        note=note,
        points_visited=visited,
    )


@dataclass(frozen=True)
class BigMPair:
    """Threshold M and the two price vectors that pin conjugate maximizers.

    Entries by region: the Y\\X part carries q; the kept part of X\\Y gets
    (-M, +M); the moved part I gets (+M, -M); the intersection gets
    (-M, -M); everything outside X u Y gets (+M, +M).
    """

    m_value: Fraction
    p1: PriceVector
    p2: PriceVector


def big_m_vectors(
    f: SetFunction,
    X: int,
    Y: int,
    I: int,
    q: PriceVector,
    m_value: Fraction | None = None,
) -> BigMPair:
    """Build the big-M price pair for (X, Y, I, q) and verify its relations.

    M defaults to twice the finite value range plus the total absolute
    price mass of q plus one; a larger M may be supplied, as an exact
    finite rational (:func:`~excheck.values.finite_value`).  Four relations
    are checked exactly (two equalities reducing the slice conjugates to
    the global conjugate, two lower bounds on the join and meet); any
    failure raises :class:`InternalCheckError` since they hold by
    construction for every admissible M.
    """
    try:
        sp = slice_pair(f, X, Y, I)
    except EmptySliceError as e:
        raise InputError(f"big-M relations need nonempty slice domains: {e}") from None
    if len(q) != len(sp.elements):
        raise InputError(
            f"q must have one entry per element of Y\\X (expected {len(sp.elements)})"
        )

    lo, hi = f.value_range
    threshold = 2 * (hi - lo) + q.abs_sum() + 1
    if m_value is None:
        m = threshold
    else:
        m = finite_value(m_value, "m_value")
        if m < threshold:
            raise InputError(f"M must be at least the threshold {threshold}, got {m}")

    c = X & Y
    x0_keep = (X & ~Y) & ~I
    y0 = Y & ~X
    pos = {e: idx for idx, e in enumerate(sp.elements)}

    e1 = []
    e2 = []
    for e in range(1, f.n + 1):
        bit = 1 << (e - 1)
        if bit & y0:
            e1.append(q.entries[pos[e]])
            e2.append(q.entries[pos[e]])
        elif bit & x0_keep:
            e1.append(-m)
            e2.append(m)
        elif bit & I:
            e1.append(m)
            e2.append(-m)
        elif bit & c:
            e1.append(-m)
            e2.append(-m)
        else:
            e1.append(m)
            e2.append(m)
    p1 = PriceVector(tuple(e1))
    p2 = PriceVector(tuple(e2))

    q_total = sum(q.entries, Fraction(0))
    g1q = conjugate(sp.f1, q)
    g2mq = conjugate(sp.f2, -q)
    gp1 = conjugate(f, p1)
    gp2 = conjugate(f, p2)
    gjoin = conjugate(f, p1.join(p2))
    gmeet = conjugate(f, p1.meet(p2))

    if g1q != gp1 - m * (x0_keep.bit_count() + c.bit_count()):
        raise InternalCheckError("big-M reduction of the first slice conjugate failed")
    if g2mq != gp2 - m * (I.bit_count() + c.bit_count()) + q_total:
        raise InternalCheckError("big-M reduction of the second slice conjugate failed")
    if not (gjoin >= f.table[Y] - q_total + m * c.bit_count()):
        raise InternalCheckError("big-M join lower bound failed")
    if not (gmeet >= f.table[X] + m * X.bit_count()):
        raise InternalCheckError("big-M meet lower bound failed")

    return BigMPair(m_value=m, p1=p1, p2=p2)
