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
max(h(J), h(J + e_c) -/+ q_c).  The last pass writes m^(k-1) entries
twice (an add and a max) and each earlier pass a factor of about m/2
fewer, so a slab costs about 2 m^(k-1) element operations per conjugate
plus the sum and its minimum: under 8 m^k for the whole box, where one
pass per finite slice entry cost 2 (|dom f1| + |dom f2|) m^k.  Entries
off the domain hold the sentinel -2*bound - 1, below every finite entry
at every grid point (bound = max |value| + R*k).  The same program runs on
int64 arrays while 2*bound stays below 2^60 and on numpy object arrays of
Python integers above that, so both routes are exact.  A box whose slab
holds more than 2 * 10^8 entries on the int64 route, or 2.5 * 10^7 on the
object route, where an entry takes about seven times the memory, is
refused with :class:`InputError` before any array is allocated, as is one
of more than 10^10 points, or whose points plus 1000 per slab (a slab's
fixed cost of a few numpy calls) exceed 10^10: a box of k = 1 at radius
10^9 has 2 * 10^9 + 1 one-point slabs, hours of sweeping.

By weak duality no point of the box lies below the primal value, and
every visited point is checked against it (a violation raises
``InternalCheckError``).  So the sweep stops after the first slab whose
minimum equals the primal: the first minimizer of that slab in C order,
which is lexicographic, is the lexicographically first minimizer of the
whole box, the same point a full sweep returns.  When the gap is positive
or the primal is -inf, every slab is visited.  The exit rests on weak
duality alone.  For M-natural-concave f, steepest descent on the dual
would reach some minimizer, but the report names the lexicographically
first one, which can sit at the end of a line of minimizers.

Measured on a 2-core host with CPython 3.11 and numpy 2.4, one
``fenchel_gap`` call: k = 6 on min(|S|, 3) with the default radius
(15^6 points) 0.03 s, from 1.9 s with one pass per slice entry; k = 7
there 1.0 s at a peak RSS of 0.23 GB; the k = 5 weighted-matroid
instance of the benchmark's dual corpus (31^5 points, closed in the first
slab) 7 ms, from 0.69 s, and its k = 5 positive-gap instance (full box)
4 ms, from 62 ms.  On the object route a full 15^5 box with values near
2^70 takes 0.15-0.3 s, where the point-by-point loop it replaced took
50-68 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

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
from .values import NEG_INF, ExtValue, ext_to_str

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
# in box points (about 6 ns each on the int64 route)
_SLAB_POINTS = 1000
_MAX_SLAB_ENTRIES = 2 * 10**8
# an object slab entry (a pointer and a Python integer) takes about seven
# times the memory of an int64 one, so that route admits smaller slabs
_MAX_OBJECT_SLAB_ENTRIES = _MAX_SLAB_ENTRIES // 8
_INT64_SAFE = 1 << 60


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
    evaluated (0 on a degenerate instance): fewer than the box holds when
    the sweep stopped at the slab where the dual reached the primal.
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
    the two slices.  Returns (minimum, q as int tuple), taking the
    lexicographically first minimizer.  Every visited point is checked
    against the primal value, and the sweep stops after the first slab of
    coordinate 0 whose minimum equals it (see the module docstring).
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
    dtype = np.int64 if 2 * bound < _INT64_SAFE else object
    cap = _MAX_SLAB_ENTRIES if dtype is np.int64 else _MAX_OBJECT_SLAB_ENTRIES
    if m ** (kk - 1) > cap:
        raise InputError(
            f"dual box slab has {m}^{kk - 1} entries, more than {cap}; "
            "shrink box_radius or the instance"
        )
    sides = [_SlabConjugate(items, kk, radius, -2 * bound - 1, sign, dtype)
             for items, sign in ((items1, -1), (items2, +1))]
    shape = (m,) * (kk - 1)
    lead = radius if k else 0
    best_val = None
    best_q: tuple[int, ...] = ()
    for a in range(-lead, lead + 1):
        # the first side's result is scratch until its next slab
        total = sides[0].slab(a)
        total += sides[1].slab(a)
        mn = int(total.min())
        if primal_int is not None and mn < primal_int:
            raise InternalCheckError("weak duality failed during the dual sweep")
        if best_val is None or mn < best_val:
            idx = np.unravel_index(int(total.argmin()), shape)
            best_val = mn
            best_q = ((a,) + tuple(int(i) - radius for i in idx))[:k]
            if mn == primal_int:
                break
    assert best_val is not None
    return best_val, best_q


class _SlabConjugate:
    """max over J of t(J) + sign * q(J) on one slab q_0 = a of the box.

    The scaled slice table is dense over the 2^k subsets, with ``sentinel``
    off the domain, in arrays of ``dtype`` (int64, or object for Python
    integers).  Per slab, coordinate 0 is folded into the table,
    h_a(J) = max(t(J), t(J + e_0) + sign * a) over J without element 0;
    then each further coordinate c, last first, replaces the table's
    {0, 1} axis by the grid axis q_c: max(h(J), h(J + e_c) + sign * q_c).
    The result's axes are q_1, ..., q_{k-1} in order, so a C-order index
    enumerates the slab lexicographically.  All arrays are reused.
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
        for c in range(k - 1, 0, -1):  # coordinate c is axis c - 1
            lead = (slice(None),) * (c - 1)
            out = np.empty((2,) * (c - 1) + (m,) * (k - c), dtype=dtype)
            self.passes.append((
                np.expand_dims(cur[lead + (0, ...)], c - 1),  # views, never scalars
                np.expand_dims(cur[lead + (1, ...)], c - 1),
                steps.reshape((m,) + (1,) * (k - 1 - c)),
                out,
            ))
            cur = out
        self.result = cur

    def slab(self, a):
        np.add(self.with0, self.sign * a, out=self.h)
        np.maximum(self.h, self.without0, out=self.h)
        for without_c, with_c, steps, out in self.passes:
            np.add(with_c, steps, out=out)
            np.maximum(out, without_c, out=out)
        return self.result


def _points_visited(k, radius, q, closed):
    """Box points the sweep evaluates: whole slabs of coordinate 0, up to
    the one holding q when the dual reached the primal, else all of them."""
    m = 2 * radius + 1
    if k == 0:
        return 1
    slabs = q[0] + radius + 1 if closed else m
    return slabs * m ** (k - 1)


def fenchel_gap(
    f: SetFunction, X: int, Y: int, I: int, box_radius: Fraction | None = None
) -> DualityReport:
    """Compare both sides of the exchange duality on one instance.

    Both slices are read from ``f.ints`` at their parent masks.  The
    primal side enumerates J over subsets of Y\\X; the dual side
    minimizes g1(q) + g2(-q) over integer q in a box, after clearing
    denominators, with the slab-by-slab subset DP described in the module
    docstring, on int64 arrays or, for values of 2^60 and beyond, on
    object arrays of Python integers.  It stops after the first slab whose
    minimum reaches the primal, so a closing gap usually costs a fraction
    of the box (see ``points_visited``), and ``q_star`` is the
    lexicographically first minimizer of the box either way.  The default
    radius is twice the finite value range plus one (in cleared units); a
    caller-supplied ``box_radius`` is interpreted in original units and
    floored onto the integer grid.  Cost grows as about 8 m^k for
    m = 2R + 1 values per coordinate: k = 6 with m = 15 takes about
    0.03 s, k = 7 about 1 s, and a full 15^5 box on the object route
    0.15-0.3 s.  A box whose slab (m^(k-1) entries) exceeds 2 * 10^8
    raises :class:`InputError` before anything is allocated.
    """
    validate_exchange_args(f, X, Y, I)
    t = f.ints
    scale = t.scale
    default_radius = 2 * (t.hi - t.lo) + 1
    if box_radius is None:
        radius = default_radius
    else:
        br = Fraction(box_radius)
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
    vals = t.vals
    items1 = [(j, vals[m]) for j, m in enumerate(masks1) if vals[m] is not None]
    items2 = [(j, vals[m]) for j, m in enumerate(masks2) if vals[m] is not None]
    primal_int = max(
        (vals[a] + vals[b] for a, b in zip(masks1, masks2)
         if vals[a] is not None and vals[b] is not None),
        default=None,
    )

    dual_int, q_ints = _dual_sweep(items1, items2, k, radius, primal_int)
    visited = _points_visited(k, radius, q_ints, dual_int == primal_int)

    dual = Fraction(dual_int, scale)
    if primal_int is None:
        return DualityReport(
            primal=NEG_INF,
            dual=dual,
            q_star=None,
            gap=None,
            y0_elements=elems,
            box_radius=Fraction(radius, scale),
            scale=scale,
            note="primal is -inf (the slices have disjoint finite supports); gap is infinite",
            points_visited=visited,
        )

    primal = Fraction(primal_int, scale)
    gap = dual - primal
    if gap < 0:
        raise InternalCheckError("dual fell below primal; the sweep is broken")
    q_star = None
    note = None
    q_frac = PriceVector(tuple(Fraction(qi, scale) for qi in q_ints))
    if gap == 0:
        q_star = q_frac
    else:
        note = (
            f"no certificate in the box [-{Fraction(radius, scale)}, {Fraction(radius, scale)}]"
            f"^{k}; best q = ({','.join(ext_to_str(v) for v in q_frac.entries)})"
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
    price mass of q plus one; a larger M may be supplied.  Four relations
    are checked exactly (two equalities reducing the slice conjugates to
    the global conjugate, two lower bounds on the join and meet); any
    failure raises :class:`InternalCheckError` since they hold by
    construction for every admissible M.
    """
    validate_exchange_args(f, X, Y, I)
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
        m = Fraction(m_value)
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
