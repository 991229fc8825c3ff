"""Demand correspondences and the buyer-side substitutes conditions.

The quantifier over all real price vectors is not enumerable, so the
gross-substitutes and single-improvement checks sample: a found violation
is exact and final, while the absence of one is reported as "no violation
found (sampled)", never as a proof.  Exact certification goes through the
exchange checkers via the known equivalences.  Price sampling is seeded
and fully deterministic: a half-integer grid by default, preceded by an
exhaustive integer sweep when the ground set and radius are small enough.

One kernel computes demand, for :func:`demand` and for every sampled
sweep.  The table is rescaled to integers once (values and the price
grid share one denominator), and the kernel takes a batch of price rows
at once.  Its arrays hold the masks on axis 0 and the prices on axis 1,
and it builds them in one preallocated array, in place: every subset sum
by doubling (the sums of the first 2^i masks plus p_i fill the next
2^i), then the shifted values U = f - p, then a sentinel below every
shifted value written at the masks off the effective domain.  The
maximum over the masks follows, then the demand mask U == max.  With the
masks first, a pass over one element splits axis 0 into contiguous runs
of 2^i masks, each with every price of the block, and a fold over the
masks (the maximum, the
single-improvement flags) halves axis 0 pass by pass, so every pass
streams memory, even when a block holds only a few prices.  The checks
work on whole blocks: gross substitutes closes the demand mask at q
upward (superset-OR, one pass per element) and reads it only at the
bundles demanded at p, for each demanded (X, price) pair at
X & {i : p_i = q_i}; single improvement takes, per mask, the maximum
over its drop, add and swap neighbours in two passes per element (the
add-maximum A(Z), then the drop-maximum of max(U, A), which covers every
swap).  NC-sim at p is ``b-exc-m`` on the demand family D(p), and NC its
one-sided form, in which only X-I+J must stay demanded; so both pass the
prices whose demand set has two or more members (a singleton cannot
violate) to the multi-item exchange kernel of :mod:`excheck.checkers` as
one stack of membership rows, and the least failing row is the first
hit.  A J that repairs NC-sim repairs NC, so a sweep running both skips
NC on a chunk where NC-sim finds no failing row.  The sentinel's
magnitude, |values| + n * |price bound| + 1, bounds every value, price
sum and shifted value of the demand kernel, so its arrays take the
dtype that :func:`~excheck._fast.int_dtype` admits for it, the price
unit and the price bound: int16, int32 or int64, the rule of the
exchange scans' tables, and past int64 numpy object arrays of Python
integers, so every route is exact.

A sampled sweep reads its price stream as blocks of grid integers in the
kernel's dtype, in chunks that start small and double up to about 2^15
entries per work array; random rows are drawn
a chunk ahead, and only when a chunk needs them, so an early exit draws
little.  The integer sweep's rows are computed from their index in
``product`` order.  The random rows hold what the per-call loops of
``Random.randint`` and ``random()`` return, drawn from the same 32-bit
words of the same seeded ``Random`` (:mod:`excheck._draws`): the words
come in bulk from ``getrandbits``, a randint keeps the first word that
falls below its width once shifted to the width's bit length, exactly the
rejection loop of ``randint``, and ``random() < 0.5`` holds when the first
of its two words is below 2^31.  Widths of more than 32 bits, where this
reading would not apply, keep the per-call loop, which is exact for
integers of any size.  So the streams, and every sample index, are those
of :meth:`PriceSampler.iter_prices`.  The first hit is the least sample
index of the first chunk that holds one, which is the loop's first hit.
Before a hit becomes a witness it is re-checked by the at-price check
(:func:`check_gs_at`, :func:`check_si_at`, :func:`check_nc_at`), which
computes demand from the raw rational table; a disagreement raises
:class:`InternalCheckError`.  The equivalence report draws the price
stream once and runs the single-improvement and both no-complementarities
checks on each chunk.

Measured on 2 cores (CPython 3.11.7, numpy 2.4.6), in process, in six
runs alternating with the earlier layout (one price per row of axis 0,
the masks on axis 1), this one faster in every pair: the four sampled
checks of the twelve reports of the benchmark's ``market`` workload take
56-87 ms (best of 9 passes), from 84-107 ms, and the whole twelve
reports 78-126 ms, from 106-136 ms.  On min(|S|, 6) at n = 12, which
passes, the shared SI/NC/NC-sim sweep and the GS sweep over 2,000 prices
and 2,000 pairs take 0.38-0.59 s on int16 (best of 3), from 0.55-0.71 s.
Exact demand at n = 12 takes 0.07-0.10 ms per call in either layout on a
function whose integer table exists, as it does for every loaded file;
building the table from the rationals first adds about 2 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor, lcm
from random import Random

import numpy as np

from ._draws import pair_draws, price_draws
from ._fast import int_dtype
from .checkers import Verdict, Witness, check_multiple_exchange
from .checkers import _exchange_verdict, _stack_hit
from .core import PriceVector, SetFamily, SetFunction, _check_price_length, shifted_argmax
from .errors import InputError, InternalCheckError
from .sets import iter_bits
from .values import ExtValue, finite_value, require_nonnegative_int

__all__ = [
    "DemandSet",
    "demand",
    "PriceSampler",
    "check_gs_at",
    "check_gs_sampled",
    "check_si_at",
    "check_si_sampled",
    "check_nc_at",
    "check_nc_sampled",
    "check_snc",
    "SampledVerdict",
    "EquivalenceReport",
    "equivalence_report",
]

_PHASE1_MAX_GRID = 100_000
_PHASE1_MAX_N = 4
# A sweep's first chunk has about _FIRST_CELLS (price, mask) entries, so an
# early exit stays cheap; chunks then double up to _MAX_CELLS entries or a
# single price.
_FIRST_CELLS = 1 << 10
_MAX_CELLS = 1 << 15


@dataclass(frozen=True)
class DemandSet:
    """Argmax family of the price-shifted function, with the attained value."""

    price: PriceVector
    members: SetFamily
    value: ExtValue


# ----------------------------------------------------------------------
# the demand kernel


class _DemandKernel:
    """Integer table of f for batches of prices on the grid of 1/d.

    Price entries are integers k standing for k/d, at most ``bound`` in
    magnitude.  Values and prices share the scale lcm(d, denominators of
    f): the cached integer table of f times lcm(scale, d) // scale.  Every
    shifted value lies strictly above ``sent``, the value given to masks
    off the effective domain.  The arrays take the dtype
    :func:`~excheck._fast.int_dtype` admits for ``sent``, the price unit
    and ``bound``: int16, int32 or int64, else object arrays of Python
    integers.
    """

    def __init__(self, f: SetFunction, d: int, bound: int):
        t = f.ints
        self.n = f.n
        self.scale = lcm(t.scale, d)
        self.unit = self.scale // d
        mult = self.scale // t.scale
        self.sent = -(max(abs(t.lo), abs(t.hi)) * mult + f.n * bound * self.unit + 1)
        # numpy wraps integer overflow without a warning, so these bounds are
        # the only guard.  |sent| bounds every scaled value, price entry times
        # the unit, price sum and shifted value f - p.  The unit must fit as
        # well, since it scales the price rows, and so must ``bound``, which
        # bounds the grid integers of the rows before scaling and the
        # multipliers that build them (|sent| exceeds it unless n = 0)
        self.dtype = int_dtype(self.sent, self.unit, bound)
        self.dom = np.zeros(1 << f.n, dtype=bool)
        self.dom[t.dom] = True
        self.vals = np.where(self.dom, t.sent, 0).astype(self.dtype)[:, None]
        if t.lo or t.hi:  # mult is below |sent| unless every value is 0, which it keeps
            self.vals *= mult
        self.off = np.flatnonzero(~self.dom)

    def __call__(self, p: np.ndarray):
        """(U, best, demanded) for the rows of p, masks first: U = f - p as a
        2^n x len(p) array (``sent`` off the domain), its maximum per price,
        and the mask U == best."""
        p = p * self.unit
        u = np.zeros((1 << self.n, len(p)), dtype=self.dtype)
        for i in range(self.n):  # the price sums by doubling
            np.add(u[: 1 << i], p[:, i], out=u[1 << i : 2 << i])
        np.subtract(self.vals, u, out=u)
        u[self.off] = self.sent
        best = _fold(np.maximum, u)
        return u, best, u == best


def _fold(op, a: np.ndarray) -> np.ndarray:
    """``op`` folded over the masks (axis 0) by halving: each pass is one
    contiguous run, where a reduction over axis 0 would walk rows of a few
    prices each at large n."""
    while len(a) > 1:
        h = len(a) // 2
        a = op(a[:h], a[h:])
    return a[0]


def _grid_price(row, d: int) -> PriceVector:
    """The price vector of a row of grid integers k, standing for k/d."""
    return PriceVector(tuple(Fraction(k, d) for k in row))


def _halves(a: np.ndarray, i: int):
    """Views of the masks (axis 0) without and with element i+1, aligned by mask."""
    v = a.reshape(-1, 2, 1 << i, a.shape[1])
    return v[:, 0], v[:, 1]


def demand(f: SetFunction, p: PriceVector) -> DemandSet:
    """Exact argmax of f(Z) - p(Z) over all subsets."""
    _check_price_length(p, f.n)
    d = lcm(*(v.denominator for v in p.entries))
    row = [v.numerator * (d // v.denominator) for v in p.entries]
    kern = _DemandKernel(f, d, max(map(abs, row), default=0))
    _, best, demanded = kern(np.array([row], dtype=kern.dtype))
    members = np.flatnonzero(demanded[:, 0]).tolist()
    return DemandSet(
        price=p, members=SetFamily(f.n, frozenset(members)), value=Fraction(int(best[0]), kern.scale)
    )


# ----------------------------------------------------------------------
# price sampling


@dataclass(frozen=True)
class PriceSampler:
    """Deterministic price stream: seed, sample count, grid step, radius.

    ``radius`` defaults to twice the finite value range plus one, resolved
    per function.  The same seed always yields the same stream, hence the
    same verdicts and witnesses.
    """

    seed: int
    count: int = 200
    grid_step: Fraction = Fraction(1, 2)
    radius: Fraction | None = None

    def __post_init__(self):
        for name in ("seed", "count"):
            require_nonnegative_int(name, getattr(self, name))
        step = finite_value(self.grid_step, "grid_step")
        if step <= 0:
            raise InputError("grid_step must be positive")
        object.__setattr__(self, "grid_step", step)
        if self.radius is not None:
            r = finite_value(self.radius, "radius")
            if r < 0:
                raise InputError("radius must be nonnegative")
            object.__setattr__(self, "radius", r)

    def radius_for(self, f: SetFunction) -> Fraction:
        if self.radius is not None:
            return self.radius
        lo, hi = f.value_range
        return 2 * (hi - lo) + 1

    def _phase1_radius(self, f: SetFunction) -> int | None:
        """Integer radius for the exhaustive sweep, or None when too large."""
        ri = floor(self.radius_for(f))
        if f.n > _PHASE1_MAX_N or (2 * ri + 1) ** f.n > _PHASE1_MAX_GRID:
            return None
        return ri

    def _kmax(self, f: SetFunction) -> int:
        """Random prices are k * grid_step with |k| <= _kmax."""
        return floor(self.radius_for(f) / self.grid_step)

    def _kernel(self, f: SetFunction) -> _DemandKernel:
        """The demand kernel for both streams, on the grid of 1/(step's denominator)."""
        d, a = self.grid_step.denominator, self.grid_step.numerator
        kmax = self._kmax(f)
        bound = a * (kmax + max(1, kmax))
        ri = self._phase1_radius(f)
        if ri is not None:
            bound = max(bound, (ri + 1) * d)
        return _DemandKernel(f, d, bound)

    def _blocks(self, f: SetFunction, dtype, row_cells: int, pairs: bool):
        """The price stream (or, with ``pairs``, the pair stream) as 2-D
        arrays of ``dtype`` holding integers k for the prices k/d.

        A row is a price, or a pair p + q.  Blocks follow the sweeps' chunk
        schedule for rows of ``row_cells`` work entries: about _FIRST_CELLS
        entries at first, doubling up to _MAX_CELLS entries or one row.
        The integer sweep's rows are computed per block from their index in
        ``product`` order; random rows are drawn up to a chunk ahead, and
        only when a block needs them, so an early exit draws little.
        """
        d, a = self.grid_step.denominator, self.grid_step.numerator
        n = f.n
        size = max(1, _FIRST_CELLS // row_cells)
        cap = max(1, _MAX_CELLS // row_cells)
        ri = self._phase1_radius(f)
        n1 = (self.pair_count if pairs else self.price_count)(f) - self.count
        grid = _phase1_pairs if pairs else _phase1_prices
        rng = Random(2 * self.seed + int(pairs))
        draw = (pair_draws if pairs else price_draws)(rng, n, self._kmax(f), a, dtype)
        ahead = np.empty((0, 2 * n if pairs else n), dtype=dtype)  # drawn, not handed out
        done, total = 0, n1 + self.count
        while done < total:
            hi = min(done + size, total)
            parts = []
            if done < n1:
                parts.append(grid(n, ri, np.arange(done, min(hi, n1))).astype(dtype) * d)
            if hi > n1:
                k = hi - max(done, n1)
                if len(ahead) < k:
                    left = total - max(done, n1) - len(ahead)
                    ahead = np.concatenate((ahead, draw(min(cap, left))))
                parts.append(ahead[:k])
                ahead = ahead[k:]
            yield parts[0] if len(parts) == 1 else np.concatenate(parts)
            done = hi
            size = min(2 * size, cap)

    def iter_prices(self, f: SetFunction):
        """Integer sweep (when small), then ``count`` random grid prices."""
        d = self.grid_step.denominator
        for block in self._blocks(f, object, 1 << f.n, pairs=False):
            for row in block.tolist():
                yield _grid_price(row, d)

    def iter_price_pairs(self, f: SetFunction):
        """Pairs p <= q; q raises a coordinate subset of p.

        The integer sweep pairs each grid point with one unit raise per
        coordinate; the random phase raises a random subset by random
        grid increments.
        """
        d = self.grid_step.denominator
        for block in self._blocks(f, object, 2 << f.n, pairs=True):
            for row in block.tolist():
                yield _grid_price(row[: f.n], d), _grid_price(row[f.n :], d)

    def price_count(self, f: SetFunction) -> int:
        ri = self._phase1_radius(f)
        phase1 = (2 * ri + 1) ** f.n if ri is not None else 0
        return phase1 + self.count

    def pair_count(self, f: SetFunction) -> int:
        ri = self._phase1_radius(f)
        phase1 = ((2 * ri + 1) ** f.n) * f.n if ri is not None else 0
        return phase1 + self.count


# ----------------------------------------------------------------------
# price streams as integer blocks


def _phase1_prices(n: int, ri: int, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of product(range(-ri, ri + 1), repeat=n), as int64."""
    m = 2 * ri + 1
    return idx[:, None] // m ** np.arange(n - 1, -1, -1, dtype=np.int64) % m - ri


def _phase1_pairs(n: int, ri: int, idx: np.ndarray) -> np.ndarray:
    """Pair rows ``idx`` of the integer sweep: each grid point p, in order,
    followed by its n unit raises p + e_c, as int64 rows p + q."""
    p = _phase1_prices(n, ri, idx // n)
    return np.concatenate((p, p + ((idx % n)[:, None] == np.arange(n))), axis=1)


# ----------------------------------------------------------------------
# batched sweeps


def _first_hits(blocks, names, evaluate) -> dict:
    """{name: (sample index, row as a list of ints)} of the first hit of
    each named test.

    ``evaluate(rows, open_names)`` returns, for each open name, the index
    of the first hit within the block ``rows`` or None.  Blocks go in
    order, so the first block holding a hit holds the stream's first hit.
    """
    hits: dict = {}
    start = 0
    for rows in blocks:
        found = evaluate(rows, [name for name in names if name not in hits])
        for name, k in found.items():
            if k is not None:
                hits[name] = (start + k, rows[k].tolist())
        if len(hits) == len(names):
            break
        start += len(rows)
    return hits


def _first(flags: np.ndarray) -> int | None:
    idx = np.flatnonzero(flags)
    return int(idx[0]) if len(idx) else None


def _gs_flags(kern: _DemandKernel, pq: np.ndarray) -> np.ndarray:
    """Per pair row p + q: does some X demanded at p lose its fixed-price part?"""
    n, rows = kern.n, len(pq)
    p, q = pq[:, :n], pq[:, n:]
    _, _, demanded = kern(np.concatenate((p, q)))
    dq = demanded[:, rows:].copy()  # contiguous, so each pass below streams
    for i in range(n):  # dq[m] becomes: some Y demanded at q contains m
        lo, hi = _halves(dq, i)
        lo |= hi
    eqmask = (p == q).astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    xs, rs = np.nonzero(demanded[:, :rows])  # the (X, row) pairs of D(p)
    fixed = xs & eqmask[rs]
    flags = np.zeros(rows, dtype=bool)
    flags[rs[(fixed != 0) & ~dq[fixed, rs]]] = True
    return flags


def _si_flags(kern: _DemandKernel, u: np.ndarray, demanded: np.ndarray) -> np.ndarray:
    """Per price (a column of u): is some undemanded domain set improved by
    no single drop, add or swap?"""
    add = np.full_like(u, kern.sent)  # add[Z] = max over j not in Z of u[Z + j]
    for i in range(kern.n):
        lo, _ = _halves(add, i)
        np.maximum(lo, _halves(u, i)[1], out=lo)
    # best[X] = max(add[X], max over i in X of max(u, add)[X - i]); the swap
    # X - i + i is X itself, which never improves strictly
    up = np.maximum(u, add)
    best = add
    for i in range(kern.n):
        _, hi = _halves(best, i)
        np.maximum(hi, _halves(up, i)[0], out=hi)
    return _fold(np.logical_or, kern.dom[:, None] & ~demanded & (best <= u))


def _sampled(exact: Verdict, idx: int) -> Verdict:
    """The at-price re-check of a sweep hit, tagged with its sample index."""
    if exact.passed:
        raise InternalCheckError("scaled sweep disagrees with the exact check")
    assert exact.witness is not None
    return Verdict(False, replace(exact.witness, elements=(("sample", idx),)))


def _price_sweep(f: SetFunction, sampler: PriceSampler, names) -> dict:
    """Verdicts of the named price checks ("si", "nc", "ncsim") on one stream."""
    kern = sampler._kernel(f)

    def evaluate(rows, open_names):
        u, _, demanded = kern(rows)
        multi = np.flatnonzero(demanded.sum(axis=0) >= 2)  # a singleton cannot fail NC
        out = {}
        for name in sorted(open_names, key="ncsim".__ne__):
            if name == "si":
                out[name] = _first(_si_flags(kern, u, demanded))
            elif not multi.size or (name == "nc" and out.get("ncsim", 0) is None):
                out[name] = None  # a J that repairs NC-sim repairs NC
            else:
                hit = _stack_hit(demanded[:, multi].T, name == "nc")
                out[name] = None if hit is None else int(multi[hit[0]])
        return out

    hits = _first_hits(sampler._blocks(f, kern.dtype, 1 << f.n, pairs=False), names, evaluate)
    verdicts = {name: Verdict(True) for name in names}
    for name, (idx, row) in hits.items():
        p = _grid_price(row, sampler.grid_step.denominator)
        exact = check_si_at(f, p) if name == "si" else check_nc_at(f, p, name == "ncsim")
        verdicts[name] = _sampled(exact, idx)
    return verdicts


# ----------------------------------------------------------------------
# gross substitutes


def _fixed_price_mask(p: PriceVector, q: PriceVector) -> int:
    mask = 0
    for i, (a, b) in enumerate(zip(p.entries, q.entries)):
        if a == b:
            mask |= 1 << i
    return mask


def _gs_violating_bundle(dp: list[int], dq: list[int], eqmask: int) -> int | None:
    for X in dp:
        fixed = X & eqmask
        if fixed == 0:
            continue
        if not any(fixed & ~Y == 0 for Y in dq):
            return X
    return None


def check_gs_at(f: SetFunction, p: PriceVector, q: PriceVector) -> Verdict:
    """Substitutes condition at one price pair p <= q.

    Every bundle demanded at p must have its fixed-price part contained in
    some bundle demanded at q.
    """
    if not p.leq(q):
        raise InputError("gross-substitutes checks need p <= q componentwise")
    dp, _ = shifted_argmax(f, p)
    dq, _ = shifted_argmax(f, q)
    bad = _gs_violating_bundle(dp, dq, _fixed_price_mask(p, q))
    if bad is None:
        return Verdict(True)
    return Verdict(False, Witness("gs", sets=(("X", bad),), prices=(("p", p), ("q", q))))


def check_gs_sampled(f: SetFunction, sampler: PriceSampler) -> Verdict:
    """Scan the sampled price pairs for a substitutes violation.

    Pass means no sampled violation; it is not a proof.  The first
    violating pair (lowest sample index) is reported, with the witness
    recomputed by the exact at-price check.
    """
    kern = sampler._kernel(f)
    hits = _first_hits(
        sampler._blocks(f, kern.dtype, 2 << f.n, pairs=True),
        ("gs",),
        lambda rows, _: {"gs": _first(_gs_flags(kern, rows))},
    )
    if not hits:
        return Verdict(True)
    idx, row = hits["gs"]
    d = sampler.grid_step.denominator
    return _sampled(check_gs_at(f, _grid_price(row[: f.n], d), _grid_price(row[f.n :], d)), idx)


# ----------------------------------------------------------------------
# single improvement


def check_si_at(f: SetFunction, p: PriceVector) -> Verdict:
    """At price p, every suboptimal bundle in the domain must improve by
    adding, dropping, or swapping a single good."""
    _, best = shifted_argmax(f, p)
    sums = p.subset_sums
    tab = f.table
    full = (1 << f.n) - 1
    for X in f.dom_masks:
        v = tab[X] - sums[X]
        if v == best:
            continue
        if _si_improves(tab, sums, X, v, full):
            continue
        return Verdict(
            False,
            Witness("si", sets=(("X", X),), prices=(("p", p),), lhs=v, rhs=best),
        )
    return Verdict(True)


def _si_improves(tab, sums, X, v, full) -> bool:
    for ib in iter_bits(X):
        m = X ^ ib
        if tab[m] - sums[m] > v:
            return True
    for jb in iter_bits(full & ~X):
        m = X | jb
        if tab[m] - sums[m] > v:
            return True
    for ib in iter_bits(X):
        for jb in iter_bits(full & ~X):
            m = (X ^ ib) | jb
            if tab[m] - sums[m] > v:
                return True
    return False


def check_si_sampled(f: SetFunction, sampler: PriceSampler) -> Verdict:
    """Scan sampled prices for a single-improvement violation (refutation
    only; a pass is not a proof)."""
    return _price_sweep(f, sampler, ("si",))["si"]


# ----------------------------------------------------------------------
# no complementarities


def check_nc_at(f: SetFunction, p: PriceVector, simultaneous: bool = False) -> Verdict:
    """No-complementarities condition over the demand set at price p.

    For demanded X, Y and I inside X\\Y some J inside Y\\X must keep
    (X\\I) u J demanded; with ``simultaneous`` the counterpart (Y\\J) u I
    must stay demanded too.  The multi-item kernel scans the demand set
    D(p), computed from the raw rational table, and its hit is re-checked
    by the exact exchange test of every witness before it becomes one: on
    the indicator of D(p) twice for NC-sim, and against an all-zero second
    table for NC.
    """
    members, _ = shifted_argmax(f, p)
    row = np.zeros((1, 1 << f.n), dtype=bool)
    row[0, members] = True
    hit = _stack_hit(row, not simultaneous)
    if hit is None:
        return Verdict(True)
    ind = SetFamily._from_sorted(f.n, tuple(members)).indicator.table
    t2 = ind if simultaneous else (0,) * len(ind)
    cond = "ncsim" if simultaneous else "nc"
    return _exchange_verdict(cond, hit[1:], ind, t2, ind, prices=(("p", p),))


def check_nc_sampled(
    f: SetFunction, sampler: PriceSampler, simultaneous: bool = False
) -> Verdict:
    """Scan sampled prices for a no-complementarities violation."""
    name = "ncsim" if simultaneous else "nc"
    return _price_sweep(f, sampler, (name,))[name]


# ----------------------------------------------------------------------
# strong no complementarities and the combined report


def check_snc(f: SetFunction) -> Verdict:
    """Price-free strong condition; identical to the multi-item exchange check."""
    return check_multiple_exchange(f)


@dataclass(frozen=True)
class SampledVerdict:
    verdict: Verdict
    samples: int


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdicts of the three exact checks and four sampled conditions.

    The exact verdicts always agree with one another, and a sampled
    refutation can only appear when the exact checks fail; either
    inconsistency raises :class:`InternalCheckError`.
    """

    single_exchange: Verdict
    multiple_exchange: Verdict
    local: Verdict
    gs: SampledVerdict
    si: SampledVerdict
    nc: SampledVerdict
    ncsim: SampledVerdict

    @property
    def exact_pass(self) -> bool:
        return self.single_exchange.passed

    @property
    def all_pass(self) -> bool:
        return self.exact_pass and all(
            sv.verdict.passed for sv in (self.gs, self.si, self.nc, self.ncsim)
        )


def equivalence_report(f: SetFunction, sampler: PriceSampler) -> EquivalenceReport:
    """Run all seven checks and cross-validate their consistency."""
    from .checkers import check_local, check_single_exchange

    single = check_single_exchange(f)
    multiple = check_snc(f)
    local = check_local(f)
    if not (single.passed == multiple.passed == local.passed):
        raise InternalCheckError(
            "exact checks disagree: "
            f"single={single.status} multiple={multiple.status} local={local.status}"
        )

    gs = SampledVerdict(check_gs_sampled(f, sampler), sampler.pair_count(f))
    swept = _price_sweep(f, sampler, ("si", "nc", "ncsim"))
    si, nc, ncsim = (
        SampledVerdict(swept[name], sampler.price_count(f)) for name in ("si", "nc", "ncsim")
    )

    if single.passed:
        for name, sv in (("gs", gs), ("si", si), ("nc", nc), ("ncsim", ncsim)):
            if not sv.verdict.passed:
                raise InternalCheckError(
                    f"sampled {name} refutation on a function passing the exact checks"
                )
    return EquivalenceReport(
        single_exchange=single,
        multiple_exchange=multiple,
        local=local,
        gs=gs,
        si=si,
        nc=nc,
        ncsim=ncsim,
    )
