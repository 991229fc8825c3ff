"""Exhaustive checkers for exchange axioms of set functions and set families.

Every checker returns a :class:`Verdict`; a failing verdict carries a
:class:`Witness` naming the violated condition, the quantified tuple, and
both sides of the inequality so the violation can be replayed exactly.
Quantified tuples are scanned in lexicographic bitmask order (X outer, Y
middle, elements or I inner), so witnesses are canonical.

One kernel runs every one-item scan: ``mnat-exc``, ``valuated-matroid``
(which has no deletion branch), the family axiom ``b-exc`` and the domain
check of ``local``, which a box domain (every set between the common part
of the domain and its union) passes without a scan.  A family F is read
as its indicator function (``SetFamily.indicator``: 0 on F, -inf
elsewhere, so -1 in its integer table), on which ``b-exc`` is exactly
``mnat-exc``; outside the kernels too, ``find_base_exchange`` is the J
search of ``find_exchange_set`` on the indicator, and
``maximizer_exchange`` the same on the indicator of the argmax family.
The kernel reads the function's cached :class:`IntTable`
(``SetFunction.ints``), so repeated checks of one function rescale it
once, and runs on its one array: chunks of X rows, in order, against every
Y, each element i on the grid of rows holding i and columns missing it.
The array is int64 when twice the largest magnitude among its entries and
its ``-inf`` sentinel is below 2^62, so every two-term sum is exact, and
an object array of Python integers otherwise; the same kernel on that
dtype is the exact fallback.  The least (row-major (X, Y) cell, i) of the
first chunk holding a violation is the first tuple of the lexicographic
order, the first hit of the loop scan that the tests keep as the oracle.
Every hit is re-checked on the raw rational table, or the family's
members, before it becomes a witness; a mismatch raises
:class:`InternalCheckError`.

A second kernel runs the multi-item scans, ``mnat-exc-m`` (and so ``snc``)
and, on the indicator table, ``b-exc-m``, on the same array of either
dtype.  It takes chunks of X rows in order, drops the cells with X\\Y
empty and groups the rest by (|X\\Y|, |Y\\X|).  Each cell expands to
its (X, Y, I) tuples, I over the nonzero submasks of X\\Y in ascending
order, and the J inside Y\\X are tried level by level: every J with
|J| = 0, then 1, and so on, each level only on the tuples that no smaller
J repaired.  Tuples left after the last level are violations, and
the least (row-major cell, I) of the first chunk holding one is again the
loop scan's first hit.  Levels keep early exits cheap: most tuples are
repaired by a small J, and trying every J at once made the early exits
of n = 14 scans several times slower.  On an equicardinal domain (matroid
bases, weighted matroids) X-I+J lies in the domain only when |J| = |I|,
so level 0 is skipped and level l runs only on the tuples with |I| = l.
``b-exc-pm`` runs on the per-i grid of the one-item kernel, where both
clauses become bitmask tests (see :func:`_scan_b_exc_pm`).

A third kernel runs ``local``'s three inequality families.  Each reads
s(X+i+j) + s(X+k+l) > max(s(X+i+k) + s(X+j+l), s(X+j+k) + s(X+i+l)),
with k = l = 0 in family (i) and l = 0 in (ii), so the tuples on one
element set E share their entries, and each E is tested, on arrays, on
the 2^(n-|E|) masks X outside it and nowhere else.  X runs in
ascending aligned blocks, the first of about _FIRST_CHUNK_CELLS (X, E)
cells and then doubling up to _LOCAL_BLOCK_CELLS, each a slice of one
table per family and n; the least (X, tuple) of the first block holding a
violation is the loop scan's first hit, and a table failing at X = 0
reads one small block.  Like the others, the kernel reads the table's
array, int64 or object.

Measured on 2 cores (CPython 3.11.7, numpy 2.4.6), a full ``mnat-exc``
scan of min(|S|, n/2) takes about 0.06 s at n = 10, 1.4 s at n = 12 and
12-14 s at n = 14.  A full ``mnat-exc-m`` scan of the same function takes
about 0.04 s at n = 8, 0.22 s at n = 9, 1.2 s at n = 10 and 5.6 s at
n = 11 (the loops took 0.3 s, 1.3 s and 10 s up to n = 10); on the bases
of U(6, 12), ``b-exc-pm`` takes 0.03 s.  Timed later, back to back with
the code they replaced, while the host ran about half as fast: ``local``
on min(|S|, 6) at n = 12 (a box domain, so no domain scan) takes 0.021 s
and on min(|S|, 3) at n = 9 0.8 ms, where the loops took 0.22 s and
18 ms; ``b-exc-m`` on the bases of U(6, 12) takes 0.83 s, from 1.7 s
before the level skip.  On object arrays (min(|S|, n/2) times 2^70) a
full ``mnat-exc`` scan at n = 9 takes 0.32 s and ``mnat-exc-m`` at n = 7
0.016 s, where the loops took 0.19 s and 0.057 s.  Each scan costs at
least the fixed overhead of its numpy calls: ``b-exc`` on a family at
n = 4 takes about 0.2 ms and ``b-exc-m`` 0.45 ms (0.02 and 0.04 ms as
loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from ._fast import IntTable
from .core import (
    PriceVector,
    SetFamily,
    SetFunction,
    effective_domain,
    validate_exchange_args,
)
from .errors import InputError, InternalCheckError
from .sets import elements_of, iter_bits, iter_submasks, set_str, submasks_smallest_first
from .values import NEG_INF, ExtValue, ext_to_json, ext_to_str, is_finite

__all__ = [
    "Witness",
    "Verdict",
    "ExchangeCertificate",
    "FAMILY_AXIOMS",
    "check_single_exchange",
    "find_exchange_set",
    "check_multiple_exchange",
    "check_valuated_matroid",
    "check_local",
    "maximizer_exchange",
    "check_family",
    "find_base_exchange",
    "is_generalized_matroid",
]

FAMILY_AXIOMS = ("b-exc", "b-exc-m", "b-exc-pm")


@dataclass(frozen=True)
class Witness:
    """A violating assignment together with both sides of the inequality.

    ``sets`` and ``elements`` are (name, bitmask) and (name, 1-based label)
    pairs; ``prices`` carries any price vectors involved.  For most
    conditions the violation is ``lhs > rhs``; for conditions stated as a
    lower bound (conjugate submodularity) it is ``lhs < rhs``.
    """

    condition: str
    sets: tuple[tuple[str, int], ...] = ()
    elements: tuple[tuple[str, int], ...] = ()
    prices: tuple[tuple[str, PriceVector], ...] = ()
    lhs: ExtValue | None = None
    rhs: ExtValue | None = None

    def set_mask(self, name: str) -> int:
        return dict(self.sets)[name]

    def element(self, name: str) -> int:
        return dict(self.elements)[name]

    def price(self, name: str) -> PriceVector:
        return dict(self.prices)[name]

    def as_dict(self) -> dict:
        out: dict = {"condition": self.condition}
        for name, mask in self.sets:
            out[name] = list(elements_of(mask))
        for name, label in self.elements:
            out[name] = label
        for name, p in self.prices:
            out[name] = [ext_to_json(v) for v in p.entries]
        if self.lhs is not None:
            out["lhs"] = ext_to_json(self.lhs)
        if self.rhs is not None:
            out["rhs"] = ext_to_json(self.rhs)
        return out

    def describe(self) -> str:
        bits = [self.condition]
        bits += [f"{name}={set_str(mask)}" for name, mask in self.sets]
        bits += [f"{name}={label}" for name, label in self.elements]
        for name, p in self.prices:
            bits.append(f"{name}=({','.join(ext_to_str(v) for v in p.entries)})")
        if self.lhs is not None and self.rhs is not None:
            bits.append(f"lhs={ext_to_str(self.lhs)} rhs={ext_to_str(self.rhs)}")
        return " ".join(bits)


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witness: Witness | None = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise InputError("failing verdicts require a witness")

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class ExchangeCertificate:
    """A successful exchange: value sum does not drop after swapping I and J."""

    j_set: int
    lhs: ExtValue
    rhs: ExtValue

    def __post_init__(self):
        if not (self.lhs <= self.rhs):
            raise InputError("certificate violates lhs <= rhs")


# ----------------------------------------------------------------------
# the one-item exchange kernel (see the module docstring)

# X rows go in chunks, in order: the first of about _FIRST_CHUNK_CELLS
# (X, Y) cells, so early exits stay cheap, then doubling up to
# _BLOCK_CELLS cells or _MIN_CAP_ROWS rows, whichever is more.  Column
# tables are built once per chunk and element; the (X, Y) work arrays hold
# one block of rows, at most _BLOCK_CELLS cells or a single row.
_FIRST_CHUNK_CELLS = 1 << 12
_BLOCK_CELLS = 1 << 16
_MIN_CAP_ROWS = 32


def _exchange_hit(t: IntTable, deletion: bool):
    """The earliest violating (X, Y, i-bit) of the one-item scan, or None.

    The scan reads the sentinel table ``t.sent`` (``-inf`` entries replaced
    by ``t.neg``) over the ascending finite masks ``t.dom``.  With
    ``deletion`` the rhs includes s(X-i) + s(Y+i) (mnat-exc); without it
    the empty swap maximum is the floor 2*neg - 1, below every two-term sum
    (valuated matroids).
    """
    floor = None if deletion else 2 * t.neg - 1
    return _scan_exchange_np(t.sent, t.dom, t.dom, t.neg, floor)


def _row_chunks(nrows: int, ncols: int, cap: int):
    """(start, stop) of the chunks of X rows, in order: the first of about
    _FIRST_CHUNK_CELLS cells, then doubling up to ``cap`` rows."""
    rows = max(1, _FIRST_CHUNK_CELLS // ncols)
    start = 0
    while start < nrows:
        yield start, start + rows
        start += rows
        rows = min(2 * rows, cap)


def _scan_per_element(da, xs, n: int, prepare):
    """Earliest (X, Y, i-bit, tag) with X in xs that one of the per-i grids flags.

    ``prepare(b, yc)`` gets the bit b of i and the columns ``yc`` missing it
    and returns ``sweep(xr)``: for rows ``xr``, all holding i, the row-major
    index and tag of the least flagged cell of the grid against ``yc``, or
    None.  Tags order the conditions checked on one (X, Y, i).
    """
    xa = np.array(xs, dtype=np.int64)
    ncols = len(da)
    cap = max(_MIN_CAP_ROWS, _BLOCK_CELLS // ncols)
    for start, stop in _row_chunks(len(xa), ncols, cap):
        chunk = xa[start:stop]
        hit = _grid_chunk(da, chunk, n, prepare)
        if hit is not None:
            r, c, i, tag = hit
            return int(chunk[r]), int(da[c]), 1 << i, tag
    return None


def _grid_chunk(da, xa, n: int, prepare):
    """Least (row, column, i, tag) of one chunk that a sweep flags, or None.

    For each i the grid narrows to rows with i in X and columns with i not
    in Y, and is swept in blocks of rows.  Row-major order on the narrowed
    grid is the order on the full grid, so the least (flat index, i, tag)
    over all i is the loop scan's first hit.
    """
    ncols = len(da)
    found = None
    for i in range(n):
        b = 1 << i
        ri = np.flatnonzero(xa & b)
        if found is not None:
            ri = ri[ri <= found[0] // ncols]  # later rows cannot come first
        ci = np.flatnonzero((da & b) == 0)
        if not ri.size or not ci.size:
            continue
        sweep = prepare(b, da[ci])
        step = max(1, _BLOCK_CELLS // ci.size)
        for lo in range(0, ri.size, step):
            rb = ri[lo : lo + step]
            hit = sweep(xa[rb])
            if hit is not None:
                k, tag = hit
                key = (int(rb[k // ci.size]) * ncols + int(ci[k % ci.size]), i, tag)
                if found is None or key < found:
                    found = key
                break
    if found is None:
        return None
    flat, i, tag = found
    return flat // ncols, flat % ncols, i, tag


def _element_bits(n: int):
    return np.left_shift(1, np.arange(n, dtype=np.int64))[:, None]


def _scan_exchange_np(sa, da, xs, neg: int, floor):
    """Vectorized kernel: chunks of X rows, in order, against every Y."""
    n = len(sa).bit_length() - 1
    bits = _element_bits(n)

    def prepare(b, yc):
        yi = yc | b
        y_has = (yc & bits) != 0
        cv = np.where(y_has, sa[yi ^ bits], neg)
        sy, y_any = sa[yc], y_has.any(axis=1)

        def sweep(xr):
            k = _first_violation(sa, sa[xr], sy, xr ^ b, yi, cv, y_any, bits, neg, floor)
            return None if k is None else (k, 0)

        return sweep

    hit = _scan_per_element(da, xs, n, prepare)
    return None if hit is None else hit[:3]


def _first_violation(sa, sx, sy, xi, yi, cv, y_any, bits, neg: int, floor):
    """Row-major index of the first cell with lhs > best, or None.

    Rows are X-i (``sx`` = s(X)), columns Y+i (``sy`` = s(Y)); row j of
    ``cv`` holds s((Y+i)-j), or ``neg`` where j is not in Y.  A swap term
    whose j lies outside Y\\X reads ``neg`` on one side, and a sum
    containing ``neg`` is below every lhs, so no mask is needed.
    """
    if floor is None:
        best = sa[xi][:, None] + sa[yi]
    else:
        best = np.full((xi.size, yi.size), floor, dtype=sa.dtype)
    tmp = np.empty_like(best)
    x_has = (xi & bits) != 0
    rv = np.where(x_has, neg, sa[xi | bits])
    for j in np.flatnonzero(~x_has.all(axis=1) & y_any):
        np.add(rv[j][:, None], cv[j], out=tmp)
        np.maximum(best, tmp, out=best)
    bad = (np.add(sx[:, None], sy, out=tmp) > best).ravel()
    k = int(bad.argmax())
    return k if bad[k] else None


# ----------------------------------------------------------------------
# the multi-item exchange kernel (see the module docstring)

# Chunks of X rows stop at this many (X, Y) cells (or one row), and one
# block of a level of the J search holds at most this many (X, Y, I, J).
_MULTI_BLOCK = 1 << 13


def _multi_hit(t: IntTable):
    """The earliest (X, Y, I) that no J repairs, or None.

    The scan reads ``t`` as :func:`_exchange_hit` does; the tuple is
    repaired by J inside Y\\X when s(X-I+J) + s(Y-J+I) >= s(X) + s(Y).
    """
    return _scan_multi_np(t.sent, t.dom, t.dom)


def _scan_multi_np(sa, da, xs):
    """Vectorized multi-item kernel: chunks of X rows, in order, against every Y.

    Chunks grow as in the one-item kernel but stop at _MULTI_BLOCK cells:
    there are no per-chunk column tables to spread over more rows, and
    smaller chunks keep the work arrays and the overshoot of an early exit
    small.
    """
    xa = np.array(xs, dtype=np.int64)
    ncols = len(da)
    pc = _popcounts(len(sa).bit_length() - 1)
    sizes = pc[da]
    equi = bool((sizes == sizes[0]).all())
    picks: dict = {}
    for start, stop in _row_chunks(len(xa), ncols, max(1, _MULTI_BLOCK // ncols)):
        chunk = xa[start:stop]
        hit = _multi_chunk(sa, da, chunk, pc, picks, equi)
        if hit is not None:
            r, c, I = hit
            return int(chunk[r]), int(da[c]), I
    return None


def _multi_chunk(sa, da, xa, pc, picks, equi: bool):
    """Least (row, column, I) of one chunk that no J repairs, or None.

    Cells with X\\Y nonempty are grouped by (|X\\Y|, |Y\\X|) and stay in
    row-major order within a group; I runs over the nonzero submasks of
    X\\Y in ascending order.  So the least (flat index, I) over all groups
    is the loop scan's first hit, and once a group has one, later groups
    need only the cells before it.
    """
    ncols = len(da)
    xd = (xa[:, None] & ~da).ravel()
    flat = np.flatnonzero(xd)
    xd = xd[flat]
    X = xa[flat // ncols]
    Y = da[flat % ncols]
    yd = Y & ~X
    width = len(pc).bit_length()  # exceeds every |Y\X|
    key = (pc[xd] * width + pc[yd]).astype(np.int16)  # int16 keys get a radix sort
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    found = None
    for g0, g1 in zip(starts, [*starts[1:], key.size]):
        g = order[g0:g1]
        if found is not None:
            g = g[flat[g] < found[0]]
            if not g.size:
                continue
        a, b = divmod(int(key[g0]), width)
        hit = _multi_group(sa, X[g], Y[g], xd[g], yd[g], a, b, pc, picks, equi)
        if hit is not None:
            c, I = hit
            found = (int(flat[g[c]]), I)
    if found is None:
        return None
    flat0, I = found
    return flat0 // ncols, flat0 % ncols, I


def _multi_group(sa, X, Y, xd, yd, a: int, b: int, pc, picks, equi: bool):
    """Least (cell, I) of one group, |X\\Y| = a and |Y\\X| = b, that no J repairs.

    The group's cells go in blocks of whole cells.  Level l tries every J
    of size l, only on the (X, Y, I) tuples that no smaller J repaired, so
    a tuple repaired early costs little; the tuples left after level b are
    violations.  On an ``equi``-cardinal domain X-I+J is in the domain only
    when |J| = |I|, so level 0 repairs nothing and level l tries only the
    tuples with |I| = l.  Work arrays put the I or J index first, so the
    test over all J of a level is a reduction across rows.
    """
    lhs = sa[X] + sa[Y]
    per_cell = (1 << a) - 1
    step = max(1, _MULTI_BLOCK // per_cell)
    for lo in range(0, X.size, step):
        hi = lo + step
        I = _pick(picks, pc, a, None) @ _low_bits(xd[lo:hi], a)  # row t: the t-th I of each cell
        cells = I.shape[1]
        xi = X[lo:hi] ^ I
        yi = Y[lo:hi] | I
        ybits = _low_bits(yd[lo:hi], b)
        if equi:
            i_size = np.repeat(pc[1 : per_cell + 1], cells)  # |I| of each entry
            xi, yi = xi.ravel(), yi.ravel()
            open_ = np.concatenate([
                _unrepaired(sa, xi, yi, lhs[lo:hi], ybits, np.flatnonzero(i_size == size),
                            _pick(picks, pc, b, size))
                for size in range(1, b + 1)
            ])
        else:
            open_ = np.flatnonzero(sa[xi] + sa[yi] < lhs[lo:hi])
            xi, yi = xi.ravel(), yi.ravel()
            for size in range(1, b + 1):
                if not open_.size:
                    break
                open_ = _unrepaired(sa, xi, yi, lhs[lo:hi], ybits, open_, _pick(picks, pc, b, size))
        if open_.size:
            c, t = open_ % cells, open_ // cells
            k = int(np.argmin(c * per_cell + t))
            return lo + int(c[k]), int(I[t[k], c[k]])
    return None


def _unrepaired(sa, xi, yi, lhs, ybits, open_, pick_j):
    """The entries of ``open_`` (indices into the flat ``xi`` = X-I and
    ``yi`` = Y+I, cell fastest) that no J of one level repairs; row r of
    ``pick_j`` selects the bits of the r-th J among the cell's ``ybits``.
    Blocks are sized by the level's width, so each holds at most
    _MULTI_BLOCK (entry, J) pairs."""
    cells = lhs.size
    step = max(1, _MULTI_BLOCK // pick_j.shape[0])
    keep = []
    for lo in range(0, open_.size, step):
        e = open_[lo : lo + step]
        c = e % cells
        J = pick_j @ ybits[:, c]
        repaired = (sa[xi[e] | J] + sa[yi[e] ^ J] >= lhs[c]).any(axis=0)
        keep.append(e[~repaired])
    return np.concatenate(keep)


def _popcounts(n: int):
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        pc[1 << i : 2 << i] = pc[: 1 << i] + 1
    return pc


def _low_bits(v, k: int):
    """Row j holds the j-th lowest set bit of each entry of ``v``."""
    out = np.empty((k, v.size), dtype=np.int64)
    rest = v.copy()
    for j in range(k):
        out[j] = rest & -rest
        rest ^= out[j]
    return out


def _pick(picks: dict, pc, k: int, size):
    """0/1 matrix whose rows are the k-bit patterns of popcount ``size``
    (every nonzero pattern when ``size`` is None), in ascending order, one
    bit per column; times a matrix of single-bit masks, one row per bit, it
    deposits the patterns.  Kept in ``picks`` for the rest of the scan."""
    key = (k, size)
    if key not in picks:
        pats = np.arange(1, 1 << k) if size is None else np.flatnonzero(pc[: 1 << k] == size)
        picks[key] = ((pats[:, None] >> np.arange(k)) & 1).astype(np.int8)
    return picks[key]


# ----------------------------------------------------------------------
# families on the kernels


def _scan_b_exc_pm(mem, da, xs, n: int):
    """Earliest (X, Y, i-bit, clause) with X in xs that b-exc-pm fails.

    ``mem`` is the boolean membership table and ``da`` the ascending
    members.  On the grid of element i, clause a fails when X-i is no
    member and no j in Y\\X has X-i+j in the family: ``jmask`` packs the
    j outside X with X-i+j a member, so the test is jmask & Y == 0.  Clause
    b fails when Y+i is no member and no k in Y\\X has Y+i-k in the family:
    ``kmask`` packs the k in Y with Y+i-k a member, tested against ~X.
    Clause a comes first on one (X, Y, i).
    """
    bits = _element_bits(n)

    def prepare(b, yc):
        yi = yc | b
        kmask = np.where(((yc & bits) != 0) & mem[yi ^ bits], bits, 0).sum(axis=0)
        b_open = ~mem[yi]

        def sweep(xr):
            xi = xr ^ b
            jmask = np.where(((xr & bits) == 0) & mem[xi | bits], bits, 0).sum(axis=0)
            fail_a = ~mem[xi][:, None] & ((jmask[:, None] & yc) == 0)
            fail_b = b_open & ((kmask & ~xr[:, None]) == 0)
            bad = (fail_a | fail_b).ravel()
            k = int(bad.argmax())
            if not bad[k]:
                return None
            return k, 0 if fail_a.flat[k] else 1

        return sweep

    hit = _scan_per_element(da, xs, n, prepare)
    if hit is None:
        return None
    X, Y, ib, tag = hit
    return X, Y, ib, "ab"[tag]


# ----------------------------------------------------------------------
# re-checks of kernel hits on the raw data


def _recheck(holds: bool, witness: Witness) -> Witness:
    """Return the witness of a kernel hit; raise unless the raw data violate it."""
    if not holds:
        raise InternalCheckError(
            f"the scan reported {witness.describe()}, which the raw data do not violate"
        )
    return witness


def _best_exchange_rhs(tab, X: int, Y: int, I: int) -> ExtValue:
    """max over J inside Y\\X of f((X\\I)uJ) + f((Y\\J)uI), from the raw table."""
    xmi = X ^ I
    return max(tab[xmi | J] + tab[(Y & ~J) | I] for J in iter_submasks(Y & ~X))


def _family_witness(condition: str, members, X: int, Y: int, ib: int) -> Witness:
    xi, yi = X ^ ib, Y | ib
    repaired = (xi in members and yi in members) or any(
        (xi | jb) in members and (yi ^ jb) in members for jb in iter_bits(Y & ~X)
    )
    holds = X in members and Y in members and bool(ib & X & ~Y) and not repaired
    w = Witness(condition, sets=(("X", X), ("Y", Y)), elements=(("i", ib.bit_length()),))
    return _recheck(holds, w)


def _family_multi_witness(family: SetFamily, X: int, Y: int, I: int) -> Witness:
    m = family.members
    holds = (
        X in m and Y in m and bool(I) and not I & (Y | ~X)
        and find_base_exchange(family, X, Y, I) is None
    )
    return _recheck(holds, Witness("bnat-exc-m", sets=(("X", X), ("Y", Y), ("I", I))))


def _family_pm_witness(members, X: int, Y: int, ib: int, clause: str) -> Witness:
    # X-i+j and Y+i-k, for j and k in Y\X, are both `start` with one bit flipped
    start = X ^ ib if clause == "a" else Y | ib
    unrepaired = start not in members and not any(
        (start ^ jb) in members for jb in iter_bits(Y & ~X)
    )
    holds = X in members and Y in members and bool(ib & X & ~Y) and unrepaired
    w = Witness(
        f"bnat-exc-pm:{clause}",
        sets=(("X", X), ("Y", Y)),
        elements=(("i", ib.bit_length()),),
    )
    return _recheck(holds, w)


# ----------------------------------------------------------------------
# single-item exchange (discrete concavity)


def check_single_exchange(f: SetFunction) -> Verdict:
    """Check the one-item exchange axiom of discrete concavity.

    For every X, Y in the effective domain and i in X\\Y the sum f(X)+f(Y)
    must not exceed the best of removing i from X (adding it to Y) or
    swapping i against some j in Y\\X.  Tuples with an infinite left-hand
    side hold vacuously.
    """
    return _single_exchange_verdict(f, _exchange_hit(f.ints, deletion=True))


def _single_exchange_verdict(f: SetFunction, hit) -> Verdict:
    return _one_item_verdict(f, hit, "mnat-exc", deletion=True)


def _one_item_verdict(f: SetFunction, hit, condition: str, deletion: bool) -> Verdict:
    """The verdict of a one-item kernel hit, re-checked on the raw table;
    without ``deletion`` the swap maximum starts at -inf (valuated matroids)."""
    if hit is None:
        return Verdict(True)
    X, Y, ib = hit
    tab = f.table
    lhs = tab[X] + tab[Y]
    best: ExtValue = tab[X ^ ib] + tab[Y | ib] if deletion else NEG_INF
    for jb in iter_bits(Y & ~X):
        best = max(best, tab[(X ^ ib) | jb] + tab[(Y | ib) ^ jb])
    w = Witness(
        condition,
        sets=(("X", X), ("Y", Y)),
        elements=(("i", ib.bit_length()),),
        lhs=lhs,
        rhs=best,
    )
    return Verdict(False, _recheck(bool(ib & X & ~Y) and is_finite(lhs) and lhs > best, w))


# ----------------------------------------------------------------------
# multi-item exchange


def find_exchange_set(f: SetFunction, X: int, Y: int, I: int) -> ExchangeCertificate | None:
    """Search for J inside Y\\X with f(X)+f(Y) <= f((X\\I)uJ) + f((Y\\J)uI).

    Returns the certificate with minimum |J| (ties: smallest bitmask), or
    None when no J works.  Requires X, Y in the effective domain and I
    inside X\\Y.  The search compares integers of ``f.ints``; the
    certificate's two sides are read from the rational table.
    """
    validate_exchange_args(f, X, Y, I)
    J = _exchange_set(f.ints.sent, X, Y, I)
    if J is None:
        return None
    tab = f.table
    return ExchangeCertificate(
        j_set=J, lhs=tab[X] + tab[Y], rhs=tab[(X ^ I) | J] + tab[(Y & ~J) | I]
    )


def _exchange_set(s, X: int, Y: int, I: int) -> int | None:
    """The search of :func:`find_exchange_set` on a sentinel table ``s``,
    where a sum holding the sentinel is below every finite lhs."""
    lhs = s[X] + s[Y]
    xmi = X ^ I
    for J in submasks_smallest_first(Y & ~X):
        if s[xmi | J] + s[(Y & ~J) | I] >= lhs:
            return J
    return None


def check_multiple_exchange(f: SetFunction) -> Verdict:
    """Check the multi-item exchange axiom over every (X, Y, I).

    Worst-case cost grows as 4^n times the submask count of X\\Y, hence the
    documented exhaustive-scan cap.
    """
    return _multiple_exchange_verdict(f, _multi_hit(f.ints))


def _multiple_exchange_verdict(f: SetFunction, hit) -> Verdict:
    if hit is None:
        return Verdict(True)
    X, Y, I = hit
    tab = f.table
    lhs = tab[X] + tab[Y]
    rhs = _best_exchange_rhs(tab, X, Y, I)
    w = Witness("mnat-exc-m", sets=(("X", X), ("Y", Y), ("I", I)), lhs=lhs, rhs=rhs)
    return Verdict(False, _recheck(bool(I) and not I & (Y | ~X) and lhs > rhs, w))


# ----------------------------------------------------------------------
# valuated matroids


def check_valuated_matroid(f: SetFunction) -> Verdict:
    """Check the valuated-matroid axioms.

    The effective domain must be equi-cardinal and every (X, Y, i) must
    admit a value-preserving swap against some j in Y\\X (no pure
    deletion branch here; the empty swap maximum counts as -inf).
    """
    dom = f.dom_masks
    card = dom[0].bit_count()
    for m in dom[1:]:
        if m.bit_count() != card:
            return Verdict(
                False,
                Witness(
                    "valuated-matroid:cardinality",
                    sets=(("X", dom[0]), ("Y", m)),
                    lhs=Fraction(card),
                    rhs=Fraction(m.bit_count()),
                ),
            )

    return _valuated_matroid_verdict(f, _exchange_hit(f.ints, deletion=False))


def _valuated_matroid_verdict(f: SetFunction, hit) -> Verdict:
    return _one_item_verdict(f, hit, "valuated-matroid:exchange", deletion=False)


# ----------------------------------------------------------------------
# local characterization


def check_local(f: SetFunction) -> Verdict:
    """Check the local characterization of the one-item exchange axiom.

    The effective domain must satisfy the one-item family exchange
    condition, and three families of small inequalities must hold: (i)
    adding two items is submodular against adding each separately, (ii)
    and (iii) the stated best-of-two swap bounds on triples and disjoint
    pairs.  The first failing family is reported.
    """
    t = f.ints
    low, high = int(np.bitwise_and.reduce(t.dom)), int(np.bitwise_or.reduce(t.dom))
    # a domain holding every set between the common part and the union
    # passes without a scan: for i in X\Y, X - i still holds the common
    # part (i is not in Y) and Y + i stays inside the union (i is in X)
    if t.dom.size != 1 << (high & ~low).bit_count():
        dom = effective_domain(f)
        hit = _exchange_hit(dom.indicator.ints, deletion=True)
        if hit is not None:
            return Verdict(False, _family_witness("local:domain", dom.members, *hit))

    hit = _local_hit(t)
    if hit is None:
        return Verdict(True)
    condition, X, bits = hit
    ib, jb, kb, lb = bits + (0,) * (4 - len(bits))
    tab = f.table
    lhs = tab[X | ib | jb] + tab[X | kb | lb]
    rhs = max(tab[X | ib | kb] + tab[X | jb | lb], tab[X | jb | kb] + tab[X | ib | lb])
    return Verdict(False, _local_witness(condition, X, bits, lhs, rhs))


def _local_witness(condition: str, X: int, bits, lhs: ExtValue, rhs: ExtValue) -> Witness:
    """The witness of a local hit, re-checked on the raw table: the element
    bits are distinct and outside X, and lhs > rhs with lhs finite."""
    elements = tuple(zip("ijkl", (b.bit_length() for b in bits)))
    w = Witness(condition, sets=(("X", X),), elements=elements, lhs=lhs, rhs=rhs)
    fresh = {b for b in bits if b.bit_count() == 1 and not b & X}
    return _recheck(len(fresh) == len(bits) and is_finite(lhs) and lhs > rhs, w)


# ----------------------------------------------------------------------
# the local inequality kernel (see the module docstring)

# A block of X masks holds at most this many (X, E) cells; each cell reads
# four or six table entries, and a scan at n = 12 peaks about 3 MB above
# its table (2^16 cells: 5 MB, for 10% less time).
_LOCAL_BLOCK_CELLS = 1 << 15


def _local_hit(t: IntTable):
    """The first violating (condition, X, element bits) of local's three
    inequality families, or None.

    Family (i) comes first, then (ii), then (iii); within a family X
    ascends, then the element tuple in the loop order of the exhaustive
    scan.  A tuple whose lhs holds an entry off the domain is vacuous.
    """
    # a lhs holding the sentinel is at most neg + hi < 2 lo, so
    # lhs > floor is the test that both of its entries are finite
    floor = 2 * t.lo - 1
    for condition, fam in zip(("local:i", "local:ii", "local:iii"), _local_families(t.n)):
        hit = fam.first_hit(t.sent, floor)
        if hit is not None:
            X, tup = hit
            return condition, X, tuple(1 << e for e in tup)
    return None


@lru_cache(maxsize=None)
def _local_families(n: int) -> tuple["_LocalFamily", ...]:
    return tuple(_LocalFamily(n, size) for size in (2, 3, 4))


def _tuples_on(E):
    """The element tuples (i, j[, k[, l]]) of one family on the element set E.

    Family (i) has the pair itself; (ii) one tuple per k in E, with i < j
    the rest; (iii) one per pairing of E, with i the least element and
    i < j, k < l.  The exhaustive scan visits a family's tuples in
    lexicographic order, for each X.
    """
    if len(E) == 2:
        return [E]
    if len(E) == 3:
        return [(*(e for e in E if e != k), k) for k in E]
    i, *rest = E
    return [(i, j, *(e for e in rest if e != j)) for j in rest]


class _LocalFamily:
    """One family's inequalities at one n, grouped by their element set E.

    A tuple compares its sum s(X+i+j) + s(X+k+l) with the others on its E:
    on E = {i, j}, family (i) compares s(X+i+j) + s(X) with
    s(X+i) + s(X+j); on three or four elements, the three tuples of
    families (ii) and (iii) are the three sums, and a tuple fails when
    its sum, both terms finite, exceeds the other two.  So the tuples on
    one E share their entries, and each E is tested on the 2^(n-|E|)
    masks X outside it and nowhere else.

    X runs in ascending aligned blocks [H, H + 2^w): the first holds about
    _FIRST_CHUNK_CELLS (X, E) cells, so early exits stay cheap; then the
    blocks double up to the width ``wmax`` of about _LOCAL_BLOCK_CELLS cells.
    One table, built on the first scan, lists every (low part L of X, E)
    with L below 2^wmax and outside E, sorted by L; a block is one slice
    of it, with the E meeting the block's fixed high bits dropped.  So the
    first block holding a violation holds the least violating X, and the
    least tuple there is the loop scan's first hit.
    """

    def __init__(self, n: int, size: int):
        self.n = n
        sets = list(combinations(range(n), size))
        self.tuples = [_tuples_on(E) for E in sets]
        # sum c on E is s(X+i+j) + s(X+k+l) of the c-th tuple on E
        rows = [[(t[:2], t[2:]) for t in tuples] for tuples in self.tuples]
        if size == 2:  # family (i) has one more, s(X+i) + s(X+j), its rhs
            for (i, j), row in zip(sets, rows):
                row.append(((i,), (j,)))
        nsums, nslots = (2, 1) if size == 2 else (3, 3)
        self.sides = [
            tuple(np.array([sum(1 << e for e in row[c][h]) for row in rows], dtype=np.int64)
                  for h in (0, 1))
            for c in range(nsums)
        ]
        # the tuple in slot c fails when sum c, both terms finite, exceeds the others
        self.others = [[d for d in range(nsums) if d != c] for c in range(nslots)]
        self.union = np.array([sum(1 << e for e in E) for E in sets], dtype=np.int64)
        # cells of the block [0, 2^w): 2^(w - |E below w|) per E
        below = np.zeros(len(sets), dtype=np.int64)
        cells = []
        for w in range(n + 1):
            cells.append(int((1 << (w - below)).sum()))
            below += (self.union >> w) & 1
        self.w0 = max([w for w, c in enumerate(cells) if c <= _FIRST_CHUNK_CELLS], default=0)
        self.wmax = max([w for w, c in enumerate(cells) if c <= _LOCAL_BLOCK_CELLS], default=0)
        self._table = None

    def _build(self):
        """(offsets, L, E index) of the cells with L below 2^wmax, sorted
        by (L, E); offsets[L] is where L's run starts."""
        width = 1 << self.wmax
        low = self.union & (width - 1)
        step = max(1, _LOCAL_BLOCK_CELLS // low.size)
        ls, es = [], []
        for start in range(0, width, step):
            L = np.arange(start, min(start + step, width), dtype=np.int32)
            r, e = np.nonzero((L[:, None] & low) == 0)
            ls.append(L[r])
            es.append(e.astype(np.int32))
        L, e = np.concatenate(ls), np.concatenate(es)
        self._table = np.searchsorted(L, np.arange(width + 1)), L, e
        return self._table

    def first_hit(self, s, floor):
        """The least violating (X, element tuple), or None."""
        if not self.union.size:
            return None
        offsets, Ls, es = self._table or self._build()
        low_mask = (1 << self.wmax) - 1
        start, w = 0, self.w0
        while start < 1 << self.n:
            low, high = start & low_mask, start & ~low_mask
            first, stop = offsets[low], offsets[low + (1 << w)]
            X, e = Ls[first:stop], es[first:stop]
            if high:
                keep = (self.union[e] & high) == 0
                X, e = X[keep] | high, e[keep]
            sums = [s[X | side0[e]] + s[X | side1[e]] for side0, side1 in self.sides]
            bad = np.empty((len(self.others), X.size), dtype=bool)
            for c, others in enumerate(self.others):
                np.greater(sums[c], reduce(np.maximum, [sums[d] for d in others], floor),
                           out=bad[c])
            hit = bad.any(axis=0)
            if hit.size:
                f = int(hit.argmax())
                if hit[f]:
                    # the entries of the same X follow in E order
                    end = f + int(np.searchsorted(X[f:], X[f], side="right"))
                    c, j = np.nonzero(bad[:, f:end])
                    return int(X[f]), min(self.tuples[e[f + jj]][cc] for cc, jj in zip(c, j))
            start += 1 << w
            w = min(start.bit_length() - 1, self.wmax)
        return None


# ----------------------------------------------------------------------
# exchanges among maximizers


def maximizer_exchange(f: SetFunction, X: int, Y: int, I: int) -> int | None:
    """Find J inside Y\\X keeping both swapped sets on the maximizer set.

    X and Y must themselves maximize f.  Returns the smallest such J by
    (cardinality, bitmask), or None when none exists; existence is
    guaranteed for discrete-concave functions.
    """
    return _family_exchange(f.argmax_family, X, Y, I, "does not maximize the function")


def _family_exchange(family: SetFamily, X: int, Y: int, I: int, not_member: str) -> int | None:
    """The J that :func:`find_exchange_set` finds on the family's indicator,
    after the membership checks (``not_member`` ends their message)."""
    for name, S in (("X", X), ("Y", Y)):
        if S not in family.members:
            raise InputError(f"{name}={set_str(S)} {not_member}")
    if I & ~(X & ~Y):
        raise InputError(f"I={set_str(I)} is not a subset of X\\Y={set_str(X & ~Y)}")
    return _exchange_set(family.indicator.ints.sent, X, Y, I)


# ----------------------------------------------------------------------
# family axioms


def check_family(family: SetFamily, axiom: str) -> Verdict:
    """Check a set-family exchange axiom: one of ``b-exc``, ``b-exc-m``,
    ``b-exc-pm``.

    A family passing ``b-exc`` is a generalized matroid.  The witness of a
    failing ``b-exc-pm`` names the clause (``a``: leaving X, ``b``:
    entering Y) that has no repair.
    """
    ax = axiom.strip().lower()
    if ax not in FAMILY_AXIOMS:
        raise InputError(f"unknown family axiom {axiom!r}; expected one of {FAMILY_AXIOMS}")
    if not family.members:
        raise InputError("the family has no members")
    members = family.members

    if ax == "b-exc":
        hit = _exchange_hit(family.indicator.ints, deletion=True)
        if hit is None:
            return Verdict(True)
        return Verdict(False, _family_witness("bnat-exc", members, *hit))
    if ax == "b-exc-m":
        hit = _multi_hit(family.indicator.ints)
        if hit is None:
            return Verdict(True)
        return Verdict(False, _family_multi_witness(family, *hit))
    da = np.array(family.sorted_members, dtype=np.int64)
    mem = np.zeros(1 << family.n, dtype=bool)
    mem[da] = True
    hit = _scan_b_exc_pm(mem, da, da, family.n)
    if hit is None:
        return Verdict(True)
    return Verdict(False, _family_pm_witness(members, *hit))


def is_generalized_matroid(family: SetFamily) -> bool:
    """A family is a generalized matroid exactly when it passes ``b-exc``."""
    return check_family(family, "b-exc").passed


def find_base_exchange(family: SetFamily, X: int, Y: int, I: int) -> int | None:
    """Find J inside Y\\X with (X\\I)uJ and (Y\\J)uI both in the family.

    Minimum |J| first, ties by bitmask.  Returns None when no J exists
    (impossible for matroid basis families).
    """
    return _family_exchange(family, X, Y, I, "is not a member of the family")
