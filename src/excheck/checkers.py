"""Exhaustive checkers for exchange axioms of set functions and set families.

Every checker returns a :class:`Verdict`; a failing verdict carries a
:class:`Witness` naming the violated condition, the quantified tuple, and
both sides of the inequality so the violation can be replayed exactly.
Quantified tuples are scanned in lexicographic bitmask order (X outer, Y
middle, elements or I inner), so witnesses are canonical.

One kernel runs every one-item scan: chunks of X rows, in order, against
every Y, each element i on the grid of rows holding i and columns
missing it.  A function (``mnat-exc`` and ``valuated-matroid``) reaches
it as its cached :class:`IntTable` (``SetFunction.ints``), so repeated
checks of one function rescale it once.  ``valuated-matroid``, after its
cardinality test, is this ``mnat-exc`` scan on an equicardinal domain,
where X-i and Y+i never lie: the deletion term s(X-i) + s(Y+i) is the
sentinel sum 2*neg < 2*lo <= lhs in the integer table and -inf + -inf in
the rational one, so it never repairs a tuple.  The table's array takes
the narrowest of int16, int32 and int64 in which twice the largest
magnitude among its entries and its ``-inf`` sentinel is below 2^14,
2^30 or 2^62, so every two-term sum and every floor is exact, and is an
object array of Python integers otherwise; the same kernel runs on every
dtype, the object one being the exact fallback.  On the grid of i the
kernel is a dominance test: the swap against j repairs a cell when
s(X-i+j) - s(X) >= s(Y) - s(Y+i-j), and the deletion term when
s(X-i) - s(X) >= s(Y) - s(Y+i), so a cell fails when its row's vector of
these differences lies below its column's in every coordinate, which one
comparison over (j, X, Y) decides (see :func:`_first_violation`).  Each
difference is a two-term sum, exact in the table's dtype.  Its (X, Y)
blocks are sized in bytes, so an int16 table sweeps four times the cells
of an int64 one per numpy call.  The least (row-major (X, Y) cell, i) of the
first chunk holding a violation is the first tuple of the lexicographic
order, the first hit of the loop scan that the tests keep as the oracle.

A family reaches every kernel in one form: its boolean membership table
over all 2^n masks, with its ascending members.  On the per-i grid of the
one-item kernel, the family axioms ``b-exc`` and ``b-exc-pm`` and the
domain check of ``local`` (which a box domain, every set between the
common part of the domain and its union, passes without a scan) become
bitmask tests of one sweep (see :func:`_scan_family`); ``b-exc`` is
``mnat-exc`` on the family's indicator function (``SetFamily.indicator``:
0 on the members, -inf elsewhere), which is built only to re-check a hit.
``b-exc-m`` runs on the multi-item kernel as a stack of one membership
row, and ``find_base_exchange`` and ``maximizer_exchange`` search J on
the member set (of the argmax family for the latter).  No family builds
an integer table.

A second kernel runs every multi-item scan: ``mnat-exc-m`` (and so
``snc``), ``b-exc-m`` on the membership row, and the no-complementarities
conditions of :mod:`excheck.econ`.  It reads a stack of rows of one n,
row r at offset r << n: a function or a family is a stack of one row, and
a sampled price sweep passes one membership row per price, its demand set
D(p).  It reads two tables of one dtype, s1 and s2, and J inside Y\\X
repairs a tuple (X, Y, I) when s1(X-I+J) + s2(Y-J+I) >= s1(X) + s2(Y).
The exchange axioms pass one table twice, and so does NC-sim, which is
``b-exc-m`` on D(p); NC, its one-sided form, where only X-I+J must stay
demanded, passes an all-zero s2.  X^I, Y|I and J touch only the low n
bits, and X & ~Y cancels the row offset, so only the forming of cells
knows the stack: each X in a chunk, in order, is paired with the members
Y of its own row.  Cells with X\\Y empty are dropped and the rest
grouped by |X\\Y| alone.  Each cell expands to its (X, Y, I) tuples, I
over the nonzero submasks of X\\Y in ascending order (half of them,
below, when one table is read twice), built once per group, and the J
inside Y\\X are tried level by level: J empty, then every J with
|J| = 1, and so on, each level only on the tuples that no smaller J
repaired.  Levels keep early exits cheap: most tuples are repaired by a
small J, and trying every J at once made the early exits of n = 14 scans
several times slower.  Within a level each cell tries the J of its own
Y\\X, in rounds: first its l lowest bits alone, then the other J of
size l, only on the tuples that one left.  The patterns of size l come
in ascending order, so a cell of width w = |Y\\X| reads the first
comb(w, l) of them and no tuple tries a J twice, however wide the other
cells of its group are.  A tuple still open after its last J is a
violation: after level w, or after its own level on an equicardinal
domain (below).  The least ((X, Y) cell, I) of the first chunk holding
one is again the loop scan's first hit, and on a stack the least failing
row.  The least violation known so far bounds the group: the cells after
it leave the levels still to come, so a table dense in violations stops
after a few cells of its first group.  On an equicardinal domain
(matroid bases, weighted matroids, a stack whose members share one size)
X-I+J lies in the domain only when |J| = |I|, so level 0 is skipped and
level l runs only on the tuples with |I| = l, a contiguous run of the
group's I rows, which are built by size.

With one table on both sides (``s2 is s1``: every form but NC) half the
I are scanned.  For I' = (X\\Y)\\I and J' = (Y\\X)\\J, X-I'+J' is
Y-J+I and Y-J'+I' is X-I+J, so J repairs (X, Y, I) exactly when J'
repairs (X, Y, I'): the same sum of the same two entries, on every
dtype.  I = X\\Y is repaired by J = Y\\X, whose sum is lhs itself.  So
if the least failing I of a cell held X\\Y's top element, its
complement would be a smaller failing I, nonempty; hence the least
failing I is among the nonzero submasks of X\\Y without its top
element, 2^(a-1) - 1 of the 2^a - 1 for a = |X\\Y|, and only these are
built.  Cells with |X\\Y| = 1 have none and are dropped, and on an
equicardinal domain the level |I| = a has no tuples.  The first hit is
still that of the loop scan, which tries every I.  NC's one-sided test
is not symmetric and scans every I: on D = {{2}, {1,2}, {3}} its first
hit is I = {2}, the top element of X\\Y = {1, 2}.

One exact test, :func:`_exchange_verdict`, re-checks every exchange hit
(X, Y, I) before it becomes a witness.  It reads two raw tables t1 and t2
and a domain table, exact forms of what the kernels scan: a function's
rational table three times, a family's indicator (its membership as 0 and
-inf) three times (``b-exc``, ``b-exc-m``, ``local``'s domain), or the
indicator as the domain and as one of the two tables against an all-zero
one for the one-sided forms: (indicator, zero) for clause a of
``b-exc-pm`` and (zero, indicator) for clause b.
:func:`excheck.econ.check_nc_at` passes the indicator of D(p)
twice for NC-sim and (indicator, zero) for NC.  The hit holds when X and Y
are in the domain, which a zero table cannot show, I is a nonempty part
of X\\Y (one element for a one-item hit), and t1(X) + t2(Y) exceeds
t1(X-I+J) + t2(Y-J+I) for every repair J: every J inside Y\\X, or for a
one-item hit J = 0 and the single elements of Y\\X, so no re-check
costs more than the scan of one tuple.  A mismatch raises
:class:`InternalCheckError`.  ``local``'s inequalities keep their own
re-check.

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
array, of whichever dtype.

Measured on 2 cores of an AVX-512 Xeon (CPython 3.11.7, numpy 2.4.6), a
full ``mnat-exc`` scan of min(|S|, n/2), whose table is int16, takes
0.0055-0.0056 s at n = 10, 0.090-0.098 s at n = 12 and 1.20-1.25 s at
n = 14 (medians of 7 and 3 scans per process at n = 10 and 12, one scan
per process at n = 14; three processes each).  A full ``mnat-exc-m``
scan of the same function takes 0.0067-0.0072 s at n = 8, 0.034-0.037 s
at n = 9, 0.19-0.22 s at n = 10, 0.93-1.10 s at n = 11 and 5.8-6.4 s at
n = 12 (best of 3 up to n = 10, one scan at n = 11 and 12; three
processes each, two at n = 12).  On the bases of U(6, 12), ``b-exc`` on
the membership grid takes 6.7-7.0 ms, ``b-exc-pm`` 9.8-10.3 ms (best of
5, three processes) and ``b-exc-m`` 0.091-0.11 s (best of 3, three
processes).  Timed while the host ran about half as fast: ``local`` on
min(|S|, 6) at n = 12 (a box domain, so no domain scan) takes 0.021 s
and on min(|S|, 3) at n = 9 0.8 ms.  On object arrays (min(|S|, n/2)
times 2^70) a full ``mnat-exc`` scan at n = 9 takes 0.068-0.072 s (best
of 5, three processes) and ``mnat-exc-m`` at n = 7 0.0029-0.0032 s
(best of 5, three processes).  Each scan costs at least the fixed
overhead of its numpy calls: on a family at n = 4, ``b-exc`` takes
0.09-0.15 ms, ``b-exc-pm`` 0.12-0.19 ms (2,000 random families per run)
and ``b-exc-m`` 0.11-0.14 ms (2,000 families, each mask a member with
probability 1/2; three runs).
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
# (X, Y) cells, so early exits stay cheap, then growing 8x up to one
# block of cells or _MIN_CAP_ROWS rows, whichever is more; a passing scan
# at n = 9 reads three chunks, and pays each chunk's fixed numpy calls per
# element three times, not seven as with doubling.  An element's column
# tables are kept for the whole scan while they fit _GRID_CACHE_BYTES
# (see _ElementGrids), else rebuilt per chunk.  The (X, Y) work arrays
# hold one block of rows, at most _BLOCK_BYTES of cells or a single row:
# 2^16 cells of an int64 or object table (or of a family's int64 masks),
# 2^18 of an int16 table.  The one-item sweep's boolean (j, X, Y) block
# is not charged to it: it takes at most n - 1 bytes per cell, 3.4 MB
# for an int16 table at n = 14.
_FIRST_CHUNK_CELLS = 1 << 12
_BLOCK_BYTES = 1 << 19
_MIN_CAP_ROWS = 32
_GRID_CACHE_BYTES = 1 << 23


def _scan_per_element(da, n: int, prepare, itemsize: int, col_bytes: int):
    """Earliest (X, Y, i-bit) over X and Y in ``da`` that one of the per-i grids flags.

    ``prepare(b, yc)`` gets the bit b of i and the columns ``yc`` missing it
    and returns ``sweep(xr)``: for rows ``xr``, all holding i, the row-major
    index of the least flagged cell of the grid against ``yc``, or None.
    The sweep's (X, Y) work arrays have ``itemsize`` bytes per cell, and
    the tables ``prepare`` keeps about ``col_bytes`` per column; a sweep
    may also build one byte per cell and per j (the one-item kernel's
    dominance block), at most (n - 1) * _BLOCK_BYTES / ``itemsize`` bytes.
    X rows go in chunks, in order: the first of about _FIRST_CHUNK_CELLS
    cells, then growing 8x up to one block of cells or _MIN_CAP_ROWS rows.
    """
    ncols = len(da)
    block = _BLOCK_BYTES // itemsize
    cap = max(_MIN_CAP_ROWS, block // ncols)
    grids = _ElementGrids(da, prepare, col_bytes)
    start, rows = 0, max(1, _FIRST_CHUNK_CELLS // ncols)
    while start < ncols:
        chunk = da[start : start + rows]
        hit = _grid_chunk(da, chunk, n, grids, block)
        if hit is not None:
            r, c, i = hit
            return int(chunk[r]), int(da[c]), 1 << i
        start, rows = start + rows, min(8 * rows, cap)
    return None


class _ElementGrids:
    """Element i's columns missing i and the sweep ``prepare`` builds on them.

    Each pair is built on first use, so a scan that exits early builds no
    more than it reaches.  It is kept while the kept pairs fit
    _GRID_CACHE_BYTES, estimated at ``col_bytes`` per column; past that it
    is rebuilt on every use.
    """

    def __init__(self, da, prepare, col_bytes: int):
        self.da = da
        self.prepare = prepare
        self.col_bytes = col_bytes
        self.room = _GRID_CACHE_BYTES
        self.kept = {}

    def __call__(self, i: int):
        got = self.kept.get(i)
        if got is None:
            b = 1 << i
            ci = np.flatnonzero((self.da & b) == 0)
            got = ci, self.prepare(b, self.da[ci]) if ci.size else None
            size = ci.size * self.col_bytes
            if size <= self.room:
                self.room -= size
                self.kept[i] = got
        return got


def _grid_chunk(da, xa, n: int, grids, block: int):
    """Least (row, column, i) of one chunk that a sweep flags, or None.

    For each i the grid narrows to rows with i in X and columns with i not
    in Y, and is swept in blocks of rows, at most ``block`` cells each.
    Row-major order on the narrowed grid is the order on the full grid, so
    the least (flat index, i) over all i is the loop scan's first hit.
    """
    ncols = len(da)
    found = None
    for i in range(n):
        b = 1 << i
        ri = np.flatnonzero(xa & b)
        if found is not None:
            ri = ri[ri <= found[0] // ncols]  # later rows cannot come first
        if not ri.size:
            continue
        ci, sweep = grids(i)
        if not ci.size:
            continue
        step = max(1, block // ci.size)
        for lo in range(0, ri.size, step):
            rb = ri[lo : lo + step]
            k = sweep(xa[rb])
            if k is not None:
                key = (int(rb[k // ci.size]) * ncols + int(ci[k % ci.size]), i)
                if found is None or key < found:
                    found = key
                break
    if found is None:
        return None
    flat, i = found
    return flat // ncols, flat % ncols, i


@lru_cache(maxsize=None)
def _element_bits(n: int):
    """The column of single-bit masks 1 << i, i < n (read-only, shared)."""
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))[:, None]
    bits.flags.writeable = False
    return bits


def _scan_exchange_np(sa, da, neg: int):
    """Vectorized kernel: the earliest violating (X, Y, i-bit) over X and Y
    in ``da``, or None, on the sentinel table ``sa`` (``-inf`` entries
    replaced by ``neg``); chunks of X rows, in order, against every Y.

    ``neg`` becomes a scalar of the table's dtype, which the guard of
    :class:`IntTable` admits, so the work arrays keep that dtype under
    either numpy promotion rule (value-based before numpy 2).  The column
    side of the dominance test (see :func:`_first_violation`) is built
    once per element: for each j held by some column, s(Y) - s(Y+i-j),
    or s(Y) - neg where j is not in Y, and the deletion term s(Y) - s(Y+i).
    """
    n = len(sa).bit_length() - 1
    bits = _element_bits(n)
    neg = sa.dtype.type(neg)

    def prepare(b, yc):
        yi = yc | b
        y_has = (yc & bits) != 0
        js = np.flatnonzero(y_has.any(axis=1))
        jb, sy = bits[js], sa[yc]
        yb = sy - np.where(y_has[js], sa[yi ^ jb], neg)
        y0 = sy - sa[yi]
        return lambda xr: _first_violation(sa, xr, b, y0, yb, jb, neg)

    # charged per column: yb and y0, at most n entries, and n bytes to spare
    return _scan_per_element(da, n, prepare, sa.itemsize, n * (sa.itemsize + 1))


def _first_violation(sa, xr, b: int, y0, yb, jb, neg: int):
    """Row-major index of the first cell (X, Y) that no term repairs, or None.

    Rows are X (``xr``, all holding i = ``b``), columns Y.  Term j repairs
    the cell when s(X-i+j) + s(Y+i-j) >= s(X) + s(Y), that is when
    A_j(X) = s(X-i+j) - s(X) is at least B_j(Y) = s(Y) - s(Y+i-j); the
    deletion term compares s(X-i) - s(X) with ``y0`` = s(Y) - s(Y+i).  So
    a cell fails exactly when A < B in every coordinate, which one
    (j, rows, columns) comparison decides.  ``jb`` holds the bits of the
    j that some column holds, one per row of ``yb`` = B; A reads ``neg``
    in place of s(X-i+j) where j is in X, and ``yb`` reads s(Y) - neg
    where j is not in Y.  A term with ``neg`` on either side never
    repairs: its sum is below 2*lo <= s(X) + s(Y).  So a j that every row
    holds is dropped, which on consecutive rows are the high bits set in
    their common prefix.

    Each entry of A and B is the difference of two entries of the table
    (or of one and ``neg``), a two-term sum, which the table's dtype holds
    exactly (see :func:`~excheck._fast.int_dtype`), so the work arrays
    stay in it and the object route runs unchanged.  The boolean block has
    a byte per cell and per j, at most n - 1 times the cells of the sweep.
    """
    sx = sa[xr]
    xi = xr ^ b
    x_has = (xi & jb) != 0
    js = ~x_has.all(axis=1)  # a j in every row repairs no cell
    xa = np.where(x_has[js], neg, sa[xi | jb[js]]) - sx
    bad = ((sa[xi] - sx)[:, None] < y0) & (xa[:, :, None] < yb[js][:, None, :]).all(axis=0)
    bad = bad.ravel()
    k = int(bad.argmax())
    return k if bad[k] else None


# ----------------------------------------------------------------------
# the multi-item exchange kernel (see the module docstring)

# Chunks of X stop at this many (X, Y) cells (or one X), a group's block
# of cells at this many (X, Y, I) tuples (or one cell), and one block of a
# level's later J at this many (X, Y, I, J) (or one tuple).
_MULTI_BLOCK = 1 << 13


def _stack_hit(mem, one_sided: bool):
    """The least (row, X, Y, I) that no J repairs on a stack of families, or None.

    ``mem`` is a boolean rows x 2^n membership matrix.  Row r is read as
    the indicator table of its family (0 on members, -1 elsewhere) at
    offset r << n, so a cell pairs two members of one row.  A tuple is
    repaired by J inside Y\\X when X-I+J and Y-J+I are both members
    (``b-exc-m``), or, ``one_sided``, when X-I+J is (the second table is
    all zero).
    """
    n = mem.shape[1].bit_length() - 1
    flat = mem.ravel()
    s1 = flat.astype(np.int8) - 1
    s2 = np.zeros_like(s1) if one_sided else s1
    hit = _scan_multi_np(s1, s2, np.flatnonzero(flat), n)
    if hit is None:
        return None
    X, Y, I = hit
    low = (1 << n) - 1
    return X >> n, X & low, Y & low, I


def _scan_multi_np(s1, s2, da, n: int):
    """Vectorized multi-item kernel on a stack of rows: the least (X, Y, I)
    with s1(X-I+J) + s2(Y-J+I) < s1(X) + s2(Y) for every J inside Y\\X.

    ``da`` holds the ascending members of every row, each mask carrying
    its row's offset r << n; X^I, Y|I and the J touch only the low n bits,
    and X & ~Y cancels the offset.  A cell pairs X with each member Y of
    its own row, in ascending (X, Y) order.  Chunks of X grow as in the
    one-item kernel but stop at _MULTI_BLOCK cells: there are no per-chunk
    column tables to spread over more rows, and smaller chunks keep the
    work arrays and the overshoot of an early exit small.
    """
    pc = _popcounts(n)
    sizes = pc[da & ((1 << n) - 1)]
    equi = bool((sizes == sizes[:1]).all())
    # each X's first Y in da and its (X, Y) cells: its row's start and size
    row = da >> n
    edges = np.concatenate(([0], np.flatnonzero(row[1:] != row[:-1]) + 1, [da.size]))
    size = edges[1:] - edges[:-1]
    first, cells = np.repeat(edges[:-1], size), np.repeat(size, size)
    ends = np.cumsum(cells)
    start, target = 0, min(_FIRST_CHUNK_CELLS, _MULTI_BLOCK)
    while start < da.size:
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + target, "right")))
        cnt = cells[start:stop]
        # cell k of the chunk reads Y at da[k + shift]
        shift = np.repeat(first[start:stop] - (np.cumsum(cnt) - cnt), cnt)
        X, Y = np.repeat(da[start:stop], cnt), da[np.arange(shift.size) + shift]
        hit = _multi_chunk(s1, s2, X, Y, pc, equi)
        if hit is not None:
            return hit
        start, target = stop, min(2 * target, _MULTI_BLOCK)
    return None


def _multi_chunk(s1, s2, X, Y, pc, equi: bool):
    """Least (X, Y, I) over the ascending cells (X, Y) that no J repairs, or None.

    Cells with X\\Y nonempty are grouped by |X\\Y| and stay in (X, Y)
    order within a group; I runs over the nonzero submasks of X\\Y in
    ascending order.  So the least (cell, I) over all groups is the loop
    scan's first hit, and once a group has one, later groups need only
    the cells before it.  With ``s2 is s1`` a cell's I and its
    complement in X\\Y fail together (see the module docstring), and
    the only I of a cell with |X\\Y| = 1 is repaired by J = Y\\X, so
    those cells are dropped.
    """
    xd = X & ~Y
    cell = np.flatnonzero(xd & (xd - 1) if s2 is s1 else xd)
    X, Y, xd = X[cell], Y[cell], xd[cell]
    width = pc[xd]
    found = None
    for a in np.flatnonzero(np.bincount(width)).tolist():
        g = np.flatnonzero(width[: X.size if found is None else found[0]] == a)
        if not g.size:
            continue
        x, y = X[g], Y[g]
        hit = _multi_group(s1, s2, x, y, xd[g], y & ~x, a, pc, equi)
        if hit is not None:
            c, I = hit
            found = (int(g[c]), I)
    if found is None:
        return None
    c, I = found
    return int(X[c]), int(Y[c]), I


def _multi_group(s1, s2, X, Y, xd, yd, a: int, pc, equi: bool):
    """Least (cell, I) of one group, |X\\Y| = a, that no J repairs, or None.

    With ``s2 is s1`` the I are built from the a - 1 lowest bits of X\\Y:
    an I holding the top bit fails only when its complement, a smaller I,
    does (see the module docstring), so the least failing I is among
    these.  The one-sided form builds every I.  The group's cells go in
    blocks of whole cells, and a block's I are built once, in rows
    ordered by size.  Level l tries the J of size l inside each cell's
    own Y\\X, so a cell of width w = |Y\\X| tries comb(w, l) of them,
    each once: first its l lowest bits alone, then the rest only on the
    (X, Y, I) tuples that one left (:func:`_later_tries`).  A tuple
    still open after its last J is a violation; the least known one
    bounds the block, and the cells after it leave the levels still to
    come.

    Without ``equi`` every tuple goes through level 0 (J empty) and then
    levels 1, 2, ... on whatever no smaller J repaired, so a tuple of
    width w is settled after level w's first J, its only one.  On an
    ``equi``-cardinal domain X-I+J is in the domain only when |J| = |I|,
    so level 0 repairs nothing and level l tries only the tuples with
    |I| = l, a contiguous run of the block's I rows, each settled after
    its level's last J.
    """
    k = a - 1 if s2 is s1 else a  # I is built from the k lowest bits of X\Y
    rows, starts = _by_size(k)
    vals = rows + 1  # the pattern of each I row
    step = max(1, _MULTI_BLOCK // vals.size)
    for lo in range(0, X.size, step):
        hi = lo + step
        I = _submasks(_low_bits(xd[lo:hi], k))[rows]  # row t: each cell's I of pattern vals[t]
        xi, yi = X[lo:hi] ^ I, Y[lo:hi] | I
        lhs = s1[X[lo:hi]] + s2[Y[lo:hi]]
        ydb = yd[lo:hi]
        w = pc[ydb]
        cells, hit = lhs.size, None
        xf, yf = xi.ravel(), yi.ravel()
        first, rest = 0, ydb  # first: each cell's l lowest bits of Y\X, its first J of size l
        if equi:
            for size in range(1, k + 1):
                bit = rest & -rest
                first, rest = first | bit, rest ^ bit
                r0, r1 = starts[size - 1], starts[size]  # the I rows with |I| = size
                bound = cells if hit is None else hit % cells + 1
                t, c = np.nonzero(_unrepaired(s1, s2, xi[r0:r1, :bound], yi[r0:r1, :bound],
                                              lhs[:bound], first[:bound]))
                open_ = (t + r0) * cells + c
                if open_.size and a > size:
                    open_ = _later_tries(s1, s2, xf, yf, lhs, ydb, w, open_, size)
                if open_.size:
                    hit = _least(open_ if hit is None else np.append(open_, hit), cells, vals)
        else:
            open_ = np.flatnonzero(_unrepaired(s1, s2, xi, yi, lhs))
            size = 0
            while open_.size:
                c = open_ % cells
                if size:
                    left = _unrepaired(s1, s2, xf[open_], yf[open_], lhs[c], first[c])
                    open_, c = open_[left], c[left]
                done = w[c] == size  # past their last J: violations
                if done.any():
                    hit = _least(open_[done], cells, vals)
                    open_ = open_[c < hit % cells]
                if size and open_.size:
                    open_ = _later_tries(s1, s2, xf, yf, lhs, ydb, w, open_, size)
                bit = rest & -rest
                first, rest, size = first | bit, rest ^ bit, size + 1
        if hit is not None:
            return lo + hit % cells, int(I.flat[hit])
    return None


def _unrepaired(s1, s2, xi, yi, lhs, J=None):
    """Whether J leaves each tuple unrepaired, elementwise: s1(X-I+J) +
    s2(Y-J+I) below ``lhs`` = s1(X) + s2(Y), from ``xi`` = X-I and
    ``yi`` = Y+I (the arrays broadcast; J None is the empty set)."""
    if J is None:
        return s1[xi] + s2[yi] < lhs
    return s1[xi | J] + s2[yi ^ J] < lhs


def _later_tries(s1, s2, xi, yi, lhs, yd, w, open_, size: int):
    """The entries of ``open_`` that none of their level's later J repairs.

    An entry indexes the flat ``xi`` = X-I and ``yi`` = Y+I, cell fastest
    (``lhs``, ``yd`` = Y\\X and its size ``w`` are per cell).  Its cell
    of width w tries the J of rows 1 to comb(w, size) - 1 of ``_pick(b,
    size)``, deposited on the bits of its Y\\X: after the level's first
    J, the rest of those inside the cell's own w bits, each once.
    (entry, J) pairs go in blocks of at most _MULTI_BLOCK, or one entry.
    """
    cells = lhs.size
    c = open_ % cells
    b = int(w[c].max())
    ybits = _low_bits(yd[c], b)  # column j: the bits of entry j's Y\X
    pos = _pick(b, size)
    tries = np.searchsorted(pos[:, -1], w[c]) - 1  # the rows past the first inside w bits
    ends = np.cumsum(tries)
    keep, start = [], 0
    while start < open_.size:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _MULTI_BLOCK, "right")))
        cnt = tries[start:stop]
        seg = np.repeat(np.arange(start, stop), cnt)  # the entry of each pair
        row = np.arange(1, seg.size + 1) - np.repeat(ends[start:stop] - cnt - base, cnt)
        J = ybits[pos[row], seg[:, None]].sum(axis=1)
        e = open_[seg]
        left = np.ones(stop - start, dtype=bool)
        left[seg[~_unrepaired(s1, s2, xi[e], yi[e], lhs[c[seg]], J)] - start] = False
        keep.append(open_[start:stop][left])
        start = stop
    return np.concatenate(keep)


def _least(e, cells: int, vals):
    """The entry of ``e`` (flat indices, cell fastest, into I rows of
    patterns ``vals``) with the least (cell, I)."""
    c, t = e % cells, e // cells
    return int(e[np.argmin(c * (vals.size + 1) + vals[t])])


@lru_cache(maxsize=None)
def _popcounts(n: int):
    """Popcount of every mask below 2^n (read-only, shared)."""
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        pc[1 << i : 2 << i] = pc[: 1 << i] + 1
    pc.flags.writeable = False
    return pc


def _low_bits(v, k: int):
    """Row j holds the j-th lowest set bit of each entry of ``v``."""
    out = np.empty((k, v.size), dtype=np.int64)
    rest = v.copy()
    for j in range(k):
        out[j] = rest & -rest
        rest ^= out[j]
    return out


def _submasks(bits):
    """Row t: the sum of the rows of ``bits`` (single-bit masks, one row per
    bit) that pattern t + 1 selects, so each column's nonzero submasks of
    its bits in ascending order."""
    out = bits[:1]
    for b in bits[1:]:
        out = np.concatenate([out, b[None], out + b])
    return out


@lru_cache(maxsize=None)
def _by_size(k: int):
    """The rows of :func:`_submasks` over k bits by size, then value, and
    the position where each size starts (read-only, shared)."""
    sizes = _popcounts(k)[1:]
    rows = np.argsort(sizes, kind="stable")
    rows.flags.writeable = False
    return rows, tuple(np.searchsorted(sizes[rows], np.arange(1, k + 2)).tolist())


@lru_cache(maxsize=None)
def _pick(k: int, size: int):
    """The bit positions of the k-bit patterns of popcount ``size``, one
    row per pattern in ascending order, so the patterns inside the first
    w bits are the first comb(w, size) rows (read-only, shared)."""
    pats = np.flatnonzero(_popcounts(k) == size)
    out = np.nonzero((pats[:, None] >> np.arange(k)) & 1)[1].reshape(pats.size, size)
    out.flags.writeable = False
    return out


# ----------------------------------------------------------------------
# families on the kernels


def _scan_family(mem, da, n: int, pm: bool):
    """Earliest (X, Y, i-bit) over X and Y in ``da`` that b-exc, or with
    ``pm`` b-exc-pm, fails.

    ``mem`` is the boolean membership table and ``da`` the ascending
    members.  On the grid of element i, ``jmask`` packs, per row, the j
    outside X with X-i+j a member, and ``kmask``, per column, the k in Y
    with Y+i-k a member; so ``jmask & kmask`` packs the j in Y\\X that
    keep both swapped sets in the family.  b-exc fails where X-i and Y+i
    are not both members and ``jmask & kmask`` is zero.  b-exc-pm's
    clause a fails where X-i is no member and jmask & Y == 0, clause b
    where Y+i is no member and kmask & ~X == 0; the hit does not say
    which.
    """
    bits = _element_bits(n)

    def prepare(b, yc):
        yi = yc | b
        kmask = np.where(((yc & bits) != 0) & mem[yi ^ bits], bits, 0).sum(axis=0)
        y_in = mem[yi]

        def sweep(xr):
            xi = xr ^ b
            jmask = np.where(((xr & bits) == 0) & mem[xi | bits], bits, 0).sum(axis=0)[:, None]
            x_in = mem[xi][:, None]
            if pm:
                bad = (~x_in & ((jmask & yc) == 0)) | (~y_in & ((kmask & ~xr[:, None]) == 0))
            else:
                bad = ~(x_in & y_in) & ((jmask & kmask) == 0)
            bad = bad.ravel()
            k = int(bad.argmax())
            return k if bad[k] else None

        return sweep

    # charged per column: yc, yi and kmask (int64) and y_in; it keeps no
    # n x columns table
    return _scan_per_element(da, n, prepare, 8, 25)


# ----------------------------------------------------------------------
# re-checks of kernel hits on the raw data


def _recheck(holds: bool, witness: Witness) -> Witness:
    """Return the witness of a kernel hit; raise unless the raw data violate it."""
    if not holds:
        raise InternalCheckError(
            f"the scan reported {witness.describe()}, which the raw data do not violate"
        )
    return witness


def _exchange_verdict(condition: str, hit, t1, t2, dom, *, one_item: bool = False,
                      values: bool = False, prices=()) -> Verdict:
    """The verdict of an exchange kernel's hit (X, Y, I), re-checked on raw tables.

    The tables are the kernels' own, read exactly: the hit is a violation
    when X and Y lie in the domain (finite in ``dom``), I is a nonempty
    part of X\\Y, and t1(X) + t2(Y) > t1(X-I+J) + t2(Y-J+I) for every J
    inside Y\\X.  A ``one_item`` hit has a single element in I and tries
    only J = 0 and the single elements of Y\\X.  A
    function passes its table three times and its witness keeps both sides
    (``values``); a family passes its indicator (0 on members, -inf
    elsewhere) as ``dom`` and as both tables, or as one of them against an
    all-zero table for the one-sided conditions.  A hit the tables do not
    violate raises :class:`InternalCheckError`.
    """
    if hit is None:
        return Verdict(True)
    X, Y, I = hit
    if one_item:
        repairs = [0, *iter_bits(Y & ~X)]
        named = {"sets": (("X", X), ("Y", Y)), "elements": (("i", I.bit_length()),)}
    else:
        repairs = iter_submasks(Y & ~X)
        named = {"sets": (("X", X), ("Y", Y), ("I", I))}
    lhs = t1[X] + t2[Y]
    rhs = max((t1[(X ^ I) | J] + t2[(Y & ~J) | I] for J in repairs), default=NEG_INF)
    holds = (
        is_finite(dom[X]) and is_finite(dom[Y]) and bool(I) and not I & ~(X & ~Y)
        and (not one_item or I.bit_count() == 1) and lhs > rhs
    )
    if values:
        named.update(lhs=lhs, rhs=rhs)
    return Verdict(False, _recheck(holds, Witness(condition, prices=prices, **named)))


# ----------------------------------------------------------------------
# single-item exchange (discrete concavity)


def check_single_exchange(f: SetFunction) -> Verdict:
    """Check the one-item exchange axiom of discrete concavity.

    For every X, Y in the effective domain and i in X\\Y the sum f(X)+f(Y)
    must not exceed the best of removing i from X (adding it to Y) or
    swapping i against some j in Y\\X.  Tuples with an infinite left-hand
    side hold vacuously.
    """
    t, tab = f.ints, f.table
    hit = _scan_exchange_np(t.sent, t.dom, t.neg)
    return _exchange_verdict("mnat-exc", hit, tab, tab, tab, one_item=True, values=True)


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
    # entries are read as Python integers, so the sums are exact on every
    # dtype, and a sum holding the sentinel is below every finite lhs
    s = f.ints.sent
    lhs = s.item(X) + s.item(Y)
    for J in submasks_smallest_first(Y & ~X):
        if s.item((X ^ I) | J) + s.item((Y & ~J) | I) >= lhs:
            tab = f.table
            return ExchangeCertificate(
                j_set=J, lhs=tab[X] + tab[Y], rhs=tab[(X ^ I) | J] + tab[(Y & ~J) | I]
            )
    return None


def check_multiple_exchange(f: SetFunction) -> Verdict:
    """Check the multi-item exchange axiom over every (X, Y, I).

    Worst-case cost grows as the sum over (X, Y) of
    (2^(|X\\Y|-1) - 1) * 2^|Y\\X|, the I without X\\Y's top element
    times the J: about 6^n / 2 on the full cube, hence the documented
    exhaustive-scan cap.
    """
    t, tab = f.ints, f.table
    hit = _scan_multi_np(t.sent, t.sent, t.dom, t.n)
    return _exchange_verdict("mnat-exc-m", hit, tab, tab, tab, values=True)


# ----------------------------------------------------------------------
# valuated matroids


def check_valuated_matroid(f: SetFunction) -> Verdict:
    """Check the valuated-matroid axioms.

    The effective domain must be equi-cardinal and every (X, Y, i) must
    admit a value-preserving swap against some j in Y\\X.  On such a
    domain X-i and Y+i are never in it, so this is the ``mnat-exc`` scan
    under its own condition name.
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

    t, tab = f.ints, f.table
    hit = _scan_exchange_np(t.sent, t.dom, t.neg)
    return _exchange_verdict("valuated-matroid:exchange", hit, tab, tab, tab, one_item=True,
                             values=True)


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
        hit = _scan_family(t.sent != t.neg, t.dom, t.n, pm=False)
        if hit is not None:
            dom = effective_domain(f).indicator.table
            return _exchange_verdict("local:domain", hit, dom, dom, dom, one_item=True)

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
        """The least violating (X, element tuple), or None.  ``floor``
        becomes a scalar of the table's dtype, as in the one-item kernel."""
        if not self.union.size:
            return None
        floor = s.dtype.type(floor)
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
    """The least J inside Y\\X by (|J|, mask) with X-I+J and Y-J+I both
    members, after :func:`~excheck.core.validate_exchange_args`
    (``not_member`` ends its membership message)."""
    validate_exchange_args(family, X, Y, I, not_member)
    members = family.members
    for J in submasks_smallest_first(Y & ~X):
        if ((X ^ I) | J) in members and ((Y & ~J) | I) in members:
            return J
    return None


# ----------------------------------------------------------------------
# family axioms


def check_family(family: SetFamily, axiom: str) -> Verdict:
    """Check a set-family exchange axiom: one of ``b-exc``, ``b-exc-m``,
    ``b-exc-pm``.

    A family passing ``b-exc`` is a generalized matroid.  The witness of a
    failing ``b-exc-pm`` names the clause (``a``: leaving X, ``b``:
    entering Y) that has no repair.
    """
    ax = axiom.strip().lower() if isinstance(axiom, str) else None
    if ax not in FAMILY_AXIOMS:
        raise InputError(f"unknown family axiom {axiom!r}; expected one of {FAMILY_AXIOMS}")
    if not family.members:
        raise InputError("the family has no members")
    # the form in which a family reaches every kernel: its boolean
    # membership table and its ascending members
    da = np.array(family.sorted_members, dtype=np.int64)
    mem = np.zeros(1 << family.n, dtype=bool)
    mem[da] = True
    if ax == "b-exc-m":
        hit = _stack_hit(mem[None], one_sided=False)
    else:
        hit = _scan_family(mem, da, family.n, pm=ax == "b-exc-pm")
    if hit is None:
        return Verdict(True)
    dom = family.indicator.table
    if ax == "b-exc-m":
        return _exchange_verdict("bnat-exc-m", hit[1:], dom, dom, dom)
    if ax == "b-exc":
        return _exchange_verdict("bnat-exc", hit, dom, dom, dom, one_item=True)
    # clause a (X-i+J stays a member) comes first on one (X, Y, i); it
    # fails unless X-i or some X-i+j with j in Y\X is a member
    X, Y, ib = hit
    zero = (0,) * len(dom)
    if any(((X ^ ib) | j) in family.members for j in (0, *iter_bits(Y & ~X))):
        return _exchange_verdict("bnat-exc-pm:b", hit, zero, dom, dom, one_item=True)
    return _exchange_verdict("bnat-exc-pm:a", hit, dom, zero, dom, one_item=True)


def is_generalized_matroid(family: SetFamily) -> bool:
    """A family is a generalized matroid exactly when it passes ``b-exc``."""
    return check_family(family, "b-exc").passed


def find_base_exchange(family: SetFamily, X: int, Y: int, I: int) -> int | None:
    """Find J inside Y\\X with (X\\I)uJ and (Y\\J)uI both in the family.

    Minimum |J| first, ties by bitmask.  Returns None when no J exists
    (impossible for matroid basis families).
    """
    return _family_exchange(family, X, Y, I, "is not a member of the family")
