"""Exhaustive checkers for exchange axioms of set functions and set families.

Every checker returns a :class:`Verdict`; a failing verdict carries a
:class:`Witness` naming the violated condition, the quantified tuple, and
both sides of the inequality so the violation can be replayed exactly.
Quantified tuples are scanned in lexicographic bitmask order (X outer, Y
middle, elements or I inner), so witnesses are canonical.  The sweeps may
be partitioned across threads; contiguous chunks reduce to the earliest
hit, which keeps the reported witness identical for any thread count.

One kernel runs every one-item scan: ``mnat-exc``, ``valuated-matroid``
(which has no deletion branch), the family axiom ``b-exc`` and the domain
check of ``local``.  A family F is scanned as its indicator table, 0 on F
and -1 elsewhere, on which ``b-exc`` is exactly ``mnat-exc``.  The kernel
reads the integer table of :class:`IntTable`.  When twice the largest
magnitude among its entries and its ``-inf`` sentinel is below 2^62, every
two-term sum is exact in int64 and the scan is vectorized with numpy:
chunks of X rows, in order, against every Y, each element i on the grid of
rows holding i and columns missing it.  Otherwise, and for domains of fewer
than 32 sets, where numpy's call overhead loses, the same scan runs as
loops over Python integers of any size.  Both routes return the same
first violation: the least (row-major (X, Y) cell, i) of the first chunk
holding one is the first tuple of the lexicographic order.  Every hit is
re-checked on the raw rational table, or the family's members, before it
becomes a witness; a mismatch raises :class:`InternalCheckError`.

Measured on 2 cores (CPython 3.11.7, numpy 2.4.6), a full ``mnat-exc``
scan of min(|S|, n/2) takes about 0.06 s at n = 10, 1.4 s at n = 12 and
12-14 s at n = 14; ``local`` takes 1.5 s at n = 12, most of it the domain
check.  The multi-item scans (``mnat-exc-m``, ``b-exc-m``) are still
loops: about 0.3 s at n = 8, 1.3 s at n = 9 and 10 s at n = 10.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._fast import IntTable
from .core import PriceVector, SetFamily, SetFunction, validate_exchange_args
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


def _first_hit(items, scan, threads: int):
    """Run ``scan`` over contiguous chunks of ``items``; earliest hit wins."""
    if threads <= 1 or len(items) <= 8:
        return scan(items)
    nchunks = min(len(items), threads * 4)
    step = (len(items) + nchunks - 1) // nchunks
    chunks = [items[i : i + step] for i in range(0, len(items), step)]
    hit = None
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(scan, chunk) for chunk in chunks]
        for fut in futures:
            result = fut.result()
            if result is not None:
                hit = result
                break
    return hit


# ----------------------------------------------------------------------
# the one-item exchange kernel (see the module docstring for its routes)

# Two-term sums are exact in int64 while twice the largest magnitude is below this.
_INT64_SAFE = 1 << 62
# Below this many (X, Y) cells numpy's per-call overhead loses to the loops.
_VECTOR_MIN_CELLS = 1 << 10
# X rows go in chunks, in order: the first of about _FIRST_CHUNK_CELLS
# (X, Y) cells, so early exits stay cheap, then doubling up to
# _BLOCK_CELLS cells or _MIN_CAP_ROWS rows, whichever is more.  Column
# tables are built once per chunk and element; the (X, Y) work arrays hold
# one block of rows, at most _BLOCK_CELLS cells or a single row.
_FIRST_CHUNK_CELLS = 1 << 12
_BLOCK_CELLS = 1 << 16
_MIN_CAP_ROWS = 32


def _fits_int64(neg: int, lo: int, hi: int) -> bool:
    return 2 * max(abs(neg), abs(lo), abs(hi)) < _INT64_SAFE


def _exchange_scanner(s, dom, neg: int, lo: int, hi: int, deletion: bool):
    """Return ``scan(xs)``: the earliest violating (X, Y, i-bit) with X in xs.

    ``s`` is a sentinel table (``-inf`` entries replaced by ``neg``, as in
    :class:`IntTable`) and ``dom`` the ascending masks of its finite
    entries.  With ``deletion`` the rhs includes s(X-i) + s(Y+i)
    (mnat-exc); without it the empty swap maximum is the floor 2*neg - 1,
    below every two-term sum (valuated matroids).
    """
    floor = None if deletion else 2 * neg - 1
    if not _fits_int64(neg, lo, hi) or len(dom) ** 2 < _VECTOR_MIN_CELLS:
        return lambda xs: _scan_exchange_py(s, dom, xs, floor)
    sa = np.array(s, dtype=np.int64)
    da = np.array(dom, dtype=np.int64)
    return lambda xs: _scan_exchange_np(sa, da, xs, neg, floor)


def _scan_exchange_py(s, dom, xs, floor):
    """Loop form of the kernel: exact for integers of any size."""
    for X in xs:
        fx = s[X]
        for Y in dom:
            lhs = fx + s[Y]
            xd = X & ~Y
            while xd:
                ib = xd & -xd
                xd ^= ib
                xi = X ^ ib
                yi = Y | ib
                best = s[xi] + s[yi] if floor is None else floor
                if lhs > best:
                    yd = Y & ~X
                    while yd:
                        jb = yd & -yd
                        yd ^= jb
                        cand = s[xi | jb] + s[yi ^ jb]
                        if cand > best:
                            best = cand
                            if lhs <= best:
                                break
                    if lhs > best:
                        return (X, Y, ib)
    return None


def _scan_exchange_np(sa, da, xs, neg: int, floor):
    """Vectorized kernel: chunks of X rows, in order, against every Y."""
    ncols = len(da)
    xa = np.array(xs, dtype=np.int64)
    n = len(sa).bit_length() - 1
    rows = max(1, _FIRST_CHUNK_CELLS // ncols)
    cap = max(_MIN_CAP_ROWS, _BLOCK_CELLS // ncols)
    start = 0
    while start < len(xa):
        chunk = xa[start : start + rows]
        hit = _exchange_chunk(sa, da, chunk, n, neg, floor)
        if hit is not None:
            r, c, i = hit
            return int(chunk[r]), int(da[c]), 1 << i
        start += rows
        rows = min(2 * rows, cap)
    return None


def _exchange_chunk(sa, da, xa, n: int, neg: int, floor):
    """Least (row, column, i) of one chunk that violates the exchange, or None.

    For each i the grid narrows to rows with i in X and columns with i not
    in Y, and is swept in blocks of rows.  Row-major order on the narrowed
    grid is the order on the full grid, so the least (flat index, i) over
    all i is the loop scan's first hit.
    """
    ncols = len(da)
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))[:, None]
    found = None
    for i in range(n):
        b = 1 << i
        ri = np.flatnonzero(xa & b)
        if found is not None:
            ri = ri[ri <= found[0] // ncols]  # later rows cannot come first
        ci = np.flatnonzero((da & b) == 0)
        if not ri.size or not ci.size:
            continue
        yc = da[ci]
        yi = yc | b
        y_has = (yc & bits) != 0
        cv = np.where(y_has, sa[yi ^ bits], neg)
        sy, y_any = sa[yc], y_has.any(axis=1)
        step = max(1, _BLOCK_CELLS // ci.size)
        for lo in range(0, ri.size, step):
            rb = ri[lo : lo + step]
            xr = xa[rb]
            k = _first_violation(sa, sa[xr], sy, xr ^ b, yi, cv, y_any, bits, neg, floor)
            if k is not None:
                key = (int(rb[k // ci.size]) * ncols + int(ci[k % ci.size]), i)
                if found is None or key < found:
                    found = key
                break
    if found is None:
        return None
    flat, i = found
    return flat // ncols, flat % ncols, i


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
        best = np.full((xi.size, yi.size), floor, dtype=np.int64)
    tmp = np.empty_like(best)
    x_has = (xi & bits) != 0
    rv = np.where(x_has, neg, sa[xi | bits])
    for j in np.flatnonzero(~x_has.all(axis=1) & y_any):
        np.add(rv[j][:, None], cv[j], out=tmp)
        np.maximum(best, tmp, out=best)
    bad = (np.add(sx[:, None], sy, out=tmp) > best).ravel()
    k = int(bad.argmax())
    return k if bad[k] else None


def _scan_indicator(size: int, members, threads: int):
    """Earliest b-exc violation of a family: the mnat-exc scan of its indicator.

    The indicator is 0 on the ascending ``members`` and -1 elsewhere, which
    is IntTable's sentinel table of the zero function on the family.
    """
    delta = [-1] * size
    for m in members:
        delta[m] = 0
    scan = _exchange_scanner(delta, members, -1, 0, 0, deletion=True)
    return _first_hit(members, scan, threads)


def _recheck(holds: bool, condition: str, X: int, Y: int, ib: int) -> None:
    """Raise unless a kernel hit is a violation of the raw table."""
    if not holds:
        raise InternalCheckError(
            f"{condition}: the scan reported X={set_str(X)} Y={set_str(Y)} "
            f"i={ib.bit_length()}, which the exact table does not violate"
        )


def _family_witness(condition: str, members, X: int, Y: int, ib: int) -> Witness:
    xi, yi = X ^ ib, Y | ib
    repaired = (xi in members and yi in members) or any(
        (xi | jb) in members and (yi ^ jb) in members for jb in iter_bits(Y & ~X)
    )
    holds = X in members and Y in members and bool(ib & X & ~Y) and not repaired
    _recheck(holds, condition, X, Y, ib)
    return Witness(condition, sets=(("X", X), ("Y", Y)), elements=(("i", ib.bit_length()),))


# ----------------------------------------------------------------------
# single-item exchange (discrete concavity)


def check_single_exchange(f: SetFunction, threads: int = 1) -> Verdict:
    """Check the one-item exchange axiom of discrete concavity.

    For every X, Y in the effective domain and i in X\\Y the sum f(X)+f(Y)
    must not exceed the best of removing i from X (adding it to Y) or
    swapping i against some j in Y\\X.  Tuples with an infinite left-hand
    side hold vacuously.
    """
    t = IntTable(f)
    scan = _exchange_scanner(t.sent, t.dom, t.neg, t.lo, t.hi, deletion=True)
    return _single_exchange_verdict(f, _first_hit(t.dom, scan, threads))


def _single_exchange_verdict(f: SetFunction, hit) -> Verdict:
    if hit is None:
        return Verdict(True)
    X, Y, ib = hit
    return Verdict(False, _single_exchange_witness(f, X, Y, ib))


def _single_exchange_witness(f: SetFunction, X: int, Y: int, ib: int) -> Witness:
    tab = f.table
    lhs = tab[X] + tab[Y]
    best: ExtValue = tab[X ^ ib] + tab[Y | ib]
    for jb in iter_bits(Y & ~X):
        best = max(best, tab[(X ^ ib) | jb] + tab[(Y | ib) ^ jb])
    _recheck(bool(ib & X & ~Y) and is_finite(lhs) and lhs > best, "mnat-exc", X, Y, ib)
    return Witness(
        "mnat-exc",
        sets=(("X", X), ("Y", Y)),
        elements=(("i", ib.bit_length()),),
        lhs=lhs,
        rhs=best,
    )


# ----------------------------------------------------------------------
# multi-item exchange


def find_exchange_set(f: SetFunction, X: int, Y: int, I: int) -> ExchangeCertificate | None:
    """Search for J inside Y\\X with f(X)+f(Y) <= f((X\\I)uJ) + f((Y\\J)uI).

    Returns the certificate with minimum |J| (ties: smallest bitmask), or
    None when no J works.  Requires X, Y in the effective domain and I
    inside X\\Y.
    """
    validate_exchange_args(f, X, Y, I)
    tab = f.table
    lhs = tab[X] + tab[Y]
    xmi = X ^ I
    for J in submasks_smallest_first(Y & ~X):
        rhs = tab[xmi | J] + tab[(Y & ~J) | I]
        if lhs <= rhs:
            return ExchangeCertificate(j_set=J, lhs=lhs, rhs=rhs)
    return None


def check_multiple_exchange(f: SetFunction, threads: int = 1) -> Verdict:
    """Check the multi-item exchange axiom over every (X, Y, I).

    Worst-case cost grows as 4^n times the submask count of X\\Y, hence the
    documented exhaustive-scan cap.
    """
    t = IntTable(f)
    s = t.sent
    dom = t.dom

    def scan(xs):
        for X in xs:
            fx = s[X]
            for Y in dom:
                lhs = fx + s[Y]
                xd = X & ~Y
                yd = Y & ~X
                if not xd:
                    continue
                for I in iter_submasks(xd):
                    if not I:
                        continue  # J = empty reproduces (X, Y)
                    xmi = X ^ I
                    found = False
                    for J in iter_submasks(yd):
                        if s[xmi | J] + s[(Y & ~J) | I] >= lhs:
                            found = True
                            break
                    if not found:
                        return (X, Y, I)
        return None

    hit = _first_hit(dom, scan, threads)
    if hit is None:
        return Verdict(True)
    X, Y, I = hit
    tab = f.table
    best: ExtValue = NEG_INF
    for J in iter_submasks(Y & ~X):
        best = max(best, tab[(X ^ I) | J] + tab[(Y & ~J) | I])
    return Verdict(
        False,
        Witness(
            "mnat-exc-m",
            sets=(("X", X), ("Y", Y), ("I", I)),
            lhs=tab[X] + tab[Y],
            rhs=best,
        ),
    )


# ----------------------------------------------------------------------
# valuated matroids


def check_valuated_matroid(f: SetFunction, threads: int = 1) -> Verdict:
    """Check the valuated-matroid axioms.

    The effective domain must be equi-cardinal and every (X, Y, i) must
    admit a value-preserving swap against some j in Y\\X (no pure
    deletion branch here; the empty swap maximum counts as -inf).
    """
    t = IntTable(f)
    dom = t.dom

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

    scan = _exchange_scanner(t.sent, dom, t.neg, t.lo, t.hi, deletion=False)
    return _valuated_matroid_verdict(f, _first_hit(dom, scan, threads))


def _valuated_matroid_verdict(f: SetFunction, hit) -> Verdict:
    if hit is None:
        return Verdict(True)
    X, Y, ib = hit
    tab = f.table
    lhs = tab[X] + tab[Y]
    best: ExtValue = NEG_INF
    for jb in iter_bits(Y & ~X):
        best = max(best, tab[(X ^ ib) | jb] + tab[(Y | ib) ^ jb])
    holds = bool(ib & X & ~Y) and is_finite(lhs) and lhs > best
    _recheck(holds, "valuated-matroid:exchange", X, Y, ib)
    return Verdict(
        False,
        Witness(
            "valuated-matroid:exchange",
            sets=(("X", X), ("Y", Y)),
            elements=(("i", ib.bit_length()),),
            lhs=lhs,
            rhs=best,
        ),
    )


# ----------------------------------------------------------------------
# local characterization


def check_local(f: SetFunction, threads: int = 1) -> Verdict:
    """Check the local characterization of the one-item exchange axiom.

    The effective domain must satisfy the one-item family exchange
    condition, and three families of small inequalities must hold: (i)
    adding two items is submodular against adding each separately, (ii)
    and (iii) the stated best-of-two swap bounds on triples and disjoint
    pairs.  The first failing family is reported.
    """
    t = IntTable(f)
    dom = t.dom

    hit = _scan_indicator(t.size, dom, threads)
    if hit is not None:
        return Verdict(False, _family_witness("local:domain", frozenset(dom), *hit))

    xs_all = list(range(t.size))
    tab = f.table

    hit = _first_hit(xs_all, lambda xs: _scan_local_pairs(t, xs), threads)
    if hit is not None:
        X, ib, jb = hit
        lhs = tab[X | ib | jb] + tab[X]
        rhs = tab[X | ib] + tab[X | jb]
        return Verdict(
            False,
            Witness(
                "local:i",
                sets=(("X", X),),
                elements=(("i", ib.bit_length()), ("j", jb.bit_length())),
                lhs=lhs,
                rhs=rhs,
            ),
        )

    hit = _first_hit(xs_all, lambda xs: _scan_local_triples(t, xs), threads)
    if hit is not None:
        X, ib, jb, kb = hit
        lhs = tab[X | ib | jb] + tab[X | kb]
        rhs = max(tab[X | ib | kb] + tab[X | jb], tab[X | jb | kb] + tab[X | ib])
        return Verdict(
            False,
            Witness(
                "local:ii",
                sets=(("X", X),),
                elements=(
                    ("i", ib.bit_length()),
                    ("j", jb.bit_length()),
                    ("k", kb.bit_length()),
                ),
                lhs=lhs,
                rhs=rhs,
            ),
        )

    hit = _first_hit(xs_all, lambda xs: _scan_local_quads(t, xs), threads)
    if hit is not None:
        X, ib, jb, kb, lb = hit
        lhs = tab[X | ib | jb] + tab[X | kb | lb]
        rhs = max(tab[X | ib | kb] + tab[X | jb | lb], tab[X | jb | kb] + tab[X | ib | lb])
        return Verdict(
            False,
            Witness(
                "local:iii",
                sets=(("X", X),),
                elements=(
                    ("i", ib.bit_length()),
                    ("j", jb.bit_length()),
                    ("k", kb.bit_length()),
                    ("l", lb.bit_length()),
                ),
                lhs=lhs,
                rhs=rhs,
            ),
        )

    return Verdict(True)


def _free_bits(t: IntTable, X: int) -> list[int]:
    return [1 << i for i in range(t.n) if not X >> i & 1]


def _scan_local_pairs(t: IntTable, xs):
    vals, s = t.vals, t.sent
    for X in xs:
        if vals[X] is None:
            continue
        free = _free_bits(t, X)
        for ib, jb in combinations(free, 2):
            top = vals[X | ib | jb]
            if top is None:
                continue
            if top + vals[X] > s[X | ib] + s[X | jb]:
                return (X, ib, jb)
    return None


def _scan_local_triples(t: IntTable, xs):
    vals, s = t.vals, t.sent
    for X in xs:
        free = _free_bits(t, X)
        for ib, jb in combinations(free, 2):
            top = vals[X | ib | jb]
            if top is None:
                continue
            for kb in free:
                if kb == ib or kb == jb:
                    continue
                side = vals[X | kb]
                if side is None:
                    continue
                lhs = top + side
                if lhs > s[X | ib | kb] + s[X | jb] and lhs > s[X | jb | kb] + s[X | ib]:
                    return (X, ib, jb, kb)
    return None


def _scan_local_quads(t: IntTable, xs):
    vals, s = t.vals, t.sent
    for X in xs:
        free = _free_bits(t, X)
        pairs = list(combinations(free, 2))
        for a in range(len(pairs)):
            ib, jb = pairs[a]
            top = vals[X | ib | jb]
            if top is None:
                continue
            for b in range(a + 1, len(pairs)):
                kb, lb = pairs[b]
                if (ib | jb) & (kb | lb):
                    continue
                side = vals[X | kb | lb]
                if side is None:
                    continue
                lhs = top + side
                if lhs > s[X | ib | kb] + s[X | jb | lb] and lhs > s[X | jb | kb] + s[X | ib | lb]:
                    return (X, ib, jb, kb, lb)
    return None


# ----------------------------------------------------------------------
# exchanges among maximizers


def maximizer_exchange(f: SetFunction, X: int, Y: int, I: int) -> int | None:
    """Find J inside Y\\X keeping both swapped sets on the maximizer set.

    X and Y must themselves maximize f.  Returns the smallest such J by
    (cardinality, bitmask), or None when none exists; existence is
    guaranteed for discrete-concave functions.
    """
    amax = frozenset(f.argmax_masks)
    if X not in amax:
        raise InputError(f"X={set_str(X)} does not maximize the function")
    if Y not in amax:
        raise InputError(f"Y={set_str(Y)} does not maximize the function")
    if I & ~(X & ~Y):
        raise InputError(f"I={set_str(I)} is not a subset of X\\Y={set_str(X & ~Y)}")
    xmi = X ^ I
    for J in submasks_smallest_first(Y & ~X):
        if (xmi | J) in amax and ((Y & ~J) | I) in amax:
            return J
    return None


# ----------------------------------------------------------------------
# family axioms


def _scan_b_exc_m(members: frozenset[int], ms, threads: int):
    def scan(xs):
        for X in xs:
            for Y in ms:
                xd = X & ~Y
                if not xd:
                    continue
                yd = Y & ~X
                for I in iter_submasks(xd):
                    if not I:
                        continue
                    xmi = X ^ I
                    found = False
                    for J in iter_submasks(yd):
                        if (xmi | J) in members and ((Y & ~J) | I) in members:
                            found = True
                            break
                    if not found:
                        return (X, Y, I)
        return None

    return _first_hit(list(ms), scan, threads)


def _scan_b_exc_pm(members: frozenset[int], ms, threads: int):
    def scan(xs):
        for X in xs:
            for Y in ms:
                xd = X & ~Y
                while xd:
                    ib = xd & -xd
                    xd ^= ib
                    yd0 = Y & ~X
                    if (X ^ ib) not in members:
                        ok = False
                        yd = yd0
                        while yd:
                            jb = yd & -yd
                            yd ^= jb
                            if ((X ^ ib) | jb) in members:
                                ok = True
                                break
                        if not ok:
                            return (X, Y, ib, "a")
                    if (Y | ib) not in members:
                        ok = False
                        yd = yd0
                        while yd:
                            kb = yd & -yd
                            yd ^= kb
                            if ((Y | ib) ^ kb) in members:
                                ok = True
                                break
                        if not ok:
                            return (X, Y, ib, "b")
        return None

    return _first_hit(list(ms), scan, threads)


def check_family(family: SetFamily, axiom: str, threads: int = 1) -> Verdict:
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
    ms = family.sorted_members

    if ax == "b-exc":
        hit = _scan_indicator(1 << family.n, ms, threads)
        if hit is None:
            return Verdict(True)
        return Verdict(False, _family_witness("bnat-exc", members, *hit))
    if ax == "b-exc-m":
        hit = _scan_b_exc_m(members, ms, threads)
        if hit is None:
            return Verdict(True)
        X, Y, I = hit
        return Verdict(False, Witness("bnat-exc-m", sets=(("X", X), ("Y", Y), ("I", I))))
    hit = _scan_b_exc_pm(members, ms, threads)
    if hit is None:
        return Verdict(True)
    X, Y, ib, clause = hit
    return Verdict(
        False,
        Witness(
            f"bnat-exc-pm:{clause}",
            sets=(("X", X), ("Y", Y)),
            elements=(("i", ib.bit_length()),),
        ),
    )


def is_generalized_matroid(family: SetFamily, threads: int = 1) -> bool:
    """A family is a generalized matroid exactly when it passes ``b-exc``."""
    return check_family(family, "b-exc", threads).passed


def find_base_exchange(family: SetFamily, X: int, Y: int, I: int) -> int | None:
    """Find J inside Y\\X with (X\\I)uJ and (Y\\J)uI both in the family.

    Minimum |J| first, ties by bitmask.  Returns None when no J exists
    (impossible for matroid basis families).
    """
    if X not in family.members:
        raise InputError(f"X={set_str(X)} is not a member of the family")
    if Y not in family.members:
        raise InputError(f"Y={set_str(Y)} is not a member of the family")
    if I & ~(X & ~Y):
        raise InputError(f"I={set_str(I)} is not a subset of X\\Y={set_str(X & ~Y)}")
    xmi = X ^ I
    for J in submasks_smallest_first(Y & ~X):
        if (xmi | J) in family.members and ((Y & ~J) | I) in family.members:
            return J
    return None
