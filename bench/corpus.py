"""Seeded corpora for the four benchmark workloads.

Instances are built here from raw rational tables, without the library, so
that building the corpus runs no checker and the correctness checks can
recompute every inequality from a table the program under test never
touched.  A raw table is a list indexed by bitmask (element e is bit e-1)
holding a ``Fraction`` or ``None`` for -inf.

The seed changes labels, weights, raised sets, (X, Y, I) triples, sampler
seeds and prices, never sizes: each slot of a corpus has a fixed ground set,
value range and property, so the work a call does is nearly the same for
every seed and run-to-run spread stays small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from pathlib import Path
from random import Random

WORKLOADS = ("scan", "refute", "dual", "market")


@dataclass
class Instance:
    """One corpus slot.  ``table`` (a set function: Fraction or None per
    mask) or ``members`` (a set family: sorted masks) is filled by
    :func:`materialize`; the corpus itself holds only the recipe, so
    building it never keeps every table alive at once."""

    key: str
    n: int
    make: object  # () -> table or members
    family: str  # how it was built: rank, mpc, wmat, bases, random, comp
    mnat: bool = False  # M-natural-concave (or a matroid basis family) by theorem
    is_family: bool = False
    table: list | None = None
    members: list | None = None


def materialize(inst: Instance) -> Instance:
    data = inst.make()
    if inst.is_family:
        return replace(inst, members=data)
    return replace(inst, table=data)


@dataclass
class Call:
    cid: str
    verb: str
    inst: str
    opts: dict = field(default_factory=dict)
    path: str = ""
    argv: list = field(default_factory=list)


# ----------------------------------------------------------------------
# raw tables


def popcount(m: int) -> int:
    return bin(m).count("1")


def subset_sums(w: list) -> list:
    sums = [Fraction(0)] * (1 << len(w))
    for m in range(1, 1 << len(w)):
        low = m & -m
        sums[m] = sums[m ^ low] + w[low.bit_length() - 1]
    return sums


def rank_table(n: int, k: int) -> list:
    return [Fraction(min(popcount(m), k)) for m in range(1 << n)]


def concave_seq(n: int, shape: str) -> list:
    """g(0..n) with nonincreasing increments; the shape fixes the scan cost."""
    incs = {
        "strict": [n - i for i in range(n)],
        "halved": [(n - i + 1) // 2 for i in range(n)],
        "capped": [max(3 - i, 0) for i in range(n)],
    }[shape]
    g = [Fraction(0)]
    for d in incs:
        g.append(g[-1] + d)
    return g


def mpc_table(w: list, g: list) -> list:
    """Modular plus concave of cardinality: w(S) + g(|S|)."""
    sums = subset_sums(w)
    return [sums[m] + g[popcount(m)] for m in range(1 << len(w))]


def wmat_table(n: int, k: int, w: list) -> list:
    """Additive weights on the bases of the uniform matroid U(k, n)."""
    tab = [None] * (1 << n)
    for combo in combinations(range(n), k):
        m = sum(1 << e for e in combo)
        tab[m] = sum((w[e] for e in combo), Fraction(0))
    return tab


def basis_masks(n: int, k: int) -> list:
    return sorted(sum(1 << e for e in combo) for combo in combinations(range(n), k))


def shuffled(rng: Random, values: list) -> list:
    out = [Fraction(v) for v in values]
    rng.shuffle(out)
    return out


def value_range(tab: list) -> Fraction:
    finite = [v for v in tab if v is not None]
    return max(finite) - min(finite)


def raise_set(tab: list, S: int, extra: int) -> list:
    """Raise f(S) by more than twice the value range.

    For |S| >= 2 this breaks local inequality (i) at S minus two of its
    elements, so the function is not M-natural-concave and every exchange
    check must fail.
    """
    out = list(tab)
    out[S] = out[S] + 2 * value_range(tab) + 1 + extra
    return out


def raised_subset(rng: Random, n: int) -> int:
    """A seeded S that holds n-1 and n and some of the elements 3..6.

    Keeping elements 1 and 2 out of S makes the scans meet S in their
    first rows, and fixing S's high elements pins S to one place in a row
    (the seeded low elements move it by at most 60 of 2^n masks), so the
    early exit costs the same for every seed.
    """
    S = (1 << (n - 2)) | (1 << (n - 1))
    for e in range(2, min(6, n - 2)):
        if rng.random() < 0.4:
            S |= 1 << e
    return S


def raised_basis(rng: Random, n: int, k: int) -> int:
    """A seeded k-set holding n-k+3..n and two of the elements 3..6: the
    basis counterpart of :func:`raised_subset`."""
    low = rng.sample(range(2, 6), 2)
    return sum(1 << e for e in low + list(range(n - k + 2, n)))


def random_table(seed: int, n: int, top: int) -> list:
    """Seeded integer values in 0..top with both ends attained."""
    rng = Random(seed)
    tab = [Fraction(rng.randint(0, top)) for _ in range(1 << n)]
    lo, hi = rng.sample(range(1 << n), 2)
    tab[lo], tab[hi] = Fraction(0), Fraction(top)
    return tab


def mask_str(m: int) -> str:
    return ",".join(str(e + 1) for e in range(m.bit_length()) if m >> e & 1) or "-"


def price_str(p: list) -> str:
    return ",".join(json_value(v).strip('"') for v in p)


# ----------------------------------------------------------------------
# instance files


def json_value(v) -> str:
    if v is None:
        return '"-inf"'
    if v.denominator == 1:
        return str(v.numerator)
    return f'"{v.numerator}/{v.denominator}"'


@lru_cache(maxsize=None)
def element_lists(n: int) -> tuple:
    """JSON element list of every mask of an n-element ground set."""
    elems = [[]]
    for m in range(1, 1 << n):
        low = m & -m
        elems.append(elems[m ^ low] + [low.bit_length()])
    return tuple(json.dumps(sorted(e)) for e in elems)


def write_instance(inst: Instance, path: Path) -> None:
    """Write the instance file; omitted subsets are -inf."""
    if inst.table is not None:
        sets = element_lists(inst.n)
        entries = ", ".join(
            f'{{"set": {sets[m]}, "value": {json_value(v)}}}'
            for m, v in enumerate(inst.table)
            if v is not None
        )
        text = f'{{"kind": "set_function", "n": {inst.n}, "entries": [{entries}]}}\n'
    else:
        members = [[e + 1 for e in range(inst.n) if m >> e & 1] for m in inst.members]
        text = json.dumps({"kind": "set_family", "n": inst.n, "members": members}) + "\n"
    path.write_text(text)


# ----------------------------------------------------------------------
# workloads


def _fn(key, n, make, *args, family, mnat=False):
    return Instance(key, n, partial(make, *args), family, mnat)


def _raised(make, S, extra, *args):
    return raise_set(make(*args), S, extra)


def _scan(rng: Random):
    """Instances that pass by theorem, so every call is a full scan.

    Forty calls at n = 8..11, so that the tail percentile has ten distinct
    calls beyond it.
    """
    plan = []

    def add(inst, props):
        plan.append((inst, props))

    add(_fn("rank10", 10, rank_table, 10, 4, family="rank", mnat=True), ("mnat-exc",))
    add(_fn("rank9", 9, rank_table, 9, 3, family="rank", mnat=True), ("mnat-exc", "local"))
    add(_fn("rank8", 8, rank_table, 8, 3, family="rank", mnat=True),
        ("mnat-exc", "mnat-exc-m", "local"))
    for idx, shape in enumerate(("strict", "halved", "capped") * 2):
        add(_fn(f"mpc9_{idx}", 9, mpc_table, shuffled(rng, range(-4, 5)), concave_seq(9, shape),
                family="mpc", mnat=True), ("mnat-exc", "local"))
    for n, k, props in ((11, 5, ("valuated-matroid", "mnat-exc")),
                        (11, 4, ("valuated-matroid", "mnat-exc")), (11, 6, ("valuated-matroid",)),
                        (10, 3, ("valuated-matroid", "mnat-exc")),
                        (10, 4, ("valuated-matroid", "mnat-exc", "mnat-exc-m")),
                        (10, 5, ("valuated-matroid", "mnat-exc"))):
        w = shuffled(rng, [v // 2 for v in range(n)])
        add(_fn(f"wmat{n}_{k}", n, wmat_table, n, k, w, family="wmat", mnat=True), props)
    for n, k, props in ((11, 5, ("bnat-exc", "bnat-exc-pm")), (11, 4, ("bnat-exc",)),
                        (11, 6, ("bnat-exc",)), (10, 4, ("bnat-exc-m", "bnat-exc", "bnat-exc-pm")),
                        (10, 3, ("bnat-exc",)), (10, 5, ("bnat-exc", "bnat-exc-pm"))):
        add(Instance(f"bases{n}_{k}", n, partial(basis_masks, n, k), "bases", True, is_family=True),
            props)
    calls = [Call("", "check", inst.key, {"property": p}) for inst, props in plan for p in props]
    return [inst for inst, _ in plan], calls


def _refute(rng: Random):
    """n = 12..14 instances broken by one raised set; every call exits early."""
    insts = []
    calls = []
    shapes = ("strict", "halved", "capped")
    for idx, n in enumerate((12, 13, 14, 12, 13, 14, 12, 13)):
        w = shuffled(rng, [Fraction(v - n // 2, 1 + idx % 2) for v in range(n)])
        key = f"mpc{n}_{idx}"
        S = raised_subset(rng, n)
        insts.append(_fn(key, n, _raised, mpc_table, S, rng.randint(0, 3), w,
                         concave_seq(n, shapes[idx % 3]), family="mpc-raised"))
        calls += [Call("", "check", key, {"property": p}) for p in ("mnat-exc", "mnat-exc-m")]
    for idx, (n, k) in enumerate(((12, 6), (13, 6), (14, 7), (12, 5), (13, 7), (14, 6),
                                  (12, 4), (13, 5))):
        w = shuffled(rng, [v % 7 for v in range(n)])
        # X = {1..k} is the first basis; S avoids 1 and 2 and holds n
        key = f"wmat{n}_{idx}"
        insts.append(_fn(key, n, _raised, wmat_table, raised_basis(rng, n, k),
                         rng.randint(0, 3), n, k, w, family="wmat-raised"))
        calls += [
            Call("", "check", key, {"property": p})
            for p in ("mnat-exc", "mnat-exc-m", "valuated-matroid")
        ]
    return insts, calls


def _triple_full(rng: Random, n: int, k: int, a: int, i_size: int):
    """(X, Y, I) on a full domain with |Y\\X| = k, |X\\Y| = a, |I| = i_size."""
    elems = list(range(n))
    rng.shuffle(elems)
    y0 = elems[:k]
    x0 = elems[k : k + a]
    common = [e for e in elems[k + a :] if rng.random() < 0.5]
    X = sum(1 << e for e in x0 + common)
    Y = sum(1 << e for e in y0 + common)
    I = sum(1 << e for e in rng.sample(x0, i_size))
    return X, Y, I


def _triple_bases(rng: Random, n: int, kb: int, k: int, i_size: int):
    """(X, Y, I) on the bases of U(kb, n) with |Y\\X| = |X\\Y| = k."""
    elems = list(range(n))
    rng.shuffle(elems)
    common = elems[: kb - k]
    x0 = elems[kb - k : kb]
    y0 = elems[kb : kb + k]
    X = sum(1 << e for e in common + x0)
    Y = sum(1 << e for e in common + y0)
    I = sum(1 << e for e in rng.sample(x0, i_size))
    return X, Y, I


def _dual(rng: Random):
    """Duality and exchange on (X, Y, I) with |Y\\X| = 3..6.

    Rank functions and weighted matroids close the gap by theorem; random
    tables with a fixed value range mix zero and positive gaps.  The value
    range fixes the default box, so each slot sweeps the same box for
    every seed.
    """
    insts = []
    triples = []
    for k, r in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)):
        key = f"rank8_r{r}_k{k}"
        insts.append(_fn(key, 8, rank_table, 8, r, family="rank", mnat=True))
        triples.append((key, _triple_full(rng, 8, k, 2, 1)))
    for n, kb, k, i_size in ((8, 3, 3, 1), (8, 3, 3, 2), (9, 4, 4, 1), (9, 4, 4, 2),
                             (10, 5, 5, 2)):
        key = f"wmat{n}_k{k}_i{i_size}"
        w = shuffled(rng, [v % 3 for v in range(n)])
        insts.append(_fn(key, n, wmat_table, n, kb, w, family="wmat", mnat=True))
        triples.append((key, _triple_bases(rng, n, kb, k, i_size)))
    for idx, (k, top) in enumerate(((3, 6), (3, 6), (4, 4), (4, 4), (4, 4), (5, 3), (5, 3),
                                    (6, 2))):
        key = f"rand8_{idx}_k{k}"
        insts.append(_fn(key, 8, random_table, rng.getrandbits(64), 8, top, family="random"))
        triples.append((key, _triple_full(rng, 8, k, 2, 1)))
    calls = []
    for key, (X, Y, I) in triples:
        xyz = {"x": X, "y": Y, "i": I}
        calls.append(Call("", "duality", key, dict(xyz)))
        calls.append(Call("", "exchange", key, dict(xyz)))
    return insts, calls


def _comp():
    """The documented complements instance: f = 0, 1, 1, 3 on n = 2."""
    return [Fraction(v) for v in (0, 1, 1, 3)]


def _market(rng: Random):
    """The seven-way equivalence report plus exact demand at n = 12.

    n = 4 takes the exhaustive integer price sweep; the larger reports run
    the seeded random prices only.
    """
    w6 = shuffled(rng, [-2, -1, 0, 0, 1, 2])
    g6 = concave_seq(6, "strict")
    w5 = shuffled(rng, [-2, -1, 0, 1, 2])
    g5 = concave_seq(5, "halved")
    insts = [
        _fn("rank4", 4, rank_table, 4, 1, family="rank", mnat=True),
        _fn("mpc6", 6, mpc_table, w6, g6, family="mpc", mnat=True),
        _fn("mpc7", 7, mpc_table, shuffled(rng, range(-3, 4)), concave_seq(7, "halved"),
            family="mpc", mnat=True),
        _fn("rank8", 8, rank_table, 8, 3, family="rank", mnat=True),
        _fn("comp", 2, _comp, family="comp"),
        _fn("bumped6", 6, _raised, mpc_table, raised_subset(rng, 6), rng.randint(0, 3), w6, g6,
            family="mpc-raised"),
        _fn("mpc5", 5, mpc_table, w5, g5, family="mpc", mnat=True),
        _fn("rank6", 6, rank_table, 6, 2, family="rank", mnat=True),
        _fn("wmat6", 6, wmat_table, 6, 3, shuffled(rng, [0, 0, 1, 1, 2, 2]), family="wmat",
            mnat=True),
        _fn("bumped5", 5, _raised, mpc_table, raised_subset(rng, 5), rng.randint(0, 3), w5, g5,
            family="mpc-raised"),
    ]
    # 12 reports and 28 demand calls: the ~40 ms demand calls then hold the
    # tail percentile's rank, so bumped6, whose sampled checks stop at a
    # seeded price (15-150 ms), cannot move it from one cluster to another
    reports = (("rank4", 2000), ("mpc6", 2000), ("mpc7", 1500), ("rank8", 1000), ("comp", 2000),
               ("bumped6", 2000), ("mpc5", 500), ("rank6", 500), ("wmat6", 500), ("comp", 500),
               ("bumped5", 500), ("mpc5", 300))
    calls = [Call("", "equivalence", key, {"seed": rng.randint(0, 10**6), "count": count})
             for key, count in reports]
    for idx in range(2):
        key = f"mpc12_{idx}"
        w = shuffled(rng, [Fraction(v, 1 + idx) for v in range(-6, 6)])
        insts.append(_fn(key, 12, mpc_table, w, concave_seq(12, ("strict", "halved")[idx]),
                         family="mpc", mnat=True))
        for _ in range(14):
            price = [Fraction(rng.randint(-16, 16), 2) for _ in range(12)]
            calls.append(Call("", "demand", key, {"price": price}))
    return insts, calls


_BUILDERS = {"scan": _scan, "refute": _refute, "dual": _dual, "market": _market}


def build(workload: str, seed: int, workdir: Path):
    """Generate the corpus, write its files, and return (instances, calls).

    Call ids and file names depend on the slot only, never on the seed, so
    reports of the same slot compare across seeds.
    """
    insts, calls = _BUILDERS[workload](Random(f"{workload}:{seed}"))
    workdir.mkdir(parents=True, exist_ok=True)
    for inst in insts:
        write_instance(materialize(inst), workdir / f"{inst.key}.json")
    for idx, call in enumerate(calls):
        call.path = (workdir / f"{call.inst}.json").as_posix()
        label = call.opts.get("property", call.verb)
        call.cid = f"{idx:02d}-{call.inst}-{label}"
        call.argv = argv_for(call)
    return {inst.key: inst for inst in insts}, calls


def argv_for(call: Call) -> list:
    o = call.opts
    argv = [call.verb, call.path]
    if call.verb == "check":
        argv += ["--property", o["property"]]
    elif call.verb in ("duality", "exchange"):
        argv += [f"--x={mask_str(o['x'])}", f"--y={mask_str(o['y'])}", f"--i={mask_str(o['i'])}"]
    elif call.verb == "demand":
        argv += [f"--price={price_str(o['price'])}"]
    elif call.verb == "equivalence":
        argv += ["--seed", str(o["seed"]), "--count", str(o["count"])]
    return argv + ["--format", "json", "--no-timing"]
