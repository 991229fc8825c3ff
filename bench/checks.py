"""Correctness checks on the reports of one pass, run outside the timed loop.

Verdicts are checked against the theorem each corpus slot was built for,
and every failing witness is replayed from the raw rational table of the
corpus, never from the library's own tables.  Each check returns the ids of
the calls it rejects, with a reason.
"""

from __future__ import annotations

from fractions import Fraction

from corpus import popcount


def parse_value(v):
    """A report value: int, 'p/q' string or '-inf'; None stands for -inf."""
    if v == "-inf":
        return None
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(v)


def mask_of(elems) -> int:
    return sum(1 << (e - 1) for e in elems)


def add(a, b):
    return None if a is None or b is None else a + b


def vmax(values):
    best = None
    for v in values:
        if v is not None and (best is None or v > best):
            best = v
    return best


def above(a, b) -> bool:
    """a > b in the extended order (None is -inf)."""
    return a is not None and (b is None or a > b)


def bits(m: int):
    while m:
        b = m & -m
        yield b
        m ^= b


def submasks(m: int):
    s = 0
    while True:
        yield s
        if s == m:
            return
        s = (s - m) & m


# ----------------------------------------------------------------------
# witness replay


def _pair_sum(t, a, b):
    return add(t[a], t[b])


def _exchange_rhs(t, X, Y, ib, deletion: bool):
    cands = [_pair_sum(t, X ^ ib, Y | ib)] if deletion else []
    cands += [_pair_sum(t, (X ^ ib) | jb, (Y | ib) ^ jb) for jb in bits(Y & ~X)]
    return vmax(cands)


def _family_exchange_ok(F, X, Y, ib) -> bool:
    if X ^ ib in F and Y | ib in F:
        return True
    return any((X ^ ib) | jb in F and (Y | ib) ^ jb in F for jb in bits(Y & ~X))


def replay(inst, w: dict) -> str | None:
    """Re-evaluate the witness's condition; return an error or None."""
    cond = w.get("condition", "")
    S = {k: mask_of(v) for k, v in w.items() if isinstance(v, list) and k in ("X", "Y", "I")}
    E = {k: 1 << (v - 1) for k, v in w.items() if k in ("i", "j", "k", "l")}
    X, Y = S.get("X", 0), S.get("Y", 0)

    if cond.startswith("bnat-exc") or cond == "local:domain":
        F = set(dom_of(inst))
        if X not in F or Y not in F:
            return "X or Y is not a member"
        if cond == "bnat-exc-m":
            I = S["I"]
            if not I or I & ~(X & ~Y):
                return "I is not a nonempty subset of X\\Y"
            if any((X ^ I) | J in F and (Y & ~J) | I in F for J in submasks(Y & ~X)):
                return "an exchange set exists"
            return None
        ib = E["i"]
        if not ib & X & ~Y:
            return "i is not in X\\Y"
        if cond.startswith("bnat-exc-pm"):
            clause = cond.rsplit(":", 1)[1]
            if clause == "a":
                bad = X ^ ib not in F and not any((X ^ ib) | jb in F for jb in bits(Y & ~X))
            else:
                bad = Y | ib not in F and not any((Y | ib) ^ kb in F for kb in bits(Y & ~X))
            return None if bad else f"clause {clause} has a repair"
        return None if not _family_exchange_ok(F, X, Y, ib) else "the exchange has a repair"

    t = inst.table
    lhs, rhs = parse_value(w.get("lhs", "-inf")), parse_value(w.get("rhs", "-inf"))
    if cond == "valuated-matroid:cardinality":
        if t[X] is None or t[Y] is None or popcount(X) == popcount(Y):
            return "the cardinality witness does not show two sizes"
        want = (Fraction(popcount(X)), Fraction(popcount(Y)))
    elif cond.startswith("local:i"):
        i, j, k, l = E.get("i", 0), E.get("j", 0), E.get("k", 0), E.get("l", 0)
        if cond == "local:i":
            want = (_pair_sum(t, X | i | j, X), _pair_sum(t, X | i, X | j))
        elif cond == "local:ii":
            want = (_pair_sum(t, X | i | j, X | k),
                    vmax([_pair_sum(t, X | i | k, X | j), _pair_sum(t, X | j | k, X | i)]))
        else:
            want = (_pair_sum(t, X | i | j, X | k | l),
                    vmax([_pair_sum(t, X | i | k, X | j | l), _pair_sum(t, X | j | k, X | i | l)]))
    else:
        if t[X] is None or t[Y] is None:
            return "X or Y is outside the effective domain"
        if cond == "mnat-exc-m":
            I = S["I"]
            if not I or I & ~(X & ~Y):
                return "I is not a nonempty subset of X\\Y"
            best = vmax(_pair_sum(t, (X ^ I) | J, (Y & ~J) | I) for J in submasks(Y & ~X))
        elif cond in ("mnat-exc", "valuated-matroid:exchange"):
            ib = E["i"]
            if not ib & X & ~Y:
                return "i is not in X\\Y"
            best = _exchange_rhs(t, X, Y, ib, deletion=cond == "mnat-exc")
        else:
            return f"no replay for condition {cond!r}"
        want = (_pair_sum(t, X, Y), best)
    if (lhs, rhs) != want:
        return f"reported lhs/rhs {w.get('lhs')}/{w.get('rhs')} differ from the table"
    if cond != "valuated-matroid:cardinality" and not above(lhs, rhs):
        return "the replayed inequality holds"
    return None


# ----------------------------------------------------------------------
# per-verb checks


def expected_exit(inst, verb: str) -> int | None:
    """Exit code the theorem predicts, or None when the slot is random."""
    if inst.mnat:
        return 0
    if inst.family in ("mpc-raised", "wmat-raised", "comp"):
        return None if verb in ("duality", "exchange", "demand") else 2
    return 0 if verb == "demand" else None


def _check_report(inst, call, rep: dict, lib) -> list[str]:
    errs = []
    status = rep.get("verdict")
    w = rep.get("witness")
    if status == "fail":
        err = replay(inst, w or {})
        if err:
            errs.append(f"witness {w}: {err}")
    elif w is not None:
        errs.append("a passing verdict carries a witness")
    return errs


def _primal(t, X, Y, I):
    return vmax(_pair_sum(t, (X ^ I) | J, (Y & ~J) | I) for J in submasks(Y & ~X))


def _check_duality(inst, call, rep: dict, lib) -> list[str]:
    """Primal by enumeration, weak duality, and q* re-evaluated through the
    library's ``conjugate`` on ``slice_pair`` (``lib`` is the package)."""
    t = inst.table
    X, Y, I = call.opts["x"], call.opts["y"], call.opts["i"]
    primal = _primal(t, X, Y, I)
    errs = []
    if parse_value(rep["primal"]) != primal:
        return [f"primal {rep['primal']} differs from the enumeration {primal}"]
    dual = parse_value(rep["dual"])
    if primal is not None and (dual is None or dual < primal):
        errs.append(f"dual {rep['dual']} is below primal {rep['primal']}")
    gap = rep["gap"]
    if primal is not None and dual is not None and parse_value(gap) != dual - primal:
        errs.append(f"gap {gap} is not dual - primal")
    if inst.mnat and gap != 0:
        errs.append(f"gap {gap} on an M-natural-concave instance")
    if rep["q_star"] is not None:
        f = lib.SetFunction.from_entries(inst.n, [(m, v) for m, v in enumerate(t) if v is not None])
        sp = lib.slice_pair(f, X, Y, I)
        q = lib.PriceVector(tuple(parse_value(rep["q_star"][str(e)]) for e in rep["y0"]))
        value = lib.conjugate(sp.f1, q) + lib.conjugate(sp.f2, -q)
        if value != dual:
            errs.append(f"q* evaluates to {value}, not the dual {rep['dual']}")
    elif gap == 0 and primal is not None:
        errs.append("the gap closed without a certificate q*")
    return errs


def _check_exchange(inst, call, rep: dict, lib) -> list[str]:
    t = inst.table
    X, Y, I = call.opts["x"], call.opts["y"], call.opts["i"]
    lhs = _pair_sum(t, X, Y)
    order = sorted(submasks(Y & ~X), key=lambda m: (popcount(m), m))
    ok = [J for J in order if not above(lhs, _pair_sum(t, (X ^ I) | J, (Y & ~J) | I))]
    if not rep["found"]:
        if ok:
            return [f"J={ok[0]:#b} works but no exchange set was reported"]
        best = _primal(t, X, Y, I)
        if (parse_value(rep["lhs"]), parse_value(rep["best_rhs"])) != (lhs, best):
            return ["lhs/best_rhs differ from the table"]
        return []
    J = mask_of(rep["J"])
    if not ok or J != ok[0]:
        return [f"J={rep['J']} is not the first exchange set in (size, mask) order"]
    rhs = _pair_sum(t, (X ^ I) | J, (Y & ~J) | I)
    if (parse_value(rep["lhs"]), parse_value(rep["rhs"])) != (lhs, rhs):
        return ["lhs/rhs differ from the table"]
    return []


def _check_demand(inst, call, rep: dict, lib) -> list[str]:
    price = call.opts["price"]
    sums = [Fraction(0)] * (1 << inst.n)
    for m in range(1, 1 << inst.n):
        low = m & -m
        sums[m] = sums[m ^ low] + price[low.bit_length() - 1]
    vals = {m: v - sums[m] for m, v in enumerate(inst.table) if v is not None}
    best = max(vals.values())
    members = sorted(m for m, v in vals.items() if v == best)
    errs = []
    if parse_value(rep["value"]) != best:
        errs.append(f"value {rep['value']} is not the maximum {best}")
    if sorted(mask_of(m) for m in rep["members"]) != members:
        errs.append("members are not exactly the maximizers")
    return errs


def _check_equivalence(inst, call, rep: dict, lib) -> list[str]:
    errs = []
    exact = rep["exact"]
    statuses = {v["status"] for v in exact.values()}
    if len(statuses) != 1:
        errs.append(f"exact checks disagree: {exact}")
    for name, v in exact.items():
        if v["status"] == "fail":
            err = replay(inst, v["witness"] or {})
            if err:
                errs.append(f"{name} witness: {err}")
    sampled = {k: v["status"] for k, v in rep["sampled"].items()}
    if inst.mnat and (statuses != {"pass"} or set(sampled.values()) != {"pass"}):
        errs.append("a concave instance is refuted")
    if inst.family == "comp" and set(sampled.values()) != {"fail"}:
        errs.append(f"the complements instance is not refuted by every sampled check: {sampled}")
    if not inst.mnat and statuses != {"fail"}:
        errs.append("the exact checks pass on an instance built to fail")
    return errs


_CHECKS = {"check": _check_report, "duality": _check_duality, "exchange": _check_exchange,
           "demand": _check_demand, "equivalence": _check_equivalence}

# the report field that decides between exit 0 and exit 2
_PASSED = {"check": lambda r: r["verdict"] == "pass", "duality": lambda r: r["gap"] == 0,
           "exchange": lambda r: r["found"], "demand": lambda r: True,
           "equivalence": lambda r: r["verdict"] == "pass"}

_TRIO = ("mnat-exc", "mnat-exc-m", "local")


def check_pass(insts: dict, calls, results: dict, lib) -> dict:
    """Check one pass; ``results`` maps cid to (exit code, parsed report)
    and ``lib`` is the package, used to re-evaluate duality certificates."""
    bad: dict[str, list[str]] = {}
    verdicts: dict[str, dict] = {}
    for call in calls:
        inst = insts[call.inst]
        code, rep = results[call.cid]
        errs = []
        want = expected_exit(inst, call.verb)
        if rep is None:
            errs.append(f"no JSON report (exit {code})")
        elif want is not None and code != want:
            errs.append(f"exit {code}, the theorem predicts {want}")
        else:
            try:
                errs += _CHECKS[call.verb](inst, call, rep, lib)
                if code != (0 if _PASSED[call.verb](rep) else 2):
                    errs.append(f"exit {code} does not match the report")
                if call.opts.get("property") in _TRIO:
                    verdicts.setdefault(call.inst, {})[call.cid] = rep["verdict"]
            except (KeyError, TypeError, ValueError) as e:
                errs.append(f"malformed report: {e!r}")
        if errs:
            bad[call.cid] = errs
    # the one-item, multi-item and local checks must agree on a function
    for key, seen in verdicts.items():
        if len(set(seen.values())) > 1:
            for cid in seen:
                bad.setdefault(cid, []).append(f"exchange checks disagree on {key}: {seen}")
    return bad


def check_goldens(calls, results: dict, golden: dict) -> dict:
    """Compare exit codes and every report key the golden holds."""
    bad = {}
    for call in calls:
        want = golden.get(call.cid)
        code, rep = results[call.cid]
        if want is None:
            bad[call.cid] = ["no golden for this call"]
            continue
        if code != want["exit"]:
            bad[call.cid] = [f"exit {code}, golden {want['exit']}"]
            continue
        diff = [k for k, v in want["report"].items() if rep is None or rep.get(k) != v]
        if diff:
            bad[call.cid] = [f"report keys {diff} differ from the golden"]
    return bad


# ----------------------------------------------------------------------
# computed work counts


def dom_of(inst) -> list:
    if inst.members is not None:
        return inst.members
    return [m for m, v in enumerate(inst.table) if v is not None]


def pairs_visited(inst, witness) -> int:
    """(X, Y) pairs an X-outer, Y-inner scan visits before it stops."""
    dom = dom_of(inst)
    if witness is None:
        return len(dom) ** 2
    cond = witness["condition"]
    if cond == "valuated-matroid:cardinality":
        return 0
    if cond in ("local:i", "local:ii", "local:iii"):
        return len(dom) ** 2
    pos = {m: i for i, m in enumerate(dom)}
    X, Y = mask_of(witness.get("X", [])), mask_of(witness.get("Y", []))
    if X not in pos or Y not in pos:
        return 0  # a witness outside the domain is caught by the replay
    return pos[X] * len(dom) + pos[Y] + 1


def box_points(rep: dict) -> int:
    r = parse_value(rep["box_radius"]) * rep["scale"]
    return (2 * int(r) + 1) ** len(rep["y0"])


def prices_visited(rep: dict) -> int:
    """Prices the four sampled checks evaluate; a gs pair evaluates two."""
    total = 0
    for name, v in rep["sampled"].items():
        w = v["witness"]
        seen = w["sample"] + 1 if w and "sample" in w else v["samples"]
        total += 2 * seen if name == "gs" else seen
    return total


def entries(inst) -> int:
    return len(inst.members) if inst.members is not None else 1 << inst.n


def work_counts(inst, call, rep: dict, file_bytes: int) -> dict:
    """Work a call does, computed from its instance and report."""
    c = {"fileio.bytes": file_bytes, "core.entries": entries(inst), "checkers.pairs": 0,
         "checkers.runs": 0, "checkers.early_exits": 0, "duality.box_points": 0,
         "duality.calls": 0, "duality.closed": 0, "econ.prices": 0}
    if rep is None:
        return c
    try:
        _add_counts(c, inst, call, rep)
    except (KeyError, TypeError, ValueError):
        pass  # a malformed report is already a failed call
    return c


def _add_counts(c: dict, inst, call, rep: dict) -> None:
    if call.verb == "check":
        runs = [rep.get("witness")]
    elif call.verb == "equivalence":
        runs = [v["witness"] for v in rep["exact"].values()]
        c["econ.prices"] = prices_visited(rep)
    else:
        runs = []
    for w in runs:
        c["checkers.pairs"] += pairs_visited(inst, w)
        c["checkers.runs"] += 1
        c["checkers.early_exits"] += w is not None
    if call.verb == "exchange":
        c["checkers.pairs"] += 1
    elif call.verb == "duality":
        c["duality.box_points"] = box_points(rep)
        c["duality.calls"] = 1
        c["duality.closed"] = int(rep["gap"] == 0)
    elif call.verb == "demand":
        c["econ.prices"] = 1
