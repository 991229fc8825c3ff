"""Traced re-issue of CLI calls as the public library calls they make.

A traced call parses its argv with the CLI's parser, reads and parses the
instance file, builds the instance with ``obj_to_set_function`` or
``obj_to_set_family``, rescales it once with ``IntTable`` (while that class
exists), runs the kernel, and emits the report the CLI would print.  Each
step is a span recorded from outside the library: name, start, end, parent
and call id, kept in memory and written out when the run ends.

The kernels rebuild the integer table themselves, so a kernel's self time
is its span minus the measured rescale of the same instance, and that share
is booked to the ``fast`` layer.  The
extra ``fast.rescale`` span issued here is tracing overhead.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import excheck
from excheck import cli, fileio
from excheck.sets import iter_submasks
from excheck.values import ext_to_json

try:  # the integer table may be merged into SetFunction later
    from excheck._fast import IntTable
except ImportError:
    IntTable = None

LAYERS = ("cli", "fileio", "core", "fast", "checkers", "duality", "econ")

# Kernel spans that build one IntTable of their instance internally.
RESCALING = {
    "checkers.mnat_exc", "checkers.mnat_exc_m", "checkers.local", "checkers.valuated_matroid",
    "duality.fenchel_gap", "econ.gs", "econ.si", "econ.nc", "econ.ncsim",
}

_CHECKERS = {
    "mnat-exc": ("checkers.mnat_exc", excheck.check_single_exchange),
    "mnat-exc-m": ("checkers.mnat_exc_m", excheck.check_multiple_exchange),
    "local": ("checkers.local", excheck.check_local),
    "valuated-matroid": ("checkers.valuated_matroid", excheck.check_valuated_matroid),
}
_AXIOMS = {"bnat-exc": "b-exc", "bnat-exc-m": "b-exc-m", "bnat-exc-pm": "b-exc-pm"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.call = ""
        self.pass_no = 0

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "call": self.call, "pass": self.pass_no,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = perf_counter()
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


def _verdict_obj(v) -> dict:
    return {"status": v.status, "witness": v.witness.as_dict() if v.witness else None}


def _check(tr, args, inst):
    prop = args.property
    if prop in _AXIOMS:
        with tr.span("checkers.family"):
            v = excheck.check_family(inst, _AXIOMS[prop])
    else:
        name, fn = _CHECKERS[prop]
        with tr.span(name):
            v = fn(inst)
    with tr.span("cli.emit"):
        rep = {"command": "check", "input": str(args.file), "property": prop, "n": inst.n,
               "verdict": v.status, "witness": v.witness.as_dict() if v.witness else None}
    if prop == "bnat-exc" and v.passed:
        rep["note"] = "the family is a generalized matroid"
    return rep, 0 if v.passed else 2


def _exchange(tr, args, f):
    X, Y, I = (_mask(s) for s in (args.x, args.y, args.i))
    with tr.span("checkers.find_exchange_set"):
        cert = excheck.find_exchange_set(f, X, Y, I)
    if cert is None:  # the CLI recomputes the best rhs itself
        best = excheck.NEG_INF
        for J in iter_submasks(Y & ~X):
            best = max(best, f.table[(X ^ I) | J] + f.table[(Y & ~J) | I])
    with tr.span("cli.emit"):
        rep = {"command": "exchange", "input": str(args.file), "found": cert is not None}
        if cert is not None:
            rep.update(J=list(excheck.elements_of(cert.j_set)), lhs=ext_to_json(cert.lhs),
                       rhs=ext_to_json(cert.rhs), size_I=I.bit_count(),
                       size_J=cert.j_set.bit_count())
        else:
            rep.update(lhs=ext_to_json(f.table[X] + f.table[Y]), best_rhs=ext_to_json(best))
    return rep, 0 if cert is not None else 2


def _duality(tr, args, f):
    X, Y, I = (_mask(s) for s in (args.x, args.y, args.i))
    with tr.span("duality.fenchel_gap"):
        r = excheck.fenchel_gap(f, X, Y, I)
    with tr.span("cli.emit"):
        rep = {
            "command": "duality", "input": str(args.file), "primal": ext_to_json(r.primal),
            "dual": ext_to_json(r.dual),
            "gap": ext_to_json(r.gap) if r.gap is not None else "inf",
            "q_star": ({str(e): ext_to_json(v) for e, v in zip(r.y0_elements, r.q_star.entries)}
                       if r.q_star is not None else None),
            "y0": list(r.y0_elements), "box_radius": ext_to_json(r.box_radius),
            "scale": r.scale,
        }
        if r.note:
            rep["note"] = r.note
    return rep, 0 if r.gap == 0 else 2


def _demand(tr, args, f):
    price = excheck.PriceVector(tuple(excheck.parse_rational(p) for p in args.price.split(",")))
    with tr.span("econ.demand"):
        d = excheck.demand(f, price)
    with tr.span("cli.emit"):
        rep = {"command": "demand", "input": str(args.file),
               "price": [ext_to_json(v) for v in d.price.entries], "value": ext_to_json(d.value),
               "members": [list(excheck.elements_of(m)) for m in d.members.sorted_members]}
    return rep, 0


def _equivalence(tr, args, f):
    """The body of ``equivalence_report``, one span per check."""
    sampler = excheck.PriceSampler(seed=args.seed, count=args.count,
                                   grid_step=excheck.parse_rational(args.step))
    with tr.span("econ.exact"):
        exact = {}
        for prop in ("mnat-exc", "mnat-exc-m", "local"):
            name, fn = _CHECKERS[prop]
            with tr.span(name):
                exact[prop] = fn(f)
    sampled = {}
    for name, run in (("gs", lambda: excheck.check_gs_sampled(f, sampler)),
                      ("si", lambda: excheck.check_si_sampled(f, sampler)),
                      ("nc", lambda: excheck.check_nc_sampled(f, sampler, False)),
                      ("ncsim", lambda: excheck.check_nc_sampled(f, sampler, True))):
        with tr.span(f"econ.{name}"):
            sampled[name] = run()
    counts = {"gs": sampler.pair_count(f)}
    for name in ("si", "nc", "ncsim"):
        counts[name] = sampler.price_count(f)
    passed = exact["mnat-exc"].passed and all(v.passed for v in sampled.values())
    with tr.span("cli.emit"):
        rep = {
            "command": "equivalence", "input": str(args.file),
            "exact": {k: _verdict_obj(v) for k, v in exact.items()},
            "sampled": {k: dict(_verdict_obj(v), samples=counts[k]) for k, v in sampled.items()},
            "verdict": "pass" if passed else "fail",
        }
    return rep, 0 if passed else 2


def _mask(text: str) -> int:
    text = text.strip()
    if text in ("", "-", "{}"):
        return 0
    return excheck.mask_from_elements([int(p) for p in text.split(",")])


_VERBS = {"check": _check, "exchange": _exchange, "duality": _duality,
          "demand": _demand, "equivalence": _equivalence}


def reissue(tr: Tracer, argv: list) -> tuple[str, int, int]:
    """Run one CLI call as library calls under spans; return (stdout, exit, n)."""
    with tr.span("cli.main"):
        with tr.span("cli.parse"):
            args = cli.build_parser().parse_args(argv)
        with tr.span("fileio.load"):
            text = Path(args.file).read_text()
            obj = json.loads(text)
        with tr.span("core.build"):
            if obj.get("kind") == "set_family":
                inst = fileio.obj_to_set_family(obj)
            else:
                inst = fileio.obj_to_set_function(obj)
        if IntTable is not None and isinstance(inst, excheck.SetFunction):
            with tr.span("fast.rescale"):
                IntTable(inst)
        rep, code = _VERBS[args.command](tr, args, inst)
        with tr.span("cli.emit"):
            out = json.dumps(rep, sort_keys=True) + "\n"
    return out, code, inst.n


# ----------------------------------------------------------------------
# per-layer aggregation


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans: list[dict], sizes: dict) -> list[dict]:
    """Layer times of each traced pass, from all spans of a run.

    ``sizes`` maps call id to the instance size n, for ``fast.entries``.
    Returns one flat dict of metric name to value per pass.
    """
    child = [0.0] * len(spans)
    rescale = {}
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
        if rec["name"] == "fast.rescale":
            rescale[rec["pass"], rec["call"]] = rec["end"] - rec["start"]

    passes: dict[int, dict] = {}
    for idx, rec in enumerate(spans):
        name = rec["name"]
        out = passes.setdefault(rec["pass"], {f"{layer}.{kind}": 0.0 for layer in LAYERS
                                              for kind in ("busy_s", "self_s")})
        out.setdefault("fast.entries", 0.0)
        if name == "fast.rescale":
            continue  # issued only by the trace: overhead, not program time
        dur = rec["end"] - rec["start"]
        own = dur - child[idx]
        layer = layer_of(name)
        parent = rec["parent"]
        top = parent is None or layer_of(spans[parent]["name"]) != layer
        moved = 0.0
        if name in RESCALING and (rec["pass"], rec["call"]) in rescale:
            moved = min(own, rescale[rec["pass"], rec["call"]])
            out["fast.busy_s"] += moved
            out["fast.self_s"] += moved
            out["fast.entries"] += 1 << sizes.get(rec["call"], 0)
        if top:
            out[f"{layer}.busy_s"] += dur - moved
        out[f"{layer}.self_s"] += own - moved
        if layer != "cli":
            out[name] = out.get(name, 0.0) + own - moved
        if name == "econ.exact":
            out["econ.exact_s"] = out.get("econ.exact_s", 0.0) + dur
    return [passes[k] for k in sorted(passes)]


def layer_table(metrics: dict) -> list[str]:
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    rows = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"])
    return [
        f"  {layer:9s} busy {metrics[f'{layer}.busy_s']:9.4f} s"
        f"  self {metrics[f'{layer}.self_s']:9.4f} s"
        f"  ({100 * metrics[f'{layer}.self_s'] / total:5.1f}% of self time)"
        for layer in rows
    ]
