"""Command-line front end.

Subcommands: ``check``, ``exchange``, ``duality``, ``demand``,
``equivalence``, ``gen``.  Exit codes are a total contract: 0 the property
holds (or the requested object was produced), 2 the property fails or no
certificate exists, 1 for any usage or input error.  JSON reports are
byte-identical across reruns when ``--no-timing`` is given.  Rational
arguments use exact ``p/q`` strings; decimals are rejected.  Each verb's
handler returns its exit code, report and human lines, and :func:`main`
alone times, labels and prints them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from time import perf_counter

from .checkers import (
    _exchange_verdict,
    check_family,
    check_local,
    check_multiple_exchange,
    check_single_exchange,
    check_valuated_matroid,
    find_exchange_set,
)
from .core import PriceVector, SetFamily, SetFunction
from .econ import PriceSampler, check_snc, demand, equivalence_report
from .duality import fenchel_gap
from .errors import InputError, InternalCheckError
from .fileio import _instance_text, load_instance, set_family_to_obj, set_function_to_obj
from .generators import MatroidSpec, gen_modular_plus_concave, gen_rank_valuation, gen_weighted_matroid
from .sets import elements_of, mask_from_elements, set_str
from .values import ext_to_json, ext_to_str, parse_rational

__all__ = ["main"]

_TRIPLE_SCAN_CAP = 14
_DUALITY_CAP = 10

# the checker of each function property and the axiom of each family one
_FUNCTION_CHECKS = {
    "mnat-exc": check_single_exchange,
    "mnat-exc-m": check_multiple_exchange,
    "snc": check_snc,
    "valuated-matroid": check_valuated_matroid,
    "local": check_local,
}
_FAMILY_AXIOMS = {"bnat-exc": "b-exc", "bnat-exc-m": "b-exc-m", "bnat-exc-pm": "b-exc-pm"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _parse_set(text: str, name: str, n: int) -> int:
    """The mask of a comma-separated element list, each label checked
    against the ground-set size n before any bit is shifted."""
    s = text.strip()
    if s in ("", "-", "{}"):
        return 0
    try:
        elems = [int(part) for part in s.split(",")]
    except ValueError:
        raise InputError(f"{name} must be a comma-separated element list, got {text!r}") from None
    return mask_from_elements(elems, n)


def _parse_sets(args, n: int) -> tuple[int, int, int]:
    """X, Y and I of ``exchange`` and ``duality``, on a ground set of size n."""
    return _parse_set(args.x, "--x", n), _parse_set(args.y, "--y", n), _parse_set(args.i, "--i", n)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"bad {what}; use an integer") from None


def _parse_rational_list(text: str, name: str) -> list[Fraction]:
    s = text.strip()
    if not s:
        return []
    try:
        return [parse_rational(part) for part in s.split(",")]
    except InputError as e:
        raise InputError(f"{name}: {e}") from None


def _verdict_obj(verdict) -> dict:
    return {
        "status": verdict.status,
        "witness": verdict.witness.as_dict() if verdict.witness else None,
    }


def _load_function(path) -> SetFunction:
    inst = load_instance(path)
    if not isinstance(inst, SetFunction):
        raise InputError(f"{path} holds a set family; a set function is required here")
    return inst


def _require_scan_cap(n: int, force: bool) -> None:
    if n > _TRIPLE_SCAN_CAP and not force:
        raise InputError(
            f"ground set of size {n} exceeds the exhaustive-scan cap "
            f"{_TRIPLE_SCAN_CAP}; pass --force to run anyway"
        )


# ----------------------------------------------------------------------
# check


def _cmd_check(args) -> tuple:
    prop = args.property
    inst = load_instance(args.file)
    _require_scan_cap(inst.n, args.force)

    note = None
    if prop in _FUNCTION_CHECKS:
        if not isinstance(inst, SetFunction):
            raise InputError(f"property {prop} needs a set function, {args.file} holds a family")
        verdict = _FUNCTION_CHECKS[prop](inst)
    else:
        if not isinstance(inst, SetFamily):
            raise InputError(f"property {prop} needs a set family, {args.file} holds a function")
        verdict = check_family(inst, _FAMILY_AXIOMS[prop])
        if prop == "bnat-exc" and verdict.passed:
            note = "the family is a generalized matroid"

    report = {
        "input": str(args.file),
        "property": prop,
        "n": inst.n,
        "verdict": verdict.status,
        "witness": verdict.witness.as_dict() if verdict.witness else None,
    }
    if note:
        report["note"] = note
    lines = [f"{prop} on {args.file} (n={inst.n}): {verdict.status}"]
    if verdict.witness:
        lines.append(f"  witness: {_humanize(verdict.witness)}")
    if note:
        lines.append(f"  note: {note}")
    return 0 if verdict.passed else 2, report, lines


def _humanize(witness) -> str:
    text = witness.describe()
    for key, pretty in (("local:iii", "family (iii)"), ("local:ii", "family (ii)"), ("local:i", "family (i)")):
        if witness.condition == key:
            return text.replace(key, pretty, 1)
    return text


# ----------------------------------------------------------------------
# exchange


def _cmd_exchange(args) -> tuple:
    f = _load_function(args.file)
    X, Y, I = _parse_sets(args, f.n)
    cert = find_exchange_set(f, X, Y, I)
    if cert is not None:
        report = {
            "input": str(args.file),
            "found": True,
            "J": list(elements_of(cert.j_set)),
            "lhs": ext_to_json(cert.lhs),
            "rhs": ext_to_json(cert.rhs),
            "size_I": I.bit_count(),
            "size_J": cert.j_set.bit_count(),
        }
        lines = [
            f"J={set_str(cert.j_set)}  lhs={ext_to_str(cert.lhs)} <= rhs={ext_to_str(cert.rhs)}",
            f"|I|={I.bit_count()} |J|={cert.j_set.bit_count()}",
        ]
        return 0, report, lines
    # no J repairs (X, Y, I): the exact exchange test confirms it and gives both sides
    tab = f.table
    w = _exchange_verdict("mnat-exc-m", (X, Y, I), tab, tab, tab, values=True).witness
    lhs, best = w.lhs, w.rhs
    report = {
        "input": str(args.file),
        "found": False,
        "lhs": ext_to_json(lhs),
        "best_rhs": ext_to_json(best),
    }
    return 2, report, [f"no exchange set: lhs={ext_to_str(lhs)} > best rhs={ext_to_str(best)}"]


# ----------------------------------------------------------------------
# duality


def _cmd_duality(args) -> tuple:
    f = _load_function(args.file)
    X, Y, I = _parse_sets(args, f.n)
    k = (Y & ~X).bit_count()
    if k > _DUALITY_CAP and not args.force:
        raise InputError(
            f"|Y\\X| = {k} exceeds the dual-box cap {_DUALITY_CAP}; pass --force to run anyway"
        )
    radius = parse_rational(args.box_radius) if args.box_radius is not None else None
    rep = fenchel_gap(f, X, Y, I, box_radius=radius)
    gap_json = ext_to_json(rep.gap) if rep.gap is not None else "inf"
    report = {
        "input": str(args.file),
        "primal": ext_to_json(rep.primal),
        "dual": ext_to_json(rep.dual),
        "gap": gap_json,
        "q_star": (
            {str(e): ext_to_json(v) for e, v in zip(rep.y0_elements, rep.q_star.entries)}
            if rep.q_star is not None
            else None
        ),
        "y0": list(rep.y0_elements),
        "box_radius": ext_to_json(rep.box_radius),
        "scale": rep.scale,
    }
    if rep.note:
        report["note"] = rep.note
    lines = [
        f"primal={ext_to_str(rep.primal)} dual={ext_to_str(rep.dual)} gap={gap_json}",
        f"box radius {ext_to_str(rep.box_radius)} (scale {rep.scale}) over Y\\X={list(rep.y0_elements)}",
    ]
    if rep.q_star is not None:
        qtxt = ", ".join(
            f"q{e}={ext_to_str(v)}" for e, v in zip(rep.y0_elements, rep.q_star.entries)
        )
        lines.append(f"q*: {qtxt if qtxt else '(empty)'}")
    if rep.note:
        lines.append(f"note: {rep.note}")
    return 0 if rep.gap == 0 else 2, report, lines


# ----------------------------------------------------------------------
# demand


def _cmd_demand(args) -> tuple:
    f = _load_function(args.file)
    prices = _parse_rational_list(args.price, "--price")
    d = demand(f, PriceVector(tuple(prices)))
    members = [list(elements_of(m)) for m in d.members.sorted_members]
    report = {
        "input": str(args.file),
        "price": [ext_to_json(v) for v in d.price.entries],
        "value": ext_to_json(d.value),
        "members": members,
    }
    lines = [
        f"demand at ({','.join(ext_to_str(v) for v in d.price.entries)}): "
        + " ".join(set_str(m) for m in d.members.sorted_members),
        f"attained value: {ext_to_str(d.value)}",
    ]
    return 0, report, lines


# ----------------------------------------------------------------------
# equivalence


def _cmd_equivalence(args) -> tuple:
    f = _load_function(args.file)
    _require_scan_cap(f.n, args.force)
    radius = parse_rational(args.radius) if args.radius is not None else None
    sampler = PriceSampler(
        seed=args.seed,
        count=args.count,
        grid_step=parse_rational(args.step),
        radius=radius,
    )
    rep = equivalence_report(f, sampler)
    exact = {
        "mnat-exc": _verdict_obj(rep.single_exchange),
        "mnat-exc-m": _verdict_obj(rep.multiple_exchange),
        "local": _verdict_obj(rep.local),
    }
    sampled = {
        name: {**_verdict_obj(sv.verdict), "samples": sv.samples}
        for name, sv in (("gs", rep.gs), ("si", rep.si), ("nc", rep.nc), ("ncsim", rep.ncsim))
    }
    overall = "pass" if rep.all_pass else "fail"
    report = {
        "input": str(args.file),
        "exact": exact,
        "sampled": sampled,
        "verdict": overall,
    }
    lines = [f"equivalence on {args.file}: {overall}"]
    for name, v in exact.items():
        lines.append(f"  {name:12s} {v['status']} (exact)")
    for name, v in sampled.items():
        tag = "pass" if v["status"] == "pass" else "refuted"
        lines.append(f"  {name:12s} {tag} ({v['samples']} samples)")
        if v["witness"]:
            lines.append(f"    witness: {json.dumps(v['witness'], sort_keys=True)}")
    return 0 if rep.all_pass else 2, report, lines


# ----------------------------------------------------------------------
# gen


def _cmd_gen(args) -> tuple:
    kind = args.kind
    weights = _parse_rational_list(args.weights, "--weights") if args.weights else None

    if kind == "modular-concave":
        if args.w is None or args.g is None:
            raise InputError("modular-concave generation needs --w and --g")
        w = PriceVector(tuple(_parse_rational_list(args.w, "--w")))
        g_seq = _parse_rational_list(args.g, "--g")
        inst, to_obj = gen_modular_plus_concave(w, g_seq), set_function_to_obj
    else:
        if kind == "uniform":
            if args.k is None or args.n is None:
                raise InputError("uniform generation needs --k and --n")
            spec = MatroidSpec.uniform(args.k, args.n, weights)
        elif kind == "free":
            if args.n is None:
                raise InputError("free generation needs --n")
            spec = MatroidSpec.free(args.n, weights)
        elif kind == "graphic":
            if not args.edges:
                raise InputError("graphic generation needs --edges like '1-2,2-3'")
            edges = []
            for part in args.edges.split(","):
                try:
                    u, v = part.strip().split("-")
                    edges.append((int(u), int(v)))
                except ValueError:
                    raise InputError(f"bad edge {part!r}; use 'u-v'") from None
            spec = MatroidSpec.graphic(edges, weights)
        else:
            if not args.blocks or not args.caps:
                raise InputError("partition generation needs --blocks '1,2|3' and --caps '1,1'")
            blocks = [
                [_parse_int(e, f"element {e!r} in block {blk!r} of --blocks")
                 for e in blk.split(",") if e.strip()]
                for blk in args.blocks.split("|")
            ]
            caps = [_parse_int(c, f"capacity {c!r} in --caps") for c in args.caps.split(",")]
            spec = MatroidSpec.partition(blocks, caps, weights)

        if args.family:
            inst, to_obj = spec.bases(), set_family_to_obj
        elif args.rank:
            inst, to_obj = gen_rank_valuation(spec), set_function_to_obj
        else:
            if spec.weights is None:
                raise InputError("weighted generation needs --weights (or pass --rank / --family)")
            inst, to_obj = gen_weighted_matroid(spec), set_function_to_obj

    text = _instance_text(to_obj, inst)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {args.output}: {e}") from None
        inst_kind = "set_family" if isinstance(inst, SetFamily) else "set_function"
        report = {"written": str(args.output), "kind": inst_kind, "n": inst.n}
        return 0, report, [f"wrote {inst_kind} (n={inst.n}) to {args.output}"]
    sys.stdout.write(text)
    return 0, None, None


# ----------------------------------------------------------------------
# parser


def _add_common(sp, caps: bool = True) -> None:
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.add_argument(
        "--no-timing", action="store_true", help="omit timing so reruns are byte-identical"
    )
    if caps:
        sp.add_argument("--force", action="store_true", help="override size caps")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = _Parser(prog="excheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide an exchange property of an instance file")
    p.add_argument("file")
    p.add_argument(
        "--property", required=True, choices=(*_FUNCTION_CHECKS, *_FAMILY_AXIOMS)
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("exchange", help="find a multi-item exchange set for (X, Y, I)")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="comma-separated elements of X")
    p.add_argument("--y", required=True, help="comma-separated elements of Y")
    p.add_argument("--i", default="", help="comma-separated elements of I (default empty)")
    _add_common(p)
    p.set_defaults(handler=_cmd_exchange)

    p = sub.add_parser("duality", help="primal/dual gap report for (X, Y, I)")
    p.add_argument("file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--i", default="")
    p.add_argument("--box-radius", default=None, help="dual search radius (rational)")
    _add_common(p)
    p.set_defaults(handler=_cmd_duality)

    p = sub.add_parser("demand", help="argmax family at a price vector")
    p.add_argument("file")
    p.add_argument("--price", required=True, help="comma-separated rationals, e.g. 3/2,1")
    _add_common(p)
    p.set_defaults(handler=_cmd_demand)

    p = sub.add_parser("equivalence", help="run all exact and sampled condition checks")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200, help="random samples per sampled check")
    p.add_argument("--step", default="1/2", help="price grid step (rational)")
    p.add_argument("--radius", default=None, help="price radius (rational; default from values)")
    _add_common(p)
    p.set_defaults(handler=_cmd_equivalence)

    p = sub.add_parser("gen", help="write a generated instance file")
    p.add_argument(
        "--kind",
        required=True,
        choices=("uniform", "graphic", "partition", "free", "modular-concave"),
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--weights", default=None, help="comma-separated rationals per element")
    p.add_argument("--edges", default=None, help="graphic edges, e.g. '1-2,2-3,1-3'")
    p.add_argument("--blocks", default=None, help="partition blocks, e.g. '1,2|3'")
    p.add_argument("--caps", default=None, help="partition capacities, e.g. '1,1'")
    p.add_argument("--rank", action="store_true", help="write the rank valuation instead")
    p.add_argument("--family", action="store_true", help="write the basis family instead")
    p.add_argument("--w", default=None, help="modular part for modular-concave")
    p.add_argument("--g", default=None, help="concave-of-cardinality values, length n+1")
    p.add_argument("--output", "-o", default=None, help="output path (default: stdout)")
    _add_common(p, caps=False)
    p.set_defaults(handler=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = perf_counter()
    try:
        code, report, lines = args.handler(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    if report is not None:
        report["command"] = args.command
        if not args.no_timing:
            report["elapsed_ms"] = round((perf_counter() - started) * 1000.0, 3)
            lines.append(f"elapsed: {report['elapsed_ms']} ms")
        print(json.dumps(report, sort_keys=True) if args.format == "json" else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
