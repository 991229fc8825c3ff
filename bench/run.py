"""Benchmark harness for excheck: four seeded workloads through the CLI.

Usage, from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Each run is one workload in a fresh process.  It imports the package from
``src/``, generates the workload's corpus from the seed and writes it under
``bench/.work/``, then calls ``excheck.cli.main(argv)`` in process, one call
at a time (a closed loop with one caller), with stdout captured.  After an
untimed warm-up (the first call of each verb and property), timed passes
over the corpus repeat until ``--seconds`` from the start have gone by, and
at least two timed passes run.  No ``--threads`` flag is passed and
``EXCHECK_THREADS`` is unset.

Workloads (each loads one layer and leaves the others nearly idle):

    scan    full exhaustive exchange scans on instances that pass by theorem
    refute  n = 12..14 instances that fail by construction; calls exit early,
            so parsing, building, rescaling and emitting dominate
    dual    duality gap and exchange-set search on (X, Y, I), |Y\\X| = 3..6
    market  the seven-way equivalence report and exact demand

Per-layer metrics and the end-to-end numbers each should move:

    fileio.*, core.*   call_p50_ms, wall_s and peak_rss_mb on refute only
    fast.*             refute, and market a little
    checkers.*         wall_s and call_tail_ms on scan; slightly refute and the
                       exact part of market; nothing on dual
    duality.*          wall_s, call_tail_ms and peak_rss_mb on dual only
    econ.*             wall_s on market
    cli.*              call_p50_ms on refute

A shared host changes speed by up to half for seconds at a time, which
no number of repeats averages away, so every time is taken at reference
speed.  A fixed calibration kernel (``calibrate``: integer bit loops,
``Fraction`` sums, dict churn, JSON and small numpy reductions; no excheck
code, so no change to the program moves it) runs between calls.  Each call
time is divided by the mean of the calibration times on either side of its
block and multiplied by ``REF_CAL_S``, the kernel's time on the quiet
reference host; ``duality`` calls dominated by the box sweep, which runs in
numpy's vector loops and slows less, use the kernel's slowdown to the power
``SWEEP_ELASTICITY``.  A call's time is the median of these over its
repeats; ``wall_s`` is their sum over the corpus, and the call percentiles
are taken over them.  Each call runs as a block of back-to-back repeats
sized to about ``BLOCK_S``.  The measured wall times are printed and
recorded next to them.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced passes with traced re-issues of the same calls
through the public library (see ``tracing.py``) and prints per-layer metrics
and the tracing overhead.  Outputs are checked after the timed loop:
theorem-predicted verdicts, witness replays from the raw rational tables,
duality and demand by brute force, agreement between passes, and, at the
default seed, the goldens in ``bench/golden/``.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the per-call record and all spans go to
``bench/.work/<workload>/``.

``--write-golden`` stores the default seed's reports as the new goldens.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
MIN_PASSES = 2  # timed passes a run always completes
SETUP_REPS = 5  # set-ups per run; setup_s takes their median
TAIL_BEYOND = 10  # calls that must lie beyond the tail percentile
BLOCK_S = 0.1  # a call repeats back to back until its block covers this
MAX_REPS = 50  # at most this many repeats in one block
# Median time of one ``calibrate()`` kernel on the quiet reference host
# (2 vCPUs, CPython 3.11.7, numpy 2.4); times are reported at this speed.
REF_CAL_S = 0.00125
# How a call's time follows the kernel when the host slows: it grows as
# (kernel time) ** elasticity.  A ``duality`` call long enough for the box
# sweep to dominate (at least SWEEP_S at reference speed the first time;
# the corpus has none between 15 and 45 ms) spends most of its time in
# numpy's vector loops, which a slow phase slows less than interpreted
# code: over 90 s of such calls alternating with the kernel, a phase that
# slowed the kernel by 1.6-2.2x slowed them by the 0.46-0.72th power of
# that (median 0.64).  Every other call follows the kernel one to one.
SWEEP_ELASTICITY = 0.6
SWEEP_S = 0.03

_CAL_RNG = random.Random(0)
_CAL_VALUES = [_CAL_RNG.randint(-50, 50) for _ in range(512)]
_CAL_TEXT = json.dumps([{"set": [i % 7, i % 11], "value": v} for i, v in enumerate(_CAL_VALUES)])
_CAL_ARRAY = np.array(_CAL_VALUES * 8, dtype=np.int64)


def _kernel() -> int:
    """A fixed mix of what excheck spends its time on; it imports nothing of it."""
    acc = 0
    for m in range(1, 6000):
        acc += (m & -m) ^ (m >> 2) & 7
    q = Fraction(0)
    for v in _CAL_VALUES[:60]:
        q += Fraction(v, 7)
    table = {}
    for i, v in enumerate(_CAL_VALUES):
        table[(i & 31, v)] = table.get((i & 31, v), 0) + 1
    rows = json.loads(_CAL_TEXT)
    arr = _CAL_ARRAY
    for _ in range(20):
        arr = np.maximum(arr[::-1], arr) - 1
    return acc + int(q) + len(table) + len(rows) + int(arr.sum())


def calibrate() -> float:
    """Seconds of one calibration kernel, the median of three back-to-back
    runs, with the garbage collector off so the program's heap cannot
    slow it."""
    runs = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            _kernel()
            runs.append(perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(runs)[1]


def at_reference(seconds: float, cal: float, elasticity: float = 1.0) -> float:
    """A time measured while the kernel took ``cal`` s, taken to reference speed."""
    return seconds * (REF_CAL_S / cal) ** elasticity


def percentile(values: list, p: float) -> float:
    """Linear-interpolated p-th percentile."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(corpus_size: int) -> int:
    """Highest whole percentile with at least ten of the corpus calls beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / corpus_size))


def import_seconds(src: Path) -> float:
    """Time to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import excheck; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def run_call(main, argv: list):
    """One in-process CLI call: (exit code or None, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crashing call counts as failed; the run goes on
            code = None
            print(repr(e), file=sys.stderr)
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def parse_report(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Loop:
    """Passes over the corpus, each output compared with the first.

    A paced loop runs each call as a block of back-to-back repeats with the
    calibration kernel between blocks, and keeps each repeat's time taken
    to reference speed with the mean calibration time on either side of its
    block.  An unpaced loop (the traced run) runs each call once per pass
    and times only that.
    """

    def __init__(self, calls, main, paced: bool):
        self.calls = calls
        self.main = main
        self.paced = paced
        self.ref: dict[str, tuple] = {}
        self.reps = {c.cid: 1 for c in self.calls}
        self.elasticity: dict[str, float] = {}
        self.times: dict[str, list] = {c.cid: [] for c in self.calls}
        self.at_ref: dict[str, list] = {c.cid: [] for c in self.calls}
        self.cal_times: list[float] = []
        self.pass_times: list[float] = []
        self.attempted = 0
        self.mismatched: dict[str, int] = {}
        self.executed: dict[str, int] = {c.cid: 0 for c in self.calls}

    def record(self, cid: str, code, out: str, same=None) -> None:
        self.attempted += 1
        self.executed[cid] += 1
        ref = self.ref.setdefault(cid, (code, out))
        ok = code is not None and (same(ref, code, out) if same else (code, out) == ref)
        if not ok:
            self.mismatched[cid] = self.mismatched.get(cid, 0) + 1

    def warm_up(self) -> None:
        """Run the first call of each kind (verb and property) once, untimed,
        so lazy set-up inside the program finishes before timing."""
        seen = set()
        for call in self.calls:
            kind = (call.verb, call.opts.get("property"))
            if kind not in seen:
                seen.add(kind)
                code, _, out, _ = run_call(self.main, call.argv)
                self.record(call.cid, code, out)

    def one_pass(self, deadline=None) -> bool:
        """Run the corpus once; at ``deadline`` stop early and record no pass
        time, though each finished block still counts."""
        gc.collect()
        t0 = perf_counter()
        cal = calibrate() if self.paced else 0.0
        for call in self.calls:
            if deadline is not None and perf_counter() >= deadline:
                return False
            cid = call.cid
            block = []
            for _ in range(self.reps[cid]):
                code, dt, out, _ = run_call(self.main, call.argv)
                self.record(cid, code, out)
                block.append(dt)
            self.times[cid] += block
            if self.paced:
                after = calibrate()
                speed = (cal + after) / 2
                if cid not in self.elasticity:
                    sweep = call.verb == "duality" and at_reference(block[0], speed) >= SWEEP_S
                    self.elasticity[cid] = SWEEP_ELASTICITY if sweep else 1.0
                self.cal_times.append(after)
                self.at_ref[cid] += [at_reference(dt, speed, self.elasticity[cid])
                                     for dt in block]
                cal = after
                typical = statistics.median(self.times[cid])
                self.reps[cid] = max(1, min(MAX_REPS, round(BLOCK_S / max(typical, 1e-6))))
        self.pass_times.append(perf_counter() - t0)
        return True

    def timed(self, seconds: float) -> None:
        """Warm up, then ``MIN_PASSES`` whole passes, then more until
        ``seconds`` from the start are up; the last pass may stop early."""
        deadline = perf_counter() + seconds
        self.warm_up()
        while len(self.pass_times) < MIN_PASSES or perf_counter() < deadline:
            if not self.one_pass(deadline if len(self.pass_times) >= MIN_PASSES else None):
                return


def same_keys(ref, code, out) -> bool:
    """A traced re-issue must match the CLI on every key it emits."""
    rep, want = parse_report(out), parse_report(ref[1])
    return code == ref[0] and rep is not None and want is not None and all(
        want.get(k) == v for k, v in rep.items()
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="store this seed's reports as the goldens of the workload")
    opts = ap.parse_args()

    src = ROOT / "src"
    if not (src / "excheck" / "__init__.py").is_file():
        print(f"error: no excheck package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.pop("EXCHECK_THREADS", None)
    os.chdir(ROOT)
    sys.path.insert(0, str(src))

    import excheck
    from excheck import cli

    if Path(excheck.__file__).resolve().parent != (src / "excheck").resolve():
        print(f"error: imported excheck from {excheck.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = Path("bench") / ".work" / opts.workload

    setup, setup_raw = [], []
    cal = calibrate()
    for _ in range(SETUP_REPS):
        imported = import_seconds(src)
        t0 = perf_counter()
        insts, calls = corpus.build(opts.workload, opts.seed, workdir)
        took = imported + perf_counter() - t0
        after = calibrate()
        setup_raw.append(took)
        setup.append(at_reference(took, (cal + after) / 2))
        cal = after

    loop = Loop(calls, cli.main, paced=not opts.trace)
    spans = []
    if opts.trace:
        import tracing

        tracer = tracing.Tracer()
        traced_passes = []
        sizes = {}
        start = perf_counter()
        loop.warm_up()
        pair = 0.0
        # alternate untraced and traced passes so drift and warm-up hit both;
        # start another pair only if at least half of it fits in the time left
        while not traced_passes or perf_counter() - start + pair / 2 <= opts.seconds:
            t_pair = perf_counter()
            loop.one_pass()
            gc.collect()
            tracer.pass_no = len(traced_passes)
            t0 = perf_counter()
            for call in calls:
                tracer.call = call.cid
                try:
                    out, code, sizes[call.cid] = tracing.reissue(tracer, call.argv)
                except Exception as e:  # counted as a failed call
                    out, code = repr(e), None
                loop.record(call.cid, code, out, same=same_keys)
            traced_passes.append(perf_counter() - t0)
            pair = perf_counter() - t_pair
        spans = tracer.spans
    else:
        loop.timed(opts.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- correctness, outside the timed loop
    results = {cid: (code, parse_report(out)) for cid, (code, out) in loop.ref.items()}
    full = {key: corpus.materialize(inst) for key, inst in insts.items()}
    bad = checks.check_pass(full, calls, results, excheck)
    golden_path = HERE / "golden" / f"{opts.workload}.json"
    if opts.write_golden:
        if opts.seed != DEFAULT_SEED or bad or loop.mismatched:
            print(f"error: refusing to write goldens: {bad or loop.mismatched}", file=sys.stderr)
            return 1
        golden = {c.cid: {"exit": results[c.cid][0], "report": results[c.cid][1]} for c in calls}
        golden_path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {golden_path.relative_to(ROOT)} ({len(golden)} calls)")
    if opts.seed == DEFAULT_SEED:
        golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
        for cid, errs in checks.check_goldens(calls, results, golden).items():
            bad.setdefault(cid, []).extend(errs)
    for cid, count in loop.mismatched.items():
        bad.setdefault(cid, []).append(f"{count} executions differ from the first")
    failed = sum(n for cid, n in loop.executed.items() if cid in bad)
    for cid, errs in sorted(bad.items()):
        print(f"FAIL {cid}: {'; '.join(errs)}")

    counts = {}
    per_call = []
    for call in calls:
        inst = full[call.inst]
        c = checks.work_counts(inst, call, results[call.cid][1], os.path.getsize(call.path))
        per_call.append({"cid": call.cid, "argv": call.argv, "exit": results[call.cid][0],
                         "times_s": loop.times[call.cid],
                         "at_reference_s": loop.at_ref[call.cid], "computed": c})
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v
    emit_bytes = sum(len(out.encode()) for _, out in loop.ref.values())

    info = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
            "passes": len(loop.pass_times), "pass_times_s": loop.pass_times,
            "setup_reps_s": setup, "setup_measured_s": setup_raw,
            "calibration_s": loop.cal_times, "ref_calibration_s": REF_CAL_S,
            "computed_per_pass": counts, "calls": per_call}
    if opts.trace:
        metrics = layer_metrics(tracing, spans, traced_passes, sizes, counts, emit_bytes,
                                min(loop.pass_times))
        info["spans"] = spans
        print("per-layer time of one traced pass (median):")
        for line in tracing.layer_table(metrics):
            print(line)
        top = max(tracing.LAYERS[1:], key=lambda layer: metrics[f"{layer}.self_s"])
        print(f"dominant layer below the cli: {top}")
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per pass "
              f"({metrics['trace.wall_s']:.4f} s traced vs "
              f"{metrics['trace.untraced_wall_s']:.4f} s untraced)")
        wanted = spec["per_layer"]
    else:
        # each call at reference speed: median over its repeats
        best = [statistics.median(loop.at_ref[c.cid]) for c in calls]
        measured = [statistics.median(loop.times[c.cid]) for c in calls]
        p = tail_percentile(len(calls))
        metrics = {
            "wall_s": sum(best),
            "call_p50_ms": 1000 * statistics.median(best),
            "call_tail_ms": 1000 * percentile(best, p),
            "fail_share": (len(bad) + 1) / (len(calls) + 1),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        beyond = sum(1 for t in best if 1000 * t > metrics["call_tail_ms"])
        info["call_tail"] = {"percentile": p, "calls": len(best), "beyond": beyond}
        info["measured_wall_s"] = sum(measured)
        for rec, t in zip(per_call, best):
            rec["reference_s"] = t
            rec["elasticity"] = loop.elasticity[rec["cid"]]
        host = statistics.median(loop.cal_times) / REF_CAL_S
        print(f"passes: {len(loop.pass_times)} of {len(calls)} calls after the warm-up; "
              f"{loop.attempted} calls attempted")
        print("times are at reference speed: each call's median over its repeats of "
              "call time x (REF_CAL_S / adjacent calibration time) ** elasticity")
        print(f"host ran at {1 / host:.3f} x reference speed (median calibration "
              f"{1000 * statistics.median(loop.cal_times):.3f} ms vs {1000 * REF_CAL_S} ms); "
              f"measured wall {sum(measured):.4f} s, at reference speed {sum(best):.4f} s")
        print(f"call_tail_ms is p{p} over {len(best)} calls ({beyond} beyond it)")
        print(f"fail_share is (failing calls + 1) / (corpus calls + 1): {len(bad)} of {len(calls)} "
              f"calls failed, {failed} of {loop.attempted} executions")
        wanted = spec["end_to_end"]
    for k in sorted(counts):
        print(f"computed {k}: {counts[k]} per pass")

    info["metrics"] = metrics
    out_path = workdir / f"result-seed{opts.seed}-trace{opts.trace}.json"
    out_path.write_text(json.dumps(info, sort_keys=True) + "\n")
    print(f"details: {out_path}")
    result = {
        "correct": not bad,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for m in wanted:
        print(f"{m['name']:32s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def layer_metrics(tracing, spans, traced_passes, sizes, counts, emit_bytes, untraced_wall) -> dict:
    """Median over traced passes of each layer quantity, plus rates."""
    per_pass = tracing.aggregate(spans, sizes)
    keys = set().union(*per_pass)
    m = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in keys}
    traced_wall = min(traced_passes)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out = {f"{layer}.{kind}": m[f"{layer}.{kind}"]
           for layer in tracing.LAYERS for kind in ("busy_s", "self_s")}
    sampled = sum(m.get(f"econ.{k}", 0.0) for k in ("gs", "si", "nc", "ncsim", "demand"))
    out.update({
        "cli.emit_bytes": emit_bytes,
        "fileio.load_s": m["fileio.load"],
        "fileio.bytes": counts["fileio.bytes"],
        "fileio.mb_per_s": rate(counts["fileio.bytes"] / 1e6, m["fileio.load"]),
        "core.build_s": m["core.build"],
        "core.entries": counts["core.entries"],
        "fast.rescale_s": m["fast.self_s"] if tracing.IntTable is not None else 0.0,
        "fast.entries": m["fast.entries"] if tracing.IntTable is not None else 0,
        "checkers.pairs": counts["checkers.pairs"],
        "checkers.pairs_per_s": rate(counts["checkers.pairs"], m["checkers.self_s"]),
        "checkers.early_exit_share": rate(counts["checkers.early_exits"], counts["checkers.runs"]),
        "duality.box_points": counts["duality.box_points"],
        "duality.box_points_per_s": rate(counts["duality.box_points"],
                                         m.get("duality.fenchel_gap", 0.0)),
        "duality.gap_closed_share": rate(counts["duality.closed"], counts["duality.calls"]),
        "econ.exact_s": m.get("econ.exact_s", 0.0),
        "econ.prices": counts["econ.prices"],
        "econ.prices_per_s": rate(counts["econ.prices"], sampled),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    for name in ("mnat_exc", "mnat_exc_m", "local", "valuated_matroid", "family",
                 "find_exchange_set"):
        out[f"checkers.{name}_s"] = m.get(f"checkers.{name}", 0.0)
    out["duality.fenchel_gap_s"] = m.get("duality.fenchel_gap", 0.0)
    for name in ("demand", "gs", "si", "nc", "ncsim"):
        out[f"econ.{name}_s"] = m.get(f"econ.{name}", 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
