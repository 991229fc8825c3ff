"""One-shot re-measurement of the ROADMAP baseline rows (record only).

Usage, from the repository root:

    python3 bench/baseline.py

Times each row once through the public library and writes
``bench/baseline.json``.  These numbers are context for later performance
work, not a gated workload: one run of each row, no repeats, no bounds.
Rows: ``mnat-exc`` at n = 10, 11, 12 and ``mnat-exc-m`` at n = 8, 9, 10 on
min(|S|, n/2); ``local`` at n = 12 split into the domain pre-check (the
``b-exc`` family scan of the effective domain) and the three inequality
families (the rest); ``fenchel_gap`` with |Y\\X| = 6 on min(|S|, 3) with the
default radius; and the n = 18 full table: save, load, ``IntTable`` and
exact ``demand``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


def rank_like(excheck, n: int, k: int):
    return excheck.SetFunction.from_callable(n, lambda m: Fraction(min(m.bit_count(), k)))


def main() -> int:
    src = ROOT / "src"
    if not (src / "excheck" / "__init__.py").is_file():
        print(f"error: no excheck package under {src}", file=sys.stderr)
        return 2
    os.environ.pop("EXCHECK_THREADS", None)
    sys.path.insert(0, str(src))
    import excheck
    import numpy
    from excheck import fileio

    rows = []

    def spin():
        x = 0
        for i in range(300_000):
            x += i * i % 7
        return x

    # host speed at the time of the run: the same loop takes about 20 ms on
    # an idle core of the reference host and up to twice that under contention
    host_s = min(timed(spin)[0] for _ in range(20))

    def row(name, seconds, **extra):
        rows.append(dict(name=name, seconds=seconds, **extra))
        print(f"{name:40s} {seconds:9.3f} s  {extra or ''}", flush=True)

    for n in (10, 11, 12):
        f = rank_like(excheck, n, n // 2)
        dt, v = timed(excheck.check_single_exchange, f)
        row(f"mnat-exc n={n}", dt, verdict=v.status)
    for n in (8, 9, 10):
        f = rank_like(excheck, n, n // 2)
        dt, v = timed(excheck.check_multiple_exchange, f)
        row(f"mnat-exc-m n={n}", dt, verdict=v.status)

    f = rank_like(excheck, 12, 6)
    total, v = timed(excheck.check_local, f)
    domain, _ = timed(excheck.check_family, excheck.effective_domain(f), "b-exc")
    row("local n=12", total, verdict=v.status)
    row("local n=12 domain pre-check (b-exc)", domain)
    row("local n=12 three families (rest)", max(total - domain, 0.0))

    f = rank_like(excheck, 8, 3)
    X, Y, I = 0b11, 0b11111101, 0b10  # |Y\X| = 6
    dt, rep = timed(excheck.fenchel_gap, f, X, Y, I)
    r = int(rep.box_radius * rep.scale)
    row("fenchel_gap k=6 rank-3 default radius", dt, gap=str(rep.gap),
        box_points=(2 * r + 1) ** 6)

    work = HERE / ".work" / "baseline"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "n18.json"
    dt, f = timed(rank_like, excheck, 18, 9)
    row("n=18 construction", dt)
    dt, _ = timed(fileio.save_set_function, f, path)
    row("n=18 save", dt, bytes=path.stat().st_size)
    dt, g = timed(fileio.load_instance, path)
    row("n=18 load", dt)
    try:  # the integer table may be merged into SetFunction later
        from excheck._fast import IntTable
    except ImportError:
        IntTable = None
    if IntTable is not None:
        dt, _ = timed(IntTable, g)
        row("n=18 IntTable", dt)
    price = excheck.PriceVector(tuple(Fraction(e % 5, 2) for e in range(18)))
    dt, d = timed(excheck.demand, g, price)
    row("n=18 demand", dt, members=len(d.members))
    path.unlink()

    out = {
        "note": "one-shot, record-only re-measurement of the ROADMAP baseline rows",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform(),
                    "calibration_loop_s": host_s},
        "rows": rows,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
