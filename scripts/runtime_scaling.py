#!/usr/bin/env python3
"""Measure how the iterated-constraint detector's wall time scales with n.

Generates fixed-density planted-cluster graphs at several sizes, times a
10-iteration snic run on each (best of --reps), fits a line, and reports
the slope and R^2.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

try:
    import snmod  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from snmod.metrics import SNParams
from snmod.snic import SnicConfig, run_snic
from snmod.synth import SCALING_SIZES, planted_geo_clusters, scaling_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default=",".join(map(str, SCALING_SIZES)))
    ap.add_argument("--sigma", type=float, default=1000.0)
    ap.add_argument("--max-iters", type=int, default=10)
    ap.add_argument("--reps", type=int, default=2)
    ap.add_argument("--out", help="optional CSV of (n, seconds)")
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s]
    cfg = SnicConfig(params=SNParams(args.sigma), max_iters=args.max_iters)
    times = []
    for n in sizes:
        graph, _ = planted_geo_clusters(scaling_spec(n))
        best = min(
            _timed(run_snic, graph, cfg) for _ in range(max(1, args.reps))
        )
        times.append(best)
        print(f"n={n:6d}  seconds={best:.3f}")

    mean_x = statistics.fmean(sizes)
    mean_y = statistics.fmean(times)
    sxx = sum((x - mean_x) ** 2 for x in sizes)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(sizes, times)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(sizes, times))
    ss_tot = sum((y - mean_y) ** 2 for y in times)
    r2 = 1.0 - ss_res / ss_tot
    print(f"linear fit: {slope * 1000:.3f} ms/node, intercept {intercept:.3f}s, R^2 = {r2:.4f}")
    if args.out:
        Path(args.out).write_text(
            "n,seconds\n" + "".join(f"{n},{t:.6f}\n" for n, t in zip(sizes, times))
        )


def _timed(fn, *fn_args):
    t0 = time.perf_counter()
    fn(*fn_args)
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
