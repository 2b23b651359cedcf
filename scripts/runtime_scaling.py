#!/usr/bin/env python3
"""Measure how the iterated-constraint detector's wall time scales with n.

Generates fixed-density planted-cluster graphs at several sizes, times a
10-iteration snic run on each, fits a line, and reports the slope and R^2.
Each of --reps rounds times every size once, and each size keeps its
fastest run, as acceptance criterion 6 does: a burst of load from other
processes then slows one round, not one size.
"""

import argparse
import math
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
    ap.add_argument("--reps", type=int, default=2, help="timing rounds over all sizes")
    ap.add_argument("--out", help="optional CSV of (n, seconds)")
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s]
    cfg = SnicConfig(params=SNParams(args.sigma), max_iters=args.max_iters)
    graphs = [planted_geo_clusters(scaling_spec(n))[0] for n in sizes]
    times = [math.inf] * len(sizes)
    for _ in range(max(1, args.reps)):
        for k, graph in enumerate(graphs):
            t0 = time.perf_counter()
            run_snic(graph, cfg)
            times[k] = min(times[k], time.perf_counter() - t0)
    for n, t in zip(sizes, times):
        print(f"n={n:6d}  seconds={t:.3f}")

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


if __name__ == "__main__":
    main()
