#!/usr/bin/env python3
"""Sigma-sweep experiment over a synthetic planted-geo-cluster ensemble.

Runs louvain, louvain-sn, and snic on each ensemble graph at each sigma,
writes the sweep and improvement CSVs plus per-run snic traces, and prints
the median improvement curve.  Pass --edges/--coords instead of the
defaults to sweep a real dataset.
"""

import argparse
import statistics
import sys
from pathlib import Path

try:
    import snmod  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from snmod.cli import DEFAULT_SIGMAS, IMPROVEMENT_HEADER, SWEEP_HEADER, run_sweep, write_sweep_traces
from snmod.geograph import load_graph
from snmod.synth import SyntheticSpec, planted_geo_clusters


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", help="output directory")
    ap.add_argument("--graphs", type=int, default=10, help="ensemble size")
    ap.add_argument("--nodes", type=int, default=1000)
    ap.add_argument("--clusters", type=int, default=10)
    ap.add_argument("--spacing-km", type=float, default=2000.0)
    ap.add_argument("--max-iters", type=int, default=10)
    ap.add_argument("--edges", help="sweep this dataset instead of synthetic graphs")
    ap.add_argument("--coords")
    return ap.parse_args()


def main():
    args = parse_args()
    out_dir = Path(args.out_dir)
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)

    if args.edges and args.coords:
        datasets = [("dataset", load_graph(args.edges, args.coords, missing_policy="drop"))]
    else:
        datasets = []
        for seed in range(args.graphs):
            spec = SyntheticSpec(
                n_nodes=args.nodes,
                n_clusters=args.clusters,
                p_intra=0.06,
                p_inter=0.002,
                spacing_km=args.spacing_km,
                spread_km=20.0,
                geo_mode="scattered",
                seed=seed,
            )
            datasets.append((f"synthetic-s{seed}", planted_geo_clusters(spec)[0]))

    rows, improvements, traces = run_sweep(
        datasets, DEFAULT_SIGMAS, ("louvain", "louvain-sn", "snic"), (0,),
        agg="max", metric="haversine", max_iters=args.max_iters,
    )
    (out_dir / "sweep.csv").write_text("\n".join([SWEEP_HEADER, *rows]) + "\n")
    (out_dir / "sweep_improvements.csv").write_text(
        "\n".join([IMPROVEMENT_HEADER, *improvements]) + "\n"
    )
    write_sweep_traces(out_dir / "traces", traces)

    by_sigma: dict[float, dict[str, list[float]]] = {s: {} for s in DEFAULT_SIGMAS}
    for row in rows:
        name, sigma, algo, _seed, sn, *_ = row.split(",")
        by_sigma[float(sigma)].setdefault(algo, []).append(float(sn))
    print("sigma_km  median_snic/louvain  median_louvain-sn/louvain")
    for sigma in DEFAULT_SIGMAS:
        cells = by_sigma[sigma]
        ratios_snic = [a / b for a, b in zip(cells["snic"], cells["louvain"])]
        ratios_lsn = [a / b for a, b in zip(cells["louvain-sn"], cells["louvain"])]
        print(
            f"{sigma:8g}  {statistics.median(ratios_snic):19.2f}"
            f"  {statistics.median(ratios_lsn):25.2f}"
        )
    print(f"wrote {out_dir}/sweep.csv ({len(rows)} rows)")


if __name__ == "__main__":
    main()
