#!/usr/bin/env python3
"""Snowball-sample a check-in dataset into fixed-size subgraph files.

Expects the public Brightkite-style pair of files: a TAB-separated
friendship edge list and a check-in log (user, ISO timestamp, lat, lon,
place).  Produces one edge/coordinate file pair per sample, reloadable by
the library and the CLI.  A sample whose files could not reload to it (one
holding a node with no edge inside the sample) is skipped and reported, the
remaining seeds still run, and the script then exits with status 2.

Example:
    python scripts/brightkite_samples.py \
        --edges data/Brightkite_edges.txt \
        --checkins data/Brightkite_totalCheckins.txt \
        --out-dir data/samples --samples 10 --size 1000
"""

import argparse
import sys
from pathlib import Path

try:
    import snmod  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from snmod.cli import write_graph_files
from snmod.geograph import GraphDataError, load_graph
from snmod.sampler import SampleSpec, snowball_sample


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edges", required=True)
    ap.add_argument("--checkins", required=True)
    ap.add_argument("--out-dir", default="data/samples")
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--size", type=int, default=1000)
    ap.add_argument("--coord-policy", choices=("mean", "last"), default="mean")
    args = ap.parse_args()

    print(f"loading {args.edges} + {args.checkins} ...")
    full = load_graph(
        args.edges, args.checkins,
        coord_policy=args.coord_policy, missing_policy="drop",
    )
    print(f"loaded n={full.num_nodes} m={full.num_edges}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    skipped = 0
    for seed in range(args.samples):
        sample = snowball_sample(full, SampleSpec(args.size, seed=seed))
        edges_path = out_dir / f"sample{seed:02d}_edges.tsv"
        coords_path = out_dir / f"sample{seed:02d}_coords.csv"
        try:
            write_graph_files(sample, edges_path, coords_path)
        except GraphDataError as exc:
            skipped += 1
            print(f"sample {seed}: skipped ({exc})")
            continue
        print(f"sample {seed}: n={sample.num_nodes} m={sample.num_edges} -> {edges_path}")
    return 2 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())
