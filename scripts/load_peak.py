#!/usr/bin/env python3
"""Print what ``load_graph`` costs on two files: CPU time and peak memory.

    python scripts/load_peak.py EDGES COORDS [--policy mean|last]

The files are loaded twice in one process.  The first, untraced load gives
the CPU seconds and the process's ``ru_maxrss`` when it ends (the
interpreter with snmod imported included).  The second runs under
``tracemalloc`` and gives the traced peak during the load and the size it
retains, which is the graph returned; their ratio says how far the load
overshoots the graph.  Tracing slows the second load, so its time is not
reported.

The first line names the snmod package that ran, so a comparison can
confirm it measured each checkout's own sources.
"""

import argparse
import resource
import sys
import time
import tracemalloc
from pathlib import Path

try:
    import snmod
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import snmod

from snmod.geograph import load_graph  # noqa: E402

MB = 1024 * 1024


def max_rss_mb() -> float:
    """This process's peak resident set size in MB (KB units on Linux, bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / MB if sys.platform == "darwin" else rss / 1024


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("edges")
    ap.add_argument("coords")
    ap.add_argument("--policy", choices=("mean", "last"), default="mean")
    args = ap.parse_args()

    print(f"snmod {Path(snmod.__file__).resolve().parent}")
    t0 = time.process_time()
    g = load_graph(args.edges, args.coords, coord_policy=args.policy)
    cpu_s = time.process_time() - t0
    rss = max_rss_mb()
    print(f"nodes {g.num_nodes} edges {g.num_edges}")
    del g
    tracemalloc.start()
    g = load_graph(args.edges, args.coords, coord_policy=args.policy)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"load_cpu_s {cpu_s:.3f}")
    print(f"traced_peak_mb {peak / MB:.2f} retained_mb {retained / MB:.2f} ratio {peak / retained:.2f}")
    print(f"ru_maxrss_mb {rss:.1f}")


if __name__ == "__main__":
    main()
