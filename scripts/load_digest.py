#!/usr/bin/env python3
"""Print what ``load_graph`` reads from two files, and what the load costs.

    python scripts/load_digest.py EDGES COORDS [--policy mean|last]

The ``digest`` line is one SHA-256 over the loaded graph: equal digests on
two checkouts mean equal external ids, node coordinates (as packed doubles,
so signed zeros and the last bit count), adjacency rows and weighted
degrees, so a change can be shown to keep loading byte-identical.

The files are loaded twice in one process.  The first, untraced load gives
the CPU seconds and the process's ``ru_maxrss`` when it ends (the
interpreter with snmod imported included); both are read before the digest
is taken, whose text of the rows would count in the peak.  The second load
runs under ``tracemalloc`` and gives the traced peak during the load and the
size it retains, which is the graph returned; their ratio says how far the
load overshoots the graph.  Tracing slows the second load, so its time is
not reported.

The first line names the snmod package that ran, so a comparison can
confirm it measured each checkout's own sources.
"""

import argparse
import resource
import struct
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


def load_digest(g) -> str:
    """SHA-256 over ``external_ids``, the (lat, lon) doubles, ``adj`` and ``degrees``."""
    # imported only once ru_maxrss is read: hashlib's OpenSSL adds about 3.6 MB to it
    import hashlib

    h = hashlib.sha256()
    h.update(repr(g.external_ids).encode())
    for p in g.nodes:
        h.update(struct.pack("<dd", p.lat, p.lon))
    # repr of a float round-trips exactly, so equal text means equal bits
    h.update(repr(g.adj).encode())
    h.update(repr(g.degrees).encode())
    return h.hexdigest()


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
    # this process's peak resident set size: ru_maxrss counts KB on Linux, bytes on macOS
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (MB if sys.platform == "darwin" else 1024)
    print(f"nodes {g.num_nodes} edges {g.num_edges}")
    print(f"digest {load_digest(g)}")
    del g
    tracemalloc.start()
    g = load_graph(args.edges, args.coords, coord_policy=args.policy)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"load_cpu_s {cpu_s:.3f}")
    print(f"traced_peak_mb {peak / MB:.2f} retained_mb {retained / MB:.2f} ratio {peak / retained:.2f}")
    print(f"ru_maxrss_mb {rss_mb:.1f}")


if __name__ == "__main__":
    main()
