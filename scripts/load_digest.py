#!/usr/bin/env python3
"""Print one SHA-256 over the graph that ``load_graph`` reads from two files.

Run it on two checkouts to check that a change keeps loading byte-identical:
equal digests mean equal external ids, node coordinates (as packed
doubles, so signed zeros and the last bit count), adjacency rows and
weighted degrees.

    python scripts/load_digest.py EDGES COORDS [--policy mean|last]

The first line names the snmod package that ran, so a comparison can
confirm it measured each checkout's own sources.
"""

import argparse
import hashlib
import struct
import sys
from pathlib import Path

try:
    import snmod
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import snmod

from snmod.geograph import load_graph  # noqa: E402


def load_digest(g) -> str:
    """SHA-256 over ``external_ids``, the (lat, lon) doubles, ``adj`` and ``degrees``."""
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
    g = load_graph(args.edges, args.coords, coord_policy=args.policy)
    print(f"nodes {g.num_nodes} edges {g.num_edges}")
    print(f"digest {load_digest(g)}")


if __name__ == "__main__":
    main()
