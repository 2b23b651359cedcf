#!/usr/bin/env python3
"""Print one SHA-256 over the partitions and SNIC traces of a fixed run set.

Run it on two checkouts to check that a change keeps results bit-identical:
equal digests mean every partition and every SNIC trace value (iteration,
constraint, score, span) is the same.  The run set, each group timed in
process CPU seconds:

- ``ensemble-snic``: SNIC (max_iters 10) on acceptance-ensemble graphs
  (``tests/_graphs.py``) 0-5 x sigma {300, 5000} km x agg {max, sum};
- ``ensemble-ng``: plain Louvain on the same graphs;
- ``random-sn`` / ``random-snic``: 20 random 60-node graphs
  (``tests/_graphs.py``) x {haversine at 1500 km, planar at 30} x
  {max, sum}, as louvain-sn constrained to the same distance as sigma,
  and as SNIC.

Every run uses the CLI's shuffled node order with the graph's seed.  The
first line names the snmod package that ran, so a comparison can confirm
it measured each checkout's own sources.  It needs no pytest, so it runs
on every installed interpreter; equal digests across interpreters mean
results do not depend on the Python version.  With ``--verbose`` each run's own
digest is printed too, to locate a difference.
"""

import argparse
import hashlib
import random
import sys
import time
from pathlib import Path

try:
    import snmod
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import snmod
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from _graphs import ensemble_spec, random_geo_graph  # noqa: E402
from snmod.louvain import EngineConfig, run_louvain  # noqa: E402
from snmod.metrics import SNParams  # noqa: E402
from snmod.snic import SnicConfig, run_snic  # noqa: E402
from snmod.synth import planted_geo_clusters  # noqa: E402

ENSEMBLE_SIGMAS = (300.0, 5000.0)
AGGS = ("max", "sum")
RANDOM_SETTINGS = (("haversine", 1500.0), ("planar", 30.0))


def snic_record(g, params, seed):
    run = run_snic(g, SnicConfig(params, max_iters=10, seed=seed))
    trace = [(e.iteration, e.constraint_km, e.sn_modularity, e.span_km) for e in run.trace.entries]
    return run.partition.assignment, trace


def runs(ensemble_graphs: int, random_graphs: int):
    """Yield (group, run key, thunk returning the run's record)."""
    for seed in range(ensemble_graphs):
        g, _ = planted_geo_clusters(ensemble_spec(seed))
        for sigma in ENSEMBLE_SIGMAS:
            for agg in AGGS:
                params = SNParams(sigma, agg=agg)
                yield "ensemble-snic", (seed, sigma, agg), lambda g=g, p=params, s=seed: snic_record(g, p, s)
        yield "ensemble-ng", (seed,), lambda g=g, s=seed: run_louvain(g, None, EngineConfig(seed=s)).assignment
    for seed in range(random_graphs):
        g = random_geo_graph(random.Random(seed), 60, edge_p=0.08)
        for metric, dist in RANDOM_SETTINGS:
            for agg in AGGS:
                params = SNParams(dist, agg=agg, metric=metric)
                key = (seed, metric, dist, agg)
                yield "random-sn", key, lambda g=g, p=params, s=seed, d=dist: run_louvain(
                    g, p, EngineConfig(join_constraint_km=d, seed=s)
                ).assignment
                yield "random-snic", key, lambda g=g, p=params, s=seed: snic_record(g, p, s)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ensemble-graphs", type=int, default=6)
    ap.add_argument("--random-graphs", type=int, default=20)
    ap.add_argument("--verbose", action="store_true", help="print each run's digest")
    args = ap.parse_args()

    print(f"snmod {Path(snmod.__file__).resolve().parent}")
    total = hashlib.sha256()
    cpu: dict[str, float] = {}
    count: dict[str, int] = {}
    for group, key, thunk in runs(args.ensemble_graphs, args.random_graphs):
        started = time.process_time()
        record = thunk()
        cpu[group] = cpu.get(group, 0.0) + time.process_time() - started
        count[group] = count.get(group, 0) + 1
        # repr of a float round-trips exactly, so equal text means equal bits
        line = repr((group, key, record)).encode()
        total.update(line + b"\n")
        if args.verbose:
            print(f"{group} {key} {hashlib.sha256(line).hexdigest()[:16]}")
    for group in cpu:
        print(f"{group:14s} runs={count[group]:4d} cpu_s={cpu[group]:.2f}")
    print(f"digest {total.hexdigest()}")


if __name__ == "__main__":
    main()
