"""Command-line harness: detection runs, scoring, sigma sweeps, sampling, export.

Subcommands
-----------
detect          run louvain / louvain-sn / snic and write a partition CSV
score           evaluate an existing partition (global and per-community)
sweep           sigma sweep over one or more datasets with runtime columns
export-geojson  nodes and edges of a partitioned graph as GeoJSON
sample          snowball-sample a subgraph and write edge/coordinate files

Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .geograph import GeoGraph, GraphDataError, GraphFormatError, load_graph, summed
from .geometry import AGG_NAMES, METRIC_NAMES
from .louvain import EngineConfig, run_louvain
from .metrics import Partition, SNParams, check_assignment, score_terms
from .sampler import SampleSpec, snowball_sample
from .snic import SnicConfig, SnicTrace, run_snic
from .synth import SyntheticSpec, planted_geo_clusters

SWEEP_HEADER = "dataset,sigma_km,algorithm,seed,sn_modularity,ng_modularity,seconds,iterations"
IMPROVEMENT_HEADER = (
    "dataset,sigma_km,algorithm,seed,sn_modularity,pct_improvement_vs_louvain,"
    "abs_improvement_vs_louvain"
)
DEFAULT_SIGMAS = (300.0, 500.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0)
ALGORITHMS = ("louvain", "louvain-sn", "snic")


class _Parser(argparse.ArgumentParser):
    # exit 1 on usage errors; 2 stays reserved for data errors
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# -- serialization helpers ---------------------------------------------------


def write_partition_csv(path, g: GeoGraph, p: Partition) -> None:
    """Write ``node,community`` rows, external ids ascending."""
    check_assignment(g, p.assignment)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,community\n")
        for i in range(g.num_nodes):
            fh.write(f"{g.external_ids[i]},{p.assignment[i]}\n")


def read_partition_csv(path, g: GeoGraph) -> Partition:
    """Read a partition file; every graph node must appear exactly once.

    Blank and ``#`` lines are skipped; the first remaining row is a header
    when its node field is not an integer.
    """
    by_external: dict[int, str] = {}
    header = True  # whether the next row may be a header
    with open(path, "r", encoding="utf-8-sig") as fh:
        for ln, raw in enumerate(fh, 1):
            s = raw.strip()
            if not s or s[0] == "#":
                continue  # blank or comment line
            parts = s.split(",")
            if len(parts) != 2:
                raise GraphFormatError(f"partition line {ln}: expected 'node,community'")
            try:
                node = int(parts[0])
            except ValueError:
                if header:
                    header = False
                    continue  # header row
                raise GraphFormatError(f"partition line {ln}: bad node id {parts[0]!r}") from None
            header = False
            if node in by_external:
                raise GraphDataError(f"partition line {ln}: duplicate node {node}")
            label = parts[1].strip()
            if not label:
                raise GraphFormatError(f"partition line {ln}: empty community label")
            by_external[node] = label
    labels = []
    for i in range(g.num_nodes):
        ext = g.external_ids[i]
        if ext not in by_external:
            raise GraphDataError(f"partition is missing node {ext}")
        labels.append(by_external[ext])
    unknown = set(by_external) - set(g.external_ids)
    if unknown:
        raise GraphDataError(f"partition references unknown node {sorted(unknown)[0]}")
    return Partition.from_assignment(labels)


def write_graph_files(g: GeoGraph, edges_path, coords_path) -> None:
    """Write an edge file and a ``node,lat,lon`` file that reload to ``g``.

    Weights and coordinates are written as ``repr`` floats, which parse back
    to the same values bit for bit.  An edge file cannot carry a node
    without edges, so a graph with one is refused before any file is opened.
    """
    isolated = [g.external_ids[i] for i, row in enumerate(g.adj) if not row]
    if isolated:
        raise GraphDataError(
            f"node {isolated[0]} has no edges, so the written files could not "
            f"reload it ({len(isolated)} such node(s))"
        )
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for u, v, w in g.undirected_edges():
            fh.write(f"{g.external_ids[u]}\t{g.external_ids[v]}\t{w!r}\n")
    with open(coords_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,lat,lon\n")
        for ext, (lat, lon) in zip(g.external_ids, g.nodes):
            fh.write(f"{ext},{lat!r},{lon!r}\n")


def write_trace_csv(path, trace: SnicTrace) -> None:
    """Write a SNIC trace's CSV rows (header first)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in trace.csv_rows():
            fh.write(row + "\n")


def export_geojson(g: GeoGraph, p: Partition, path) -> None:
    """One Point feature per node, one LineString per edge (lon,lat order)."""
    check_assignment(g, p.assignment)
    features = []
    for i in range(g.num_nodes):
        node = g.nodes[i]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [node.lon, node.lat]},
                "properties": {"id": g.external_ids[i], "community": p.assignment[i]},
            }
        )
    for u, v, _w in g.undirected_edges():
        a, b = g.nodes[u], g.nodes[v]
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[a.lon, a.lat], [b.lon, b.lat]],
                },
                "properties": {"intra": p.assignment[u] == p.assignment[v]},
            }
        )
    collection = {"type": "FeatureCollection", "features": features}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(collection, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_csv_header(path, header: str) -> bool:
    """Return whether ``path`` holds data; raise if its first line is not ``header``.

    A file holding nothing but a byte-order mark and blank lines holds no data.
    """
    path = Path(path)
    if not path.exists():
        return False
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = fh.readline().strip()
        if not first and not fh.read().strip():
            return False
    if first != header:
        raise GraphDataError(f"{path} exists with a different header; refusing to append")
    return True


def _append_csv(path, header: str, rows: list[str]) -> None:
    """Append rows; a file without data is overwritten, starting with the header."""
    exists = _check_csv_header(path, header)
    with open(path, "a" if exists else "w", encoding="utf-8", newline="\n") as fh:
        if not exists:
            fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# -- algorithm drivers -------------------------------------------------------


def run_algorithm(g, algo, params: SNParams | None, seed: int, max_iters: int):
    """Run one algorithm; returns (partition, seconds, iterations, trace|None).

    ``params`` is unused by ``louvain``, which optimizes plain modularity.
    """
    engine = EngineConfig(seed=seed)
    trace = None
    started = time.perf_counter()
    if algo == "louvain":
        partition = run_louvain(g, None, engine)
    elif algo == "louvain-sn":
        partition = run_louvain(g, params, engine)
    elif algo == "snic":
        cfg = SnicConfig(params=params, max_iters=max_iters, seed=seed)
        partition, trace = run_snic(g, cfg)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    seconds = time.perf_counter() - started
    iterations = 1 if trace is None else len(trace.entries)
    return partition, seconds, iterations, trace


def run_sweep(datasets, sigmas, algorithms, seeds, agg, metric, max_iters):
    """Full sweep grid; returns (rows, improvement_rows, traces).

    The plain optimizer ignores sigma, so it runs once per (dataset, seed)
    and its partition is summed once and scored at every sigma from those
    sums.  SNIC's first iteration is the unconstrained louvain-sn run, so
    when both are swept the louvain-sn row is read from that iteration,
    with its optimizer seconds.
    """
    rows = []
    improvements = []
    traces = {}
    grid = [SNParams(sigma, agg, metric) for sigma in sigmas]
    for name, g in datasets:
        for seed in seeds:
            base_partition, base_seconds, _, _ = run_algorithm(g, "louvain", None, seed, max_iters)
            ng_terms, sn_terms = score_terms(g, base_partition, grid)
            base_ng = summed(ng_terms)
            base_sn = [summed(terms) for terms in sn_terms]
            if "louvain" in algorithms:
                for sigma, base in zip(sigmas, base_sn):
                    rows.append(
                        f"{name},{sigma:.12g},louvain,{seed},{base:.12g},"
                        f"{base_ng:.12g},{base_seconds:.6f},1"
                    )
            for sigma, params, base in zip(sigmas, grid, base_sn):
                results = {}
                if "snic" in algorithms:
                    results["snic"] = run_algorithm(g, "snic", params, seed, max_iters)
                    traces[(name, sigma, seed)] = results["snic"][3]
                    first = results["snic"][3].entries[0]
                    results["louvain-sn"] = (first.partition, first.seconds, 1, None)
                elif "louvain-sn" in algorithms:
                    results["louvain-sn"] = run_algorithm(g, "louvain-sn", params, seed, max_iters)
                for algo in [a for a in algorithms if a != "louvain"]:
                    partition, seconds, iterations, _ = results[algo]
                    ng, sn = map(summed, score_terms(g, partition, params))
                    rows.append(
                        f"{name},{sigma:.12g},{algo},{seed},{sn:.12g},{ng:.12g},"
                        f"{seconds:.6f},{iterations}"
                    )
                    abs_gain = sn - base
                    pct = f"{100.0 * abs_gain / abs(base):.12g}" if abs(base) > 1e-12 else ""
                    improvements.append(
                        f"{name},{sigma:.12g},{algo},{seed},{sn:.12g},{pct},{abs_gain:.12g}"
                    )
    return rows, improvements, traces


# -- subcommands -------------------------------------------------------------


def _load(args) -> GeoGraph:
    return load_graph(
        args.edges, args.coords, coord_policy=args.coord_policy, missing_policy=args.missing_policy
    )


def cmd_detect(args) -> int:
    if args.trace and args.algo != "snic":
        raise ValueError(f"--trace needs --algo snic, not {args.algo!r}")
    g = _load(args)
    params = SNParams(args.sigma, args.agg, args.metric)
    partition, seconds, _, trace = run_algorithm(
        g, args.algo, params, args.seed, args.max_iters
    )
    # the trace first, so a bad trace path leaves no partition behind
    if args.trace:
        write_trace_csv(args.trace, trace)
    write_partition_csv(args.out, g, partition)
    ng, sn = map(summed, score_terms(g, partition, params))
    print(
        f"{args.algo} n={g.num_nodes} m={g.num_edges} ng_modularity={ng:.6f} "
        f"sn_modularity={sn:.6f} seconds={seconds:.3f}"
    )
    return 0


def cmd_score(args) -> int:
    g = _load(args)
    partition = read_partition_csv(args.partition, g)
    params = SNParams(args.sigma, args.agg, args.metric)
    ng_terms, qualities = score_terms(g, partition, params)
    ng = summed(ng_terms)  # exactly ng_modularity
    sn = summed(qualities)  # exactly sn_modularity
    print("ng_modularity,sn_modularity")
    print(f"{ng:.12g},{sn:.12g}")
    print("community,quality")
    for c, q in enumerate(qualities):
        print(f"{c},{q:.12g}")
    return 0


def _parse_synthetic(text: str) -> SyntheticSpec:
    fields = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        fields[key.strip()] = value.strip()
    kwargs = {}
    for key, cast in (
        ("nodes", int),
        ("clusters", int),
        ("p_intra", float),
        ("p_inter", float),
        ("spacing_km", float),
        ("spread_km", float),
        ("mode", str),
    ):
        if key in fields:
            kwargs[{"nodes": "n_nodes", "clusters": "n_clusters", "mode": "geo_mode"}.get(key, key)] = cast(
                fields.pop(key)
            )
    if fields:
        raise ValueError(f"unknown synthetic spec keys: {sorted(fields)}")
    return SyntheticSpec(**kwargs)


def _sweep_values(text: str, cast, flag: str) -> list:
    """The comma-separated values of a sweep flag; refuses none and repeats.

    Values repeat when they print alike in the sweep's rows and trace file
    names, floats as ``:.12g``.
    """
    values = [cast(s) for s in text.split(",") if s]
    if not values or len({f"{v:.12g}" if cast is float else v for v in values}) != len(values):
        raise ValueError(f"{flag} must list one or more distinct values, not {text!r}")
    return values


def cmd_sweep(args) -> int:
    sigmas = _sweep_values(args.sigmas, float, "--sigmas")
    algorithms = _sweep_values(args.algos, str, "--algos")
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    seeds = _sweep_values(args.seeds, int, "--seeds")
    graph_seeds = _sweep_values(args.graph_seeds, int, "--graph-seeds")

    improvements_path = args.improvements or str(
        Path(args.out).with_name(Path(args.out).stem + "_improvements.csv")
    )
    if Path(improvements_path).resolve() == Path(args.out).resolve():
        raise ValueError(f"--improvements names the --out file {args.out}")
    _check_csv_header(args.out, SWEEP_HEADER)
    _check_csv_header(improvements_path, IMPROVEMENT_HEADER)
    if args.trace_dir:
        # before any run or append: a path that cannot be a directory fails here
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)

    if args.synthetic and (args.edges or args.coords):
        raise ValueError("provide either --edges/--coords or --synthetic, not both")
    if args.synthetic:
        spec = _parse_synthetic(args.synthetic)
        datasets = [
            (f"synthetic-s{gs}", planted_geo_clusters(replace(spec, seed=gs))[0]) for gs in graph_seeds
        ]
    elif args.edges and args.coords:
        datasets = [(args.dataset_name, _load(args))]
    else:
        raise ValueError("provide either --edges/--coords or --synthetic")

    rows, improvements, traces = run_sweep(
        datasets, sigmas, algorithms, seeds, args.agg, args.metric, args.max_iters
    )
    _append_csv(args.out, SWEEP_HEADER, rows)
    _append_csv(improvements_path, IMPROVEMENT_HEADER, improvements)
    if args.trace_dir:
        for (name, sigma, seed), trace in traces.items():
            write_trace_csv(Path(args.trace_dir) / f"trace_{name}_sigma{sigma:.12g}_seed{seed}.csv", trace)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_export_geojson(args) -> int:
    g = _load(args)
    partition = read_partition_csv(args.partition, g)
    export_geojson(g, partition, args.out)
    print(f"wrote {g.num_nodes} nodes and {g.num_edges} edges to {args.out}")
    return 0


def cmd_sample(args) -> int:
    g = _load(args)
    sample = snowball_sample(g, SampleSpec(args.size, args.seed))
    edges_path = f"{args.out_prefix}_edges.tsv"
    coords_path = f"{args.out_prefix}_coords.csv"
    write_graph_files(sample, edges_path, coords_path)
    print(
        f"sampled {sample.num_nodes} nodes, {sample.num_edges} edges -> "
        f"{edges_path}, {coords_path}"
    )
    return 0


# -- parser ------------------------------------------------------------------


def _add_io_flags(p, required=True):
    p.add_argument("--edges", required=required, help="edge list file (TSV)")
    p.add_argument("--coords", required=required, help="coordinate file (CSV or check-ins)")
    p.add_argument("--coord-policy", choices=("mean", "last"), default="mean")
    p.add_argument("--missing-policy", choices=("error", "drop"), default="error")


def _add_objective_flags(p):
    p.add_argument("--sigma", type=float, required=True, help="distance scale in km")
    p.add_argument("--agg", choices=AGG_NAMES, default="max")
    p.add_argument("--metric", choices=METRIC_NAMES, default="haversine")


def build_parser() -> _Parser:
    parser = _Parser(prog="snmod", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("detect", help="run a community detection algorithm")
    _add_io_flags(p)
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    _add_objective_flags(p)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="partition CSV to write")
    p.add_argument("--trace", help="per-iteration trace CSV (snic only)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("score", help="score an existing partition")
    _add_io_flags(p)
    p.add_argument("--partition", required=True)
    _add_objective_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("sweep", help="sigma sweep over datasets")
    _add_io_flags(p, required=False)
    p.add_argument("--dataset-name", default="dataset")
    p.add_argument("--synthetic", help="key=value spec: nodes,clusters,p_intra,p_inter,spacing_km,spread_km,mode")
    p.add_argument("--graph-seeds", default="0", help="generator seeds (one dataset each)")
    p.add_argument("--sigmas", default=",".join(f"{s:g}" for s in DEFAULT_SIGMAS))
    p.add_argument("--algos", default="louvain,louvain-sn,snic")
    p.add_argument("--seeds", default="0", help="engine node-order seeds")
    p.add_argument("--agg", choices=AGG_NAMES, default="max")
    p.add_argument("--metric", choices=METRIC_NAMES, default="haversine")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--improvements", help="improvement CSV (default: <out>_improvements.csv)")
    p.add_argument("--trace-dir", help="directory for per-run snic traces")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-geojson", help="export nodes/edges as GeoJSON")
    _add_io_flags(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_geojson)

    p = sub.add_parser("sample", help="snowball-sample a subgraph")
    _add_io_flags(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (GraphFormatError, GraphDataError, ValueError, OSError) as exc:
        print(f"snmod: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
