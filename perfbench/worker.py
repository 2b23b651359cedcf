"""Runs one workload's snmod commands in this process and times them.

Usage: ``python3 perfbench/worker.py PLAN.json`` (run.py writes the plan).

Each operation is one ``snmod`` CLI command, driven in-process through
``snmod.cli.main`` so the benchmark measures exactly what the command does.
Times are CPU seconds of this process; set-up is the time spent inside
``load_graph`` and ``read_partition_csv``, solve is the rest of the command.
A command that raises counts as failed, with rc -1, and the run goes on.
Each command's record is appended to the plan's progress file as it ends, so
the caller still sees what ran if this process dies or is stopped.

Untraced plans repeat whole rounds of the plan's operations while another
round is expected to end within the time budget.  Traced plans run one untraced round, then one round with
spans recorded around every layer, and write both rounds' outputs so the
caller can check that tracing changed no partition.
"""

import gc
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from tracer import Tracer


def import_snmod(root: Path):
    """Import snmod from the checkout's ``src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import snmod

    if Path(snmod.__file__).resolve().parent != src / "snmod":
        raise SystemExit(f"worker: imported snmod from {snmod.__file__}, expected {src}")
    return snmod


def run_round(cli, ops, out_dir: Path, loaders: Tracer, progress, round_no: int) -> list[dict]:
    """Run every op once; ``loaders`` records the spans that make up set-up."""
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for op in ops:
        argv = [a.replace("{out}", str(out_dir)) for a in op["argv"]]
        gc.collect()
        first_span = len(loaders)
        error = None
        buf = io.StringIO()
        w0 = time.perf_counter()
        t0 = time.process_time()
        with redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except BaseException as exc:  # any fault, SystemExit too, is one failed command
                rc, error = -1, f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - t0
        wall = time.perf_counter() - w0
        setup = loaders.outer_seconds(first_span)
        rec = {
            "round": round_no,
            "slot": op["slot"],
            "rc": rc,
            "error": error,
            "setup_s": setup,
            "solve_s": cpu - setup,
            "wall_s": wall,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "stdout": buf.getvalue(),
        }
        progress.write(json.dumps(rec) + "\n")
        progress.flush()
        records.append(rec)
    return records


def stable_stdout(text: str) -> str:
    """Command output without the wall-clock field ``detect`` prints."""
    return " ".join(w for w in text.split() if not w.startswith("seconds="))


def same_outputs(ops, dir_a: Path, dir_b: Path, recs_a, recs_b) -> list[str]:
    """Differences between two rounds' partition files and printed results."""
    problems = []
    for op, ra, rb in zip(ops, recs_a, recs_b):
        if ra["rc"] != 0 or rb["rc"] != 0:
            continue  # already counted as failed
        if stable_stdout(ra["stdout"]) != stable_stdout(rb["stdout"]):
            problems.append(f"{op['slot']}: printed output differs between rounds")
        name = op.get("partition")
        try:
            same = not name or (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        except OSError as exc:
            same = False
            problems.append(f"{op['slot']}: cannot read partition file: {exc}")
        if not same:
            problems.append(f"{op['slot']}: partition file differs between rounds")
    return problems


def install_tracer(snmod) -> Tracer:
    from snmod import cli, geograph, geometry, louvain, metrics, snic

    def insert_scan(args, kwargs, _result):
        plus = kwargs.get("plus", args[4] if len(args) > 4 else None)
        return int(plus is not None)

    t = Tracer()
    t.trace(cli, "main", "cli.command")
    t.trace(cli, "read_partition_csv", "cli.partition_io")
    t.trace(cli, "write_partition_csv", "cli.partition_io")
    t.trace(cli, "run_algorithm", "cli.run_algorithm")
    t.trace(geograph, "load_graph", "geograph.load_graph")
    t.trace(snic, "run_snic", "snic.run_snic")
    t.trace(snic, "partition_max_span", "snic.span")
    t.trace(louvain, "run_louvain", "louvain.run_louvain")
    t.trace(louvain.LevelState, "__init__", "louvain.level_init")
    t.trace(louvain, "local_move_pass", "louvain.move", count=lambda a, kw, r: r[0])
    t.trace(louvain, "aggregate_graph", "louvain.aggregate")
    t.trace(geometry.GeoKernel, "__init__", "geometry.kernel_build")
    t.trace(geometry.GeoKernel, "stats", "geometry.stats", count=insert_scan)
    t.trace(geometry.GeoKernel, "within_limit", "geometry.limit", count=lambda a, kw, r: int(not r))
    for fn in ("ng_modularity", "sn_modularity", "community_quality"):
        t.trace(metrics, fn, "metrics.score")
    return t


def layer_metrics(t: Tracer, s: dict, commands: int, overhead_s: float) -> dict[str, float]:
    """Per-layer figures per command, averaged over one traced round.

    ``s`` is ``t.summary()``.
    """

    def get(name, key):
        return s.get(name, {}).get(key, 0) / commands

    snic_runs = 0
    if "snic.run_snic" in t.names and "louvain.run_louvain" in t.names:
        run_snic = t.names.index("snic.run_snic")
        run_louvain = t.names.index("louvain.run_louvain")
        snic_runs = sum(
            1
            for nid, p in zip(t.name, t.parent)
            if nid == run_louvain and p >= 0 and t.name[p] == run_snic
        )
    checks = get("geometry.limit", "calls")
    scans = get("geometry.stats", "value")
    moves = get("louvain.move", "value")
    return {
        "geograph.load_s": get("geograph.load_graph", "self_s"),
        "geometry.kernel_builds": get("geometry.kernel_build", "calls"),
        "geometry.kernel_build_s": get("geometry.kernel_build", "self_s"),
        "geometry.stats_calls": get("geometry.stats", "calls"),
        "geometry.insert_scans": scans,
        "geometry.stats_s": get("geometry.stats", "self_s"),
        "geometry.limit_checks": checks,
        "geometry.limit_rejects": get("geometry.limit", "value"),
        "geometry.limit_s": get("geometry.limit", "self_s"),
        "geometry.limit_reject_ratio": get("geometry.limit", "value") / checks if checks else 0.0,
        "louvain.levels": get("louvain.move", "calls"),
        "louvain.moves": moves,
        "louvain.move_s": get("louvain.move", "self_s"),
        "louvain.level_init_s": get("louvain.level_init", "self_s"),
        "louvain.aggregate_s": get("louvain.aggregate", "self_s"),
        "louvain.scan_yield": moves / scans if scans else 0.0,
        "metrics.score_calls": get("metrics.score", "calls"),
        "metrics.score_s": get("metrics.score", "self_s"),
        "snic.louvain_runs": snic_runs / commands,
        "snic.span_s": get("snic.span", "self_s"),
        "cli.partition_io_s": get("cli.partition_io", "self_s"),
        "trace.overhead_s": overhead_s,
    }


def mean_solve(records) -> float:
    ok = [r["solve_s"] for r in records if r["rc"] == 0]
    return statistics.fmean(ok) if ok else 0.0


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    root = Path(plan["root"])
    work = Path(plan["work"])
    ops = plan["ops"]
    snmod = import_snmod(root)
    from snmod import cli, geograph

    loaders = Tracer()
    loaders.trace(geograph, "load_graph", "geograph.load_graph")
    loaders.trace(cli, "read_partition_csv", "cli.read_partition_csv")
    result = {}
    first_dir = work / "out"
    with open(plan["progress"], "w", encoding="utf-8") as progress:
        if not plan["trace"]:
            # whole rounds only; another round starts when it should end in time
            started = time.perf_counter()
            deadline = started + plan["seconds"]
            first = run_round(cli, ops, first_dir, loaders, progress, 0)
            rounds = 1
            problems = []
            while time.perf_counter() + (time.perf_counter() - started) / rounds <= deadline:
                again = run_round(cli, ops, work / "out-again", loaders, progress, rounds)
                problems += same_outputs(ops, first_dir, work / "out-again", first, again)
                rounds += 1
            result["problems"] = problems
        else:
            plain = run_round(cli, ops, first_dir, loaders, progress, 0)
            tracer = install_tracer(snmod)
            traced = run_round(cli, ops, work / "out-traced", loaders, progress, 1)
            overhead = mean_solve(traced) - mean_solve(plain)
            result["problems"] = same_outputs(ops, first_dir, work / "out-traced", plain, traced)
            result["spans"] = len(tracer)
            result["summary"] = tracer.summary()
            result["layers"] = layer_metrics(tracer, result["summary"], len(ops), overhead)
            tracer.dump(work / "trace.json.gz")
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
