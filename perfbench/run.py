#!/usr/bin/env python3
"""snmod benchmark: three workloads, checked outputs, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ensemble-snic --seed 1 --seconds 20 --trace 0

The run generates its inputs from ``--seed`` into ``perfbench/work/``, runs
the workload's snmod commands in a separate worker process (so its peak
memory excludes generation and checking), checks every output with the
independent checker in ``refcheck.py``, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced round.  See README.md.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import gen
import refcheck as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150
ENSEMBLE_GRAPHS = 5
ENSEMBLE_SIGMAS = (300.0, 5000.0)
# SNIC beats plain Louvain at 300 km on every graph tried, so the paper's
# claim is checked per graph there; at 5000 km, where SN tends to NG, it
# loses on a few graphs (see CHANGES.md), so there the claim is checked on
# the round's mean and the graphs it loses on are reported
CLAIM_SIGMA = 300.0
CHECKIN_SIGMA = 300.0
# Louvain's sweep count swings with the visit order, so each round runs the
# command under several engine seeds and solve_s averages them
CHECKIN_ORDERS = 4
CELLS_SIGMA = 1000.0
TOLERANCE = 1e-9
# ``detect`` prints modularity with six decimals
PRINTED_DETECT_TOL = 5e-7 + 1e-12


class Workload:
    """Inputs, commands and output checks of one workload."""

    def __init__(self):
        self.ops: list[dict] = []
        self.notes: list[str] = []  # printed as ``#`` lines

    def op(self, slot: str, argv: list[str], partition: str | None = None) -> None:
        self.ops.append({"slot": slot, "argv": argv, "partition": partition})

    def check(self, recs: dict[str, dict], out: Path, problems: list[str]) -> dict[str, float]:
        """Check one round's outputs; returns the modularity each command reports."""
        raise NotImplementedError


def detect_fields(stdout: str) -> dict[str, float]:
    fields = dict(w.split("=", 1) for w in stdout.split() if "=" in w)
    return {k: float(v) for k, v in fields.items() if k.endswith("modularity")}


class EnsembleSnic(Workload):
    """``detect --algo snic`` on acceptance-ensemble graphs at two sigmas."""

    def __init__(self, work, seed):
        super().__init__()
        self.graphs = []
        for j in range(ENSEMBLE_GRAPHS):
            gs = seed * ENSEMBLE_GRAPHS + j
            edges, coords = work / f"ens{gs}_edges.tsv", work / f"ens{gs}_coords.csv"
            gen.ensemble_graph(gs, edges, coords)
            self.graphs.append((gs, edges, coords))
            for sigma in ENSEMBLE_SIGMAS:
                slot = f"g{gs}-s{sigma:g}"
                self.op(
                    slot,
                    ["detect", "--edges", str(edges), "--coords", str(coords), "--algo", "snic",
                     "--sigma", f"{sigma:g}", "--seed", str(gs), "--out", f"{{out}}/{slot}.csv"],
                    f"{slot}.csv",
                )

    def check(self, recs, out, problems):
        from snmod.cli import main as cli_main, read_partition_csv
        from snmod.geograph import load_graph
        from snmod.metrics import SNParams, sn_modularity

        values = {}
        sn_by_sigma = {sigma: ([], []) for sigma in ENSEMBLE_SIGMAS}  # (snic, louvain)
        for gs, edges, coords in self.graphs:
            rg = ref.read_edges(edges)
            rc = ref.read_coord_csv(coords)
            base = out / f"baseline-g{gs}.csv"
            argv = ["detect", "--edges", str(edges), "--coords", str(coords), "--algo", "louvain",
                    "--sigma", "300", "--seed", str(gs), "--out", str(base)]
            try:
                with redirect_stdout(io.StringIO()):
                    rc_base = cli_main(argv)
            except Exception as exc:  # a faulty program fails the check, not the run
                rc_base = f"raising {type(exc).__name__}: {exc}"
            if rc_base != 0:
                problems.append(f"g{gs}: baseline louvain exited {rc_base}")
                continue
            base_comms = covering(rg, base, f"g{gs} baseline", problems)
            if base_comms is None:
                continue
            g = load_graph(edges, coords)
            for sigma in ENSEMBLE_SIGMAS:
                slot = f"g{gs}-s{sigma:g}"
                comms = covering(rg, out / f"{slot}.csv", slot, problems)
                if comms is None:
                    continue
                expect = ref.sn_modularity(rg, rc, comms, sigma)
                got = sn_modularity(g, read_partition_csv(out / f"{slot}.csv", g), SNParams(sigma))
                agree(slot, "sn_modularity", got, expect, TOLERANCE, problems)
                printed = detect_fields(recs[slot]["stdout"]).get("sn_modularity", float("nan"))
                agree(slot, "printed sn_modularity", printed, expect, PRINTED_DETECT_TOL, problems)
                louvain_sn = ref.sn_modularity(rg, rc, base_comms, sigma)
                if not expect > louvain_sn:
                    if sigma == CLAIM_SIGMA:
                        problems.append(
                            f"{slot}: snic SN-modularity {expect:.6g} does not beat louvain's {louvain_sn:.6g}"
                        )
                    else:
                        self.notes.append(
                            f"{slot}: snic SN-modularity {expect:.6g} loses to louvain's {louvain_sn:.6g}"
                        )
                sn_by_sigma[sigma][0].append(expect)
                sn_by_sigma[sigma][1].append(louvain_sn)
                values[slot] = got
        for sigma, (snic_sn, louvain_sn) in sn_by_sigma.items():
            if sigma == CLAIM_SIGMA or not snic_sn:
                continue
            losses = sum(1 for a, b in zip(snic_sn, louvain_sn) if not a > b)
            self.notes.append(f"sigma {sigma:g}: snic loses to louvain on {losses} of {len(snic_sn)} graphs")
            if not statistics.fmean(snic_sn) >= statistics.fmean(louvain_sn):
                problems.append(
                    f"sigma {sigma:g}: mean snic SN-modularity {statistics.fmean(snic_sn):.6g} "
                    f"is below louvain's {statistics.fmean(louvain_sn):.6g}"
                )
        return values


class CheckinLouvain(Workload):
    """``detect --algo louvain`` on a metro friendship graph with check-ins."""

    def __init__(self, work, seed):
        super().__init__()
        self.edges, self.checkins = work / "checkin_edges.tsv", work / "checkins.tsv"
        gen.checkin_graph(seed, self.edges, self.checkins)
        for j in range(CHECKIN_ORDERS):
            order = seed * CHECKIN_ORDERS + j
            slot = f"order{order}"
            self.op(
                slot,
                ["detect", "--edges", str(self.edges), "--coords", str(self.checkins),
                 "--coord-policy", "mean", "--algo", "louvain", "--sigma", f"{CHECKIN_SIGMA:g}",
                 "--seed", str(order), "--out", f"{{out}}/{slot}.csv"],
                f"{slot}.csv",
            )

    def check(self, recs, out, problems):
        from snmod.cli import read_partition_csv
        from snmod.geograph import load_graph
        from snmod.metrics import ng_modularity

        rg = ref.read_edges(self.edges)
        per_user = ref.read_checkins(self.checkins)
        g = load_graph(self.edges, self.checkins, coord_policy="mean")
        if list(g.external_ids) != rg.nodes:
            problems.append("checkin: loaded node set differs from the edge file's endpoints")
            return {}
        worst = 0.0
        for ext, node in zip(g.external_ids, g.nodes):
            lat, lon = ref.spherical_mean(per_user[ext])
            worst = max(worst, abs(node.lat - lat), abs(node.lon - lon))
        if not worst <= TOLERANCE:
            problems.append(f"checkin: loaded coordinate off the spherical mean by {worst:.3g} degrees")
        values = {}
        for op in self.ops:
            slot = op["slot"]
            comms = covering(rg, out / op["partition"], slot, problems)
            if comms is None:
                continue
            expect = ref.ng_modularity(rg, comms)
            got = ng_modularity(g, read_partition_csv(out / op["partition"], g))
            agree(slot, "ng_modularity", got, expect, TOLERANCE, problems)
            printed = detect_fields(recs[slot]["stdout"]).get("ng_modularity", float("nan"))
            agree(slot, "printed ng_modularity", printed, expect, PRINTED_DETECT_TOL, problems)
            values[slot] = got
        return values


class CellsScore(Workload):
    """``score`` of a grid-cell partition over a 10k-node geo graph."""

    def __init__(self, work, seed):
        super().__init__()
        self.edges, self.coords = work / "cells_edges.tsv", work / "cells_coords.csv"
        self.partition = work / "cells_partition.csv"
        gen.cells_graph(seed, self.edges, self.coords, self.partition)
        self.op(
            "cells",
            ["score", "--edges", str(self.edges), "--coords", str(self.coords),
             "--partition", str(self.partition), "--sigma", f"{CELLS_SIGMA:g}"],
        )

    def check(self, recs, out, problems):
        rg = ref.read_edges(self.edges)
        coords = ref.read_coord_csv(self.coords)
        comms = covering(rg, self.partition, "cells", problems)
        if comms is None:
            return {}
        lines = recs["cells"]["stdout"].splitlines()
        try:
            ng, sn = (float(v) for v in lines[1].split(","))
            quality = [float(line.split(",")[1]) for line in lines[3:]]
            if lines[0] != "ng_modularity,sn_modularity" or lines[2] != "community,quality":
                raise ValueError("unexpected headers")
        except (IndexError, ValueError) as exc:
            problems.append(f"cells: cannot parse score output ({exc})")
            return {}
        agree("cells", "ng_modularity", ng, ref.ng_modularity(rg, comms), TOLERANCE, problems)
        agree("cells", "sn_modularity", sn, ref.sn_modularity(rg, coords, comms, CELLS_SIGMA), TOLERANCE, problems)
        if len(quality) != len(comms):
            problems.append(f"cells: {len(quality)} community qualities printed, {len(comms)} communities")
            return {}
        for c, (members, q) in enumerate(zip(comms, quality)):
            agree("cells", f"community {c} quality", q,
                  ref.community_quality(rg, coords, members, CELLS_SIGMA), TOLERANCE, problems)
        agree("cells", "sum of community qualities", sum(quality), sn, TOLERANCE, problems)
        return {"cells": sn}


WORKLOADS = {
    "ensemble-snic": EnsembleSnic,
    "checkin-louvain": CheckinLouvain,
    "cells-score": CellsScore,
}


def covering(rg, path: Path, slot: str, problems: list[str]):
    try:
        return ref.communities_of(rg, ref.read_partition(path))
    except (OSError, ValueError) as exc:
        problems.append(f"{slot}: bad partition file: {exc}")
        return None


def agree(slot, what, got, expect, tol, problems) -> None:
    if not abs(got - expect) <= tol:
        problems.append(f"{slot}: {what} {got!r} differs from the checker's {expect!r}")


def slot_median(records, key: str) -> float | None:
    """Mean over the workload's commands of each command's median ``key``."""
    by_slot: dict[str, list[float]] = {}
    for rec in records:
        if rec["rc"] == 0:
            by_slot.setdefault(rec["slot"], []).append(rec[key])
    if not by_slot:
        return None
    return statistics.fmean(statistics.median(v) for v in by_slot.values())


def run_worker(plan_path: Path) -> str | None:
    """Run the worker; returns why it did not finish, or None."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            env=env, check=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.CalledProcessError as exc:
        return f"worker exited {exc.returncode}"
    except subprocess.TimeoutExpired:
        return f"worker stopped after {WORKER_TIMEOUT_S} s"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "snmod" / "cli.py").is_file():
        print(f"perfbench: no snmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the checks call snmod's public API to recompute what the program reports
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t_gen = time.perf_counter()
    workload = WORKLOADS[args.workload](work, args.seed)
    plan = {
        "root": str(ROOT),
        "work": str(work),
        "ops": workload.ops,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "result": str(work / "result.json"),
        "progress": str(work / "progress.jsonl"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    t_worker = time.perf_counter()
    unfinished = run_worker(plan_path)
    t_check = time.perf_counter()
    progress = work / "progress.jsonl"
    records = [json.loads(line) for line in progress.read_text().splitlines()] if progress.exists() else []
    # a worker that did not finish leaves one operation unaccounted for: count it failed
    attempted = len(records) + (unfinished is not None)
    failed = sum(1 for rec in records if rec["rc"] != 0) + (unfinished is not None)
    problems = [f"{rec['slot']}: exited {rec['rc']}" + (f" ({rec['error']})" if rec["error"] else "")
                for rec in records if rec["rc"] != 0]
    values = {}
    if unfinished is not None:
        problems.append(unfinished)
        result = {}
    else:
        result = json.loads((work / "result.json").read_text())
        problems += result["problems"]
        recs = {rec["slot"]: rec for rec in records if rec["round"] == 0}
        try:
            values = workload.check(recs, work / "out", problems)
        except Exception as exc:  # a check that cannot run is a failed check
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    t_end = time.perf_counter()
    print(f"# wall s: generate {t_worker - t_gen:.1f}, commands {t_check - t_worker:.1f}, "
          f"check {t_end - t_check:.1f}")
    for note in workload.notes:
        print(f"# {note}")
    for p in problems:
        print(f"# FAIL {p}")
    metrics = {}
    if args.trace:
        if "layers" in result:
            units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            if set(units) != set(result["layers"]):
                raise SystemExit("perfbench: per-layer metrics differ from BENCHMARK.json")
            metrics = {k: {"value": v, "unit": units[k]} for k, v in result["layers"].items()}
            print(f"# {result['spans']} spans written to {work / 'trace.json.gz'}")
    else:
        measured = {
            "setup_s": (slot_median(records, "setup_s"), "s"),
            "solve_s": (slot_median(records, "solve_s"), "s"),
            "peak_rss_mb": (max(r["peak_rss_kb"] for r in records) / 1024.0 if records else None, "MB"),
            "modularity": (statistics.fmean(values.values()) if values else None, "1"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in measured.items() if v is not None}
        if records:
            rounds = 1 + max(rec["round"] for rec in records)
            print(f"# {rounds} rounds of {len(workload.ops)} commands; wall s per command "
                  f"median {statistics.median(r['wall_s'] for r in records):.3f}")
    print(json.dumps({
        "correct": not problems and len(values) == len(workload.ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
