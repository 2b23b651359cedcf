#!/usr/bin/env python3
"""Compare two commits on one benchmark workload in alternating pairs.

Usage (from inside the git checkout):

    python3 scripts/bench_pairs.py --base HEAD~1 --change HEAD \\
        --workload ensemble-snic --pairs 10 --seeds 1,2 --seconds 30 \\
        --out BENCH_18.json

Each side is exported with ``git archive`` into its own temporary
directory, and every ``perfbench/run.py`` call runs with
``PYTHONDONTWRITEBYTECODE=1``, so neither side ever has bytecode caches.
Pair k runs with seed ``seeds[k % len(seeds)]``; even pairs run the base
first and odd pairs the change first.  The pairs make one block: every
run's result line plus a summary (see :func:`summarise`), which gives each
end-to-end metric of ``BENCHMARK.json`` the benchmark's no-regression
verdict (see :func:`verdict`).  ``--out`` holds
a list of blocks, and each call appends its own, so every block run stays
on record.  Runs are sequential: each run's own worker is the only process
this script keeps busy.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# name -> {"better": "lower" | "higher", "bound": relative bound, ...}
END_TO_END = {
    m["name"]: m
    for m in json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
}


def export(rev: str, dest: Path) -> str:
    """Write ``git archive rev`` into ``dest``; returns the full commit id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in checkout ``root``; its result line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(base: list[float], change: list[float]) -> dict:
    """Both sides' spreads of a lower-is-better metric and how often the
    change beat the base.

    ``base[k]`` and ``change[k]`` are pair k's values.  ``wins`` counts the
    pairs in which the change was strictly lower; ``median_gap`` is the base's
    median minus the change's (positive when the change is better) and
    ``beyond_base_iqr`` says whether it exceeds the base's quartile distance.
    """
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need two equally long lists of at least two values")
    b, c = spread(base), spread(change)
    gap = b["median"] - c["median"]
    return {
        "wins": sum(x > y for x, y in zip(base, change)),
        "base": b,
        "change": c,
        "median_gap": gap,
        "relative_gap": gap / b["median"] if b["median"] else None,
        "beyond_base_iqr": gap > b["iqr"],
    }


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The benchmark's no-regression verdict on one end-to-end metric.

    The change regresses when its median is worse than the base's, in the
    ``better`` direction, by more than ``bound`` times the base's median.
    ``worse_by`` is that difference relative to the base's median (negative
    when the change is better; None for a zero base median).
    """
    b, c = statistics.median(base), statistics.median(change)
    worse = c - b if better == "lower" else b - c
    return {
        "better": better,
        "bound": bound,
        "worse_by": worse / abs(b) if b else None,
        "regressed": worse > bound * abs(b),
    }


def summarise(runs: list[dict]) -> dict:
    """Summary of a block of pairs, each ``{"base": result, "change": result}``.

    ``verdict`` judges every end-to-end metric by its ``BENCHMARK.json``
    direction and bound; ``metrics`` compares the lower-is-better ones pair
    by pair (see :func:`compare`), and ``modularity_equal`` counts the pairs
    in which both sides read the same modularity.  ``correct`` and
    ``failed`` are per side: runs reporting ``correct`` and failed
    operations summed over the runs.
    """
    sides = ("base", "change")
    measured = {name for pair in runs for side in sides for name in pair[side]["metrics"]}
    names = sorted(measured & END_TO_END.keys())
    value = lambda pair, side, name: pair[side]["metrics"][name]["value"]
    values = lambda name: ([value(pair, side, name) for pair in runs] for side in sides)
    return {
        "pairs": len(runs),
        "correct": {side: sum(bool(pair[side]["correct"]) for pair in runs) for side in sides},
        "failed": {side: sum(pair[side]["failed"] for pair in runs) for side in sides},
        "modularity_equal": sum(
            value(pair, "base", "modularity") == value(pair, "change", "modularity") for pair in runs
        ),
        "verdict": {
            name: verdict(*values(name), END_TO_END[name]["better"], END_TO_END[name]["bound"])
            for name in names
        },
        "metrics": {name: compare(*values(name)) for name in names if END_TO_END[name]["better"] == "lower"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--change", required=True, help="commit under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True, help="JSON file whose list of blocks gets this one")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if args.pairs < 2 or not seeds:
        raise SystemExit("bench_pairs: need at least two pairs and one seed")
    out = Path(args.out)
    blocks = json.loads(out.read_text())["blocks"] if out.exists() else []

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: Path(tmp) / side for side in ("base", "change")}
        shas = {}
        for side, root in roots.items():
            root.mkdir()
            shas[side] = export(getattr(args, side), root)
        runs = []
        for k in range(args.pairs):
            seed = seeds[k % len(seeds)]
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {"pair": k, "seed": seed, "first": order[0]}
            for side in order:
                result = run_once(roots[side], args.workload, seed, args.seconds)
                pair[side] = result
                solve = result["metrics"].get("solve_s", {}).get("value")
                print(f"pair {k} seed {seed} {side:6s} correct={result['correct']} "
                      f"failed={result['failed']} solve_s={solve}", flush=True)
            runs.append(pair)

    summary = summarise(runs)
    blocks.append({
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": seeds,
        "base": shas["base"],
        "change": shas["change"],
        "summary": summary,
        "runs": runs,
    })
    out.write_text(json.dumps({"blocks": blocks}, indent=1) + "\n")
    print(f"correct {summary['correct']}, failed {summary['failed']}, "
          f"modularity equal in {summary['modularity_equal']} of {summary['pairs']} pairs")
    for name, m in summary["metrics"].items():
        print(f"{name}: base median {m['base']['median']:.4g} (iqr {m['base']['iqr']:.3g}), "
              f"change median {m['change']['median']:.4g}; "
              f"change lower in {m['wins']} of {summary['pairs']} pairs")
    for name, v in summary["verdict"].items():
        worse = "n/a" if v["worse_by"] is None else f"{v['worse_by']:+.2%}"
        print(f"{name}: change median worse by {worse} ({v['better']} is better, bound "
              f"{v['bound']:.0%}): {'REGRESSED' if v['regressed'] else 'within bound'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
