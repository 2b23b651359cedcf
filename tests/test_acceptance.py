"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The sigma-sweep ensemble
(10 planted-geo-cluster graphs, 1000 nodes, 10 sites spaced 2000 km) is built
once and shared by the trend, positivity, and frequency checks.  The
real-data harness is skipped unless check-in dataset files are present (see
``_brightkite_paths``).
"""

import math
import os
import random
import statistics
import time
from pathlib import Path

import pytest

from snmod.cli import main
from snmod.geograph import GeoGraph, load_graph
from snmod.louvain import EngineConfig, run_louvain
from snmod.metrics import (
    Partition,
    SNParams,
    community_stats,
    ng_modularity,
    sn_modularity,
)
from snmod.oracle import oracle_best
from snmod.sampler import SampleSpec, snowball_sample
from snmod.snic import SnicConfig, run_snic
from snmod.synth import SCALING_SIZES, SyntheticSpec, planted_geo_clusters, scaling_spec

from conftest import bridged_triangles, colocated_clusters, random_partition
from _graphs import ensemble_spec, random_geo_graph
from _naive import naive_ng, naive_sn

SIGMAS = (300.0, 500.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0)
TRIANGLES = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)


def _finish(cid: str, problems: list[str], detail: str = ""):
    status = "FAIL" if problems else "PASS"
    print(f"[acceptance] criterion {cid}: {status}{' - ' if detail else ''}{detail}")
    assert not problems, f"criterion {cid}: " + "; ".join(problems[:10])


@pytest.fixture(scope="module")
def sigma_ensemble():
    """All three algorithms over 10 graphs x 7 sigmas; built once."""
    started = time.perf_counter()
    records = []
    for seed in range(10):
        g, _ = planted_geo_clusters(ensemble_spec(seed))
        louvain_p = run_louvain(g)
        louvain_ng = ng_modularity(g, louvain_p)
        for sigma in SIGMAS:
            params = SNParams(sigma)
            louvain_sn = sn_modularity(g, louvain_p, params)
            lsn_p = run_louvain(g, params)
            snic_p, trace = run_snic(g, SnicConfig(params=params, max_iters=10))
            records.append(
                {
                    "graph": seed,
                    "sigma": sigma,
                    "louvain_sn": louvain_sn,
                    "louvain_ng": louvain_ng,
                    "louvain_sn_alg": sn_modularity(g, lsn_p, params),
                    "snic_sn": sn_modularity(g, snic_p, params),
                    "snic_ng": ng_modularity(g, snic_p),
                    "trace": trace,
                }
            )
    return {"records": records, "build_seconds": time.perf_counter() - started}


def test_criterion_1_metric_oracle_equivalence():
    """Cached statistics agree with the literal pair-loop evaluation."""
    started = time.perf_counter()
    problems = []
    rng = random.Random(20240)
    worst = 0.0
    for case in range(200):
        n = rng.randint(2, 30)
        g = random_geo_graph(rng, n, edge_p=rng.uniform(0.1, 0.6))
        partitions = [
            Partition.singletons(n),
            Partition((0,) * n),
            random_partition(rng, n),
            random_partition(rng, n),
        ]
        params = SNParams(
            10 ** rng.uniform(0.0, 3.7),
            agg=rng.choice(("max", "sum")),
            metric=rng.choice(("haversine", "haversine", "planar")),
        )
        for p in partitions:
            d1 = abs(ng_modularity(g, p) - naive_ng(g, p))
            d2 = abs(sn_modularity(g, p, params) - naive_sn(g, p, params))
            worst = max(worst, d1, d2)
            if d1 > 1e-12:
                problems.append(f"case {case}: ng deviates by {d1:.2e}")
            if d2 > 1e-12:
                problems.append(f"case {case}: sn deviates by {d2:.2e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s (budget 10s)")
    _finish("1", problems, f"200 graphs, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_exact_identities():
    """Single-community zero, zero-distance equivalence, large-sigma limit."""
    started = time.perf_counter()
    problems = []
    rng = random.Random(777)

    for case in range(50):
        g = random_geo_graph(rng, rng.randint(2, 20), edge_p=0.4)
        v = ng_modularity(g, Partition((0,) * g.num_nodes))
        if abs(v) > 1e-12:
            problems.append(f"single community scored {v:.2e}")

    for case in range(50):
        g = random_geo_graph(rng, rng.randint(2, 15), edge_p=0.4, colocated=True)
        p = random_partition(rng, g.num_nodes)
        sigma = 10 ** rng.uniform(-3.0, 4.0)
        if sn_modularity(g, p, SNParams(sigma)) != ng_modularity(g, p):
            problems.append(f"zero-distance case {case} not exactly equal")

    for case in range(20):
        g = random_geo_graph(rng, rng.randint(3, 15), edge_p=0.4)
        p = random_partition(rng, g.num_nodes)
        ng = ng_modularity(g, p)
        gaps = []
        for sigma in (1e4, 1e5, 1e6):
            params = SNParams(sigma)
            sn = sn_modularity(g, p, params)
            bound = 0.0
            for members in p.communities:
                stats = community_stats(g, members, params)
                bound += abs(stats.sum_in - stats.sum_deg**2 / g.two_m) * stats.dispersion
            bound /= g.two_m
            if abs(sn - ng) > bound + 1e-12:
                problems.append(f"limit bound violated at sigma={sigma:g}")
            gaps.append(abs(sn - ng))
        if not (gaps[0] >= gaps[1] - 1e-15 and gaps[1] >= gaps[2] - 1e-15):
            problems.append(f"gap not non-increasing: {gaps}")

    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s (budget 5s)")
    _finish("2", problems, f"identities hold, {elapsed:.1f}s")


def test_criterion_3_heuristics_vs_oracle():
    """No heuristic beats exhaustive search; fixtures solved exactly."""
    started = time.perf_counter()
    problems = []
    rng = random.Random(31337)
    for case in range(100):
        n = rng.randint(4, 8)
        g = random_geo_graph(rng, n, edge_p=rng.uniform(0.3, 0.7))
        params = SNParams(10 ** rng.uniform(1.0, 3.5), agg=rng.choice(("max", "sum")))
        _, best_ng = oracle_best(g)
        _, best_sn = oracle_best(g, params)
        engine = EngineConfig(seed=case)
        checks = [
            ("louvain", best_ng, ng_modularity(g, run_louvain(g, None, engine))),
            ("louvain-sn", best_sn, sn_modularity(g, run_louvain(g, params, engine), params)),
            (
                "snic",
                best_sn,
                sn_modularity(
                    g,
                    run_snic(g, SnicConfig(params, max_iters=10, seed=engine.seed)).partition,
                    params,
                ),
            ),
        ]
        for name, best, heur in checks:
            if heur > best + 1e-9:
                problems.append(f"case {case}: {name} beat the oracle by {heur - best:.2e}")

    bridged = bridged_triangles()
    if ng_modularity(bridged, run_louvain(bridged)) != pytest.approx(5 / 14, abs=1e-12):
        problems.append("bridged-triangles fixture not solved to 5/14")
    clusters = colocated_clusters()
    params = SNParams(1.0)
    snic_p, _ = run_snic(clusters, SnicConfig(params))
    for name, p in (
        ("louvain-sn", run_louvain(clusters, params)),
        ("snic", snic_p),
    ):
        if sn_modularity(clusters, p, params) != pytest.approx(5 / 14, abs=1e-12):
            problems.append(f"co-located clusters fixture not solved to 5/14 by {name}")

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s (budget 60s)")
    _finish("3", problems, f"100 graphs + fixtures, {elapsed:.1f}s")


def test_criterion_4_snic_dominates_single_run():
    """Best-of-trace always at least matches one unconstrained run."""
    started = time.perf_counter()
    problems = []
    g, _ = planted_geo_clusters(
        SyntheticSpec(n_nodes=500, n_clusters=5, p_intra=0.06, p_inter=0.004,
                      spacing_km=1500.0, spread_km=20.0, seed=1)
    )
    configs = [
        (SNParams(300.0), EngineConfig()),
        (SNParams(300.0, agg="sum"), EngineConfig(seed=4)),
        (SNParams(2000.0), EngineConfig(seed=9)),
        (SNParams(2000.0, agg="sum"), EngineConfig()),
    ]
    for params, engine in configs:
        single = run_louvain(g, params, engine)
        single_sn = sn_modularity(g, single, params)
        partition, trace = run_snic(g, SnicConfig(params, max_iters=10, seed=engine.seed))
        snic_sn = sn_modularity(g, partition, params)
        if snic_sn < single_sn - 1e-12:
            problems.append(f"snic below single run at sigma={params.sigma:g}")
        if abs(trace.entries[0].sn_modularity - single_sn) > 1e-12:
            problems.append(f"iteration 1 differs from single run at sigma={params.sigma:g}")
        if snic_sn != max(e.sn_modularity for e in trace.entries):
            problems.append("returned value is not the trace maximum")
        best = -math.inf
        for e in trace.entries:
            if e.sn_modularity > best:
                best = e.sn_modularity
            if best < e.sn_modularity - 1e-15:
                problems.append("best-so-far decreased along the trace")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s (budget 30s)")
    _finish("4", problems, f"{len(configs)} configs on 500 nodes, {elapsed:.1f}s")


def test_criterion_5_trend_reproduction(sigma_ensemble):
    """Geography-aware detection wins everywhere; gains shrink with sigma."""
    started = time.perf_counter()
    problems = []
    records = sigma_ensemble["records"]

    for r in records:
        if r["louvain_sn"] <= 0:
            problems.append(
                f"graph {r['graph']} sigma {r['sigma']:g}: baseline non-positive"
            )
        if r["snic_sn"] <= r["louvain_sn"]:
            problems.append(
                f"graph {r['graph']} sigma {r['sigma']:g}: snic did not exceed louvain"
            )

    medians = {}
    for sigma in SIGMAS:
        ratios = [r["snic_sn"] / r["louvain_sn"] for r in records if r["sigma"] == sigma]
        medians[sigma] = statistics.median(ratios)
    curve = " ".join(f"{s:g}:{medians[s]:.2f}x" for s in SIGMAS)
    print(f"[acceptance] criterion 5 improvement curve (median, vs louvain): {curve}")
    if medians[300.0] < 2.0:
        problems.append(f"median improvement at 300 km is {medians[300.0]:.2f}x (< 2x)")
    if not medians[5000.0] < medians[300.0]:
        problems.append("improvement at 5000 km is not smaller than at 300 km")

    elapsed = sigma_ensemble["build_seconds"] + time.perf_counter() - started
    if elapsed >= 600.0:
        problems.append(f"took {elapsed:.1f}s (budget 600s)")
    _finish(
        "5",
        problems,
        f"median {medians[300.0]:.0f}x at 300 km over 70 trials, {elapsed:.0f}s",
    )


def test_criterion_6_runtime_scaling():
    """Wall time grows linearly in node count at fixed density."""
    started = time.perf_counter()
    problems = []
    sizes = SCALING_SIZES
    graphs = [planted_geo_clusters(scaling_spec(n))[0] for n in sizes]
    cfg = SnicConfig(params=SNParams(1000.0), max_iters=10)
    # Each round times every size once, and each size keeps its fastest run:
    # a burst of load from other processes then slows one round, not one size.
    times = [math.inf] * len(sizes)
    for _ in range(5):
        for i, g in enumerate(graphs):
            t0 = time.perf_counter()
            run_snic(g, cfg)
            times[i] = min(times[i], time.perf_counter() - t0)

    mean_x = statistics.fmean(sizes)
    mean_y = statistics.fmean(times)
    sxx = sum((x - mean_x) ** 2 for x in sizes)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(sizes, times)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(sizes, times))
    ss_tot = sum((y - mean_y) ** 2 for y in times)
    r2 = 1.0 - ss_res / ss_tot
    if r2 < 0.95:
        problems.append(f"linear fit has R^2 = {r2:.4f} (< 0.95); times {times}")
    elapsed = time.perf_counter() - started
    if elapsed >= 900.0:
        problems.append(f"took {elapsed:.1f}s (budget 900s)")
    _finish("6", problems, f"R^2 = {r2:.4f} over n = {sizes}, {elapsed:.0f}s")


def test_criterion_7_ng_positivity_and_gap(sigma_ensemble):
    """Spatially constrained partitions keep positive plain modularity."""
    started = time.perf_counter()
    problems = []
    records = sigma_ensemble["records"]
    for r in records:
        if not r["snic_ng"] > 0.0:
            problems.append(
                f"graph {r['graph']} sigma {r['sigma']:g}: ng = {r['snic_ng']:.4f}"
            )
    gaps = []
    for sigma in SIGMAS:
        per_graph = [r["louvain_ng"] - r["snic_ng"] for r in records if r["sigma"] == sigma]
        gaps.append(statistics.median(per_graph))
    increases = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a + 1e-9)
    if increases > 1:
        problems.append(f"gap increased {increases} times along the sigma ladder: {gaps}")
    if not gaps[-1] < gaps[0]:
        problems.append(f"gap did not shrink from 300 to 5000 km: {gaps}")
    elapsed = time.perf_counter() - started
    if elapsed >= 600.0:
        problems.append(f"took {elapsed:.1f}s (budget 600s)")
    _finish(
        "7",
        problems,
        f"gap {gaps[0]:.3f} -> {gaps[-1]:.3f} across sigma, {elapsed:.1f}s",
    )


def test_louvain_sn_losses_are_bounded(sigma_ensemble):
    """The sigma-gain variant may lose to the plain one, but not usually."""
    records = sigma_ensemble["records"]
    losses = sum(1 for r in records if r["louvain_sn_alg"] < r["louvain_sn"])
    print(f"[acceptance] louvain-sn lost to louvain on {losses}/70 ensemble trials")
    assert losses <= 35


def _brightkite_paths():
    edges = os.environ.get("SNMOD_BRIGHTKITE_EDGES", "data/Brightkite_edges.txt")
    checkins = os.environ.get("SNMOD_BRIGHTKITE_CHECKINS", "data/Brightkite_totalCheckins.txt")
    return Path(edges), Path(checkins)


def test_criterion_8_real_data_harness():
    """Optional: snowball samples of the public check-in dataset."""
    edges, checkins = _brightkite_paths()
    if not (edges.exists() and checkins.exists()):
        pytest.skip(f"real dataset not present ({edges}, {checkins})")
    started = time.perf_counter()
    problems = []
    full = load_graph(edges, checkins, coord_policy="mean", missing_policy="drop")
    edge_counts = []
    in_band = 0
    for seed in range(10):
        sample = snowball_sample(full, SampleSpec(1000, seed=seed))
        if sample.num_nodes != 1000:
            problems.append(f"sample {seed} has {sample.num_nodes} nodes")
        m = sample.num_edges
        edge_counts.append(m)
        if 1729 <= m <= 2282:
            in_band += 1
        louvain_p = run_louvain(sample)
        for sigma in SIGMAS:
            params = SNParams(sigma)
            snic_p, _ = run_snic(sample, SnicConfig(params=params, max_iters=10))
            if not sn_modularity(sample, snic_p, params) > sn_modularity(sample, louvain_p, params):
                problems.append(f"sample {seed} sigma {sigma:g}: snic did not win")
    print(
        f"[acceptance] criterion 8 edge counts {edge_counts}; "
        f"{in_band}/10 inside the published 1729-2282 band (informational)"
    )
    elapsed = time.perf_counter() - started
    if elapsed >= 1800.0:
        problems.append(f"took {elapsed:.1f}s (budget 1800s)")
    _finish("8", problems, f"70 real-data trials, {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    """Identical inputs and seeds reproduce bit-identical partition files."""
    started = time.perf_counter()
    problems = []
    g, _ = planted_geo_clusters(
        SyntheticSpec(n_nodes=200, n_clusters=4, p_intra=0.1, p_inter=0.01,
                      spacing_km=1000.0, spread_km=15.0, seed=3)
    )
    edges = tmp_path / "edges.tsv"
    with open(edges, "w") as fh:
        for u, v, w in g.undirected_edges():
            fh.write(f"{g.external_ids[u]}\t{g.external_ids[v]}\t{w:g}\n")
    coords = tmp_path / "coords.csv"
    with open(coords, "w") as fh:
        fh.write("node,lat,lon\n")
        for i in range(g.num_nodes):
            fh.write(f"{g.external_ids[i]},{g.nodes[i].lat!r},{g.nodes[i].lon!r}\n")

    for algo in ("louvain", "louvain-sn", "snic"):
        blobs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{algo}_{attempt}.csv"
            rc = main([
                "detect", "--edges", str(edges), "--coords", str(coords),
                "--algo", algo, "--sigma", "500", "--seed", "11",
                "--max-iters", "5", "--out", str(out),
            ])
            if rc != 0:
                problems.append(f"{algo} exited {rc}")
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            problems.append(f"{algo} partition files differ between runs")

    cfg = SnicConfig(SNParams(500.0), max_iters=5, seed=2)
    a = run_snic(g, cfg)
    b = run_snic(g, cfg)
    if a.partition != b.partition:
        problems.append("library snic partitions differ between runs")
    if [e.sn_modularity for e in a.trace.entries] != [e.sn_modularity for e in b.trace.entries]:
        problems.append("library snic traces differ between runs")

    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s (budget 120s)")
    _finish("9", problems, f"3 commands x 2 runs bit-identical, {elapsed:.1f}s")
