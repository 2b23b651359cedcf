import math
import random

import pytest

from snmod import snic
from snmod.geograph import GeoGraph
from snmod.geometry import max_pairwise_span_km
from snmod.louvain import EngineConfig, run_louvain
from snmod.metrics import Partition, SNParams, sn_modularity
from snmod.snic import SnicConfig, SnicTrace, partition_max_span, run_snic

from conftest import colocated_clusters, random_geo_graph, random_partition
from _naive import naive_chord_span, naive_span

TRIANGLES = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)


def test_config_validation():
    for bad in (0, 1.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            SnicConfig(SNParams(1.0), max_iters=bad)
    for bad in (1.5, "7", [1], True):
        with pytest.raises(ValueError, match="seed must be None or an integer"):
            SnicConfig(SNParams(1.0), seed=bad)


class TestPartitionMaxSpan:
    def test_singletons_are_zero(self, geo_clusters):
        assert partition_max_span(geo_clusters, Partition.singletons(6)) == 0.0

    def test_quarter_circle_pair(self):
        g = GeoGraph.from_edges([(0, 1)], {0: (0, 0), 1: (0, 90)})
        span = partition_max_span(g, Partition((0, 0)))
        assert span == pytest.approx(10007.543, abs=1e-3)

    def test_matches_exhaustive_scan(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_geo_graph(rng, rng.randint(2, 10))
            p = random_partition(rng, g.num_nodes)
            want = max(
                naive_span([(g.nodes[i].lat, g.nodes[i].lon) for i in members])
                for members in p.communities
            )
            assert partition_max_span(g, p) == pytest.approx(want, abs=1e-9)

    def test_large_community_uses_graph_kernel_exactly(self):
        rng = random.Random(5)
        n = 60
        g = random_geo_graph(rng, n, edge_p=0.1)
        members = list(range(5, n))  # 55 members: past the pair-loop size
        p = Partition.from_assignment([0] * 5 + [1] * len(members))
        pts = [g.nodes[i] for i in members]
        want = max_pairwise_span_km(pts)
        assert partition_max_span(g, p) == want
        assert want == pytest.approx(naive_span(pts), abs=1e-9)

    def test_equals_the_all_pairs_chord_scan_bit_for_bit(self):
        rng = random.Random(6)
        for metric in ("haversine", "planar"):
            for _ in range(20):
                g = random_geo_graph(rng, rng.randint(2, 80))
                p = random_partition(rng, g.num_nodes, max_groups=3)
                want = max(
                    naive_chord_span([(g.nodes[i].lat, g.nodes[i].lon) for i in members], metric)
                    for members in p.communities
                )
                assert partition_max_span(g, p, metric) == want

    def test_mismatch_raises(self, geo_clusters):
        with pytest.raises(ValueError):
            partition_max_span(geo_clusters, Partition.singletons(3))


class TestRunSnic:
    def test_colocated_clusters_single_iteration(self, geo_clusters):
        cfg = SnicConfig(SNParams(1.0))
        partition, trace = run_snic(geo_clusters, cfg)
        assert partition == TRIANGLES
        assert len(trace.entries) == 1
        entry = trace.entries[0]
        assert entry.iteration == 1
        assert math.isinf(entry.constraint_km)
        assert entry.span_km == 0.0
        assert entry.sn_modularity == pytest.approx(5 / 14, abs=1e-12)

    def test_all_colocated_terminates_like_plain(self):
        rng = random.Random(0)
        g = random_geo_graph(rng, 10, colocated=True)
        partition, trace = run_snic(g, SnicConfig(SNParams(2.0)))
        assert len(trace.entries) == 1
        assert partition == run_louvain(g)

    def test_best_of_trace_dominates_single_run(self):
        for seed in range(12):
            rng = random.Random(seed)
            g = random_geo_graph(rng, 14, edge_p=0.3)
            params = SNParams(10 ** rng.uniform(1, 3.5))
            engine = EngineConfig(seed=seed)
            partition, trace = run_snic(g, SnicConfig(params, max_iters=8, seed=seed))
            single = run_louvain(g, params, engine)
            got = sn_modularity(g, partition, params)
            assert got >= sn_modularity(g, single, params) - 1e-12
            # iteration 1 is exactly the unconstrained run
            assert trace.entries[0].sn_modularity == pytest.approx(
                sn_modularity(g, single, params), abs=1e-12
            )
            best = max(e.sn_modularity for e in trace.entries)
            assert got == best
            for e in trace.entries:
                assert sn_modularity(g, e.partition, params) == e.sn_modularity
            assert trace.entries[0].partition == single
            assert partition == next(e.partition for e in trace.entries if e.sn_modularity == best)

    def test_ties_return_the_first_best_entry(self, monkeypatch):
        # four nodes along the equator; each partition spans less than the last
        g = GeoGraph.from_edges([(0, 1), (1, 2), (2, 3)], {i: (0.0, float(i)) for i in range(4)})
        results = iter([
            Partition((0, 0, 0, 0)), Partition((0, 0, 0, 1)),
            Partition((0, 0, 1, 2)), Partition((0, 1, 2, 3)),
        ])
        scores = (0.1, 0.3, 0.3, 0.2)  # indexed by the partition's largest label
        monkeypatch.setattr(snic, "run_louvain", lambda g, params, cfg: next(results))
        monkeypatch.setattr(snic, "sn_modularity", lambda g, p, params: scores[max(p.assignment)])
        partition, trace = run_snic(g, SnicConfig(SNParams(100.0)))
        assert [e.sn_modularity for e in trace.entries] == [0.1, 0.3, 0.3, 0.2]
        assert partition == Partition((0, 0, 0, 1))

    def test_constraint_sequence_invariants(self):
        for seed in range(12):
            rng = random.Random(100 + seed)
            g = random_geo_graph(rng, 16, edge_p=0.25)
            cfg = SnicConfig(SNParams(50.0), max_iters=10)
            _, trace = run_snic(g, cfg)
            entries = trace.entries
            assert math.isinf(entries[0].constraint_km)
            for prev, cur in zip(entries, entries[1:]):
                assert cur.constraint_km == prev.span_km
                assert cur.constraint_km < prev.constraint_km
            last = entries[-1]
            stopped = (
                last.span_km == 0.0
                or last.span_km >= last.constraint_km
                or len(entries) == cfg.max_iters
            )
            assert stopped
            best = -math.inf
            for e in entries:
                best = max(best, e.sn_modularity)
                assert best >= e.sn_modularity

    def test_max_iters_one(self, geo_clusters):
        _, trace = run_snic(geo_clusters, SnicConfig(SNParams(1.0), max_iters=1))
        assert len(trace.entries) == 1

    def test_trace_csv_rows(self, geo_clusters):
        _, trace = run_snic(geo_clusters, SnicConfig(SNParams(1.0)))
        rows = list(trace.csv_rows())
        assert rows[0] == "iteration,constraint_km,sn_modularity,span_km,seconds"
        fields = rows[1].split(",")
        assert fields[0] == "1"
        assert fields[1] == "inf"
        assert float(fields[2]) == pytest.approx(5 / 14, abs=1e-9)

    def test_planar_metric_spans(self):
        coords = {0: (0.0, 0.0), 1: (3.0, 4.0)}
        g = GeoGraph.from_edges([(0, 1)], coords)
        p = Partition((0, 0))
        assert partition_max_span(g, p, metric="planar") == 5.0
