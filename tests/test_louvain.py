import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import snmod
from snmod import louvain
from snmod.geograph import GeoGraph
from snmod.geometry import EARTH_RADIUS_KM, METRIC_NAMES, GeoKernel, _arc_km, _sq_chord
from snmod.louvain import (
    EngineConfig,
    LevelState,
    aggregate_graph,
    local_move_pass,
    move_gain,
    run_louvain,
    _join_verdict,
)
from snmod.metrics import (
    Partition,
    SNParams,
    ng_modularity,
    sn_modularity,
)
from snmod.snic import SnicConfig, partition_max_span, run_snic
from snmod.synth import SyntheticSpec, planted_geo_clusters

from conftest import (
    bridged_triangles,
    colocated_clusters,
    random_geo_graph,
    random_partition,
)
from _naive import naive_aggregate

seeds = st.integers(min_value=0, max_value=10_000)
TRIANGLES = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)


class TestConfigTypes:
    def test_engine_config_validation(self):
        EngineConfig()
        EngineConfig(seed=7)
        with pytest.raises(ValueError):
            EngineConfig(join_constraint_km=0.0)
        for bad in (1.5, "7", [1], True):
            with pytest.raises(ValueError, match="seed must be None or an integer"):
                EngineConfig(seed=bad)


@pytest.mark.parametrize("name", ["LevelState", "local_move_pass", "move_gain", "aggregate_graph"])
def test_move_phase_internals_stay_out_of_the_package_root(name):
    assert hasattr(louvain, name)
    assert not hasattr(snmod, name)


class TestMoveGain:
    def test_ng_bridge_move_hand_value(self, bridged):
        # from {0},{1},{2},{3,4,5}: moving 2 across the bridge changes the
        # objective by 2*(k_in - k_2*sum_deg/2m)/2m = 2*(1 - 3*7/14)/14
        state = LevelState(bridged, None, [0, 1, 2, 3, 3, 3])
        target = state.comm[3]
        gain = move_gain(state, 2, target)
        assert gain == pytest.approx(2.0 * (-0.5) / 14.0, abs=1e-12)

    def test_gain_equals_metric_delta(self, bridged):
        rng = random.Random(5)
        for seed in range(20):
            g = random_geo_graph(random.Random(seed), 8)
            p = random_partition(random.Random(seed + 1), 8, max_groups=4)
            for params in (None, SNParams(700.0)):
                state = LevelState(g, params, p.assignment)
                i = rng.randrange(8)
                targets = {c for c in state.communities if c != state.comm[i]}
                if not targets:
                    continue
                target = rng.choice(sorted(targets))
                gain = move_gain(state, i, target)
                moved = list(p.assignment)
                moved[i] = p.assignment[state.communities[target].members[0]]
                after = Partition.from_assignment(moved)
                if params is None:
                    delta = ng_modularity(g, after) - ng_modularity(g, p)
                else:
                    delta = sn_modularity(g, after, params) - sn_modularity(g, p, params)
                assert gain == pytest.approx(delta, abs=1e-12)

    def test_no_edge_insertion_is_negative(self):
        g = GeoGraph.from_edges(
            [(0, 1), (2, 3)], {i: (0.0, 0.0) for i in range(4)}
        )
        state = LevelState(g, None, [0, 0, 1, 1])
        # node 0 has no edge into {2,3}
        assert move_gain(state, 0, state.comm[2]) < 0

    def test_sn_gain_equals_ng_gain_when_colocated(self, bridged):
        p = Partition.from_assignment([0, 1, 2, 3, 3, 3])
        s_ng = LevelState(bridged, None, p.assignment)
        s_sn = LevelState(bridged, SNParams(2.0), p.assignment)
        t_ng = s_ng.comm[3]
        t_sn = s_sn.comm[3]
        assert move_gain(s_ng, 2, t_ng) == move_gain(s_sn, 2, t_sn)

    def test_errors(self, bridged):
        state = LevelState(bridged, None)
        with pytest.raises(ValueError):
            move_gain(state, 0, state.comm[0])
        with pytest.raises(ValueError):
            move_gain(state, 0, 999)


class TestLocalMovePass:
    def test_zero_edge_graph_never_moves(self):
        g = GeoGraph.from_edges([], {i: (0.0, 0.0) for i in range(4)}, extra_nodes=range(4))
        state = LevelState(g, None)
        moved, state = local_move_pass(state)
        assert moved == 0
        assert state.extract_partition() == Partition.singletons(4)

    def test_first_phase_finds_triangles(self, bridged):
        state = LevelState(bridged, None)
        moved, state = local_move_pass(state)
        assert moved > 0
        assert state.extract_partition() == TRIANGLES

    def test_join_constraint_blocks_distant_candidates(self):
        # single positive-gain merge across 100 km is vetoed at 50 km
        g = GeoGraph.from_edges([(0, 1)], {0: (0.0, 0.0), 1: (0.0, 0.9)})
        params = SNParams(1e6)
        state = LevelState(g, params)
        moved, _ = local_move_pass(state, EngineConfig(join_constraint_km=50.0))
        assert moved == 0
        state = LevelState(g, params)
        moved, _ = local_move_pass(state, EngineConfig(join_constraint_km=150.0))
        assert moved > 0

    def test_working_objective_never_decreases_across_passes(self):
        for seed in range(10):
            rng = random.Random(seed)
            g = random_geo_graph(rng, 12)
            params = SNParams(1000.0)
            state = LevelState(g, params)
            before = sn_modularity(g, state.extract_partition(), params)
            _, state = local_move_pass(state)
            after = sn_modularity(g, state.extract_partition(), params)
            assert after >= before - 1e-12

    def test_join_constraint_is_refused_under_plain_modularity(self, bridged):
        cfg = EngineConfig(join_constraint_km=100.0)
        with pytest.raises(ValueError, match="spatially-near"):
            local_move_pass(LevelState(bridged, None), cfg)
        with pytest.raises(ValueError, match="spatially-near"):
            run_louvain(bridged, None, cfg)
        # an edgeless graph is refused too, before the early return
        g = GeoGraph.from_edges([], {0: (0.0, 0.0)}, extra_nodes=[0])
        with pytest.raises(ValueError, match="spatially-near"):
            run_louvain(g, None, cfg)
        assert run_louvain(g, SNParams(1.0), cfg) == Partition.singletons(1)

    def test_join_constraint_holds_at_node_resolution_on_level_0_only(self):
        # level 0 checks a join against every member; coarser levels check it
        # between meta-node centres, so the final partition may span more
        g = random_geo_graph(random.Random(2), 30, edge_p=0.15)
        params = SNParams(2000.0)
        cfg = EngineConfig(join_constraint_km=2000.0)
        _, state = local_move_pass(LevelState(g, params), cfg)
        assert partition_max_span(g, state.extract_partition()) <= 2000.0
        assert partition_max_span(g, run_louvain(g, params, cfg)) > 2000.0


class TestAggregateGraph:
    def test_singleton_partition_is_isomorphic(self, bridged):
        meta = aggregate_graph(bridged, Partition.singletons(6))
        assert meta.two_m == bridged.two_m
        assert meta.adj == bridged.adj

    def test_bridged_triangle_aggregation(self, bridged):
        g = aggregate_graph(bridged, TRIANGLES)
        assert g.num_nodes == 2
        assert dict(g.adj[0])[0] == 6.0  # self-loop carries internal pairs
        assert dict(g.adj[1])[1] == 6.0
        assert dict(g.adj[0])[1] == 1.0
        assert g.two_m == 14.0

    def test_meta_location_of_colocated_community(self, geo_clusters):
        meta = aggregate_graph(geo_clusters, TRIANGLES)
        assert (meta.nodes[0].lat, meta.nodes[0].lon) == (0.0, 0.0)
        assert (meta.nodes[1].lat, meta.nodes[1].lon) == (0.0, 0.9)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_plain_modularity_preserved_under_aggregation(self, seed):
        rng = random.Random(seed)
        g = random_geo_graph(rng, rng.randint(2, 12))
        p = random_partition(rng, g.num_nodes)
        meta = aggregate_graph(g, p)
        coarse = ng_modularity(meta, Partition.singletons(meta.num_nodes))
        assert coarse == pytest.approx(ng_modularity(g, p), abs=1e-12)

    @given(
        seed=seeds,
        n=st.integers(min_value=1, max_value=14),
        edge_p=st.sampled_from([0.0, 0.2, 0.6]),
        sites=st.integers(min_value=1, max_value=4),
        metric=st.sampled_from(METRIC_NAMES),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_pair_dict_construction(self, seed, n, edge_p, sites, metric):
        rng = random.Random(seed)
        # few sites, so that some communities are co-located
        pool = [(rng.uniform(-80.0, 80.0), rng.uniform(-170.0, 170.0)) for _ in range(sites)]
        coords = {i: rng.choice(pool) for i in range(n)}
        edges = [
            (u, v, rng.uniform(0.5, 2.0)) for u in range(n) for v in range(u + 1, n)
            if rng.random() < edge_p
        ]
        g = GeoGraph.from_edges(edges, coords, extra_nodes=range(n))
        # the second coarsening starts from a graph with loops
        for _ in range(2):
            p = random_partition(rng, g.num_nodes)
            got = aggregate_graph(g, p, metric)
            want = naive_aggregate(g, p, metric)
            assert got == want
            assert _bits(got) == _bits(want)
            assert (got.degrees, got.two_m, got.num_edges) == (want.degrees, want.two_m, want.num_edges)
            g = got


def _bits(g):
    return [struct.pack("<dd", p.lat, p.lon) for p in g.nodes]


class TestRunLouvain:
    def test_bridged_reaches_plain_optimum(self, bridged):
        p = run_louvain(bridged)
        assert p == TRIANGLES
        assert ng_modularity(bridged, p) == pytest.approx(5 / 14, abs=1e-12)

    def test_zero_edge_graph_returns_singletons(self):
        g = GeoGraph.from_edges([], {i: (0.0, 0.0) for i in range(5)}, extra_nodes=range(5))
        for params in (None, SNParams(1.0)):
            assert run_louvain(g, params) == Partition.singletons(5)

    def test_colocated_clusters_sn_optimum(self, geo_clusters):
        params = SNParams(1.0)
        p = run_louvain(geo_clusters, params)
        assert p == TRIANGLES
        assert sn_modularity(geo_clusters, p, params) == pytest.approx(5 / 14, abs=1e-12)

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_identical_coordinates_make_sn_equal_ng(self, seed):
        rng = random.Random(seed)
        g = random_geo_graph(rng, rng.randint(3, 14), colocated=True)
        for order_seed in (None, seed):
            cfg = EngineConfig(seed=order_seed)
            p_ng = run_louvain(g, None, cfg)
            p_sn = run_louvain(g, SNParams(3.0), cfg)
            assert p_ng == p_sn

    def test_deterministic_for_fixed_config(self):
        rng = random.Random(11)
        g = random_geo_graph(rng, 20, edge_p=0.2)
        for cfg in (EngineConfig(), EngineConfig(seed=3)):
            a = run_louvain(g, SNParams(200.0), cfg)
            b = run_louvain(g, SNParams(200.0), cfg)
            assert a == b

    def test_sn_modularity_non_decreasing_across_levels(self):
        # coarse check: final partition scores at least the singleton start
        for seed in range(8):
            rng = random.Random(seed)
            g = random_geo_graph(rng, 15, edge_p=0.3)
            params = SNParams(800.0)
            p = run_louvain(g, params)
            assert sn_modularity(g, p, params) >= sn_modularity(
                g, Partition.singletons(15), params
            ) - 1e-12

    def test_seeded_shuffle_changes_visit_order_only(self):
        rng = random.Random(2)
        g = random_geo_graph(rng, 18, edge_p=0.25)
        base = run_louvain(g, None, EngineConfig())
        shuf = run_louvain(g, None, EngineConfig(seed=9))
        # both are valid local optima over the same graph
        assert abs(ng_modularity(g, base) - ng_modularity(g, shuf)) < 1.0


def _insertion_case(seed: int, metric: str, agg: str, shape: str):
    """A state holding community {0..size-1}, singleton node i = size and a few
    outside nodes; returns (state, i, community label)."""
    rng = random.Random(seed)
    size = 1 if shape == "single" else 2 * rng.randint(1, 20)
    lat0 = rng.uniform(-60.0, 60.0)
    lon0 = rng.uniform(-170.0, -10.0)

    def near(scale):
        return (
            max(-90.0, min(90.0, lat0 + rng.gauss(0.0, scale))),
            max(-180.0, min(180.0, lon0 + rng.gauss(0.0, scale))),
        )

    if shape == "colocated":
        members = [(lat0, lon0)] * size
    elif shape == "antipodal":
        # pairs within 1e-9 degrees of antipodal: the mean unit vector is
        # degenerate, so the centroid falls back to member 0
        members = [
            (lat0, lon0) if k % 2 == 0 else
            (-lat0 + rng.uniform(-1e-9, 1e-9), lon0 + 180.0 + rng.uniform(-1e-9, 1e-9))
            for k in range(size)
        ]
    else:
        members = [near(rng.choice([1e-9, 1e-7, 1e-3, 0.5, 20.0])) for _ in range(size)]
    if shape == "colocated" and rng.random() < 0.3:
        node = (lat0, lon0)
    else:
        node = near(rng.choice([1e-9, 1e-7, 1e-3, 0.5, 20.0, 90.0]))
    outside = rng.randint(0, 5)
    coords = dict(enumerate(members + [node]))
    coords.update({size + 1 + k: near(30.0) for k in range(outside)})
    n = len(coords)
    i = size
    w = lambda: rng.uniform(0.5, 2.0)
    edges = [(i, rng.randrange(size), w())]
    edges += [(u, v, w()) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    assignment = [0] * size + list(range(1, n - size + 1))
    params = SNParams(rng.choice([0.01, 1.0, 50.0, 1000.0, 20000.0]), agg=agg, metric=metric)
    g = GeoGraph.from_edges(edges, coords, extra_nodes=range(n))
    state = LevelState(g, params, assignment)
    return state, i, state.comm[0]


def _tier_bounds(state: LevelState, i: int, c, kiin: float) -> list[float]:
    """The O(1) gain bounds that ``local_move_pass``'s tiers 1 and 2 compute
    for inserting isolated node i into community c, with the same
    floating-point operations; the removal gain is not subtracted."""
    two_m = state.two_m
    sum_deg = c.sum_deg + state.graph.degrees[i]
    num = c.sum_in + 2.0 * kiin + state.self_w[i] - sum_deg * sum_deg / two_m
    rest = lambda q: q - c.quality - state.q_single[i]
    bounds = [rest(num / two_m if num > 0.0 else 0.0)]
    kernel = state.kernel
    sphere = kernel.metric == "haversine"
    c2 = _sq_chord(kernel.vecs[i], c.centroid)
    d = math.sqrt(c2) * (EARTH_RADIUS_KM if sphere else 1.0)
    reach = 0.5 * (d - c.radius) - louvain._BOUND_SLACK * (d + c.radius)
    disp = 0.0
    if reach > 0.0:
        scaled = reach / state.params.sigma
        disp = scaled * scaled * (1.0 - louvain._BOUND_SLACK)
    bounds.append(rest(num / (1.0 + disp) / two_m if num > 0.0 else 0.0))
    return bounds


class TestBoundThenVerify:
    @given(
        seed=seeds,
        metric=st.sampled_from(["haversine", "planar"]),
        agg=st.sampled_from(["max", "sum"]),
        shape=st.sampled_from(["spread", "single", "colocated", "antipodal"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_bounds_are_sound(self, seed, metric, agg, shape):
        state, i, label = _insertion_case(seed, metric, agg, shape)
        c = state.communities[label]
        kernel = state.kernel
        if shape == "antipodal" and metric == "haversine":
            assert c.centroid == kernel.vecs[0]
        kiin = state._neighbor_weights(i).get(label, 0.0)
        d = kernel.distance(i, c.centroid)
        # the move phase bounds every candidate but a co-located one, whose
        # exact gain takes O(1)
        if not (c.dispersion == 0.0 and kernel.vecs[i] == c.centroid):
            gain = state._insertion_gain(i, c, kiin)
            bounds = _tier_bounds(state, i, c, kiin)
            assert len(bounds) == 2
            assert all(bound >= gain for bound in bounds)
        farthest = max(kernel.distance(m, kernel.vecs[i]) for m in c.members)
        for base in (d + c.radius, abs(d - c.radius), farthest, d):
            for factor in (0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0):
                limit = base * factor
                if not limit > 0.0:
                    continue
                verdict = _join_verdict(d, c.radius, limit)
                if verdict is not None:
                    assert verdict == kernel.within_limit(c.members, i, limit)

    @given(
        seed=seeds,
        metric=st.sampled_from(["haversine", "planar"]),
        agg=st.sampled_from(["max", "sum"]),
        shape=st.sampled_from(["spread", "single", "colocated", "antipodal"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_the_move_phase_scans_a_candidate_that_wins_by_one_ulp(self, seed, metric, agg, shape):
        # local_move_pass's own tiers, at their edge: node i visits first, and
        # its removal gain is set one ulp below the exact insertion gain into
        # c, so c wins by the least margin there is and no tier may skip it
        state, i, label = _insertion_case(seed, metric, agg, shape)
        c = state.communities[label]
        kiin = state._neighbor_weights(i)
        assert min(kiin) == label  # c is the first candidate in label order
        gain = state._insertion_gain(i, c, kiin[label])
        assume(math.isfinite(gain))
        backs = [math.nextafter(gain, -math.inf)]
        removal_back_gain, insertion_gain = LevelState._removal_back_gain, LevelState._insertion_gain
        scanned = []

        def first_back(self, *args):
            return backs.pop() if backs else removal_back_gain(self, *args)

        def logged_insertion(self, node, cand, *args):
            scanned.append((node, self.comm[cand.members[0]]))
            return insertion_gain(self, node, cand, *args)

        order = [i, *(v for v in range(state.graph.num_nodes) if v != i)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LevelState, "_removal_back_gain", first_back)
            mp.setattr(LevelState, "_insertion_gain", logged_insertion)
            local_move_pass(LevelState(state.graph, state.params, state.comm, visit_order=order))
        assert scanned[0] == (i, label)

    @given(c2=st.floats(min_value=0.0, max_value=4.0))
    def test_rounded_chord_never_exceeds_rounded_arc(self, c2):
        # tier 2 reads R * sqrt(c2) where the exact scan reads the arc,
        # GeoKernel.distance's 2R asin(sqrt(c2) / 2)
        assert math.sqrt(c2) * EARTH_RADIUS_KM <= _arc_km(c2)

    @given(
        seed=seeds,
        source=st.sampled_from(["sn", "snic", "spread", "single", "colocated", "antipodal"]),
        metric=st.sampled_from(["haversine", "planar"]),
        agg=st.sampled_from(["max", "sum"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_pruned_moves_equal_full_scans(self, seed, source, metric, agg):
        # the tiers as local_move_pass runs them: every move, in order, equals
        # the full scan's, on random graphs (sn, snic) and on insertion cases
        if source in ("sn", "snic"):
            rng = random.Random(seed)
            g = random_geo_graph(rng, rng.randint(2, 40), edge_p=rng.choice([0.05, 0.15, 0.4]))
            sigma = (1500.0 if metric == "haversine" else 30.0) * rng.choice([0.01, 0.1, 1.0, 10.0])
            params = SNParams(sigma, agg=agg, metric=metric)
            limit = rng.choice([math.inf, sigma]) if source == "sn" else math.inf
            cfg = EngineConfig(join_constraint_km=limit, seed=seed)
            run = lambda: _detect(g, source, params, cfg)
        else:
            state, _, _ = _insertion_case(seed, metric, agg, source)
            g, params, start = state.graph, state.params, state.extract_partition().assignment
            run = lambda: local_move_pass(LevelState(g, params, start))[1].extract_partition()
        assert _logged(run, _PRUNE=True) == _logged(run, _PRUNE=False)

    @pytest.mark.parametrize("metric,sigma", [("haversine", 300.0), ("planar", 3.0)])
    @pytest.mark.parametrize("agg", ["max", "sum"])
    def test_pruned_runs_equal_full_scans(self, monkeypatch, metric, sigma, agg):
        spec = SyntheticSpec(
            n_nodes=300, n_clusters=5, p_intra=0.06, p_inter=0.004,
            spacing_km=2000.0, spread_km=20.0, geo_mode="scattered", seed=4,
        )
        g, _ = planted_geo_clusters(spec)
        cfg = SnicConfig(SNParams(sigma, agg=agg, metric=metric), seed=4)
        work = {"scans": 0, "checks": 0}
        stats, within_limit = GeoKernel.stats, GeoKernel.within_limit

        def counted_stats(self, *args, **kwargs):
            work["scans"] += kwargs.get("plus") is not None
            return stats(self, *args, **kwargs)

        def counted_within_limit(self, *args, **kwargs):
            work["checks"] += 1
            return within_limit(self, *args, **kwargs)

        monkeypatch.setattr(GeoKernel, "stats", counted_stats)
        monkeypatch.setattr(GeoKernel, "within_limit", counted_within_limit)
        pruned = run_snic(g, cfg)
        pruned_work = dict(work)
        work.update(scans=0, checks=0)
        monkeypatch.setattr(louvain, "_PRUNE", False)
        monkeypatch.setattr(louvain, "_join_verdict", lambda d, radius, limit: None)
        full = run_snic(g, cfg)

        assert len(full.trace.entries) >= 2  # a finite constraint was applied
        assert pruned.partition == full.partition
        key = lambda e: (e.iteration, e.constraint_km, e.sn_modularity, e.span_km)
        assert [key(e) for e in pruned.trace.entries] == [key(e) for e in full.trace.entries]
        assert pruned_work["scans"] < work["scans"]
        assert pruned_work["checks"] < work["checks"]


def _logged(run, **patches):
    """``run()`` and every ``_apply_move`` it made, in order, with each
    keyword patched onto :mod:`snmod.louvain`."""
    moves = []
    apply_move = LevelState._apply_move

    def logged_move(self, i, old_label, new_label, kiin):
        moves.append((self.graph.num_nodes, i, old_label, new_label))
        return apply_move(self, i, old_label, new_label, kiin)

    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(louvain, name, value)
        mp.setattr(LevelState, "_apply_move", logged_move)
        return run(), moves


def _float_weighted_graph(rng: random.Random, n: int, edge_p: float) -> GeoGraph:
    """A random graph with weights spread over several orders of magnitude,
    collapsed over a random partition: self-loops and non-integer degree
    sums, as on a coarse level."""
    g = random_geo_graph(rng, n, edge_p=edge_p)
    edges = [(u, v, rng.lognormvariate(0.0, 2.0)) for u, row in enumerate(g.adj) for v, _ in row if u < v]
    g = GeoGraph.from_edges(edges, dict(enumerate(g.nodes)), extra_nodes=range(n))
    return aggregate_graph(g, random_partition(rng, n))


def _detect(g, mode: str, params: SNParams, cfg: EngineConfig):
    """Partition, plus the SNIC trace values for mode 'snic'."""
    if mode == "snic":
        run = run_snic(g, SnicConfig(params, max_iters=10, seed=cfg.seed))
        trace = [(e.iteration, e.constraint_km, e.sn_modularity, e.span_km) for e in run.trace.entries]
        return run.partition, trace
    return run_louvain(g, None if mode == "ng" else params, cfg), None


class TestNodeQueue:
    @given(
        seed=seeds,
        mode=st.sampled_from(["ng", "sn", "snic"]),
        metric=st.sampled_from(["haversine", "planar"]),
        agg=st.sampled_from(["max", "sum"]),
        weights=st.sampled_from(["uniform", "float"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_move_queues_the_neighbours_outside_the_new_community(self, seed, mode, metric, agg, weights):
        rng = random.Random(seed)
        n, edge_p = rng.randint(2, 40), rng.choice([0.05, 0.15, 0.4])
        if weights == "uniform":
            g = random_geo_graph(rng, n, edge_p=edge_p)
        else:
            g = _float_weighted_graph(rng, n, edge_p)
        scale = rng.choice([0.1, 1.0, 10.0])
        params = SNParams((1500.0 if metric == "haversine" else 30.0) * scale, agg=agg, metric=metric)
        limit = rng.choice([math.inf, params.sigma]) if mode == "sn" else math.inf
        cfg = EngineConfig(join_constraint_km=limit, seed=seed)
        # per pass: its state and its events in order, ("visit", i) or
        # ("move", i, the neighbours left outside i's new community)
        passes = []
        original = louvain.local_move_pass
        neighbor_weights, apply_move = LevelState._neighbor_weights, LevelState._apply_move

        def logged_pass(state, cfg=EngineConfig()):
            passes.append((state, []))
            return original(state, cfg)

        def logged_visit(self, i):
            passes[-1][1].append(("visit", i))
            return neighbor_weights(self, i)

        def logged_move(self, i, *args):
            new_label = apply_move(self, i, *args)
            outside = {j for j, _ in self.graph.adj[i] if j != i and self.comm[j] != new_label}
            passes[-1][1].append(("move", i, outside))
            return new_label

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(louvain, "local_move_pass", logged_pass)
            mp.setattr(LevelState, "_neighbor_weights", logged_visit)
            mp.setattr(LevelState, "_apply_move", logged_move)
            _detect(g, mode, params, cfg)
        assert passes
        for state, events in passes:
            if state.two_m == 0:
                assert events == []
                continue
            visits = [e[1] for e in events if e[0] == "visit"]
            # every node is visited at least once
            assert set(visits) == set(range(state.graph.num_nodes))
            queued_by = [0] * state.graph.num_nodes
            for t, event in enumerate(events):
                if event[0] == "move":
                    later = {e[1] for e in events[t + 1:] if e[0] == "visit"}
                    # every neighbour left outside the mover's new community
                    # is visited again later in the pass
                    assert event[2] <= later
                    for j in event[2]:
                        queued_by[j] += 1
            # and no node is visited more often than the moves queued it
            assert all(visits.count(j) <= 1 + queued_by[j] for j in range(state.graph.num_nodes))


def _assert_caches_fresh(state: LevelState) -> None:
    """Compare every community cache with a recomputation from scratch."""
    fresh = LevelState(state.graph, state.params, state.extract_partition().assignment)
    by_members = {tuple(c.members): c for c in fresh.communities.values()}
    assert len(by_members) == len(state.communities)
    two_m = state.two_m
    for label, c in state.communities.items():
        assert all(state.comm[m] == label for m in c.members)
        f = by_members[tuple(c.members)]
        assert c.sum_in == pytest.approx(f.sum_in, rel=1e-9, abs=1e-12)
        assert c.sum_deg == pytest.approx(f.sum_deg, rel=1e-9)
        assert (c.centroid, c.dispersion, c.radius) == (f.centroid, f.dispersion, f.radius)
        if state.params is not None:
            expected = (c.sum_in - c.sum_deg * c.sum_deg / two_m) / (1.0 + f.dispersion) / two_m
            assert c.quality == expected
            assert c.quality == pytest.approx(f.quality, rel=1e-9, abs=1e-15)
        else:
            assert c.quality == f.quality == 0.0


@pytest.mark.parametrize(
    "params,cfg",
    [
        (SNParams(500.0), EngineConfig(join_constraint_km=2500.0)),
        (None, EngineConfig()),
    ],
    ids=["sn-constrained", "ng"],
)
def test_incremental_caches_do_not_drift(monkeypatch, params, cfg):
    """After every move pass, at every level, the caches match a rebuild."""
    original = louvain.local_move_pass
    levels = []

    def checked_pass(state, cfg=EngineConfig()):
        result = original(state, cfg)
        _assert_caches_fresh(state)
        levels.append(state.graph.num_nodes)
        return result

    monkeypatch.setattr(louvain, "local_move_pass", checked_pass)
    spec = SyntheticSpec(
        n_nodes=300, n_clusters=5, p_intra=0.06, p_inter=0.004,
        spacing_km=2000.0, spread_km=20.0, geo_mode="scattered", seed=2,
    )
    planted, _ = planted_geo_clusters(spec)
    weighted = random_geo_graph(random.Random(3), 60, edge_p=0.08)
    for g in (planted, weighted):
        levels.clear()
        run_louvain(g, params, replace(cfg, seed=1))
        assert len(levels) >= 2
