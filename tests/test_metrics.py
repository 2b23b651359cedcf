import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snmod.geograph import GeoGraph
from snmod.metrics import (
    CommunityStats,
    Partition,
    SNParams,
    _community_sums,
    community_quality,
    community_stats,
    community_sums,
    community_term,
    ng_modularity,
    score_terms,
    sn_modularity,
)
from snmod.geometry import spherical_centroid
from snmod.louvain import aggregate_graph

from conftest import bridged_triangles, colocated_clusters, random_geo_graph, random_partition, triangle_graph
from _naive import naive_ng, naive_sn

seeds = st.integers(min_value=0, max_value=10_000)


class TestPartition:
    def test_dense_label_validation(self):
        Partition((0, 1, 0, 2))
        with pytest.raises(ValueError):
            Partition((0, 2))  # gap
        with pytest.raises(ValueError):
            Partition((1, 2))  # does not start at 0

    def test_from_assignment_canonicalizes_by_first_appearance(self):
        p = Partition.from_assignment(["b", "a", "b", "c"])
        assert p.assignment == (0, 1, 0, 2)
        assert p.communities == ((0, 2), (1,), (3,))

    def test_from_communities_roundtrip_and_errors(self):
        p = Partition.from_communities([[3, 0], [1, 2]], 4)
        assert p.assignment == (0, 1, 1, 0)
        with pytest.raises(ValueError):
            Partition.from_communities([[0], [0, 1]], 2)
        with pytest.raises(ValueError):
            Partition.from_communities([[0]], 2)

    def test_singletons_and_empty(self):
        assert Partition.singletons(3).num_communities == 3
        assert Partition(()).num_communities == 0


class TestSNParams:
    def test_validation(self):
        SNParams(1.0)
        with pytest.raises(ValueError):
            SNParams(0.0)
        with pytest.raises(ValueError):
            SNParams(1.0, agg="median")
        with pytest.raises(ValueError):
            SNParams(1.0, metric="mercator")


def test_single_community_is_zero(bridged):
    p = Partition((0,) * 6)
    assert ng_modularity(bridged, p) == pytest.approx(0.0, abs=1e-12)


def test_triangle_singletons():
    g = triangle_graph()
    assert ng_modularity(g, Partition.singletons(3)) == pytest.approx(-1 / 3, abs=1e-12)


def test_bridged_triangles_value(bridged):
    p = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)
    assert ng_modularity(bridged, p) == pytest.approx(5 / 14, abs=1e-12)


def test_partition_graph_mismatch_raises(bridged):
    with pytest.raises(ValueError):
        ng_modularity(bridged, Partition.singletons(5))
    with pytest.raises(ValueError):
        sn_modularity(bridged, Partition.singletons(5), SNParams(1.0))


def test_zero_distance_embedding_is_exact(bridged):
    rng = random.Random(0)
    for _ in range(25):
        p = random_partition(rng, 6)
        for sigma in (1e-6, 1.0, 1e4):
            assert sn_modularity(bridged, p, SNParams(sigma)) == ng_modularity(bridged, p)


def test_colocated_clusters_reduce_to_plain_value(geo_clusters):
    p = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)
    assert sn_modularity(geo_clusters, p, SNParams(1.0)) == pytest.approx(5 / 14, abs=1e-12)


def planar_dispersion_fixture():
    """Bridged triangles; community A spans max distance 1 around the origin."""
    coords = {0: (1.0, 0.0), 1: (-1.0, 0.0), 2: (0.0, 0.0)}
    coords.update({i: (50.0, 100.0) for i in (3, 4, 5)})
    return bridged_triangles(coords)


def test_max_dispersion_fixture_value():
    g = planar_dispersion_fixture()
    p = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)
    params = SNParams(1.0, agg="max", metric="planar")
    assert sn_modularity(g, p, params) == pytest.approx(3.75 / 14, abs=1e-12)


def test_sum_agg_is_literal_unnormalized():
    g = planar_dispersion_fixture()
    p = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)
    # squared distances 1, 1, 0 -> sum 2 against max 1
    v_sum = sn_modularity(g, p, SNParams(1.0, agg="sum", metric="planar"))
    assert v_sum == pytest.approx((2.5 / 3 + 2.5) / 14, abs=1e-12)


def test_community_quality_examples(geo_clusters):
    params = SNParams(1.0)
    # singleton: no internal weight, zero dispersion
    k0 = geo_clusters.degrees[0]
    q = community_quality(geo_clusters, [0], params)
    assert q == pytest.approx(-(k0 * k0) / (14.0 * 14.0), abs=1e-12)
    q_tri = community_quality(geo_clusters, [0, 1, 2], params)
    assert q_tri == pytest.approx(2.5 / 14, abs=1e-12)
    whole = community_quality(geo_clusters, range(6), params)
    assert whole == sn_modularity(geo_clusters, Partition((0,) * 6), params)
    with pytest.raises(ValueError):
        community_quality(geo_clusters, [], params)
    with pytest.raises(ValueError):
        community_quality(geo_clusters, [17], params)


def test_community_stats_fields(geo_clusters):
    params = SNParams(1.0)
    st_ = community_stats(geo_clusters, [0, 1, 2], params)
    assert isinstance(st_, CommunityStats)
    assert st_.sum_in == 6.0
    assert st_.sum_deg == 7.0
    assert st_.dispersion == 0.0
    want = spherical_centroid([geo_clusters.nodes[i] for i in (0, 1, 2)])
    assert st_.centroid == want


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_decomposition_identity(seed):
    rng = random.Random(seed)
    g = random_geo_graph(rng, rng.randint(2, 12))
    p = random_partition(rng, g.num_nodes)
    params = SNParams(10 ** rng.uniform(0, 4), agg=rng.choice(("max", "sum")))
    total = sum(community_quality(g, c, params) for c in p.communities)
    assert sn_modularity(g, p, params) == pytest.approx(total, abs=1e-12)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_one_term_serves_both_objectives(seed):
    rng = random.Random(seed)
    for _ in range(20):
        sum_in, sum_deg, two_m = rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(50, 100)
        # zero dispersion is the Newman-Girvan term bit for bit
        assert community_term(sum_in, sum_deg, 0.0, two_m) == (sum_in - sum_deg * sum_deg / two_m) / two_m
    g = random_geo_graph(rng, rng.randint(2, 12))
    p = random_partition(rng, g.num_nodes)
    params = SNParams(10 ** rng.uniform(0, 4), agg=rng.choice(("max", "sum")))
    terms = score_terms(g, p, params)[1]
    assert terms == [community_quality(g, c, params) for c in p.communities]
    total = 0.0
    for q in terms:
        total += q
    assert sn_modularity(g, p, params) == total
    colocated = GeoGraph.from_edges(
        [(u, v, w) for u, v, w in g.undirected_edges()], {i: (0.0, 0.0) for i in range(g.num_nodes)},
        extra_nodes=range(g.num_nodes),
    )
    assert score_terms(g, p, None)[0] == score_terms(colocated, p, params)[1]
    assert ng_modularity(g, p) == sn_modularity(colocated, p, params)


def _hex(values):
    return [float.hex(v) for v in values]


@given(seed=seeds, kind=st.sampled_from(["weighted", "coarse", "isolated", "no-edges"]))
@settings(max_examples=120, deadline=None)
def test_one_pass_sums_equal_the_per_community_sums(seed, kind):
    rng = random.Random(seed)
    n = rng.randint(1, 16)
    if kind == "weighted":
        g = random_geo_graph(rng, n, edge_p=rng.uniform(0.2, 0.8))
    elif kind == "coarse":
        # meta-nodes carry self-loops holding their communities' internal weight
        fine = random_geo_graph(rng, rng.randint(n, 3 * n), edge_p=rng.uniform(0.2, 0.6))
        g = aggregate_graph(fine, random_partition(rng, fine.num_nodes, max_groups=n))
    elif kind == "isolated":
        g = random_geo_graph(rng, n, edge_p=0.1)
    else:
        g = random_geo_graph(rng, n, edge_p=0.0)
    if kind == "coarse":
        assume(any(j == i for i, row in enumerate(g.adj) for j, _ in row))
    if kind == "no-edges":
        assert g.two_m == 0
    p = random_partition(rng, g.num_nodes)
    sum_in, sum_deg = community_sums(g, p)
    per_community = [_community_sums(g, members) for members in p.communities]
    assert _hex(sum_in) == _hex(s for s, _ in per_community)
    assert _hex(sum_deg) == _hex(d for _, d in per_community)

    params = SNParams(10 ** rng.uniform(0, 4), agg=rng.choice(("max", "sum")),
                      metric=rng.choice(("haversine", "planar")))
    ng, sn = score_terms(g, p, params)
    assert score_terms(g, p, None) == (ng, None)
    # the single-community path sums each member list on its own
    assert _hex(sn) == _hex(community_quality(g, members, params) for members in p.communities)
    if g.two_m:
        assert _hex(ng) == _hex(community_term(s, d, 0.0, g.two_m) for s, d in per_community)
    else:
        assert ng == sn == [0.0] * p.num_communities


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_matches_naive_pair_loop(seed):
    rng = random.Random(seed)
    g = random_geo_graph(rng, rng.randint(2, 14))
    p = random_partition(rng, g.num_nodes)
    params = SNParams(
        10 ** rng.uniform(0, 4),
        agg=rng.choice(("max", "sum")),
        metric=rng.choice(("haversine", "planar")),
    )
    assert ng_modularity(g, p) == pytest.approx(naive_ng(g, p), abs=1e-12)
    assert sn_modularity(g, p, params) == pytest.approx(naive_sn(g, p, params), abs=1e-12)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_relabel_and_reorder_invariance(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    g = random_geo_graph(rng, n)
    p = random_partition(rng, n)
    params = SNParams(500.0)

    shuffled = list(p.communities)
    rng.shuffle(shuffled)
    p2 = Partition.from_communities(shuffled, n)
    assert ng_modularity(g, p2) == pytest.approx(ng_modularity(g, p), abs=1e-12)
    assert sn_modularity(g, p2, params) == pytest.approx(sn_modularity(g, p, params), abs=1e-12)

    # renumber external ids with random gaps; internal order reverses via sort
    mapping = {i: 1000 - 7 * i for i in range(n)}
    coords = {mapping[i]: (g.nodes[i].lat, g.nodes[i].lon) for i in range(n)}
    edges = [(mapping[u], mapping[v], w) for u, v, w in g.undirected_edges()]
    g2 = GeoGraph.from_edges(edges, coords, extra_nodes=mapping.values())
    labels2 = [p.assignment[g.internal_id((1000 - e) // 7)] for e in g2.external_ids]
    p3 = Partition.from_assignment(labels2)
    assert ng_modularity(g2, p3) == pytest.approx(ng_modularity(g, p), abs=1e-12)
    assert sn_modularity(g2, p3, params) == pytest.approx(sn_modularity(g, p, params), abs=1e-12)


def test_large_sigma_limit_bound_and_monotone_gap():
    rng = random.Random(42)
    for _ in range(20):
        g = random_geo_graph(rng, rng.randint(3, 12))
        p = random_partition(rng, g.num_nodes)
        ng = ng_modularity(g, p)
        gaps = []
        for sigma in (1e4, 1e5, 1e6):
            params = SNParams(sigma)
            sn = sn_modularity(g, p, params)
            bound = 0.0
            for members in p.communities:
                stats = community_stats(g, members, params)
                num = abs(stats.sum_in - stats.sum_deg**2 / g.two_m)
                bound += num * stats.dispersion
            bound /= g.two_m
            assert abs(sn - ng) <= bound + 1e-12
            gaps.append(abs(sn - ng))
        assert gaps[0] >= gaps[1] - 1e-15
        assert gaps[1] >= gaps[2] - 1e-15


def test_zero_edge_graph_scores_zero():
    g = GeoGraph.from_edges([], {0: (0, 0), 1: (1, 1)}, extra_nodes=[0, 1])
    p = Partition.singletons(2)
    assert ng_modularity(g, p) == 0.0
    assert sn_modularity(g, p, SNParams(1.0)) == 0.0


class TestMemberListChecks:
    """community_quality and community_stats take only distinct in-range ids."""

    def path(self):
        return GeoGraph.from_edges([(0, 1), (1, 2)], {i: (0.0, 0.1 * i) for i in range(3)})

    @pytest.mark.parametrize("fn", [community_quality, community_stats])
    def test_negative_id_is_rejected_not_wrapped(self, fn):
        with pytest.raises(ValueError):
            fn(self.path(), [-1, 0], SNParams(100.0))

    @pytest.mark.parametrize("fn", [community_quality, community_stats])
    def test_out_of_range_id_raises_value_error(self, fn):
        with pytest.raises(ValueError):
            fn(self.path(), [99], SNParams(100.0))

    @pytest.mark.parametrize("fn", [community_quality, community_stats])
    def test_repeated_member_is_rejected(self, fn):
        g, params = self.path(), SNParams(100.0)
        assert community_quality(g, [0], params) == -0.0625
        with pytest.raises(ValueError):
            fn(g, [0, 0], params)

    @pytest.mark.parametrize("fn", [community_quality, community_stats])
    def test_non_integer_and_empty_are_rejected(self, fn):
        for members in ([0.0, 1.0], ["0"], []):
            with pytest.raises(ValueError):
                fn(self.path(), members, SNParams(100.0))

    def test_members_are_read_in_sorted_order(self):
        g, params = self.path(), SNParams(100.0)
        assert community_stats(g, (2, 0, 1), params) == community_stats(g, [0, 1, 2], params)
        assert community_quality(g, {2, 1}, params) == community_quality(g, [1, 2], params)
