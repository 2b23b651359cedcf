import math
import random

import pytest

from snmod.geometry import max_pairwise_span_km
from snmod.synth import SyntheticSpec, planted_geo_clusters


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_nodes=5, n_clusters=9)
    with pytest.raises(ValueError):
        SyntheticSpec(p_intra=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(spacing_km=-1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(geo_mode="mixed")
    with pytest.raises(ValueError):
        SyntheticSpec(n_clusters=40, spacing_km=2000.0)  # arc wraps


def test_deterministic_generation():
    spec = SyntheticSpec(n_nodes=80, n_clusters=4, seed=5)
    g1, p1 = planted_geo_clusters(spec)
    g2, p2 = planted_geo_clusters(spec)
    assert g1 == g2
    assert p1 == p2


def test_planted_partition_shape():
    spec = SyntheticSpec(n_nodes=101, n_clusters=4, seed=0)
    _, planted = planted_geo_clusters(spec)
    sizes = sorted(len(c) for c in planted.communities)
    assert sum(sizes) == 101
    assert sizes == [25, 25, 25, 26]


def test_aligned_mode_places_nodes_at_their_cluster_site():
    spec = SyntheticSpec(
        n_nodes=40, n_clusters=4, spacing_km=1000.0, spread_km=0.0,
        geo_mode="aligned", seed=2,
    )
    g, planted = planted_geo_clusters(spec)
    for members in planted.communities:
        pts = {(g.nodes[i].lat, g.nodes[i].lon) for i in members}
        assert len(pts) == 1
    # adjacent sites sit spacing_km apart along the equator
    site_pts = sorted(
        {(g.nodes[i].lat, g.nodes[i].lon) for i in range(g.num_nodes)},
        key=lambda p: p[1],
    )
    for a, b in zip(site_pts, site_pts[1:]):
        assert max_pairwise_span_km([a, b]) == pytest.approx(1000.0, rel=1e-6)


def test_scattered_mode_spreads_clusters_over_sites():
    spec = SyntheticSpec(n_nodes=400, n_clusters=8, spread_km=0.0, seed=3)
    g, planted = planted_geo_clusters(spec)
    # nearly every topological cluster should touch several distinct sites
    multi = sum(
        1
        for members in planted.communities
        if len({(g.nodes[i].lat, g.nodes[i].lon) for i in members}) >= 4
    )
    assert multi == 8


def test_edge_densities_reflect_probabilities():
    spec = SyntheticSpec(
        n_nodes=200, n_clusters=4, p_intra=0.2, p_inter=0.01, seed=7
    )
    g, planted = planted_geo_clusters(spec)
    intra = inter = 0
    for u, v, _ in g.undirected_edges():
        if planted.assignment[u] == planted.assignment[v]:
            intra += 1
        else:
            inter += 1
    intra_pairs = 4 * (50 * 49) / 2
    inter_pairs = 200 * 199 / 2 - intra_pairs
    assert intra / intra_pairs == pytest.approx(0.2, abs=0.05)
    assert inter / inter_pairs == pytest.approx(0.01, abs=0.005)


def test_spread_jitters_locations():
    spec = SyntheticSpec(n_nodes=50, n_clusters=2, spread_km=30.0, seed=9)
    g, _ = planted_geo_clusters(spec)
    lats = {g.nodes[i].lat for i in range(g.num_nodes)}
    assert len(lats) > 40  # jitter makes locations distinct
    assert all(abs(g.nodes[i].lat) < 2.0 for i in range(g.num_nodes))
