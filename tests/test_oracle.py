import random

import pytest

from snmod.louvain import run_louvain
from snmod.metrics import Partition, SNParams, ng_modularity, sn_modularity
from snmod.oracle import BELL_NUMBERS, enumerate_partitions, oracle_best

from conftest import bridged_triangles, colocated_clusters, random_geo_graph, triangle_graph

TRIANGLES = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_count_matches_bell_numbers(n):
    assert sum(1 for _ in enumerate_partitions(n)) == BELL_NUMBERS[n]


def test_enumeration_unique_and_lexicographic():
    for n in range(1, 7):
        seen = [p.assignment for p in enumerate_partitions(n)]
        assert len(set(seen)) == BELL_NUMBERS[n]
        assert seen[0] == (0,) * n
        assert seen[-1] == tuple(range(n))
        assert seen == sorted(seen)


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        list(enumerate_partitions(0))
    with pytest.raises(ValueError):
        list(enumerate_partitions(13))


def test_triangle_optimum_is_single_community():
    g = triangle_graph()
    best, value = oracle_best(g)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert best == Partition((0, 0, 0))


def test_bridged_triangles_optimum(bridged):
    best, value = oracle_best(bridged)
    assert best == TRIANGLES
    assert value == pytest.approx(5 / 14, abs=1e-12)


def test_colocated_clusters_sn_optimum(geo_clusters):
    best, value = oracle_best(geo_clusters, SNParams(1.0))
    assert best == TRIANGLES
    assert value == pytest.approx(5 / 14, abs=1e-12)


def test_oracle_rejects_large_graphs():
    rng = random.Random(1)
    g = random_geo_graph(rng, 13, edge_p=0.3)
    with pytest.raises(ValueError):
        oracle_best(g)


def test_oracle_value_is_true_maximum_small():
    rng = random.Random(7)
    for _ in range(5):
        g = random_geo_graph(rng, 5)
        params = SNParams(1000.0)
        _, value = oracle_best(g, params)
        values = [sn_modularity(g, p, params) for p in enumerate_partitions(5)]
        assert value == max(values)


def test_heuristics_never_beat_oracle_spot():
    for seed in range(10):
        rng = random.Random(seed)
        g = random_geo_graph(rng, rng.randint(4, 7))
        _, best = oracle_best(g)
        heur = ng_modularity(g, run_louvain(g))
        assert heur <= best + 1e-9


def test_oracle_best_shares_the_enumeration_range_check():
    for n in (0, 13):
        g = random_geo_graph(random.Random(n), n, edge_p=0.3)
        with pytest.raises(ValueError):
            oracle_best(g)
