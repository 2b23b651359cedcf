import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmod.geograph import GeoGraph
from snmod.sampler import SampleSpec, snowball_sample

from conftest import random_geo_graph
from _naive import naive_snowball_sample


def star(n_leaves=5):
    edges = [(0, i) for i in range(1, n_leaves + 1)]
    coords = {i: (float(i), 0.0) for i in range(n_leaves + 1)}
    return GeoGraph.from_edges(edges, coords)


def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(0)


def test_target_at_least_graph_returns_whole_graph():
    g = star()
    assert snowball_sample(g, SampleSpec(6, seed=1)) == g
    assert snowball_sample(g, SampleSpec(100, seed=1)) == g


def test_star_center_first_fills_in_one_expansion():
    g = star()
    # find a seed whose first pick is the center
    seed = next(
        s for s in range(100) if random.Random(s).randrange(g.num_nodes) == 0
    )
    sample = snowball_sample(g, SampleSpec(6, seed=seed))
    assert sample == g


def test_truncation_adds_neighbors_in_ascending_internal_id():
    g = star()
    seed = next(
        s for s in range(100) if random.Random(s).randrange(g.num_nodes) == 0
    )
    sample = snowball_sample(g, SampleSpec(3, seed=seed))
    # center plus the two smallest-id leaves
    assert sample.external_ids == (0, 1, 2)


def test_determinism_same_seed():
    rng = random.Random(3)
    g = random_geo_graph(rng, 40, edge_p=0.1)
    a = snowball_sample(g, SampleSpec(15, seed=9))
    b = snowball_sample(g, SampleSpec(15, seed=9))
    assert a == b


@given(seed=st.integers(min_value=0, max_value=5000))
@settings(max_examples=30, deadline=None)
def test_sample_is_exact_node_induced_subgraph(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    g = random_geo_graph(rng, n, edge_p=0.15)
    target = rng.randint(1, n)
    sample = snowball_sample(g, SampleSpec(target, seed=seed))
    assert sample.num_nodes == min(target, n)

    kept = set(sample.external_ids)
    want_edges = {
        (g.external_ids[u], g.external_ids[v], w)
        for u, v, w in g.undirected_edges()
        if g.external_ids[u] in kept and g.external_ids[v] in kept
    }
    got_edges = {
        (sample.external_ids[u], sample.external_ids[v], w)
        for u, v, w in sample.undirected_edges()
    }
    assert got_edges == want_edges
    for i in range(sample.num_nodes):
        orig = g.internal_id(sample.external_ids[i])
        assert sample.nodes[i].lat == g.nodes[orig].lat
        assert sample.nodes[i].lon == g.nodes[orig].lon


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_sample_equals_the_candidate_list_rebuild(seed):
    # sparse graphs take many expansions, so the k-th remaining node is
    # drawn from many different sets of remaining nodes
    rng = random.Random(seed)
    n = rng.randint(1, 120)
    g = random_geo_graph(rng, n, edge_p=rng.choice((0.0, 0.01, 0.05, 0.3)))
    target = rng.randint(1, n)
    assert snowball_sample(g, SampleSpec(target, seed=seed)) == naive_snowball_sample(g, target, seed)
