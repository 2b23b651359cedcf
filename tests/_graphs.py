"""Graph builders shared by the tests and scripts; they import no pytest."""

import random

from snmod.geograph import GeoGraph
from snmod.synth import SyntheticSpec


def random_geo_graph(rng: random.Random, n, edge_p=0.5, weighted=True, colocated=False):
    """Random graph with random worldwide coordinates; may be disconnected."""
    if colocated:
        base = (rng.uniform(-80, 80), rng.uniform(-170, 170))
        coords = {i: base for i in range(n)}
    else:
        coords = {
            i: (rng.uniform(-80.0, 80.0), rng.uniform(-170.0, 170.0)) for i in range(n)
        }
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_p:
                w = rng.uniform(0.5, 2.0) if weighted else 1.0
                edges.append((u, v, w))
    return GeoGraph.from_edges(edges, coords, extra_nodes=range(n))


def ensemble_spec(seed: int) -> SyntheticSpec:
    """The acceptance ensemble's graph for ``seed``: 1000 nodes, 10 sites 2000 km apart."""
    return SyntheticSpec(
        n_nodes=1000,
        n_clusters=10,
        p_intra=0.06,
        p_inter=0.002,
        spacing_km=2000.0,
        spread_km=20.0,
        geo_mode="scattered",
        seed=seed,
    )
