import random

import pytest

from snmod.geograph import GeoGraph
from snmod.metrics import Partition

from _graphs import random_geo_graph  # noqa: F401  (tests import it from here)

# fixture topology: two unit triangles joined by the 2-3 bridge; two_m = 14
BRIDGED_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]


def triangle_graph(coords=None):
    coords = coords or {i: (0.0, 0.0) for i in range(3)}
    return GeoGraph.from_edges([(0, 1), (1, 2), (0, 2)], coords)


def bridged_triangles(coords=None):
    coords = coords or {i: (0.0, 0.0) for i in range(6)}
    return GeoGraph.from_edges(BRIDGED_EDGES, coords)


def colocated_clusters(offset_lon=0.9):
    """Two co-located unit triangles roughly 100 km apart, bridged."""
    coords = {i: (0.0, 0.0) for i in (0, 1, 2)}
    coords.update({i: (0.0, offset_lon) for i in (3, 4, 5)})
    return GeoGraph.from_edges(BRIDGED_EDGES, coords)


def random_partition(rng: random.Random, n, max_groups=None):
    if n == 0:
        return Partition(())
    groups = rng.randint(1, max_groups or n)
    labels = [rng.randrange(groups) for _ in range(n)]
    return Partition.from_assignment(labels)


@pytest.fixture
def bridged():
    return bridged_triangles()


@pytest.fixture
def geo_clusters():
    return colocated_clusters()
