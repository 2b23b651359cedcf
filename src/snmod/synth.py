"""Synthetic planted-geo-cluster benchmark graphs.

Nodes split round-robin into equally sized topological clusters with dense
intra-cluster and sparse inter-cluster edges.  Cluster sites sit on the
equator, spaced ``spacing_km`` apart.  In ``aligned`` mode a node sits at
its own cluster's site (plus Gaussian jitter), so topology and geography
coincide; in ``scattered`` mode each node is assigned a uniformly random
site, decoupling the two the way check-in friendship data does, which is
the regime where geography-aware detection pays off.
"""

import math
import random
from dataclasses import dataclass

from .geograph import GeoGraph
from .geometry import EARTH_RADIUS_KM
from .metrics import Partition

KM_PER_DEGREE = 2.0 * math.pi * EARTH_RADIUS_KM / 360.0


@dataclass(frozen=True)
class SyntheticSpec:
    n_nodes: int = 1000
    n_clusters: int = 10
    p_intra: float = 0.06
    p_inter: float = 0.002
    spacing_km: float = 2000.0
    spread_km: float = 20.0
    geo_mode: str = "scattered"
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1 or not 1 <= self.n_clusters <= self.n_nodes:
            raise ValueError("need 1 <= n_clusters <= n_nodes")
        if not (0.0 <= self.p_intra <= 1.0 and 0.0 <= self.p_inter <= 1.0):
            raise ValueError("edge probabilities must be in [0, 1]")
        if self.spacing_km <= 0 or self.spread_km < 0:
            raise ValueError("spacing_km must be positive, spread_km non-negative")
        if self.geo_mode not in ("aligned", "scattered"):
            raise ValueError(f"unknown geo_mode {self.geo_mode!r}")
        arc = (self.n_clusters - 1) * self.spacing_km / KM_PER_DEGREE
        if arc > 170.0:
            raise ValueError(
                f"site arc of {arc:.1f} degrees wraps too far; "
                "reduce n_clusters or spacing_km"
            )


# Node counts of the runtime-scaling ladder: acceptance criterion 6 and
# scripts/runtime_scaling.py time SNIC on scaling_spec(n) for each.
SCALING_SIZES = (250, 500, 1000, 2000)


def scaling_spec(n: int, seed: int = 0) -> SyntheticSpec:
    """Fixed-density aligned spec of the runtime-scaling ladder.

    About 100 nodes per cluster, expected intra-cluster degree 6 and
    inter-cluster degree 2 at every n, so work should grow linearly in n.
    """
    clusters = max(2, n // 100)
    csize = n / clusters
    return SyntheticSpec(
        n_nodes=n,
        n_clusters=clusters,
        p_intra=min(1.0, 6.0 / (csize - 1)),
        p_inter=min(1.0, 2.0 / (n - csize)),
        spacing_km=700.0,
        spread_km=20.0,
        geo_mode="aligned",
        seed=seed,
    )


def planted_geo_clusters(spec: SyntheticSpec) -> tuple[GeoGraph, Partition]:
    """Generate a benchmark graph; returns it with the planted partition."""
    rng = random.Random(spec.seed)
    n = spec.n_nodes
    k = spec.n_clusters
    spacing_deg = spec.spacing_km / KM_PER_DEGREE
    site_lons = [(c - (k - 1) / 2.0) * spacing_deg for c in range(k)]

    cluster_of = [v % k for v in range(n)]
    if spec.geo_mode == "aligned":
        site_of = cluster_of
    else:
        site_of = [rng.randrange(k) for _ in range(n)]

    jitter_deg = spec.spread_km / KM_PER_DEGREE
    coords = {}
    for v in range(n):
        lat = rng.gauss(0.0, jitter_deg) if jitter_deg else 0.0
        lon = site_lons[site_of[v]] + (rng.gauss(0.0, jitter_deg) if jitter_deg else 0.0)
        coords[v] = (max(-89.0, min(89.0, lat)), max(-179.9, min(180.0, lon)))

    edges = []
    rand = rng.random
    p_intra = spec.p_intra
    p_inter = spec.p_inter
    for u in range(n):
        cu = cluster_of[u]
        for v in range(u + 1, n):
            p = p_intra if cluster_of[v] == cu else p_inter
            if rand() < p:
                edges.append((u, v, 1.0))
    graph = GeoGraph.from_edges(edges, coords, extra_nodes=range(n))
    return graph, Partition(tuple(cluster_of))
