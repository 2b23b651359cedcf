"""Spatially-near community detection for geo-located social networks."""

from .geograph import (
    GeoGraph,
    GraphDataError,
    GraphFormatError,
    induced_subgraph,
    load_graph,
    validate_graph,
)
from .geometry import (
    EARTH_RADIUS_KM,
    GeoKernel,
    GeoPoint,
    max_pairwise_span_km,
    planar_centroid,
    spherical_centroid,
)
from .louvain import EngineConfig, run_louvain
from .metrics import (
    CommunityStats,
    Partition,
    SNParams,
    community_quality,
    community_stats,
    ng_modularity,
    sn_modularity,
)
from .oracle import BELL_NUMBERS, enumerate_partitions, oracle_best
from .sampler import SampleSpec, snowball_sample
from .snic import (
    SnicConfig,
    SnicIteration,
    SnicRun,
    SnicTrace,
    partition_max_span,
    run_snic,
)
from .synth import SyntheticSpec, planted_geo_clusters

__version__ = "0.1.0"
