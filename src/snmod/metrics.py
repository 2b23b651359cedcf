"""Partition quality measures: Newman-Girvan and spatially-near modularity.

NG-modularity of a partition is (1/2m) * sum over communities of
(internal ordered-pair weight - squared degree sum / 2m).  Spatially-near
(SN) modularity divides each community term by 1 + dispersion, where
dispersion aggregates the squared distances of members to the community
center, normalized by the scale sigma.  Internal sums run over ordered
pairs, so each undirected edge counts twice and a self-loop's stored weight
counts once; this makes the single-community value exactly zero.
"""

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .geograph import GeoGraph
from .geometry import GeoPoint

AGG_NAMES = ("max", "sum")


@dataclass(frozen=True)
class SNParams:
    """Parameters of the spatially-near objective.

    sigma is the distance scale (km under the great-circle metric); agg
    aggregates members' squared normalized center distances.
    """

    sigma: float
    agg: str = "max"
    metric: str = "haversine"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.agg not in AGG_NAMES:
            raise ValueError(f"unknown aggregation {self.agg!r}")
        if self.metric not in ("haversine", "planar"):
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class Partition:
    """A node -> community assignment with dense labels 0..k-1.

    ``communities`` is derived: per-label member tuples, members ascending.
    Equality and hashing use the assignment only.
    """

    assignment: tuple[int, ...]
    communities: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        labels = tuple(int(c) for c in self.assignment)
        object.__setattr__(self, "assignment", labels)
        buckets: dict[int, list[int]] = {}
        for i, c in enumerate(labels):
            buckets.setdefault(c, []).append(i)
        k = len(buckets)
        if labels and (min(buckets) != 0 or max(buckets) != k - 1):
            raise ValueError("community labels must be dense 0..k-1")
        object.__setattr__(
            self, "communities", tuple(tuple(buckets[c]) for c in range(k))
        )

    @classmethod
    def from_assignment(cls, labels: Iterable[int]) -> "Partition":
        """Canonicalize arbitrary labels to dense ones by first appearance."""
        remap: dict = {}
        dense = []
        for c in labels:
            if c not in remap:
                remap[c] = len(remap)
            dense.append(remap[c])
        return cls(tuple(dense))

    @classmethod
    def from_communities(cls, groups: Iterable[Iterable[int]], n: int) -> "Partition":
        """Build from member groups; groups must partition 0..n-1."""
        labels = [-1] * n
        count = 0
        for c, group in enumerate(groups):
            for i in group:
                if not 0 <= i < n or labels[i] != -1:
                    raise ValueError(f"groups do not partition 0..{n - 1}")
                labels[i] = c
                count += 1
        if count != n:
            raise ValueError(f"groups do not partition 0..{n - 1}")
        return cls.from_assignment(labels)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple(range(n)))

    @property
    def num_communities(self) -> int:
        return len(self.communities)


@dataclass(frozen=True)
class CommunityStats:
    """Cached per-community pieces: internal weight, degree sum, center, dispersion."""

    sum_in: float
    sum_deg: float
    centroid: GeoPoint
    dispersion: float


def _check_partition(g: GeoGraph, p: Partition) -> None:
    if len(p.assignment) != g.num_nodes:
        raise ValueError(
            f"partition covers {len(p.assignment)} nodes, graph has {g.num_nodes}"
        )


def _community_sums(g: GeoGraph, members: Sequence[int], member_set) -> tuple[float, float]:
    sum_in = 0.0
    sum_deg = 0.0
    for i in members:
        sum_deg += g.degrees[i]
        for j, w in g.adj[i]:
            if j in member_set:
                sum_in += w
    return sum_in, sum_deg


def ng_modularity(g: GeoGraph, p: Partition) -> float:
    """Newman-Girvan modularity of a partition; in [-1, 1]."""
    _check_partition(g, p)
    if g.two_m == 0:
        return 0.0
    two_m = g.two_m
    total = 0.0
    # accumulate per-community quotients so the zero-dispersion case agrees
    # with sn_modularity bit-for-bit
    for members in p.communities:
        member_set = set(members)
        sum_in, sum_deg = _community_sums(g, members, member_set)
        total += (sum_in - sum_deg * sum_deg / two_m) / two_m
    return total


def sn_modularity(g: GeoGraph, p: Partition, params: SNParams) -> float:
    """Spatially-near modularity: per-community quality summed over communities."""
    _check_partition(g, p)
    if g.two_m == 0:
        return 0.0
    kernel = g.kernel(params.metric)
    total = 0.0
    for members in p.communities:
        total += _quality(g, members, params, kernel)
    return total


def community_quality(g: GeoGraph, members: Iterable[int], params: SNParams) -> float:
    """Quality contribution of one community; these sum to sn_modularity."""
    members = sorted(int(i) for i in members)
    if not members:
        raise ValueError("empty community")
    for i in members:
        if not 0 <= i < g.num_nodes:
            raise ValueError(f"unknown internal node id {i}")
    if g.two_m == 0:
        return 0.0
    return _quality(g, members, params, g.kernel(params.metric))


def community_stats(g: GeoGraph, members: Iterable[int], params: SNParams) -> CommunityStats:
    """Numerator pieces, center, and dispersion for one community."""
    members = sorted(int(i) for i in members)
    if not members:
        raise ValueError("empty community")
    sum_in, sum_deg = _community_sums(g, members, set(members))
    centroid, dispersion = g.kernel(params.metric).stats(members, params.sigma, params.agg)
    return CommunityStats(sum_in, sum_deg, centroid, dispersion)


def _quality(g, members, params, kernel) -> float:
    two_m = g.two_m
    sum_in, sum_deg = _community_sums(g, members, set(members))
    _, dispersion = kernel.stats(members, params.sigma, params.agg)
    return (sum_in - sum_deg * sum_deg / two_m) / (1.0 + dispersion) / two_m
