"""Partition quality measures: Newman-Girvan and spatially-near modularity.

NG-modularity of a partition is (1/2m) * sum over communities of
(internal ordered-pair weight - squared degree sum / 2m).  Spatially-near
(SN) modularity divides each community term by 1 + dispersion, where
dispersion aggregates each member's squared distance to the community
center, normalized by the scale sigma.  Internal sums run over ordered
pairs, so each undirected edge counts twice and a self-loop's stored weight
counts once; this makes the single-community value exactly zero.

One pass over the nodes (:func:`community_sums`) gives every community's
internal weight and degree sum, and :func:`score_terms` builds both the NG
and the SN terms from it, so a partition scored under both objectives, or
under several SN settings, is walked once.
"""

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .geograph import GeoGraph, sorted_internal_ids, summed
from .geometry import AGG_NAMES, METRIC_NAMES, GeoPoint


@dataclass(frozen=True)
class SNParams:
    """Parameters of the spatially-near objective.

    sigma is the distance scale (km under the great-circle metric); agg
    aggregates each member's squared normalized distance to the center.
    """

    sigma: float
    agg: str = "max"
    metric: str = "haversine"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.agg not in AGG_NAMES:
            raise ValueError(f"unknown aggregation {self.agg!r}")
        if self.metric not in METRIC_NAMES:
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


def _community_sums(g: GeoGraph, members: Sequence[int]) -> tuple[float, float]:
    """Internal ordered-pair weight and degree sum of one community."""
    member_set = set(members)
    sum_in = 0.0
    sum_deg = 0.0
    for i in members:
        sum_deg += g.degrees[i]
        for j, w in g.adj[i]:
            if j in member_set:
                sum_in += w
    return sum_in, sum_deg


def community_term(sum_in: float, sum_deg: float, dispersion: float, two_m: float) -> float:
    """One community's SN-modularity term.

    A dispersion of 0.0 gives the Newman-Girvan term bit for bit, since
    dividing by 1.0 is exact.  Every score and every exact optimizer gain
    reads its terms from here.
    """
    return (sum_in - sum_deg * sum_deg / two_m) / (1.0 + dispersion) / two_m


def check_assignment(g: GeoGraph, labels: Sequence) -> None:
    """ValueError unless ``labels`` gives one community label per node of ``g``."""
    if len(labels) != g.num_nodes:
        raise ValueError(f"partition covers {len(labels)} nodes, graph has {g.num_nodes}")


def community_sums(g: GeoGraph, p: Partition) -> tuple[list[float], list[float]]:
    """Every community's internal ordered-pair weight and degree sum, in one pass.

    Returns ``(sum_in, sum_deg)`` in community order.  Nodes are walked in
    order, so each community's sums make the additions of
    :func:`_community_sums` over its ascending members, in the same order,
    and agree with it bit for bit.
    """
    check_assignment(g, p.assignment)
    labels = p.assignment
    sum_in = [0.0] * p.num_communities
    sum_deg = [0.0] * p.num_communities
    degrees = g.degrees
    for i, row in enumerate(g.adj):
        c = labels[i]
        sum_deg[c] += degrees[i]
        s = sum_in[c]
        for j, w in row:
            if labels[j] == c:
                s += w
        sum_in[c] = s
    return sum_in, sum_deg


def score_terms(
    g: GeoGraph, p: Partition, params: SNParams | Sequence[SNParams] | None
) -> tuple[list[float], list[float] | list[list[float]] | None]:
    """Each community's NG term and SN term, in community order, from one sums pass.

    The SN terms are None when params is None.  Given a sequence of SNParams,
    the SN terms are one list per entry, in order, all read from the same pass.
    """
    several = not (params is None or isinstance(params, SNParams))
    settings = params if several else () if params is None else (params,)
    sums = list(zip(*community_sums(g, p)))
    two_m = g.two_m
    if two_m == 0:
        ng = [0.0] * p.num_communities
        sn = [ng[:] for _ in settings]
    else:
        ng = [community_term(sum_in, sum_deg, 0.0, two_m) for sum_in, sum_deg in sums]
        sn = []
        for s in settings:
            stats = g.kernel(s.metric).stats
            sn.append([community_term(sum_in, sum_deg, stats(members, s.sigma, s.agg)[1], two_m)
                       for (sum_in, sum_deg), members in zip(sums, p.communities)])
    return ng, (sn if several else sn[0] if sn else None)


def ng_modularity(g: GeoGraph, p: Partition) -> float:
    """Newman-Girvan modularity of a partition; in [-1, 1]."""
    return summed(score_terms(g, p, None)[0])


def sn_modularity(g: GeoGraph, p: Partition, params: SNParams) -> float:
    """Spatially-near modularity: per-community quality summed over communities."""
    return summed(score_terms(g, p, params)[1])


def _member_list(g: GeoGraph, members: Iterable[int]) -> list[int]:
    """The members sorted; ValueError unless they are distinct integer node ids of g."""
    ids = sorted_internal_ids(g, members)
    if not ids:
        raise ValueError("empty community")
    if len(set(ids)) != len(ids):
        raise ValueError("repeated community member")
    return ids


def community_quality(g: GeoGraph, members: Iterable[int], params: SNParams) -> float:
    """Quality contribution of one community; these sum to sn_modularity."""
    members = _member_list(g, members)
    if g.two_m == 0:
        return 0.0
    sum_in, sum_deg = _community_sums(g, members)
    _, dispersion = g.kernel(params.metric).stats(members, params.sigma, params.agg)
    return community_term(sum_in, sum_deg, dispersion, g.two_m)


def community_stats(g: GeoGraph, members: Iterable[int], params: SNParams) -> CommunityStats:
    """Numerator pieces, center, and dispersion for one community."""
    members = _member_list(g, members)
    sum_in, sum_deg = _community_sums(g, members)
    kernel = g.kernel(params.metric)
    _, dispersion = kernel.stats(members, params.sigma, params.agg)
    return CommunityStats(sum_in, sum_deg, kernel.centroid(members), dispersion)

