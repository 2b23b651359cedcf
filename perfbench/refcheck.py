"""Independent reference checker for the benchmark's outputs.

Computes Newman-Girvan and spatially-near (SN) modularity straight from their
definitions, with its own file parsers, great-circle distance and spherical
mean.  It imports nothing from snmod, so a fault in the program's metrics or
geometry cannot hide itself by also being in the check.

Definitions (ordered node pairs, so each undirected edge counts twice):

    NG  = sum_c (in_c - tot_c^2 / 2m) / 2m
    SN  = sum_c (in_c - tot_c^2 / 2m) / 2m / (1 + disp_c)
    disp_c = agg over members i of (d(i, centre_c) / sigma)^2,  agg = max | sum

where in_c is the weight of ordered pairs inside c, tot_c the degree sum of c,
and centre_c the normalised mean of the members' unit vectors (the first
member by node id when all members share one point or the mean vector is
degenerate).
"""

import math

EARTH_RADIUS_KM = 6371.0
_DEGENERATE = 1e-9


class RefGraph:
    """Undirected weighted graph over external node ids, built from an edge file."""

    def __init__(self, pairs: dict):
        self.adj: dict[int, dict[int, float]] = {}
        for (u, v), w in pairs.items():
            self.adj.setdefault(u, {})[v] = w
            self.adj.setdefault(v, {})[u] = w
        self.nodes = sorted(self.adj)
        self.degree = {u: sum(row.values()) for u, row in self.adj.items()}
        self.two_m = sum(self.degree.values())


def read_edges(path) -> RefGraph:
    """Parse ``u<TAB>v[<TAB>w]`` lines; duplicate undirected pairs add up."""
    pairs: dict[tuple[int, int], float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            parts = s.split("\t")
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) > 2 else 1.0
            key = (u, v) if u < v else (v, u)
            pairs[key] = pairs.get(key, 0.0) + w
    return RefGraph(pairs)


def read_coord_csv(path) -> dict[int, tuple[float, float]]:
    """Parse ``node,lat,lon`` rows (one per node) after a header line."""
    coords = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            node, lat, lon = line.strip().split(",")
            coords[int(node)] = (float(lat), float(lon))
    return coords


def read_checkins(path) -> dict[int, list[tuple[float, float]]]:
    """Parse ``user  time  lat  lon  place`` rows into per-user point lists, in file order."""
    per_user: dict[int, list[tuple[float, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            user, _time, lat, lon = line.split("\t", 4)[:4]
            per_user.setdefault(int(user), []).append((float(lat), float(lon)))
    return per_user


def read_partition(path) -> list[tuple[int, str]]:
    """``(node, label)`` rows of a ``node,community`` file, header skipped."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = next(fh).strip()
        if header != "node,community":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            node, label = line.strip().split(",")
            rows.append((int(node), label))
    return rows


def communities_of(graph: RefGraph, rows) -> list[list[int]]:
    """Member lists, ordered by each community's first node id.

    Raises ValueError unless every graph node appears exactly once and no
    unknown node appears.  The order is the one ``snmod score`` numbers
    communities in: by first appearance over ascending node ids.
    """
    label_of: dict[int, str] = {}
    for node, label in rows:
        if node in label_of:
            raise ValueError(f"node {node} appears twice in the partition")
        label_of[node] = label
    known = set(graph.nodes)
    unknown = set(label_of) - known
    if unknown:
        raise ValueError(f"partition names unknown node {min(unknown)}")
    missing = known - set(label_of)
    if missing:
        raise ValueError(f"partition misses node {min(missing)}")
    groups: dict[str, list[int]] = {}
    for node in graph.nodes:
        groups.setdefault(label_of[node], []).append(node)
    return list(groups.values())


def great_circle_km(a, b) -> float:
    """Haversine distance on a sphere of radius 6371 km, in atan2 form."""
    p1, p2 = math.radians(a[0]), math.radians(b[0])
    dp = p2 - p1
    dl = math.radians(b[1] - a[1])
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    h = min(1.0, max(0.0, h))
    return EARTH_RADIUS_KM * 2.0 * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def spherical_mean(points) -> tuple[float, float]:
    """Normalised mean of unit vectors, as (lat, lon) in degrees.

    All-identical inputs return that point; a mean vector shorter than 1e-9
    per point (an antipodal pair, say) returns the first point.
    """
    points = list(points)
    first = points[0]
    if all(p[0] == first[0] and p[1] == first[1] for p in points):
        return (first[0], first[1])
    x = y = z = 0.0
    for lat, lon in points:
        phi, lam = math.radians(lat), math.radians(lon)
        x += math.cos(phi) * math.cos(lam)
        y += math.cos(phi) * math.sin(lam)
        z += math.sin(phi)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < _DEGENERATE * len(points):
        return (first[0], first[1])
    return (math.degrees(math.asin(max(-1.0, min(1.0, z / norm)))), math.degrees(math.atan2(y, x)))


def _numerator(graph: RefGraph, members) -> float:
    inside = set(members)
    internal = 0.0
    total = 0.0
    for u in members:
        total += graph.degree[u]
        for v, w in graph.adj[u].items():
            if v in inside:
                internal += w
    return (internal - total * total / graph.two_m) / graph.two_m


def dispersion(points, sigma: float, agg: str) -> float:
    """Aggregated squared normalised distance of the points to their centre."""
    centre = spherical_mean(points)
    r2 = [(great_circle_km(p, centre) / sigma) ** 2 for p in points]
    if agg == "max":
        return max(r2)
    if agg == "sum":
        return sum(r2)
    raise ValueError(f"unknown aggregation {agg!r}")


def ng_modularity(graph: RefGraph, communities) -> float:
    return sum(_numerator(graph, c) for c in communities)


def community_quality(graph: RefGraph, coords, members, sigma: float, agg: str = "max") -> float:
    """One community's SN term; these sum to :func:`sn_modularity`."""
    members = sorted(members)
    disp = dispersion([coords[u] for u in members], sigma, agg)
    return _numerator(graph, members) / (1.0 + disp)


def sn_modularity(graph: RefGraph, coords, communities, sigma: float, agg: str = "max") -> float:
    return sum(community_quality(graph, coords, c, sigma, agg) for c in communities)
