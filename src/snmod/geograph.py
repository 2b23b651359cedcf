"""Geo-located weighted graph model and edge/coordinate file ingestion.

Edge files are TAB-separated ``u<TAB>v`` or ``u<TAB>v<TAB>w`` lines with
``#`` comments.  Coordinate files are either ``node,lat,lon`` CSV (header
optional) or TAB-separated check-in rows ``user  timestamp  lat  lon  place``
with ISO-8601 timestamps; the format is auto-detected from the first
significant line.  External node ids are non-negative integers and are
remapped to dense internal ids by ascending external id, which makes loading
fully deterministic.
"""

import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .geometry import GeoKernel, GeoPoint, spherical_centroid


class GraphFormatError(ValueError):
    """A malformed input line; the message carries the 1-based line number."""


class GraphDataError(ValueError):
    """Structurally invalid graph data (weights, ids, coordinate coverage)."""


@dataclass(frozen=True)
class GeoNode:
    """An internal node: dense id plus location."""

    id: int
    lat: float
    lon: float

    def point(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


class GeoGraph:
    """Immutable undirected weighted graph whose nodes carry locations.

    ``two_m`` is the total weight over ordered node pairs and equals the sum
    of weighted degrees.  Self-loops are rejected by the public loaders; the
    Louvain coarsening step builds graphs that carry them via
    :func:`assemble_graph`, where a loop's stored weight is its ordered-pair
    total and counts once toward the node's degree.

    ``num_edges`` counts undirected edges, a self-loop once.

    Instances are immutable after construction and safe for concurrent reads.
    The geometry kernel of each metric is derived from the node locations and
    kept once built (see :meth:`kernel`).
    """

    __slots__ = (
        "external_ids", "nodes", "adj", "degrees", "two_m", "num_edges",
        "_ext_index", "_kernels",
    )

    def __init__(self, external_ids, nodes, adj, degrees, two_m):
        self.external_ids = tuple(external_ids)
        self.nodes = tuple(nodes)
        self.adj = tuple(tuple(row) for row in adj)
        self.degrees = tuple(degrees)
        self.two_m = float(two_m)
        self.num_edges = sum(1 for u, row in enumerate(self.adj) for v, _ in row if u <= v)
        self._ext_index = {e: i for i, e in enumerate(self.external_ids)}
        self._kernels: dict[str, GeoKernel] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple],
        coords: Mapping[int, tuple],
        *,
        extra_nodes: Iterable[int] = (),
        missing_policy: str = "error",
    ) -> "GeoGraph":
        """Build a graph from (u, v[, w]) tuples and a node -> (lat, lon) map.

        Duplicate undirected edges (including reversed duplicates) merge by
        summing weights.  Nodes are edge endpoints plus ``extra_nodes``;
        endpoints without coordinates raise under ``missing_policy='error'``
        or are removed together with their incident edges under ``'drop'``.
        """
        if missing_policy not in ("error", "drop"):
            raise ValueError(f"unknown missing_policy {missing_policy!r}")
        pair_weights: dict[tuple[int, int], float] = {}
        node_set: set[int] = set()
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            else:
                u, v, w = edge
            u = int(u)
            v = int(v)
            w = float(w)
            if u < 0 or v < 0:
                raise GraphDataError(f"negative node id in edge ({u}, {v})")
            if u == v:
                raise GraphDataError(f"self-loop edge on node {u}")
            if not math.isfinite(w) or w <= 0:
                raise GraphDataError(f"non-positive weight {w} on edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            pair_weights[key] = pair_weights.get(key, 0.0) + w
            node_set.add(u)
            node_set.add(v)
        for e in extra_nodes:
            e = int(e)
            if e < 0:
                raise GraphDataError(f"negative node id {e}")
            node_set.add(e)

        missing = sorted(e for e in node_set if e not in coords)
        if missing:
            if missing_policy == "error":
                shown = ", ".join(str(e) for e in missing[:5])
                raise GraphDataError(
                    f"{len(missing)} node(s) lack coordinates (e.g. {shown})"
                )
            node_set -= set(missing)
            gone = set(missing)
            pair_weights = {
                (u, v): w
                for (u, v), w in pair_weights.items()
                if u not in gone and v not in gone
            }
        return assemble_graph(sorted(node_set), coords, pair_weights)

    # -- accessors --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def point(self, i: int) -> GeoPoint:
        return self.nodes[i].point()

    def points(self) -> list[GeoPoint]:
        return [n.point() for n in self.nodes]

    def kernel(self, metric: str = "haversine") -> GeoKernel:
        """The read-only geometry kernel over all nodes, built on first use.

        Every scorer and optimizer level over this graph shares it.  Two
        threads using it first at once may each build one; both are equal.
        """
        kernel = self._kernels.get(metric)
        if kernel is None:
            kernel = self._kernels[metric] = GeoKernel(self.points(), metric)
        return kernel

    def internal_id(self, external: int) -> int:
        try:
            return self._ext_index[external]
        except KeyError:
            raise GraphDataError(f"unknown external node id {external}") from None

    def undirected_edges(self):
        """Yield (u, v, w) with u <= v over internal ids."""
        for u, row in enumerate(self.adj):
            for v, w in row:
                if u <= v:
                    yield u, v, w

    def __eq__(self, other):
        if not isinstance(other, GeoGraph):
            return NotImplemented
        return (
            self.external_ids == other.external_ids
            and self.nodes == other.nodes
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.external_ids, self.nodes))

    def __repr__(self):
        return f"GeoGraph(n={self.num_nodes}, m={self.num_edges}, two_m={self.two_m})"


def assemble_graph(
    external_ids: Sequence[int],
    coords: Mapping[int, tuple],
    pair_weights: Mapping[tuple[int, int], float],
    *,
    allow_self_loops: bool = False,
) -> GeoGraph:
    """Assemble a graph from prepared parts.

    ``external_ids`` must be sorted ascending and unique; ``pair_weights``
    maps external (u, v) with u <= v to merged positive weights.  Coarsened
    graphs pass ``allow_self_loops=True``; a loop weight is interpreted as
    the ordered-pair internal total and enters the degree once.
    """
    ext = list(external_ids)
    if ext != sorted(set(ext)):
        raise GraphDataError("external ids must be sorted and unique")
    index = {e: i for i, e in enumerate(ext)}
    nodes = []
    for i, e in enumerate(ext):
        lat, lon = coords[e]
        lat = float(lat)
        lon = _check_coord(lat, float(lon), f"node {e}")
        nodes.append(GeoNode(i, lat, lon))

    rows: list[list[tuple[int, float]]] = [[] for _ in ext]
    for (u, v), w in pair_weights.items():
        w = float(w)
        if not math.isfinite(w) or w <= 0:
            raise GraphDataError(f"non-positive weight {w} on edge ({u}, {v})")
        if u == v and not allow_self_loops:
            raise GraphDataError(f"self-loop edge on node {u}")
        iu = index[u]
        iv = index[v]
        if iu == iv:
            rows[iu].append((iu, w))
        else:
            rows[iu].append((iv, w))
            rows[iv].append((iu, w))
    degrees = []
    for i in range(len(ext)):
        rows[i].sort()
        degrees.append(sum(w for _, w in rows[i]))
    two_m = sum(degrees)
    return GeoGraph(ext, nodes, rows, degrees, two_m)


def induced_subgraph(g: GeoGraph, keep: Iterable[int]) -> GeoGraph:
    """Node-induced subgraph over internal ids, keeping original external ids.

    Every edge of ``g`` between kept nodes is retained with its weight; kept
    nodes that end up isolated are retained too.
    """
    keep_set = set(int(i) for i in keep)
    for i in keep_set:
        if not 0 <= i < g.num_nodes:
            raise GraphDataError(f"unknown internal node id {i}")
    kept = sorted(keep_set, key=lambda i: g.external_ids[i])
    coords = {g.external_ids[i]: (g.nodes[i].lat, g.nodes[i].lon) for i in kept}
    pairs: dict[tuple[int, int], float] = {}
    for u, v, w in g.undirected_edges():
        if u in keep_set and v in keep_set:
            eu = g.external_ids[u]
            ev = g.external_ids[v]
            key = (eu, ev) if eu < ev else (ev, eu)
            pairs[key] = w
    return assemble_graph(
        [g.external_ids[i] for i in kept], coords, pairs, allow_self_loops=True
    )


def weighted_degree(g: GeoGraph, i: int) -> float:
    """Sum of weights incident to internal node ``i``."""
    if not isinstance(i, int) or not 0 <= i < g.num_nodes:
        raise GraphDataError(f"unknown internal node id {i}")
    return g.degrees[i]


def validate_graph(g: GeoGraph, *, allow_self_loops: bool = False) -> list[str]:
    """Check all structural invariants; returns a list of violation messages."""
    report: list[str] = []
    n = g.num_nodes
    if list(g.external_ids) != sorted(set(g.external_ids)):
        report.append("external ids are not sorted unique")
    if len(g.adj) != n or len(g.degrees) != n:
        report.append("adjacency/degree tables do not match the node count")
        return report
    weights: dict[tuple[int, int], float] = {}
    for u, row in enumerate(g.adj):
        for v, w in row:
            if not 0 <= v < n:
                report.append(f"edge ({u}, {v}) references an unknown node")
                continue
            if w <= 0 or not math.isfinite(w):
                report.append(f"non-positive weight {w} on edge ({u}, {v})")
            if u == v and not allow_self_loops:
                report.append(f"self-loop on node {u}")
            weights[(u, v)] = weights.get((u, v), 0.0) + w
    for (u, v), w in weights.items():
        back = weights.get((v, u))
        if back is None:
            report.append(f"asymmetric adjacency: ({u}, {v}) present, ({v}, {u}) absent")
        elif abs(back - w) > 1e-9 * max(1.0, abs(w)):
            report.append(f"asymmetric weights on edge ({u}, {v}): {w} vs {back}")
    for i in range(n):
        k = sum(w for _, w in g.adj[i])
        if abs(k - g.degrees[i]) > 1e-9 * max(1.0, abs(k)):
            report.append(f"degree of node {i} is {g.degrees[i]}, row sums to {k}")
    total = sum(g.degrees)
    if abs(total - g.two_m) > 1e-9 * max(1.0, abs(total)):
        report.append(f"two_m is {g.two_m}, degrees sum to {total}")
    for node in g.nodes:
        try:
            _check_coord(node.lat, node.lon, f"node {node.id}")
        except GraphDataError as exc:
            report.append(str(exc))
    return report


# -- file ingestion --------------------------------------------------------


def load_graph(
    edge_source,
    coord_source,
    coord_policy: str = "mean",
    missing_policy: str = "error",
) -> GeoGraph:
    """Load a graph from an edge list and a coordinate source.

    ``coord_policy`` collapses multiple coordinate rows per node: ``'mean'``
    takes the spherical mean, ``'last'`` the most recent by timestamp (file
    order for plain CSV).  The node set is the set of edge endpoints;
    coordinate rows for other ids are ignored.
    """
    if coord_policy not in ("mean", "last"):
        raise ValueError(f"unknown coord_policy {coord_policy!r}")
    edges = _parse_edges(_read_lines(edge_source))
    coords = _parse_coords(_read_lines(coord_source), coord_policy)
    return GeoGraph.from_edges(edges, coords, missing_policy=missing_policy)


def _read_lines(source) -> list[str]:
    if hasattr(source, "read"):
        return source.read().splitlines()
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    return [str(line).rstrip("\n") for line in source]


def _parse_edges(lines: list[str]) -> list[tuple[int, int, float]]:
    edges = []
    for ln, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split("\t")
        if len(parts) not in (2, 3):
            raise GraphFormatError(
                f"edge line {ln}: expected 'u<TAB>v' or 'u<TAB>v<TAB>w', got {raw!r}"
            )
        try:
            u = int(parts[0])
            v = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GraphFormatError(f"edge line {ln}: cannot parse {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"edge line {ln}: negative node id")
        if u == v:
            raise GraphDataError(f"edge line {ln}: self-loop on node {u}")
        if not math.isfinite(w) or w <= 0:
            raise GraphDataError(f"edge line {ln}: non-positive weight {w}")
        edges.append((u, v, w))
    return edges


def _parse_coords(lines: list[str], policy: str) -> dict[int, GeoPoint]:
    significant = [
        (ln, raw) for ln, raw in enumerate(lines, 1) if raw.strip() and not raw.strip().startswith("#")
    ]
    if not significant:
        return {}
    first = significant[0][1]
    if "\t" in first:
        return _collapse(_parse_checkins(significant), policy)
    if "," in first:
        return _collapse(_parse_coord_csv(significant), policy)
    raise GraphFormatError(
        f"coordinate line {significant[0][0]}: unrecognized format {first!r}"
    )


def _parse_coord_csv(rows) -> dict[int, list[tuple]]:
    per_node: dict[int, list[tuple]] = {}
    for pos, (ln, raw) in enumerate(rows):
        parts = [p.strip() for p in raw.strip().split(",")]
        if len(parts) != 3:
            raise GraphFormatError(
                f"coordinate line {ln}: expected 'node,lat,lon', got {raw!r}"
            )
        try:
            node = int(parts[0])
            lat = float(parts[1])
            lon = float(parts[2])
        except ValueError:
            if pos == 0:
                continue  # header row
            raise GraphFormatError(f"coordinate line {ln}: cannot parse {raw!r}") from None
        lon = _check_coord(lat, lon, f"coordinate line {ln}")
        # plain CSV has no timestamps; later rows win under 'last'
        per_node.setdefault(node, []).append((("", pos), GeoPoint(lat, lon)))
    return per_node


def _parse_checkins(rows) -> dict[int, list[tuple]]:
    per_node: dict[int, list[tuple]] = {}
    for pos, (ln, raw) in enumerate(rows):
        parts = raw.rstrip("\n").split("\t")
        if len(parts) < 4:
            raise GraphFormatError(
                f"check-in line {ln}: expected user, timestamp, lat, lon[, place], got {raw!r}"
            )
        try:
            node = int(parts[0])
            lat = float(parts[2])
            lon = float(parts[3])
        except ValueError:
            raise GraphFormatError(f"check-in line {ln}: cannot parse {raw!r}") from None
        ts = parts[1].strip()
        lon = _check_coord(lat, lon, f"check-in line {ln}")
        # ISO-8601 timestamps sort chronologically as strings
        per_node.setdefault(node, []).append(((ts, pos), GeoPoint(lat, lon)))
    return per_node


def _collapse(per_node: dict[int, list[tuple]], policy: str) -> dict[int, GeoPoint]:
    out: dict[int, GeoPoint] = {}
    for node, entries in per_node.items():
        if policy == "mean":
            out[node] = spherical_centroid([p for _, p in entries])
        else:
            out[node] = max(entries, key=lambda e: e[0])[1]
    return out


def _check_coord(lat: float, lon: float, where: str) -> float:
    """Validate ranges; returns the (possibly normalized) longitude."""
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise GraphDataError(f"{where}: non-finite coordinate ({lat}, {lon})")
    if lon == -180.0:
        lon = 180.0
    if not -90.0 <= lat <= 90.0:
        raise GraphDataError(f"{where}: latitude {lat} out of [-90, 90]")
    if not -180.0 < lon <= 180.0:
        raise GraphDataError(f"{where}: longitude {lon} out of (-180, 180]")
    return lon
