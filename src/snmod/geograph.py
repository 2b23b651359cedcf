"""Geo-located weighted graph model and edge/coordinate file ingestion.

Edge files are TAB-separated ``u<TAB>v`` or ``u<TAB>v<TAB>w`` lines with
``#`` comments.  Coordinate files are either ``node,lat,lon`` CSV (header
optional) or TAB-separated check-in rows ``user  timestamp  lat  lon  place``
with ISO-8601 timestamps; the format is auto-detected from the first
significant line.  Both files are read once, line by line, keeping per node
only what the coordinate policy needs.  External node ids are non-negative
integers and are remapped to dense internal ids by ascending external id,
which makes loading fully deterministic.  Every float total, from a
node's weighted degree to a modularity score, is added left to right by
:func:`summed`, so results are the same on every supported Python.
"""

import bisect
import math
import operator
import os
from typing import Iterable, Mapping

from .geometry import GeoKernel, GeoPoint, finish_centroid, unit_vector


class GraphFormatError(ValueError):
    """A malformed input line; the message carries the 1-based line number."""


class GraphDataError(ValueError):
    """Structurally invalid graph data (weights, ids, coordinate coverage)."""


def summed(terms: Iterable[float]) -> float:
    """Left-to-right sum of floats, started at 0.0.

    Every float total of the program is added by this one loop, so that all
    of them agree bit for bit on every supported Python; builtin ``sum``
    rounds floats differently from Python 3.12 on.
    """
    total = 0.0
    for q in terms:
        total += q
    return total


class GeoGraph:
    """Immutable undirected weighted graph whose nodes carry locations.

    Built from ``external_ids``, ``nodes`` and ``adj``, one entry of each
    per node: ``nodes[i]`` is internal node ``i``'s location; it is the only
    copy, and the geometry kernels read it in place.  ``adj[i]`` lists
    ``(j, w)`` over node ``i``'s neighbours.  The constructor is the one
    place the node rules are checked: it raises :class:`GraphDataError` when
    the three lengths differ, an id is negative, the ids do not ascend
    strictly, a point is non-finite or out of range, or the total weight
    overflows.  It stores each point as ``GeoPoint(float(lat), lon)``,
    longitude -180 as 180.  The rows are otherwise taken as given;
    :func:`validate_graph` checks them.

    Everything else is derived from the rows.  ``degrees[i]`` adds row
    ``i``'s weights left to right; ``two_m``, the total weight over ordered
    node pairs, adds the degrees in node order.  Self-loops are rejected by
    the public loaders; the Louvain coarsening step builds graphs that carry
    them straight from their rows, where a loop's stored weight is its
    ordered-pair total and counts once toward the node's degree.

    ``num_edges`` counts undirected edges, a self-loop once.

    Instances are immutable after construction and safe for concurrent reads.
    The geometry kernel of each metric is derived from the node locations and
    kept once built (see :meth:`kernel`).
    """

    __slots__ = (
        "external_ids", "nodes", "adj", "degrees", "two_m", "num_edges", "_kernels",
    )

    def __init__(self, external_ids, nodes, adj):
        self.external_ids = ids = tuple(external_ids)
        self.adj = tuple(tuple(row) for row in adj)
        if not len(ids) == len(nodes) == len(self.adj):
            raise GraphDataError(f"unequal counts: {len(ids)} ids, {len(nodes)} points, {len(self.adj)} rows")
        if ids and ids[0] < 0:
            raise GraphDataError(f"negative node id {ids[0]}")
        points = []
        prev = -1
        for e, (lat, lon) in zip(ids, nodes):
            if e <= prev:
                raise GraphDataError(f"external ids must ascend strictly: {e} after {prev}")
            prev = e
            lat, lon = float(lat), float(lon)
            if not (-90.0 <= lat <= 90.0 and -180.0 < lon <= 180.0):
                lon = _check_coord(lat, lon, f"node {e}")
            points.append(GeoPoint(lat, lon))
        self.nodes = tuple(points)
        self.degrees = tuple(summed(w for _, w in row) for row in self.adj)
        self.two_m = summed(self.degrees)
        if not math.isfinite(self.two_m):
            raise GraphDataError(f"total weight two_m = {self.two_m} is not finite")
        self.num_edges = sum(1 for u, row in enumerate(self.adj) for v, _ in row if u <= v)
        self._kernels: dict[str, GeoKernel] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple],
        coords: Mapping[int, tuple],
        *,
        extra_nodes: Iterable[int] = (),
    ) -> "GeoGraph":
        """Build a graph from (u, v[, w]) tuples and a node -> (lat, lon) map.

        Duplicate undirected edges (including reversed duplicates) merge by
        summing weights; a self-loop raises.  Nodes are edge endpoints plus
        ``extra_nodes``; every node must have coordinates.
        """
        pair_weights: dict[tuple[int, int], float] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            else:
                u, v, w = edge
            u = int(u)
            v = int(v)
            w = float(w)
            if not math.isfinite(w) or w <= 0:
                raise GraphDataError(f"non-positive weight {w} on edge ({u}, {v})")
            _merge_edge(pair_weights, u, v, w)
        return _build_graph(pair_weights, coords, "error", map(int, extra_nodes))

    # -- accessors --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def kernel(self, metric: str = "haversine") -> GeoKernel:
        """The read-only geometry kernel over all nodes, built on first use.

        Every scorer and optimizer level over this graph shares it.  Two
        threads using it first at once may each build one; both are equal.
        """
        kernel = self._kernels.get(metric)
        if kernel is None:
            kernel = self._kernels[metric] = GeoKernel(self.nodes, metric)
        return kernel

    def internal_id(self, external: int) -> int:
        """The internal id of ``external``, bisected in the ascending ``external_ids``."""
        ids = self.external_ids
        i = bisect.bisect_left(ids, external)
        if i == len(ids) or ids[i] != external:
            raise GraphDataError(f"unknown external node id {external}")
        return i

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


def _merge_edge(pair_weights: dict, u: int, v: int, w: float) -> None:
    """Add an undirected edge's weight under its (low, high) key.

    A first edge stores ``w`` itself, which equals ``0.0 + w`` for the
    positive weights allowed, so a streamed parse allocates no extra float.
    """
    key = (u, v) if u < v else (v, u)
    old = pair_weights.get(key)
    pair_weights[key] = w if old is None else old + w


def _build_graph(
    pair_weights: dict[tuple[int, int], float],
    coords: Mapping[int, tuple],
    missing_policy: str,
    extra_nodes: Iterable[int] = (),
) -> GeoGraph:
    """The graph over the edge endpoints plus ``extra_nodes``, by ascending id.

    ``pair_weights`` maps external (u, v), u <= v, to merged positive
    weights; a self-loop raises.  Nodes without coordinates raise under
    ``missing_policy='error'`` or are removed together with their incident
    edges under ``'drop'``.
    """
    node_set = {e for pair in pair_weights for e in pair}
    node_set.update(extra_nodes)
    ext = sorted(node_set)
    if missing_policy == "drop":
        ext = [e for e in ext if e in coords]
    try:
        points = [coords[e] for e in ext]
    except KeyError:
        missing = [str(e) for e in ext if e not in coords]
        raise GraphDataError(
            f"{len(missing)} node(s) lack coordinates (e.g. {', '.join(missing[:5])})"
        ) from None
    index = {e: i for i, e in enumerate(ext)}
    rows: list[list[tuple[int, float]]] = [[] for _ in ext]
    for (u, v), w in pair_weights.items():
        if u == v:
            raise GraphDataError(f"self-loop edge on node {u}")
        iu = index.get(u)
        iv = index.get(v)
        if iu is not None and iv is not None:  # else an endpoint was dropped
            rows[iu].append((iv, w))
            rows[iv].append((iu, w))
    for row in rows:
        row.sort()
    return GeoGraph(ext, points, rows)


def sorted_internal_ids(g: GeoGraph, ids: Iterable[int]) -> list[int]:
    """``ids`` sorted; GraphDataError unless each is an integer internal id of ``g``."""
    try:
        ids = sorted(map(operator.index, ids))
    except TypeError:
        raise GraphDataError("node ids must be integer internal ids") from None
    for i in ids[:1] + ids[-1:]:
        if not 0 <= i < g.num_nodes:
            raise GraphDataError(f"unknown internal node id {i}")
    return ids


def induced_subgraph(g: GeoGraph, keep: Iterable[int]) -> GeoGraph:
    """Node-induced subgraph over internal ids, keeping original external ids.

    ``keep`` holds integer internal ids, repeats allowed.  Each kept row is
    relabelled and sliced to the kept neighbours, so every edge between kept
    nodes keeps its weight and kept nodes that end up isolated are retained.
    """
    kept = sorted_internal_ids(g, set(keep))
    new_id = {i: k for k, i in enumerate(kept)}
    return GeoGraph(
        [g.external_ids[i] for i in kept],
        [g.nodes[i] for i in kept],
        [[(new_id[j], w) for j, w in g.adj[i] if j in new_id] for i in kept],
    )


def validate_graph(g: GeoGraph, *, allow_self_loops: bool = False) -> list[str]:
    """Check the rows (endpoints, weights, loops, symmetry); returns the violations."""
    report: list[str] = []
    n = g.num_nodes
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
    return report


# -- file ingestion --------------------------------------------------------


def load_graph(
    edge_source,
    coord_source,
    coord_policy: str = "mean",
    missing_policy: str = "error",
) -> GeoGraph:
    """Load a graph from an edge list and a coordinate source.

    Each source is a path, a text file object or an iterable of lines; it
    is read once, line by line, so memory grows with the number of nodes
    and edges, not with the number of coordinate rows.  The edge source is
    read first, so its errors come before any coordinate error.

    ``coord_policy`` collapses multiple coordinate rows per node: ``'mean'``
    takes the spherical mean, ``'last'`` the most recent by timestamp (file
    order for plain CSV; a later row wins a tie).  The node set is the set
    of edge endpoints; coordinate rows for other ids are validated, then
    ignored.  Endpoints without coordinates raise under
    ``missing_policy='error'`` and are dropped with their edges under
    ``'drop'``.  Both policies are checked before either source is opened.
    """
    if coord_policy not in ("mean", "last"):
        raise ValueError(f"unknown coord_policy {coord_policy!r}")
    if missing_policy not in ("error", "drop"):
        raise ValueError(f"unknown missing_policy {missing_policy!r}")
    pair_weights = _read(edge_source, _parse_edges)
    coords = _read(coord_source, _parse_coords, coord_policy)
    return _build_graph(pair_weights, coords, missing_policy)


def _read(source, parse, *args):
    """Run ``parse`` over the lines of a path, file object or line iterable."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return parse(fh, *args)
    return parse(source, *args)


def _parse_edges(lines: Iterable[str]) -> dict[tuple[int, int], float]:
    pair_weights: dict[tuple[int, int], float] = {}
    for ln, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s[0] == "#":
            continue  # blank or comment line
        parts = s.split("\t")
        if len(parts) not in (2, 3):
            raise GraphFormatError(
                f"edge line {ln}: expected 'u<TAB>v' or 'u<TAB>v<TAB>w', got {_text(raw)!r}"
            )
        try:
            u = int(parts[0])
            v = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GraphFormatError(f"edge line {ln}: cannot parse {_text(raw)!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"edge line {ln}: negative node id")
        if u == v:
            raise GraphDataError(f"edge line {ln}: self-loop on node {u}")
        if not math.isfinite(w) or w <= 0:
            raise GraphDataError(f"edge line {ln}: non-positive weight {w}")
        _merge_edge(pair_weights, u, v, w)
    return pair_weights


def _text(raw: str) -> str:
    """A line as error messages quote it: without its line break."""
    return raw.rstrip("\r\n")


def _parse_coords(lines: Iterable[str], policy: str) -> dict[int, GeoPoint]:
    """Per-node points from check-in or ``node,lat,lon`` CSV rows, in one loop.

    Blank and ``#`` lines are skipped.  The first remaining line fixes the
    format: check-in rows when it holds a TAB, CSV when it holds a comma.
    The first CSV row is a header when its node field is not an integer.
    Each row is parsed, validated and folded into its node's state where
    it is read, and only that state is kept:

    - ``'last'``: ``(timestamp, lat, lon)`` of the node's greatest ISO-8601
      timestamp (they sort chronologically as strings).  A later row wins a
      tie, so plain CSV rows, which carry an empty timestamp, keep the last.
    - ``'mean'``: ``[lat, lon, sx, sy, sz, n, v0, same]``: the first point,
      the unit-vector sums started at 0.0 and added in file order, the row
      count, the first vector and whether every vector equals it.  The
      first vector is computed when a second row arrives, so a one-row node
      (every node of a plain CSV) costs no trigonometry.  Vectors take the
      steps of :func:`unit_vector`, and :func:`finish_centroid` turns the
      state into the centre, bit-identical to :func:`spherical_centroid`
      over the node's rows.
    """
    mean = policy == "mean"
    acc: dict = {}
    cos = math.cos
    sin = math.sin
    radians = math.radians
    checkins = None  # the format, fixed by the first significant line
    header = False  # whether the next CSV row may be a header
    for ln, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s[0] == "#":
            continue  # blank or comment line
        if checkins is None:
            # a line break holds no TAB or comma, so testing raw tests the
            # line without its break; a stray end TAB makes a check-in line
            if "\t" in raw:
                checkins = True
            elif "," in raw:
                checkins = False
                header = True
            else:
                raise GraphFormatError(
                    f"coordinate line {ln}: unrecognized format {_text(raw)!r}"
                )
        if checkins:
            # split raw, not s: a stray end TAB still makes an empty field
            parts = raw.split("\t")
            if len(parts) < 4:
                raise GraphFormatError(
                    f"check-in line {ln}: expected user, timestamp, lat, lon[, place], "
                    f"got {_text(raw)!r}"
                )
            try:
                node = int(parts[0])
                lat = float(parts[2])
                lon = float(parts[3])
            except ValueError:
                raise GraphFormatError(f"check-in line {ln}: cannot parse {_text(raw)!r}") from None
            if not (-90.0 <= lat <= 90.0 and -180.0 < lon <= 180.0):
                lon = _check_coord(lat, lon, f"check-in line {ln}")
        else:
            # int() and float() skip the whitespace around a field as strip() does
            parts = s.split(",")
            if len(parts) != 3:
                raise GraphFormatError(
                    f"coordinate line {ln}: expected 'node,lat,lon', got {_text(raw)!r}"
                )
            try:
                node = int(parts[0])
            except ValueError:
                if header:
                    header = False
                    continue  # header row
                raise GraphFormatError(f"coordinate line {ln}: cannot parse {_text(raw)!r}") from None
            header = False
            try:
                lat = float(parts[1])
                lon = float(parts[2])
            except ValueError:
                raise GraphFormatError(f"coordinate line {ln}: cannot parse {_text(raw)!r}") from None
            if not (-90.0 <= lat <= 90.0 and -180.0 < lon <= 180.0):
                lon = _check_coord(lat, lon, f"coordinate line {ln}")
        a = acc.get(node)
        if not mean:
            ts = parts[1].strip() if checkins else ""
            if a is None or ts >= a[0]:
                acc[node] = (ts, lat, lon)
        elif a is None:
            acc[node] = [lat, lon, 0.0, 0.0, 0.0, 1, None, True]
        else:
            v0 = a[6]
            if v0 is None:
                a[6] = v0 = unit_vector(a)
                a[2] += v0[0]
                a[3] += v0[1]
                a[4] += v0[2]
            phi = radians(lat)
            lam = radians(lon)
            c = cos(phi)
            x = c * cos(lam)
            y = c * sin(lam)
            z = sin(phi)
            if a[7] and (x != v0[0] or y != v0[1] or z != v0[2]):
                a[7] = False
            a[2] += x
            a[3] += y
            a[4] += z
            a[5] += 1
    if mean:
        # a state's first two items are its first point
        return {node: finish_centroid(a, a[2], a[3], a[4], a[5], a[7]) for node, a in acc.items()}
    return {node: GeoPoint(a[1], a[2]) for node, a in acc.items()}


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
