"""Great-circle and planar geometry: distances, centroids, spans, dispersion kernels.

All great-circle computations use a sphere of radius 6371.0 km.  The "planar"
metric treats (lat, lon) as plain plane coordinates and exists for synthetic
tests where exact hand-computable distances are convenient; everything
downstream is metric-agnostic.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0

METRIC_NAMES = ("haversine", "planar")

# Mean unit vectors shorter than this (per point) are treated as directionless
# (e.g. an antipodal pair) and fall back to the first input point.
_DEGENERATE_NORM = 1e-9

# Member sets at or below this size take the scalar path in GeoKernel;
# numpy's per-call overhead only pays off above it.
_SCALAR_MAX = 24

# Spans of at most this many points are taken pair by pair in pure Python.
_SPAN_SCALAR_MAX = 48


class GeoPoint(NamedTuple):
    """A location: degrees for the great-circle metric, plane units otherwise."""

    lat: float
    lon: float


def haversine_km(a, b) -> float:
    """Great-circle distance in kilometers between two (lat, lon) points."""
    phi1 = math.radians(a[0])
    lam1 = math.radians(a[1])
    phi2 = math.radians(b[0])
    lam2 = math.radians(b[1])
    s1 = math.sin(0.5 * (phi2 - phi1))
    s2 = math.sin(0.5 * (lam2 - lam1))
    h = s1 * s1 + math.cos(phi1) * math.cos(phi2) * s2 * s2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def planar_distance(a, b) -> float:
    """Euclidean distance treating (lat, lon) as plane coordinates."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def spherical_centroid(points: Sequence) -> GeoPoint:
    """Normalized 3-D mean of the input points.

    Each point is converted to a unit vector, the vectors are averaged and
    renormalized, and the result converted back to (lat, lon).  If the mean
    vector is degenerate (norm < 1e-9, e.g. an antipodal pair) the first
    point in input order is returned.  Identical inputs short-circuit to the
    shared point so that zero dispersion stays exactly zero.
    """
    pts = [GeoPoint(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("centroid of an empty point sequence")
    first = pts[0]
    if all(p == first for p in pts[1:]):
        return first
    x = y = z = 0.0
    for p in pts:
        phi = math.radians(p.lat)
        lam = math.radians(p.lon)
        c = math.cos(phi)
        x += c * math.cos(lam)
        y += c * math.sin(lam)
        z += math.sin(phi)
    n = len(pts)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < _DEGENERATE_NORM * n:
        return first
    lat = math.degrees(math.asin(max(-1.0, min(1.0, z / norm))))
    lon = math.degrees(math.atan2(y, x))
    return GeoPoint(lat, lon)


def planar_centroid(points: Sequence) -> GeoPoint:
    """Arithmetic mean of plane coordinates."""
    pts = [GeoPoint(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("centroid of an empty point sequence")
    n = len(pts)
    return GeoPoint(sum(p.lat for p in pts) / n, sum(p.lon for p in pts) / n)


def metric_distance(metric: str):
    """Scalar distance function for a metric name."""
    if metric == "haversine":
        return haversine_km
    if metric == "planar":
        return planar_distance
    raise ValueError(f"unknown metric {metric!r}")


def metric_centroid(metric: str):
    """Centroid function for a metric name."""
    if metric == "haversine":
        return spherical_centroid
    if metric == "planar":
        return planar_centroid
    raise ValueError(f"unknown metric {metric!r}")


def max_pairwise_span_km(points: Sequence, metric: str = "haversine") -> float:
    """Maximum distance over all unordered point pairs; 0 for fewer than two."""
    return GeoKernel(points, metric).span(range(len(points)))


class GeoKernel:
    """Vectorized distance/centroid/dispersion engine over a fixed point table.

    Built once per node set (graph or coarsened graph level).  Member sets
    are python lists of node indices; small sets take a scalar path, large
    ones a vectorized path over an optional cached row matrix, so
    per-community statistics stay O(|c|) with small constants either way.
    """

    def __init__(self, points: Sequence, metric: str = "haversine"):
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.points = [GeoPoint(float(p[0]), float(p[1])) for p in points]
        lat = [p.lat for p in self.points]
        lon = [p.lon for p in self.points]
        if metric == "haversine":
            self._phi = [math.radians(v) for v in lat]
            self._lam = [math.radians(v) for v in lon]
            self._cos = [math.cos(v) for v in self._phi]
            self._ux = [c * math.cos(l) for c, l in zip(self._cos, self._lam)]
            self._uy = [c * math.sin(l) for c, l in zip(self._cos, self._lam)]
            self._uz = [math.sin(v) for v in self._phi]
            # columns: phi, lam, cos(phi), ux, uy, uz
            self._table = np.column_stack(
                [self._phi, self._lam, self._cos, self._ux, self._uy, self._uz]
            ) if self.points else np.empty((0, 6))
        else:
            self._x = [float(v) for v in lat]
            self._y = [float(v) for v in lon]
            self._table = np.column_stack([self._x, self._y]) if self.points else np.empty((0, 2))

    # -- row caching -------------------------------------------------------

    def member_rows(self, members: Sequence[int]) -> np.ndarray | None:
        """Gathered table rows for a member list, for reuse across calls.

        Returns None for sets small enough that the scalar path is used.
        """
        if len(members) <= _SCALAR_MAX:
            return None
        return self._table[np.fromiter(members, dtype=np.intp, count=len(members))]

    def _gather(self, members, plus, rows):
        """Row matrix for members (+ optional extra node), sharing the cache."""
        k = len(members)
        width = self._table.shape[1]
        if plus is None:
            if rows is not None:
                return rows
            return self._table[np.fromiter(members, dtype=np.intp, count=k)]
        out = np.empty((k + 1, width))
        if rows is not None:
            out[:k] = rows
        else:
            out[:k] = self._table[np.fromiter(members, dtype=np.intp, count=k)]
        out[k] = self._table[plus]
        return out

    # -- statistics ----------------------------------------------------------

    def stats(
        self,
        members: Sequence[int],
        sigma: float,
        agg: str,
        plus: int | None = None,
        rows: np.ndarray | None = None,
    ) -> tuple[GeoPoint, float]:
        """Centroid and aggregated squared normalized distance for one member set.

        ``members`` must be sorted ascending; ``plus`` optionally adds one
        more node (candidate insertions are evaluated without mutating any
        state); ``rows`` may carry :meth:`member_rows` output for ``members``.
        """
        if agg not in ("max", "sum"):
            raise ValueError(f"unknown aggregation {agg!r}")
        k = len(members)
        total = k + (1 if plus is not None else 0)
        if total == 0:
            raise ValueError("empty community")
        if k == 0:
            first = plus
        elif plus is not None and plus < members[0]:
            first = plus
        else:
            first = members[0]
        if total == 1:
            return self.points[first], 0.0
        if total <= _SCALAR_MAX:
            if self.metric == "planar":
                return self._stats_scalar_planar(members, sigma, agg, plus, first)
            return self._stats_scalar(members, sigma, agg, plus, first)
        rows = self._gather(members, plus, rows)
        if self.metric == "planar":
            return self._stats_rows_planar(rows, sigma, agg, first)
        return self._stats_rows(rows, sigma, agg, first)

    def _stats_scalar(self, members, sigma, agg, plus, first):
        phi = self._phi
        lam = self._lam
        p0 = phi[first]
        l0 = lam[first]
        same = True
        for i in members:
            if phi[i] != p0 or lam[i] != l0:
                same = False
                break
        if same and (plus is None or (phi[plus] == p0 and lam[plus] == l0)):
            # exact co-location keeps zero dispersion exactly zero
            return self.points[first], 0.0
        ux = self._ux
        uy = self._uy
        uz = self._uz
        sx = sy = sz = 0.0
        for i in members:
            sx += ux[i]
            sy += uy[i]
            sz += uz[i]
        total = len(members)
        if plus is not None:
            sx += ux[plus]
            sy += uy[plus]
            sz += uz[plus]
            total += 1
        norm = math.sqrt(sx * sx + sy * sy + sz * sz)
        if norm < _DEGENERATE_NORM * total:
            center = self.points[first]
        else:
            clat = math.degrees(math.asin(max(-1.0, min(1.0, sz / norm))))
            clon = math.degrees(math.atan2(sy, sx))
            center = GeoPoint(clat, clon)
        phic = math.radians(center.lat)
        lamc = math.radians(center.lon)
        cosc = math.cos(phic)
        cos = self._cos
        sin = math.sin
        asin = math.asin
        sqrt = math.sqrt
        scale = 2.0 * EARTH_RADIUS_KM / sigma
        acc = 0.0
        for i in members:
            s1 = sin(0.5 * (phi[i] - phic))
            s2 = sin(0.5 * (lam[i] - lamc))
            h = s1 * s1 + cos[i] * cosc * s2 * s2
            r = scale * asin(min(1.0, sqrt(h)))
            r2 = r * r
            if agg == "max":
                if r2 > acc:
                    acc = r2
            else:
                acc += r2
        if plus is not None:
            s1 = sin(0.5 * (phi[plus] - phic))
            s2 = sin(0.5 * (lam[plus] - lamc))
            h = s1 * s1 + cos[plus] * cosc * s2 * s2
            r = scale * asin(min(1.0, sqrt(h)))
            r2 = r * r
            if agg == "max":
                if r2 > acc:
                    acc = r2
            else:
                acc += r2
        return center, acc

    def _stats_scalar_planar(self, members, sigma, agg, plus, first):
        xs = self._x
        ys = self._y
        x0 = xs[first]
        y0 = ys[first]
        same = all(xs[i] == x0 and ys[i] == y0 for i in members)
        if same and (plus is None or (xs[plus] == x0 and ys[plus] == y0)):
            return self.points[first], 0.0
        sx = sum(xs[i] for i in members)
        sy = sum(ys[i] for i in members)
        total = len(members)
        if plus is not None:
            sx += xs[plus]
            sy += ys[plus]
            total += 1
        center = GeoPoint(sx / total, sy / total)
        inv = 1.0 / (sigma * sigma)
        acc = 0.0
        ids = members if plus is None else [*members, plus]
        for i in ids:
            dx = xs[i] - center.lat
            dy = ys[i] - center.lon
            r2 = (dx * dx + dy * dy) * inv
            if agg == "max":
                if r2 > acc:
                    acc = r2
            else:
                acc += r2
        return center, acc

    def _stats_rows(self, rows, sigma, agg, first):
        if np.all(rows[:, 0] == rows[0, 0]) and np.all(rows[:, 1] == rows[0, 1]):
            return self.points[first], 0.0
        total = rows.shape[0]
        sx = float(rows[:, 3].sum())
        sy = float(rows[:, 4].sum())
        sz = float(rows[:, 5].sum())
        norm = math.sqrt(sx * sx + sy * sy + sz * sz)
        if norm < _DEGENERATE_NORM * total:
            center = self.points[first]
        else:
            clat = math.degrees(math.asin(max(-1.0, min(1.0, sz / norm))))
            clon = math.degrees(math.atan2(sy, sx))
            center = GeoPoint(clat, clon)
        d = _haversine_rows(rows, center)
        r2 = d * d
        r2 /= sigma * sigma
        if agg == "max":
            return center, float(r2.max())
        return center, float(r2.sum())

    def _stats_rows_planar(self, rows, sigma, agg, first):
        if np.all(rows[:, 0] == rows[0, 0]) and np.all(rows[:, 1] == rows[0, 1]):
            return self.points[first], 0.0
        cx = float(rows[:, 0].mean())
        cy = float(rows[:, 1].mean())
        dx = rows[:, 0] - cx
        dy = rows[:, 1] - cy
        r2 = (dx * dx + dy * dy) / (sigma * sigma)
        if agg == "max":
            return GeoPoint(cx, cy), float(r2.max())
        return GeoPoint(cx, cy), float(r2.sum())

    # -- distances -----------------------------------------------------------

    def distances(self, members: Sequence[int], point) -> np.ndarray:
        """Distances from every member to ``point``."""
        k = len(members)
        rows = self._table[np.fromiter(members, dtype=np.intp, count=k)]
        if self.metric == "planar":
            return np.hypot(rows[:, 0] - point[0], rows[:, 1] - point[1])
        return _haversine_rows(rows, point)

    def span(self, members: Sequence[int]) -> float:
        """Largest pairwise distance among members; 0 for fewer than two."""
        k = len(members)
        best = 0.0
        if k <= _SPAN_SCALAR_MAX:
            dist = metric_distance(self.metric)
            pts = [self.points[i] for i in members]
            for a in range(k - 1):
                for b in range(a + 1, k):
                    d = dist(pts[a], pts[b])
                    if d > best:
                        best = d
            return best
        for a in range(k - 1):
            m = float(self.distances(members[a + 1 :], self.points[members[a]]).max())
            if m > best:
                best = m
        return best

    def within_limit(
        self,
        members: Sequence[int],
        point,
        limit_km: float,
        rows: np.ndarray | None = None,
    ) -> bool:
        """True when every member lies within ``limit_km`` of ``point``."""
        k = len(members)
        if k == 0:
            return True
        if k <= _SCALAR_MAX:
            if self.metric == "planar":
                xs = self._x
                ys = self._y
                for i in members:
                    if math.hypot(xs[i] - point[0], ys[i] - point[1]) > limit_km:
                        return False
                return True
            phi = self._phi
            lam = self._lam
            cos = self._cos
            phic = math.radians(point[0])
            lamc = math.radians(point[1])
            cosc = math.cos(phic)
            scale = 2.0 * EARTH_RADIUS_KM
            for i in members:
                s1 = math.sin(0.5 * (phi[i] - phic))
                s2 = math.sin(0.5 * (lam[i] - lamc))
                h = s1 * s1 + cos[i] * cosc * s2 * s2
                if scale * math.asin(min(1.0, math.sqrt(h))) > limit_km:
                    return False
            return True
        if rows is None:
            rows = self._table[np.fromiter(members, dtype=np.intp, count=k)]
        if self.metric == "planar":
            d = np.hypot(rows[:, 0] - point[0], rows[:, 1] - point[1])
        else:
            d = _haversine_rows(rows, point)
        return bool(np.all(d <= limit_km))


def _haversine_rows(rows: np.ndarray, point) -> np.ndarray:
    phic = math.radians(point[0])
    lamc = math.radians(point[1])
    sphi = np.sin(0.5 * (rows[:, 0] - phic))
    slam = np.sin(0.5 * (rows[:, 1] - lamc))
    h = sphi * sphi + (rows[:, 2] * math.cos(phic)) * (slam * slam)
    np.sqrt(h, out=h)
    np.minimum(h, 1.0, out=h)
    return (2.0 * EARTH_RADIUS_KM) * np.arcsin(h)
