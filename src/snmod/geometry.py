"""Great-circle and planar geometry: distance, centroids, spans, dispersion kernels.

All great-circle computations use a sphere of radius 6371.0 km.  The "planar"
metric treats (lat, lon) as plain plane coordinates and exists for synthetic
tests where exact hand-computable distance values are convenient.

:class:`GeoKernel` stores every point once as a 3-D vector: the unit vector
on the sphere, ``(x, y, 0.0)`` on the plane.  Every centre, distance, join
check and span it computes then goes through one path, the squared chord
(Euclidean distance) between two vectors.  Every centre, co-location test
and span mean comes from one summing pass over a member list, which adds
the vectors in member order and notes whether they are all equal.  Only
three things depend on the metric: building the vectors, the centre (the
mean vector, renormalized on the sphere) and the monotone map from squared
chord to distance (``2R asin(chord / 2)`` on the sphere, ``chord`` on the
plane).  The module is plain Python and needs no third-party package.
"""

import math
from typing import Iterable, NamedTuple, Sequence

EARTH_RADIUS_KM = 6371.0

METRIC_NAMES = ("haversine", "planar")

AGG_NAMES = ("max", "sum")

# Mean unit vectors shorter than this (per point) are treated as directionless
# (e.g. an antipodal pair) and fall back to the first input point.
_DEGENERATE_NORM = 1e-9


class GeoPoint(NamedTuple):
    """A location: degrees for the great-circle metric, plane units otherwise."""

    lat: float
    lon: float


def spherical_centroid(points: Sequence) -> GeoPoint:
    """Normalized 3-D mean of the input points; the first point when they are
    identical or their mean vector is degenerate (see :func:`finish_centroid`)."""
    return GeoKernel(points, "haversine").centroid(range(len(points)))


def planar_centroid(points: Sequence) -> GeoPoint:
    """Arithmetic mean of plane coordinates; the first point when they are
    identical (see :func:`finish_centroid`)."""
    return GeoKernel(points, "planar").centroid(range(len(points)))


def max_pairwise_span_km(points: Sequence, metric: str = "haversine") -> float:
    """Maximum distance over all unordered point pairs; 0 for fewer than two."""
    return GeoKernel(points, metric).max_span((range(len(points)),))


def unit_vector(p) -> tuple[float, float, float]:
    """The unit vector of a (lat, lon) point in degrees."""
    phi = math.radians(p[0])
    lam = math.radians(p[1])
    c = math.cos(phi)
    return (c * math.cos(lam), c * math.sin(lam), math.sin(phi))


def _plane_vector(p) -> tuple[float, float, float]:
    return (float(p[0]), float(p[1]), 0.0)


def _mean_vector(sx: float, sy: float, sz: float, n: int, metric: str):
    """Centre vector from the sum of ``n`` vectors: the mean, renormalized on
    the sphere.  None when the sphere mean is degenerate."""
    if metric == "planar":
        return (sx / n, sy / n, sz / n)
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    if norm < _DEGENERATE_NORM * n:
        return None
    return (sx / norm, sy / norm, sz / norm)


def finish_centroid(
    first, sx: float, sy: float, sz: float, n: int, same: bool, metric: str = "haversine"
) -> GeoPoint:
    """The one centre routine: a location from the in-order vector sums.

    ``sx, sy, sz`` are the sums of ``n`` point vectors, each started from
    0.0 and added in order; ``same`` says whether all ``n`` vectors are equal
    and ``first`` is the first point.  Identical vectors short-circuit to
    the first point, so a co-located set is its own centre exactly.  The
    centre is the mean vector, renormalized on the sphere, where a
    degenerate mean (norm < 1e-9 per point, e.g. an antipodal pair) falls
    back to the first point; the longitude is taken from the raw sums.
    """
    if n == 0:
        raise ValueError("centroid of an empty point sequence")
    centre = None if same else _mean_vector(sx, sy, sz, n, metric)
    if centre is None:
        return GeoPoint(float(first[0]), float(first[1]))
    if metric == "planar":
        return GeoPoint(centre[0], centre[1])
    lat = math.degrees(math.asin(max(-1.0, min(1.0, centre[2]))))
    return GeoPoint(lat, math.degrees(math.atan2(sy, sx)))


def _sq_chord(a, b) -> float:
    """Squared Euclidean distance between two 3-D vectors."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return dx * dx + dy * dy + dz * dz


def _arc_km(c2: float) -> float:
    h = math.sqrt(c2) * 0.5
    # clamped as min(1.0, h) would, NaN and -0.0 included, without the call
    return 2.0 * EARTH_RADIUS_KM * math.asin(h if h < 1.0 else 1.0)


# Widening of the triangle bound (r_a + r_b)² that ends a span scan.  The
# rounded chord of a pair and the rounded radii each stay within a few
# relative 2^-53 of their exact values (every input is a stored vector, so
# the differences are exact up to one rounding), and the square roots, sum
# and square add a few more; 1e-9 covers them many times over.  Relative
# bounds fail only where squares underflow (chords below about 1e-154):
# there each rounding errs by up to 2^-1075 absolute, which moves a radius
# by at most about 3e-162 and a bound by far less than _SPAN_FLOOR.  So a
# widened bound still holds for the rounded chord, and a scan never stops
# while its best squared chord is below _SPAN_FLOOR.
_SPAN_WIDEN = 1.0 + 1e-9
_SPAN_FLOOR = 1e-300

# Squared chord -> distance, per metric.  Both maps are monotone, so the
# largest distance is the largest chord's.
_CHORD_TO_KM = {"haversine": _arc_km, "planar": math.sqrt}


class GeoKernel:
    """Distance/centroid/dispersion engine over a fixed point table.

    Built once per node set (graph or coarsened graph level).  Each point is
    stored as a 3-D vector (``vecs``), and every distance is mapped from the
    squared chord between two vectors, so the metric matters only when the
    vectors are built, when a centre is taken and when a chord becomes a
    distance.  Member sets are python lists of node indices.  One summing
    pass (:meth:`_sums`) walks a set once for its in-order vector sums, its
    size and whether it is co-located; :meth:`stats`, :meth:`centroid` and
    the span scan all read it, so they take a set's centre from the same
    sums.  Dispersions and spans then make one distance pass.
    """

    def __init__(self, points: Sequence, metric: str = "haversine"):
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.points = points  # not copied: a graph passes its own node tuple
        self.vecs = list(map(unit_vector if metric == "haversine" else _plane_vector, points))
        self._km = _CHORD_TO_KM[metric]

    # -- centres and chords --------------------------------------------------

    def _sums(self, members: Sequence[int]) -> tuple[float, float, float, int, bool]:
        """The one summing pass: ``(sx, sy, sz, n, same)`` for a member list.

        The member vectors are summed left to right, each sum started from
        0.0; ``n`` counts them and ``same`` says whether they are all equal
        (true for none).
        """
        vecs = self.vecs
        v0 = vecs[members[0]] if members else None
        same = True
        sx = sy = sz = 0.0
        for i in members:
            v = vecs[i]
            if same and v != v0:
                same = False
            x, y, z = v
            sx += x
            sy += y
            sz += z
        return sx, sy, sz, len(members), same

    def centroid(self, members: Sequence[int]) -> GeoPoint:
        """Centre of the members as a location, for meta-nodes and reports."""
        first = self.points[members[0]] if members else None
        return finish_centroid(first, *self._sums(members), self.metric)

    def _max_chord2(self, v, members) -> float:
        """Largest squared chord from vector ``v`` to any member; 0 for none.

        Each chord repeats :func:`_sq_chord`'s operations inline.
        """
        vx, vy, vz = v
        vecs = self.vecs
        best = 0.0
        for i in members:
            x, y, z = vecs[i]
            dx = x - vx
            dy = y - vy
            dz = z - vz
            c2 = dx * dx + dy * dy + dz * dz
            if c2 > best:
                best = c2
        return best

    def distance(self, i: int, centre) -> float:
        """Distance from node ``i`` to a centre vector returned by :meth:`stats`."""
        return self._km(_sq_chord(self.vecs[i], centre))

    # -- statistics ----------------------------------------------------------

    def stats(
        self,
        members: Sequence[int],
        sigma: float,
        agg: str,
        plus: int | None = None,
        sums: tuple[float, float, float, int, bool] | None = None,
    ) -> tuple[tuple[float, float, float], float]:
        """Centre vector and aggregated squared normalized distance for one member set.

        ``members`` must be sorted ascending; ``plus`` optionally adds one
        more node (candidate insertions are evaluated without mutating any
        state).  The centre sums the vectors left to right, ``plus`` last;
        ``agg='sum'`` adds each ``(distance / sigma)²`` in the same order.
        ``sums``, when given, must be ``_sums(members)``: the centre then
        takes O(1), adding ``plus``'s vector to those sums last, which are
        the same additions in the same order as summing ``[*members, plus]``.
        """
        if agg not in AGG_NAMES:
            raise ValueError(f"unknown aggregation {agg!r}")
        ids = members if plus is None else [*members, plus]
        if not ids:
            raise ValueError("empty community")
        vecs = self.vecs
        if sums is None:
            sx, sy, sz, n, same = self._sums(ids)
        else:
            sx, sy, sz, n, same = sums
            if plus is not None:
                v = vecs[plus]
                x, y, z = v
                sx += x
                sy += y
                sz += z
                same = same and (n == 0 or v == vecs[members[0]])
                n += 1
        centre = None if same else _mean_vector(sx, sy, sz, n, self.metric)
        if centre is None:
            # the lowest id's vector: exact co-location keeps zero dispersion
            # exactly zero, and a degenerate mean falls back to it
            centre = vecs[ids[0] if plus is None or ids[0] < plus else plus]
            if same:
                return centre, 0.0
        km = self._km
        if agg == "max":
            r = km(self._max_chord2(centre, ids)) / sigma
            return centre, r * r
        disp = 0.0
        for i in ids:
            r = km(_sq_chord(vecs[i], centre)) / sigma
            disp += r * r
        return centre, disp

    # -- spans and join checks -----------------------------------------------

    def max_span(self, member_sets: Iterable[Sequence[int]]) -> float:
        """Largest pairwise distance within any one member set; 0 for none."""
        best = 0.0
        for members in member_sets:
            best = self._span_chord2(members, best)
        return self._km(best)

    def _span_chord2(self, members: Sequence[int], best: float) -> float:
        """Largest squared chord between two members, or ``best`` when none
        exceeds it.

        Members are ranked by their distance r to the plain mean c of their
        vectors, farthest first.  Since |a - b| <= r_a + r_b, a pair whose
        widened bound (r_a + r_b)² cannot beat ``best`` is skipped; so are
        the rest of its row, whose radii are smaller, and, when it is a
        row's first pair, every later row.  The pairs left compute the same
        chords as an all-pairs scan, so the result is bit-identical; spread
        sets scan few pairs, while a set whose members are all about equally
        far from c still scans all of them.
        """
        sx, sy, sz, n, same = self._sums(members)
        if n < 2 or same:
            return best
        vecs = self.vecs
        pts = [vecs[i] for i in members]
        c = (sx / n, sy / n, sz / n)
        radii = [math.sqrt(_sq_chord(v, c)) for v in pts]
        r = 2.0 * max(radii)  # bounds every pair's r_a + r_b
        if r * r * _SPAN_WIDEN + _SPAN_FLOOR <= best:
            return best
        order = sorted(range(n), key=radii.__getitem__, reverse=True)
        rs = [radii[k] for k in order]
        vs = [pts[k] for k in order]
        for a in range(n - 1):
            ra = rs[a]
            va = vs[a]
            for b in range(a + 1, n):
                r = ra + rs[b]
                if r * r * _SPAN_WIDEN + _SPAN_FLOOR <= best:
                    break
                c2 = _sq_chord(va, vs[b])
                if c2 > best:
                    best = c2
            else:
                continue
            if b == a + 1:
                break
        return best

    def within_limit(self, members: Sequence[int], i: int, limit_km: float) -> bool:
        """True when every member lies within ``limit_km`` of node ``i``."""
        return self._km(self._max_chord2(self.vecs[i], members)) <= limit_km
