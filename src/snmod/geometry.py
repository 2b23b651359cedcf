"""Great-circle and planar geometry: distance, centroids, spans, dispersion kernels.

All great-circle computations use a sphere of radius 6371.0 km.  The "planar"
metric treats (lat, lon) as plain plane coordinates and exists for synthetic
tests where exact hand-computable distance values are convenient.  Every
distance, centre, dispersion and span goes through :class:`GeoKernel`,
and every centre as a location through :func:`finish_centroid`.  The module
is plain Python and needs no third-party package.
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


def _sq_sum(a, b) -> float:
    """Squared length of the sum of two 3-D vectors."""
    sx = a[0] + b[0]
    sy = a[1] + b[1]
    sz = a[2] + b[2]
    return sx * sx + sy * sy + sz * sz


_HALF_TURN_KM = math.pi * EARTH_RADIUS_KM


def _sum_to_km(s2: float) -> float:
    """Great-circle distance of two unit vectors from their squared sum
    |a + b|²: πR - 2R asin(|a + b| / 2).

    Used past a quarter circle, where it is well conditioned.  Near
    antipodal the chord nears 2 and 2R asin(chord / 2) magnifies its
    rounding without bound (about 1e-9 km at 0.1 degree from antipodal,
    2e-4 km at the antipode), while the short sum vector keeps an absolute
    error of a few 1e-16.
    """
    return _HALF_TURN_KM - 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(s2) * 0.5)


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
    stored once as a 3-D vector (``vecs``): the unit vector on the sphere,
    ``(x, y, 0.0)`` on the plane.  Every distance is mapped from the squared
    chord between two vectors, ``2R asin(chord / 2)`` on the sphere and the
    chord itself on the plane, so the metric matters only when the vectors
    are built, when a centre is taken and when a chord becomes a distance.
    The one exception is a pair past a quarter circle on the sphere in a
    span or a join check, which is mapped from the pair's squared sum
    instead (:func:`_sum_to_km`).
    Member sets are python lists of node indices.  Every centre comes from
    the one summing pass, :meth:`_sums`; dispersions (:meth:`stats`) and
    spans (:meth:`_farthest_pair`) then make one distance pass.
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
        self, members: Sequence[int], sigma: float, agg: str, plus: int | None = None
    ) -> tuple[tuple[float, float, float], float]:
        """Centre vector and aggregated squared normalized distance for one member set.

        ``members`` must be sorted ascending; ``plus`` optionally adds one
        more node (candidate insertions are evaluated without mutating any
        state).  The centre sums the vectors of ``[*members, plus]`` left to
        right (:meth:`_sums`); ``agg='sum'`` adds each ``(distance / sigma)²``
        in the same order.
        """
        if agg not in AGG_NAMES:
            raise ValueError(f"unknown aggregation {agg!r}")
        ids = members if plus is None else [*members, plus]
        if not ids:
            raise ValueError("empty community")
        vecs = self.vecs
        sx, sy, sz, n, same = self._sums(ids)
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
        best = (0.0, math.inf)
        for members in member_sets:
            best = self._farthest_pair(members, best)
        c2, s2 = best
        return self._km(c2) if s2 == math.inf else _sum_to_km(s2)

    def _farthest_pair(
        self, members: Sequence[int], best: tuple[float, float]
    ) -> tuple[float, float]:
        """``(c2, s2)`` of the farthest pair of members, or ``best`` when no
        pair is farther.

        ``c2`` is a pair's squared chord |a - b|².  On the sphere a pair
        past a quarter circle (c2 > 2) also has ``s2``, its squared sum
        |a + b|², and such pairs rank by the smaller s2, from which
        :func:`_sum_to_km` maps the distance; ``s2`` is inf for every other
        pair.  Any two pairs with the same key have the same distance.

        Members are ranked by their distance r to the plain mean c of their
        vectors, farthest first.  Since |a - b| <= r_a + r_b, a pair whose
        widened bound (r_a + r_b)² cannot beat ``best``'s chord is skipped;
        so are the rest of its row, whose radii are smaller, and, when it is
        a row's first pair, every later row.  A pair that beats a far
        ``best`` by s2 has a chord at most about 1e-14 below best's, since
        c2 + s2 = 4 up to rounding, and the widening covers that.  The pairs
        left compute the same keys as an all-pairs scan, so the result is
        bit-identical; spread sets scan few pairs, while a set whose members
        are all about equally far from c still scans all of them.
        """
        sx, sy, sz, n, same = self._sums(members)
        if n < 2 or same:
            return best
        best, best_s2 = best
        sphere = self.metric == "haversine"
        vecs = self.vecs
        pts = [vecs[i] for i in members]
        c = (sx / n, sy / n, sz / n)
        radii = [math.sqrt(_sq_chord(v, c)) for v in pts]
        r = 2.0 * max(radii)  # bounds every pair's r_a + r_b
        if r * r * _SPAN_WIDEN + _SPAN_FLOOR <= best:
            return best, best_s2
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
                vb = vs[b]
                c2 = _sq_chord(va, vb)
                if c2 > 2.0 and sphere:
                    s2 = _sq_sum(va, vb)
                    if s2 < best_s2:
                        best, best_s2 = c2, s2
                elif c2 > best:
                    best = c2
            else:
                continue
            if b == a + 1:
                break
        return best, best_s2

    def within_limit(self, members: Sequence[int], i: int, limit_km: float) -> bool:
        """True when every member lies within ``limit_km`` of node ``i``.

        Each member's distance is the one :meth:`max_span` gives the pair
        (:meth:`_farthest_pair` explains it), so a join at exactly a span
        that SNIC passes on as its constraint is allowed.  The scan stops at
        the first member beyond the limit.
        """
        vecs = self.vecs
        v = vecs[i]
        km = self._km
        sphere = self.metric == "haversine"
        for m in members:
            c2 = _sq_chord(v, vecs[m])
            d = _sum_to_km(_sq_sum(v, vecs[m])) if c2 > 2.0 and sphere else km(c2)
            if d > limit_km:
                return False
        return True
