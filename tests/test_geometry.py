import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmod.geograph import GeoGraph
from snmod.geometry import (
    AGG_NAMES,
    EARTH_RADIUS_KM,
    METRIC_NAMES,
    GeoKernel,
    GeoPoint,
    _arc_km,
    _mean_vector,
    max_pairwise_span_km,
    planar_centroid,
    spherical_centroid,
)
from snmod.metrics import SNParams

from _naive import (
    naive_center,
    naive_chord_span,
    naive_dispersion,
    naive_haversine,
    naive_planar,
    naive_span,
)

lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-179.9, max_value=180.0, allow_nan=False)
points = st.tuples(lats, lons).map(lambda t: GeoPoint(*t))


def haversine(a, b):
    """Great-circle distance between two points, through the kernel's chord path."""
    return max_pairwise_span_km([a, b])


def test_haversine_pinned_values():
    assert haversine(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0
    quarter = math.pi * EARTH_RADIUS_KM / 2.0
    assert haversine(GeoPoint(0, 0), GeoPoint(90, 0)) == pytest.approx(quarter, rel=1e-12)
    assert haversine(GeoPoint(0, 0), GeoPoint(90, 0)) == pytest.approx(10007.543, abs=1e-3)
    half = math.pi * EARTH_RADIUS_KM
    assert haversine(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(half, rel=1e-12)
    assert haversine(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(20015.087, abs=1e-3)


@pytest.mark.parametrize(
    "c2", [0.0, -0.0, 5e-324, 1e-300, 2.0, 3.9999999999999996, 4.0, 4.000000000000001, math.inf, math.nan]
)
def test_arc_clamps_as_min_would(c2):
    want = 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(c2) * 0.5))
    assert repr(_arc_km(c2)) == repr(want)


@given(a=points, b=points)
def test_haversine_axioms_pairwise(a, b):
    assert haversine(a, a) == 0.0
    assert abs(haversine(a, b) - haversine(b, a)) <= 1e-9
    assert haversine(a, b) <= math.pi * EARTH_RADIUS_KM + 1e-9


def test_distance_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(1000):
        pts = [GeoPoint(rng.uniform(-90, 90), rng.uniform(-179.9, 180)) for _ in range(3)]
        a, b, c = pts
        assert haversine(a, a) == 0.0
        assert abs(haversine(a, b) - haversine(b, a)) <= 1e-9
        assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-6


@given(p=points)
def test_haversine_matches_independent_formula(p):
    q = GeoPoint(12.5, -33.25)
    assert haversine(p, q) == pytest.approx(naive_haversine(p, q), abs=1e-9)


def test_spherical_centroid_examples():
    assert spherical_centroid([GeoPoint(10, 20)]) == GeoPoint(10, 20)
    c = spherical_centroid([GeoPoint(0, 0), GeoPoint(0, 90)])
    assert c.lat == pytest.approx(0.0, abs=1e-9)
    assert c.lon == pytest.approx(45.0, abs=1e-9)
    # antipodal pair degenerates to the first point
    assert spherical_centroid([GeoPoint(0, 0), GeoPoint(0, 180)]) == GeoPoint(0, 0)


@given(p=points, k=st.integers(min_value=1, max_value=7))
def test_centroid_of_copies_is_exact(p, k):
    assert spherical_centroid([p] * k) == p


def test_centroid_empty_raises():
    with pytest.raises(ValueError):
        spherical_centroid([])
    with pytest.raises(ValueError):
        planar_centroid([])


@given(pts=st.lists(points, min_size=1, max_size=8))
def test_centroid_matches_independent_formula(pts):
    got = spherical_centroid(pts)
    want = naive_center([(p.lat, p.lon) for p in pts])
    assert got.lat == pytest.approx(want[0], abs=1e-9)
    assert got.lon == pytest.approx(want[1], abs=1e-9)


def _bits(p):
    return tuple(float(x).hex() for x in p)


def _antipodal_pair(p):
    return [p, GeoPoint(-p.lat, p.lon - 180.0 if p.lon > 0 else p.lon + 180.0)]


signed_zero_lon = st.tuples(lats, st.sampled_from([0.0, -0.0])).map(lambda t: GeoPoint(*t))
centre_sets = st.one_of(
    st.lists(points, min_size=1, max_size=8),
    st.builds(lambda p, k: [p] * k, points, st.integers(min_value=1, max_value=6)),
    points.map(_antipodal_pair),
    st.lists(signed_zero_lon, min_size=1, max_size=4),
)


@given(pts=centre_sets)
@settings(max_examples=300)
def test_centroid_equals_independent_formula_bit_for_bit(pts):
    assert _bits(spherical_centroid(pts)) == _bits(naive_center(pts))


@given(pts=centre_sets, extra=st.lists(points, max_size=3), metric=st.sampled_from(METRIC_NAMES))
def test_kernel_centroid_equals_module_centroid(pts, extra, metric):
    centroid = spherical_centroid if metric == "haversine" else planar_centroid
    got = GeoKernel(pts + extra, metric).centroid(range(len(pts)))
    assert _bits(got) == _bits(centroid(pts))


def test_span_edge_cases():
    assert max_pairwise_span_km([]) == 0.0
    assert max_pairwise_span_km([GeoPoint(10, 10)]) == 0.0
    pts = [GeoPoint(0, 0), GeoPoint(0, 90), GeoPoint(0, 45)]
    assert max_pairwise_span_km(pts) == pytest.approx(10007.543, abs=1e-3)


@given(pts=st.lists(points, min_size=2, max_size=8), metric=st.sampled_from(METRIC_NAMES))
def test_span_equals_exhaustive_scan(pts, metric):
    assert max_pairwise_span_km(pts, metric) == pytest.approx(naive_span(pts, metric), abs=1e-9)


def test_span_vectorized_path_matches_scan():
    rng = random.Random(3)
    pts = [GeoPoint(rng.uniform(-80, 80), rng.uniform(-170, 170)) for _ in range(60)]
    for metric in METRIC_NAMES:
        assert max_pairwise_span_km(pts, metric) == pytest.approx(naive_span(pts, metric), abs=1e-9)


def _antipode(p):
    return GeoPoint(-p.lat, p.lon - 180.0 if p.lon > 0.0 else p.lon + 180.0)


# sets where the bounded span scan could go wrong: co-located members (no
# pair beats a zero best), antipodal pairs (the mean vector is near zero),
# clusters with far outliers (most pairs are skipped), points on a circle
# around their mean (none are), small grids (ties in radius and chord) and
# subnormal offsets (squares underflow)
span_sets = st.one_of(
    st.lists(points, min_size=2, max_size=12),
    st.builds(lambda p, k: [p] * k, points, st.integers(min_value=2, max_value=6)),
    st.lists(points, min_size=1, max_size=4).map(lambda ps: ps + [_antipode(p) for p in ps]),
    st.builds(
        lambda p, k, far: [GeoPoint(p.lat, p.lon + 1e-9 * j) for j in range(k)] + far,
        points, st.integers(min_value=2, max_value=30), st.lists(points, max_size=3),
    ),
    st.builds(
        lambda k, r: [GeoPoint(r * math.cos(2 * math.pi * j / k), r * math.sin(2 * math.pi * j / k))
                      for j in range(k)],
        st.integers(min_value=2, max_value=24), st.sampled_from([1e-6, 1.0, 45.0]),
    ),
    st.lists(st.builds(GeoPoint, st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=10),
    st.lists(st.sampled_from([GeoPoint(0.0, 0.0), GeoPoint(0.0, 5e-324), GeoPoint(-5e-324, 0.0),
                              GeoPoint(1e-160, 0.0), GeoPoint(0.0, -1e-155)]), min_size=2, max_size=6),
)


@given(pts=span_sets, metric=st.sampled_from(METRIC_NAMES))
@settings(max_examples=400, deadline=None)
def test_span_equals_the_all_pairs_chord_scan_bit_for_bit(pts, metric):
    assert max_pairwise_span_km(pts, metric) == naive_chord_span(pts, metric)


def test_planar_metric():
    assert max_pairwise_span_km([(0, 0), (3, 4)], "planar") == 5.0
    assert planar_centroid([(0, 0), (2, 4)]) == GeoPoint(1.0, 2.0)
    assert max_pairwise_span_km([(0, 0), (3, 4), (1, 1)], metric="planar") == 5.0


def _as_point(vec, metric):
    """(lat, lon) of a kernel centre vector."""
    x, y, z = vec
    if metric == "planar":
        return x, y
    return math.degrees(math.asin(max(-1.0, min(1.0, z)))), math.degrees(math.atan2(y, x))


class TestGeoKernel:
    def _random_points(self, rng, n):
        return [GeoPoint(rng.uniform(-80, 80), rng.uniform(-170, 170)) for _ in range(n)]

    @pytest.mark.parametrize("size", [2, 5, 24, 25, 80])
    def test_stats_matches_scalar_reference(self, size):
        rng = random.Random(size)
        pts = self._random_points(rng, 100)
        g = GeoGraph.from_edges([], dict(enumerate(pts)), extra_nodes=range(100))
        members = sorted(rng.sample(range(100), size))
        for metric, agg in itertools.product(METRIC_NAMES, AGG_NAMES):
            kernel = GeoKernel(pts, metric)
            center, disp = kernel.stats(members, 500.0, agg)
            ref_center = naive_center([pts[i] for i in members], metric)
            lat, lon = _as_point(center, metric)
            assert lat == pytest.approx(ref_center[0], abs=1e-9)
            assert lon == pytest.approx(ref_center[1], abs=1e-9)
            want = naive_dispersion(g, members, SNParams(500.0, agg, metric))
            assert disp == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("size", [1, 3, 30])
    def test_plus_equals_enlarged_set(self, size):
        rng = random.Random(size + 100)
        pts = self._random_points(rng, 64)
        members = sorted(rng.sample(range(63), size))
        extra = 63
        for metric in METRIC_NAMES:
            kernel = GeoKernel(pts, metric)
            c1, d1 = kernel.stats(members, 800.0, "max", plus=extra)
            c2, d2 = kernel.stats(sorted(members + [extra]), 800.0, "max")
            assert _as_point(c1, metric)[0] == pytest.approx(_as_point(c2, metric)[0], abs=1e-9)
            assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("with_plus", [False, True])
    def test_large_sets_sum_in_member_order(self, with_plus):
        """For 40-member sets, the centre is the mean of the vectors summed
        left to right (``plus`` last), and ``agg='sum'`` adds each squared
        normalized distance with ``+=`` in the same order."""
        rng = random.Random(41)
        pts = self._random_points(rng, 120)
        for metric in METRIC_NAMES:
            kernel = GeoKernel(pts, metric)
            for _ in range(20):
                members = sorted(rng.sample(range(119), 40))
                plus = 119 if with_plus else None
                ids = members + [plus] if with_plus else members
                sx = sy = sz = 0.0
                for i in ids:
                    sx += kernel.vecs[i][0]
                    sy += kernel.vecs[i][1]
                    sz += kernel.vecs[i][2]
                want_centre = _mean_vector(sx, sy, sz, len(ids), metric)
                want_disp = 0.0
                for i in ids:
                    r = kernel.distance(i, want_centre) / 700.0
                    want_disp += r * r
                assert kernel.stats(members, 700.0, "sum", plus) == (want_centre, want_disp)
                centre, _ = kernel.stats(members, 700.0, "max", plus)
                assert centre == want_centre

    def test_cached_sums_give_the_same_stats(self):
        """Passing a member list's ``_sums`` changes no bit of the result,
        with or without ``plus``: co-located, antipodal and spread sets."""
        rng = random.Random(43)
        pts = self._random_points(rng, 60)
        pts += [GeoPoint(10.0, 20.0)] * 4 + [GeoPoint(-10.0, -160.0)]
        pts += [GeoPoint(0.0, -0.0), GeoPoint(0.0, 0.0)]  # equal vectors, different bits
        sets = [[], [0], [60, 61, 62], [60, 61, 62, 63], [60, 64], [61, 64], [65], [66]]
        sets += [sorted(rng.sample(range(67), rng.randint(1, 40))) for _ in range(30)]
        for metric, agg in itertools.product(METRIC_NAMES, AGG_NAMES):
            kernel = GeoKernel(pts, metric)
            for members in sets:
                sums = kernel._sums(members)
                for plus in (None, 0, 60, 63, 64, 65, 66, rng.randrange(67)):
                    if plus in members or not members and plus is None:
                        continue
                    want = kernel.stats(members, 900.0, agg, plus=plus)
                    got = kernel.stats(members, 900.0, agg, plus=plus, sums=sums)
                    assert repr(got) == repr(want)  # repr tells -0.0 from 0.0

    def test_colocated_members_have_exactly_zero_dispersion(self):
        cases = [
            ("haversine", GeoPoint(10.0, 20.0), spherical_centroid),
            # three copies of 0.1 sum to 0.30000000000000004 on the plane
            ("planar", GeoPoint(0.1, 0.1), planar_centroid),
        ]
        for metric, shared, centroid in cases:
            pts = [shared] * 30 + [GeoPoint(0.0, 0.0)]
            kernel = GeoKernel(pts, metric)
            for members in ([0, 1], [0, 1, 2], list(range(30))):
                center, disp = kernel.stats(members, 1e-6, "max")
                assert center == kernel.vecs[0]
                assert kernel.centroid(members) == shared
                assert centroid([pts[i] for i in members]) == shared
                assert disp == 0.0

    def test_colocated_set_returns_the_lowest_ids_vector(self):
        # (1, -0.0, 0) == (1, 0.0, 0): which vector comes back decides the bits
        kernel = GeoKernel([GeoPoint(0.0, -0.0), GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.0)])
        assert kernel.vecs[0] == kernel.vecs[1]
        for members, plus in (([0, 1], None), ([1, 2], 0), ([], 0), ([0], 2)):
            centre, disp = kernel.stats(members, 1.0, "sum", plus)
            assert centre is kernel.vecs[0] and disp == 0.0
        centre, _ = kernel.stats([1], 1.0, "max", 2)
        assert centre is kernel.vecs[1]

    def test_degenerate_mean_falls_back_to_the_lowest_ids_vector(self):
        # an antipodal pair has no mean direction
        kernel = GeoKernel([GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)])
        for members, plus in (([0, 1], None), ([1], 0), ([0], 1)):
            for sums in (None, kernel._sums(members)):
                centre, disp = kernel.stats(members, 1.0, "max", plus, sums=sums)
                assert centre is kernel.vecs[0]
                assert disp == pytest.approx((math.pi * EARTH_RADIUS_KM) ** 2)

    def test_empty_raises(self):
        kernel = GeoKernel([GeoPoint(0, 0)])
        with pytest.raises(ValueError):
            kernel.stats([], 1.0, "max")

    def test_within_limit(self):
        pts = [GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 2)]
        for metric in METRIC_NAMES:
            dist = naive_planar if metric == "planar" else naive_haversine
            kernel = GeoKernel(pts, metric)
            d2 = dist(pts[0], pts[2])
            assert kernel.within_limit([0, 1, 2], 0, d2 + 1e-9)
            assert not kernel.within_limit([0, 1, 2], 0, d2 - 1.0)
            assert kernel.within_limit([], 0, 0.0)
            big = GeoKernel([GeoPoint(0, i * 0.01) for i in range(60)], metric)
            members = list(range(60))
            limit = dist(GeoPoint(0, 0), GeoPoint(0, 0.59))
            assert big.within_limit(members, 0, limit + 1e-9)
            assert not big.within_limit(members, 0, limit - 1e-3)

    def test_planar_kernel_stats(self):
        pts = [GeoPoint(1, 0), GeoPoint(-1, 0), GeoPoint(0, 0), GeoPoint(50, 100)]
        kernel = GeoKernel(pts, "planar")
        center, disp = kernel.stats([0, 1, 2], 1.0, "max")
        assert center == (0.0, 0.0, 0.0)
        assert disp == pytest.approx(1.0, abs=1e-12)
        _, disp_sum = kernel.stats([0, 1, 2], 1.0, "sum")
        assert disp_sum == pytest.approx(2.0, abs=1e-12)

    def test_unknown_metric_or_agg(self):
        with pytest.raises(ValueError):
            GeoKernel([GeoPoint(0, 0)], "mercator")
        kernel = GeoKernel([GeoPoint(0, 0), GeoPoint(1, 1)])
        with pytest.raises(ValueError):
            kernel.stats([0, 1], 1.0, "median")
