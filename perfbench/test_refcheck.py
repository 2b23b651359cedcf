"""Hand-computed cases for the reference checker.

Run with ``python3 -m pytest perfbench/test_refcheck.py``.
"""

import math

import pytest

import refcheck as ref

R = ref.EARTH_RADIUS_KM
# two unit triangles joined by the 2-3 bridge: 2m = 14, each side has
# ordered internal weight 6 and degree sum 7, so each NG term is 2.5 / 14
BRIDGED = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0, (3, 4): 1.0, (4, 5): 1.0, (3, 5): 1.0, (2, 3): 1.0}
TRIANGLES = [[0, 1, 2], [3, 4, 5]]


def bridged(coords=None):
    g = ref.RefGraph(BRIDGED)
    return g, coords or {u: (10.0, 20.0) for u in range(6)}


def spread_right_triangle(a_deg):
    """Left triangle co-located; right triangle at longitudes -a, +a, 0 on the equator."""
    coords = {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (0.0, 0.0)}
    coords.update({3: (0.0, -a_deg), 4: (0.0, a_deg), 5: (0.0, 0.0)})
    return coords


def test_bridged_triangles_ng_is_five_fourteenths():
    g, _ = bridged()
    assert g.two_m == 14.0
    assert ref.ng_modularity(g, TRIANGLES) == pytest.approx(5 / 14, abs=1e-15)


def test_colocated_sn_equals_ng():
    g, coords = bridged()
    for agg in ("max", "sum"):
        assert ref.sn_modularity(g, coords, TRIANGLES, 300.0, agg) == pytest.approx(5 / 14, abs=1e-15)


def test_single_community_scores_zero():
    g, coords = bridged()
    assert ref.ng_modularity(g, [list(range(6))]) == pytest.approx(0.0, abs=1e-15)
    assert ref.sn_modularity(g, coords, [list(range(6))], 50.0) == pytest.approx(0.0, abs=1e-15)


def test_spread_triangle_max_dispersion_halves_its_term():
    # centre of the right triangle is (0, 0); its farthest members lie a
    # degrees of arc away, so sigma = R * a makes the max dispersion exactly 1
    a = 3.0
    g, coords = bridged(spread_right_triangle(a))
    sigma = R * math.radians(a)
    assert ref.dispersion([coords[u] for u in (3, 4, 5)], sigma, "max") == pytest.approx(1.0, rel=1e-12)
    assert ref.sn_modularity(g, coords, TRIANGLES, sigma, "max") == pytest.approx(15 / 56, rel=1e-12)
    assert ref.community_quality(g, coords, [5, 4, 3], sigma, "max") == pytest.approx(1.25 / 14, rel=1e-12)


def test_spread_triangle_sum_dispersion_is_two():
    a = 3.0
    g, coords = bridged(spread_right_triangle(a))
    sigma = R * math.radians(a)
    # (1 + 1 + 0): right term 2.5/14 / 3, total 2.5/14 + 2.5/42 = 5/21
    assert ref.sn_modularity(g, coords, TRIANGLES, sigma, "sum") == pytest.approx(5 / 21, rel=1e-12)


def test_qualities_sum_to_global():
    g, coords = bridged(spread_right_triangle(7.0))
    parts = [[0, 1], [2, 3], [4, 5]]
    total = sum(ref.community_quality(g, coords, c, 900.0) for c in parts)
    assert total == pytest.approx(ref.sn_modularity(g, coords, parts, 900.0), abs=1e-15)


def test_great_circle_quarter_and_zero():
    quarter = math.pi * R / 2
    assert ref.great_circle_km((0.0, 0.0), (0.0, 90.0)) == pytest.approx(quarter, rel=1e-12)
    assert ref.great_circle_km((0.0, 0.0), (90.0, 0.0)) == pytest.approx(quarter, rel=1e-12)
    assert ref.great_circle_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(2 * quarter, rel=1e-12)
    assert ref.great_circle_km((12.5, -40.0), (12.5, -40.0)) == 0.0


def test_spherical_mean_cases():
    lat, lon = ref.spherical_mean([(0.0, 0.0), (0.0, 90.0)])
    assert lat == pytest.approx(0.0, abs=1e-12) and lon == pytest.approx(45.0, abs=1e-12)
    lat, lon = ref.spherical_mean([(0.0, 0.0), (90.0, 0.0)])
    assert lat == pytest.approx(45.0, abs=1e-12) and lon == pytest.approx(0.0, abs=1e-12)
    # antipodal pair: degenerate mean falls back to the first point
    assert ref.spherical_mean([(0.0, 10.0), (0.0, -170.0)]) == (0.0, 10.0)
    # identical points come back bit for bit
    assert ref.spherical_mean([(33.3, 44.4)] * 5) == (33.3, 44.4)


def test_communities_of_checks_coverage(tmp_path):
    g, _ = bridged()
    rows = [(u, "a" if u < 3 else "b") for u in range(6)]
    assert ref.communities_of(g, rows) == TRIANGLES
    with pytest.raises(ValueError, match="twice"):
        ref.communities_of(g, rows + [(0, "b")])
    with pytest.raises(ValueError, match="misses"):
        ref.communities_of(g, rows[:-1])
    with pytest.raises(ValueError, match="unknown"):
        ref.communities_of(g, rows + [(9, "a")])


def test_file_parsers(tmp_path):
    edges = tmp_path / "e.tsv"
    edges.write_text("# comment\n0\t1\n1\t0\t2.5\n1\t2\n")
    g = ref.read_edges(edges)
    assert g.adj[0][1] == 3.5 and g.two_m == 9.0
    checkins = tmp_path / "c.tsv"
    checkins.write_text(
        "7\t2010-10-17T01:48:53Z\t39.747652\t-104.99251\tabc\n"
        "7\t2010-10-16T06:02:04Z\t39.891383\t-105.070814\tdef\n"
    )
    assert ref.read_checkins(checkins) == {7: [(39.747652, -104.99251), (39.891383, -105.070814)]}
    part = tmp_path / "p.csv"
    part.write_text("node,community\n0,3\n1,3\n2,1\n")
    assert ref.communities_of(g, ref.read_partition(part)) == [[0, 1], [2]]
