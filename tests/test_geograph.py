import io
import math
import random
import re
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snmod.geograph import (
    GeoGraph,
    GraphDataError,
    GraphFormatError,
    induced_subgraph,
    load_graph,
    validate_graph,
)
from snmod.geometry import GeoPoint
from snmod.louvain import aggregate_graph
from snmod.metrics import Partition

from _naive import naive_induced_subgraph, naive_load

TRIANGLE_EDGES = "0\t1\n1\t2\n0\t2\n"
TRIANGLE_COORDS = "0,0,0\n1,0,0\n2,0,0\n"


def load(edges, coords, **kw):
    return load_graph(io.StringIO(edges), io.StringIO(coords), **kw)


def test_triangle_load():
    g = load(TRIANGLE_EDGES, TRIANGLE_COORDS)
    assert g.num_nodes == 3
    assert g.two_m == 6.0
    assert all(k == 2.0 for k in g.degrees)
    assert g.num_edges == 3


def test_duplicate_edges_merge_by_weight_sum():
    g = load("0\t1\n1\t0\n", "0,0,0\n1,0,0\n")
    assert g.num_edges == 1
    assert g.adj[0] == ((1, 2.0),)
    assert g.two_m == 4.0


def test_weight_column_and_comments_and_blanks():
    g = load("# comment\n\n0\t1\t2.5\n", "0,1,2\n1,3,4\n")
    assert g.two_m == 5.0
    assert g.degrees[0] == 2.5


def test_missing_policy_drop_removes_node_and_edges():
    edges = "0\t1\n1\t5\n"
    coords = "0,0,0\n1,0,0\n"
    g = load(edges, coords, missing_policy="drop")
    assert g.external_ids == (0, 1)
    assert g.num_edges == 1
    with pytest.raises(GraphDataError):
        load(edges, coords, missing_policy="error")


def test_malformed_lines_report_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        load("0\t1\nbroken line\n", TRIANGLE_COORDS)
    with pytest.raises(GraphFormatError, match="line 1"):
        load("0 1\n", TRIANGLE_COORDS)  # space, not TAB
    with pytest.raises(GraphFormatError, match="line 2"):
        load("0\t1\n", "0,0,0\n1,oops,0\n")


def test_bad_edges_rejected():
    with pytest.raises(GraphDataError):
        load("0\t1\t0\n", "0,0,0\n1,0,0\n")  # zero weight
    with pytest.raises(GraphDataError):
        load("0\t1\t-1\n", "0,0,0\n1,0,0\n")
    with pytest.raises(GraphDataError):
        load("3\t3\n", "3,0,0\n")  # self-loop
    with pytest.raises(GraphFormatError):
        load("-1\t2\n", "2,0,0\n")


def test_coordinate_validation():
    with pytest.raises(GraphDataError):
        load("0\t1\n", "0,95,0\n1,0,0\n")
    with pytest.raises(GraphDataError):
        load("0\t1\n", "0,0,181\n1,0,0\n")
    # lon -180 normalizes to the equivalent 180
    g = load("0\t1\n", "0,0,-180\n1,0,0\n")
    assert g.nodes[0].lon == 180.0


def test_coord_csv_header_is_optional():
    g1 = load("0\t1\n", "node,lat,lon\n0,10,20\n1,30,40\n")
    g2 = load("0\t1\n", "0,10,20\n1,30,40\n")
    assert g1 == g2


def test_coord_csv_malformed_first_row_is_an_error_not_a_header():
    # an integer node field makes the first row data, so a bad coordinate
    # in it is reported, not skipped as a header
    for policy in ("error", "drop"):
        with pytest.raises(GraphFormatError, match="coordinate line 1"):
            load("0\t1\n", "1,abc,2\n0,1,1\n", missing_policy=policy)
    with pytest.raises(GraphFormatError, match="coordinate line 2"):
        load("0\t1\n", "# comment\n1,abc,2\n0,1,1\n")


def test_checkin_rows_mean_policy_is_spherical_mean():
    checkins = (
        "0\t2010-01-01T00:00:00Z\t0\t0\tplaceA\n"
        "0\t2010-01-02T00:00:00Z\t0\t90\tplaceB\n"
        "1\t2010-01-01T00:00:00Z\t5\t5\tplaceC\n"
    )
    g = load("0\t1\n", checkins, coord_policy="mean")
    assert g.nodes[0].lat == pytest.approx(0.0, abs=1e-9)
    assert g.nodes[0].lon == pytest.approx(45.0, abs=1e-9)


def test_checkin_rows_last_policy_takes_most_recent():
    checkins = (
        "0\t2010-06-01T00:00:00Z\t11\t22\tp\n"
        "0\t2010-01-01T00:00:00Z\t33\t44\tp\n"
        "1\t2009-01-01T00:00:00Z\t5\t5\tp\n"
    )
    g = load("0\t1\n", checkins, coord_policy="last")
    assert (g.nodes[0].lat, g.nodes[0].lon) == (11.0, 22.0)


def test_checkin_place_field_is_optional():
    g = load("0\t1\n", "0\t2010-01-01T00:00:00Z\t1\t2\n1\t2010-01-01T00:00:00Z\t3\t4\tplace\n")
    assert (g.nodes[0].lat, g.nodes[0].lon) == (1.0, 2.0)


def test_unrecognized_coordinate_format():
    with pytest.raises(GraphFormatError):
        load("0\t1\n", "0 0 0\n")


def test_coord_rows_for_nodes_without_edges_are_ignored():
    g = load("0\t1\n", "0,0,0\n1,0,0\n7,1,1\n")
    assert g.external_ids == (0, 1)


def test_weighted_degree_examples():
    star = GeoGraph.from_edges(
        [(0, 1), (0, 2), (0, 3)], {i: (0, 0) for i in range(4)}
    )
    assert star.degrees == (3.0, 1.0, 1.0, 1.0)


def test_policies_are_checked_before_any_source_is_read():
    def unread():
        raise AssertionError("a source was read")
        yield  # a generator: the body runs only when it is read

    with pytest.raises(ValueError, match="missing_policy"):
        load_graph(unread(), unread(), missing_policy="bogus")
    with pytest.raises(ValueError, match="coord_policy"):
        load_graph(unread(), unread(), coord_policy="bogus")


def test_degrees_and_two_m_add_left_to_right():
    # a compensated sum, as builtin sum does from Python 3.12 on, would
    # give the hub 1.0000000000000002 and two_m 2.0000000000000004
    star = GeoGraph.from_edges(
        [(0, 1, 1.0), (0, 2, 1e-16), (0, 3, 1e-16)], {i: (0, 0) for i in range(4)}
    )
    assert star.degrees[0] == 1.0
    assert star.two_m == 2.0


def test_a_loop_enters_the_degree_once():
    # a triangle (internal total 6.0), a 1.5 bridge and an isolated node
    g = GeoGraph.from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3, 1.5)], {i: (0, i) for i in range(5)}, extra_nodes=[4]
    )
    coarse = aggregate_graph(g, Partition.from_assignment([0, 0, 0, 1, 2]))
    raw = GeoGraph([0, 1, 2], coarse.nodes, [[(0, 6.0), (1, 1.5)], [(0, 1.5)], []])
    assert raw == coarse
    assert (raw.degrees, raw.two_m, raw.num_edges) == (coarse.degrees, coarse.two_m, coarse.num_edges)
    assert raw.degrees == (7.5, 1.5, 0.0)
    assert raw.two_m == 9.0
    assert type(raw.degrees[2]) is float  # an isolated node's degree
    assert raw.num_edges == 2


def test_a_self_loop_is_refused_by_both_loaders():
    with pytest.raises(GraphDataError, match="self-loop edge on node 1"):
        GeoGraph.from_edges([(0, 1), (1, 1, 2.0)], {0: (0, 0), 1: (0, 1)})
    with pytest.raises(GraphDataError, match="edge line 2: self-loop on node 1"):
        load("0\t1\n1\t1\n", "0,0,0\n1,0,1\n")


def test_from_edges_names_the_first_self_loop():
    coords = {u: (0, u) for u in range(4)}
    with pytest.raises(GraphDataError, match="self-loop edge on node 3"):
        GeoGraph.from_edges([(0, 1), (3, 3), (2, 2)], coords)
    # a loop is refused where it arrives, before a later edge's bad weight
    with pytest.raises(GraphDataError, match="self-loop edge on node 2"):
        GeoGraph.from_edges([(2, 2), (0, 1, -1.0)], coords)


def test_an_overflowing_total_weight_is_refused():
    coords = {0: (0, 0), 1: (0, 1), 2: (1, 0)}
    # each weight is finite; node 0's degree and two_m are not
    for edges in ([(0, 1, 1e308), (0, 2, 1e308)], [(0, 1, 1e308), (1, 0, 1e308)]):
        with pytest.raises(GraphDataError, match=r"two_m = inf is not finite"):
            GeoGraph.from_edges(edges, coords)
    with pytest.raises(GraphDataError, match=r"two_m = inf is not finite"):
        load("0\t1\t1e308\n0\t2\t1e308\n", "0,0,0\n1,0,1\n2,1,0\n")
    with pytest.raises(GraphDataError, match=r"two_m = nan is not finite"):
        GeoGraph([0, 1], [(0, 0), (0, 1)], [[(1, math.inf)], [(0, -math.inf)]])


def test_internal_id_of_unknown_ids():
    g = GeoGraph.from_edges([(5, 7), (7, 20)], {5: (1, 1), 7: (2, 2), 20: (3, 3)})
    assert [g.internal_id(e) for e in (5, 7, 20)] == [0, 1, 2]
    for unknown in (4, 6, 8, 21):
        with pytest.raises(GraphDataError, match=f"unknown external node id {unknown}"):
            g.internal_id(unknown)


def test_external_ids_sorted_dense_and_deterministic():
    # same edges in different order, scrambled external ids
    e1 = [(20, 5), (5, 7)]
    e2 = [(5, 7), (20, 5)]
    coords = {5: (1, 1), 7: (2, 2), 20: (3, 3)}
    g1 = GeoGraph.from_edges(e1, coords)
    g2 = GeoGraph.from_edges(e2, coords)
    assert g1 == g2
    assert g1.external_ids == (5, 7, 20)
    assert g1.internal_id(20) == 2
    with pytest.raises(GraphDataError):
        g1.internal_id(99)


def test_two_m_equals_degree_sum_and_ordered_pairs():
    g = GeoGraph.from_edges(
        [(0, 1, 0.5), (1, 2, 1.5), (0, 2, 2.0)], {i: (0, 0) for i in range(3)}
    )
    assert g.two_m == pytest.approx(sum(g.degrees), rel=1e-12)
    ordered = sum(w for row in g.adj for _, w in row)
    assert g.two_m == pytest.approx(ordered, rel=1e-12)


def test_validate_graph_clean():
    g = GeoGraph.from_edges([(0, 1), (1, 2), (0, 2)], {i: (0, 0) for i in range(3)})
    assert validate_graph(g) == []


def test_validate_graph_reports_violations():
    nodes = GeoGraph.from_edges([(0, 1)], {0: (0, 0), 1: (0, 0)}).nodes
    asym = GeoGraph([0, 1], nodes, [[(1, 1.0)], []])
    report = validate_graph(asym)
    assert any("asymmetric" in line for line in report)

    loopy = GeoGraph([0, 1], nodes, [[(0, 2.0), (1, 1.0)], [(0, 1.0)]])
    assert any("self-loop" in line for line in validate_graph(loopy))
    assert validate_graph(loopy, allow_self_loops=True) == []


def test_induced_subgraph_keeps_isolated_and_external_ids():
    g = GeoGraph.from_edges(
        [(0, 1), (1, 2), (2, 3)], {i: (float(i), 0.0) for i in range(4)}
    )
    sub = induced_subgraph(g, [0, 1, 3])
    assert sub.external_ids == (0, 1, 3)
    assert sub.num_edges == 1  # only 0-1 survives
    assert sub.nodes[2].lat == 3.0
    with pytest.raises(GraphDataError):
        induced_subgraph(g, [99])


# -- checks made when a graph is built ---------------------------------------

PAIR_ROWS = [[(1, 1.0)], [(0, 1.0)]]


@pytest.mark.parametrize(
    "ids, points, match",
    [
        ([7], [GeoPoint(0, 0), GeoPoint(0, 1)], "unequal counts: 1 ids, 2 points, 2 rows"),
        ([3, 1], [(0, 0), (0, 1)], "ascend strictly: 1 after 3"),
        ([2, 2], [(0, 0), (0, 1)], "ascend strictly: 2 after 2"),
        ([-1, 0], [(0, 0), (0, 1)], "negative node id -1"),
        ([0, 1], [(95, 0), (0, 1)], "node 0: latitude 95.0"),
        ([0, 4], [(0, 0), (0, math.nan)], "node 4: non-finite"),
        ([0, 1], [(0, 0), (0, 181)], "node 1: longitude 181.0"),
    ],
    ids=["counts", "descending", "duplicate", "negative", "latitude", "nan", "longitude"],
)
def test_constructor_refuses_bad_ids_counts_and_points(ids, points, match):
    with pytest.raises(GraphDataError, match=re.escape(match)):
        GeoGraph(ids, points, PAIR_ROWS)


def test_constructor_stores_float_points_with_lon_180():
    g = GeoGraph([0, 1], [(0, -180), (1, 2)], PAIR_ROWS)
    assert g.nodes == (GeoPoint(0.0, 180.0), GeoPoint(1.0, 2.0))
    assert all(type(x) is float for p in g.nodes for x in p)
    assert g.internal_id(1) == 1


def test_missing_coordinates_are_named_in_numeric_order():
    message = r"2 node\(s\) lack coordinates \(e.g. 9, 10\)"
    with pytest.raises(GraphDataError, match=message):
        GeoGraph.from_edges([(10, 2), (9, 2)], {2: (0, 0)})
    with pytest.raises(GraphDataError, match=message):
        load("10\t2\n9\t2\n", "2,0,0\n", missing_policy="error")


def test_induced_subgraph_refuses_non_integer_ids():
    g = GeoGraph.from_edges([(0, 1)], {0: (0, 0), 1: (0, 1)})
    for keep in ([0.9], ["0"], [0, 1.0]):
        with pytest.raises(GraphDataError, match="integer"):
            induced_subgraph(g, keep)
    with pytest.raises(GraphDataError, match="unknown internal node id -1"):
        induced_subgraph(g, [-1, 0])


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=14),
    edge_p=st.sampled_from([0.0, 0.2, 0.6]),
    coarsen=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_induced_subgraph_equals_the_pair_dict_construction(seed, n, edge_p, coarsen, data):
    rng = random.Random(seed)
    # sparse external ids, so relabelling is exercised; isolated nodes stay
    ids = sorted(rng.sample(range(10 * n), n))
    coords = {e: (rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)) for e in ids}
    edges = [
        (u, v, rng.choice([1.0, 0.5, 2.25, 1e-3]))
        for u in ids for v in ids if u < v and rng.random() < edge_p
    ]
    g = GeoGraph.from_edges(edges, coords, extra_nodes=ids)
    if coarsen:
        # meta-nodes carry self-loops
        labels = [rng.randrange(max(1, n // 2)) for _ in range(n)]
        g = aggregate_graph(g, Partition.from_assignment(labels))
    keep = data.draw(st.lists(st.integers(min_value=0, max_value=g.num_nodes - 1),
                              max_size=2 * g.num_nodes))
    got = induced_subgraph(g, keep)
    want = naive_induced_subgraph(g, keep)
    assert got == want
    assert _bits(got) == _bits(want)
    assert (got.degrees, got.two_m, got.num_edges) == (want.degrees, want.two_m, want.num_edges)


# -- streamed ingestion ------------------------------------------------------

TIMES = ("2010-01-01T00:00:00Z", "2010-01-01T00:00:00Z", "2010-03-07T12:30:00Z", "2011-12-31T23:59:59Z")
# signed zeros and subnormals make distinct rows with equal unit vectors or
# signed-zero sums, so they are drawn often
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 90.0, -90.0)
lats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(min_value=-90.0, max_value=90.0))
lons = st.one_of(st.sampled_from(EDGE_VALUES + (180.0, -180.0)), st.floats(min_value=-180.0, max_value=180.0))
points = st.tuples(lats, lons)


def _antipode(p):
    lat, lon = p
    return (-lat, lon + 180.0 if lon <= 0.0 else lon - 180.0)


@st.composite
def loader_inputs(draw):
    """Valid edge and coordinate texts: CSV or check-in rows with shared,
    duplicate and antipodal points, equal timestamps, rows for ids without
    edges, edges to ids without rows, a header, comments and blank lines."""
    ids = st.integers(min_value=0, max_value=7)
    pool = draw(st.lists(points, min_size=1, max_size=3))
    pool += [_antipode(p) for p in pool] + [(0.0, 0.0), (0.0, 180.0)]
    rows = draw(st.lists(
        st.tuples(ids, st.sampled_from(TIMES), st.one_of(st.sampled_from(pool), points)),
        max_size=24,
    ))
    edges = draw(st.lists(
        st.tuples(ids, ids, st.sampled_from([1.0, 0.5, 2.25, 1e-3])).filter(lambda e: e[0] != e[1]),
        min_size=1, max_size=12,
    ))
    checkins = draw(st.booleans())
    if checkins:
        lines = [f"{u}\t{ts}\t{lat!r}\t{lon!r}\tplace{u}" for u, ts, (lat, lon) in rows]
    else:
        lines = [f"{u},{lat!r},{lon!r}" for u, _, (lat, lon) in rows]
        if draw(st.booleans()):
            lines.insert(0, "node,lat,lon")
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# comment", "   "])))
    edge_lines = [f"{u}\t{v}\t{w!r}" for u, v, w in edges]
    edge_lines.insert(draw(st.integers(min_value=0, max_value=len(edge_lines))), "# edges")
    return "".join(f"{x}\n" for x in edge_lines), "".join(f"{x}\n" for x in lines)


def _bits(g):
    return [struct.pack("<dd", p.lat, p.lon) for p in g.nodes]


@given(
    texts=loader_inputs(),
    policy=st.sampled_from(["mean", "last"]),
    as_lines=st.booleans(),
)
# all-negative-zero components must sum to +0.0 as from a 0.0 start
@example(texts=("0\t1\n", "0,10.0,-0.0\n0,20.0,-0.0\n1,-0.0,10.0\n1,-0.0,20.0\n"),
         policy="mean", as_lines=False)
# distinct rows with equal unit vectors are co-located: the first row wins
@example(texts=("0\t1\n", "0,0.0,5e-324\n0,0.0,0.0\n1,0,0\n"), policy="mean", as_lines=True)
# a mean whose longitude comes out at -180 is stored as 180
@example(texts=("0\t1\n", "1,-0.0,180.0\n1,0.0,-179.99999999999997\n"), policy="mean", as_lines=False)
@settings(max_examples=300, deadline=None)
def test_streamed_load_equals_the_row_holding_loader(texts, policy, as_lines):
    edges, coords = texts
    want, want_degrees = naive_load(edges, coords, coord_policy=policy)
    if as_lines:
        got = load_graph(edges.splitlines(keepends=True), coords.splitlines(keepends=True),
                         coord_policy=policy, missing_policy="drop")
    else:
        got = load(edges, coords, coord_policy=policy, missing_policy="drop")
    assert got == want
    assert _bits(got) == _bits(want)
    assert got.degrees == want_degrees


def test_load_memory_is_set_by_users_not_rows(tmp_path):
    users = 200
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"{u}\t{(u + 1) % users}\n" for u in range(users)))
    peaks = []
    for rows in (50, 200):
        checkins = tmp_path / f"checkins{rows}.tsv"
        with open(checkins, "w", encoding="utf-8") as fh:
            for u in range(users):
                for r in range(rows):
                    fh.write(f"{u}\t2010-01-01T00:00:{r % 60:02d}Z\t{u % 80}.{r:03d}\t{r % 170}.5\tplace{r}\n")
        tracemalloc.start()
        try:
            g = load_graph(edges, checkins)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert g.num_nodes == users
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_load_peak_stays_near_the_graph_it_returns(tmp_path):
    # a ring plus random chords over 5,000 nodes, one CSV point per node
    rng = random.Random(5)
    n = 5000
    pairs = [(u, (u + 1) % n) for u in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"{u}\t{v}\t{rng.uniform(0.5, 2.0)!r}\n" for u, v in pairs if u != v))
    coords = tmp_path / "coords.csv"
    coords.write_text("".join(f"{u},{rng.uniform(-60, 60)!r},{rng.uniform(-170, 170)!r}\n" for u in range(n)))
    tracemalloc.start()
    try:
        g = load_graph(edges, coords)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_nodes == n
    # the edge map and the rows are never all held at once
    assert peak <= 1.75 * retained, (peak, retained)


LINE_ENDING_EDGES = "# friends\n0\t1\n\n1\t2\t2.5\n"
LINE_ENDING_COORDS = (
    "# user ts lat lon place\n"
    "0\t2010-01-01T00:00:00Z\t1.5\t2.5\tp\n"
    "\n"
    "1\t2010-01-02T00:00:00Z\t3.5\t4.5\n"
    "2\t2010-01-03T00:00:00Z\t5.5\t6.5\tp\n"
    "0\t2010-01-04T00:00:00Z\t1.0\t2.0\tp\n"
)


def _sources(text, tmp_path, name):
    """The text as a path, a StringIO and a list of lines."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return [path, io.StringIO(text), text.splitlines(keepends=True)]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_line_endings_give_the_same_graph_from_every_source(tmp_path, eol):
    want = load(LINE_ENDING_EDGES, LINE_ENDING_COORDS)
    edges = _sources(LINE_ENDING_EDGES.replace("\n", eol), tmp_path, "e.tsv")
    coords = _sources(LINE_ENDING_COORDS.replace("\n", eol), tmp_path, "c.tsv")
    for e, c in zip(edges, coords):
        g = load_graph(e, c)
        assert g == want
        assert _bits(g) == _bits(want)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_line_endings_give_the_same_error_line_from_every_source(tmp_path, eol):
    bad_edges = "# friends\n\n0\t1\n1\t2\t0\n"
    bad_coords = LINE_ENDING_COORDS.replace("3.5\t4.5", "3.5\tfar")
    for e in _sources(bad_edges.replace("\n", eol), tmp_path, "e.tsv"):
        with pytest.raises(GraphDataError, match="^edge line 4: non-positive weight 0.0$"):
            load_graph(e, io.StringIO(LINE_ENDING_COORDS))
    for c in _sources(bad_coords.replace("\n", eol), tmp_path, "c.tsv"):
        want = "check-in line 4: cannot parse " + repr("1\t2010-01-02T00:00:00Z\t3.5\tfar")
        with pytest.raises(GraphFormatError, match=f"^{re.escape(want)}$"):
            load_graph(io.StringIO(LINE_ENDING_EDGES), c)


@pytest.mark.parametrize("coords", [
    # header-less CSV: with the mark read as text, node 0's row looks like a header
    "0,1.5,2.5\n1,3.5,4.5\n2,5.5,6.5\n",
    "node,lat,lon\n0,1.5,2.5\n1,3.5,4.5\n2,5.5,6.5\n",
    LINE_ENDING_COORDS.replace("# user ts lat lon place\n", ""),
], ids=["csv", "csv-with-header", "check-in"])
@pytest.mark.parametrize("missing_policy", ["error", "drop"])
def test_a_byte_order_mark_loads_as_the_same_file_without_one(tmp_path, coords, missing_policy):
    edges = "0\t1\n1\t2\t2.5\n"
    want = load(edges, coords, missing_policy=missing_policy)
    for name, text in (("e.tsv", edges), ("c.txt", coords)):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
        (tmp_path / f"bom_{name}").write_bytes(text.encode("utf-8-sig"))
    for e, c in (("bom_e.tsv", "c.txt"), ("e.tsv", "bom_c.txt"), ("bom_e.tsv", "bom_c.txt")):
        g = load_graph(tmp_path / e, tmp_path / c, missing_policy=missing_policy)
        assert g == want
        assert _bits(g) == _bits(want)
    # a file object or a list of lines whose text starts with the mark
    for source in (io.StringIO, lambda text: text.splitlines(keepends=True)):
        for e, c in (("\ufeff" + edges, coords), (edges, "\ufeff" + coords)):
            g = load_graph(source(e), source(c), missing_policy=missing_policy)
            assert g == want
            assert _bits(g) == _bits(want)


def test_edge_errors_come_before_coordinate_errors():
    with pytest.raises(GraphFormatError, match="^edge line 2"):
        load("0\t1\nbroken\n", "0,0,0\n1,oops,0\n")
    with pytest.raises(GraphDataError, match="^edge line 1: self-loop"):
        load("1\t1\n", "0\t2010\t95\t0\n")


@pytest.mark.parametrize("first", ["1,2.0,3.0\t", "\t1,2.0,3.0"])
def test_a_stray_tab_on_the_first_csv_line_makes_a_check_in_line(first):
    coords = f"# node,lat,lon\n\n{first}\n2,4.0,5.0\n"
    want = f"check-in line 3: expected user, timestamp, lat, lon[, place], got {first!r}"
    with pytest.raises(GraphFormatError, match=f"^{re.escape(want)}$"):
        load("1\t2\n", coords)


def test_a_stray_tab_on_a_later_csv_line_is_stripped_with_the_row():
    g = load("1\t2\n", "1,2.0,3.0\n\t2,4.0,5.0\t\n")
    assert g.nodes[1] == (4.0, 5.0)


GENERATOR_EDGES = "0\t1\n1\t2\n"
GENERATOR_COORDS = {
    "checkins": "0\t2010-01-02T00:00:00Z\t1.5\t2.5\tp\n"
                "1\t2010-01-01T00:00:00Z\t3.5\t-180\n"
                "0\t2010-01-01T00:00:00Z\t1.0\t2.0\tp\n"
                "2\t2010-01-01T00:00:00Z\t5.5\t6.5\n"
                "0\t2010-01-02T00:00:00Z\t1.25\t2.25\tp\n",
    "csv": "node,lat,lon\n0,1.5,2.5\n1,3.5,-180\n0,1.0,2.0\n2,5.5,6.5\n0,1.25,2.25\n",
}


def _one_shot(text):
    """The text's lines from a generator, which can be iterated only once."""
    return (line for line in text.splitlines(keepends=True))


@pytest.mark.parametrize("fmt", sorted(GENERATOR_COORDS))
@pytest.mark.parametrize("policy", ["mean", "last"])
def test_a_one_shot_generator_loads_as_a_file_does(fmt, policy):
    coords = "\n# comment\n   \n" + GENERATOR_COORDS[fmt]
    want = load(GENERATOR_EDGES, coords, coord_policy=policy)
    got = load_graph(_one_shot(GENERATOR_EDGES), _one_shot(coords), coord_policy=policy)
    assert got == want
    assert _bits(got) == _bits(want)
    assert got.nodes[1] == (3.5, 180.0)


@pytest.mark.parametrize("fmt", sorted(GENERATOR_COORDS))
@pytest.mark.parametrize("policy", ["mean", "last"])
def test_a_one_shot_generator_reports_the_file_error_line(fmt, policy):
    coords = "\n# comment\n   \n" + GENERATOR_COORDS[fmt].replace("5.5", "95.5")
    label = "check-in" if fmt == "checkins" else "coordinate"
    errors = []
    for source in (io.StringIO(coords), _one_shot(coords)):
        with pytest.raises(GraphDataError) as err:
            load_graph(io.StringIO(GENERATOR_EDGES), source, coord_policy=policy)
        errors.append(str(err.value))
    want = f"{label} line {7 if fmt == 'checkins' else 8}: latitude 95.5 out of [-90, 90]"
    assert errors == [want, want]
