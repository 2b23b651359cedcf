import json
import math

import pytest

from snmod import geometry
from snmod.cli import main, read_partition_csv, run_sweep, SWEEP_HEADER, IMPROVEMENT_HEADER
from snmod.geograph import load_graph
from snmod.metrics import Partition, SNParams, ng_modularity, sn_modularity

from conftest import BRIDGED_EDGES

BRIDGED_EDGE_TEXT = "".join(f"{u}\t{v}\n" for u, v in BRIDGED_EDGES)
COLOCATED_COORD_TEXT = "".join(
    f"{i},0,0\n" for i in range(3)
) + "".join(f"{i},0,0.9\n" for i in range(3, 6))
ZERO_COORD_TEXT = "".join(f"{i},0,0\n" for i in range(6))


@pytest.fixture
def fixture_files(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text(BRIDGED_EDGE_TEXT)
    coords = tmp_path / "coords.csv"
    coords.write_text(COLOCATED_COORD_TEXT)
    return edges, coords


def validate_geojson_strict(doc):
    """Independent structural check of the exported document."""
    assert doc["type"] == "FeatureCollection"
    assert isinstance(doc["features"], list)
    for feature in doc["features"]:
        assert feature["type"] == "Feature"
        geom = feature["geometry"]
        assert geom["type"] in ("Point", "LineString")
        if geom["type"] == "Point":
            lon, lat = geom["coordinates"]
            assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0
            assert set(feature["properties"]) == {"id", "community"}
        else:
            assert len(geom["coordinates"]) == 2
            for lon, lat in geom["coordinates"]:
                assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0
            assert set(feature["properties"]) == {"intra"}
            assert isinstance(feature["properties"]["intra"], bool)


def test_detect_louvain_summary_and_partition(fixture_files, tmp_path, capsys):
    edges, coords = fixture_files
    out = tmp_path / "partition.csv"
    rc = main([
        "detect", "--edges", str(edges), "--coords", str(coords),
        "--algo", "louvain", "--sigma", "1", "--out", str(out),
    ])
    assert rc == 0
    summary = capsys.readouterr().out.strip()
    assert "ng_modularity=0.357143" in summary
    lines = out.read_text().splitlines()
    assert lines[0] == "node,community"
    labels = {line.split(",")[1] for line in lines[1:]}
    assert len(lines) == 7 and len(labels) == 2


def test_detect_snic_on_colocated_clusters(fixture_files, tmp_path, capsys):
    edges, coords = fixture_files
    out = tmp_path / "partition.csv"
    trace = tmp_path / "trace.csv"
    rc = main([
        "detect", "--edges", str(edges), "--coords", str(coords),
        "--algo", "snic", "--sigma", "1", "--out", str(out), "--trace", str(trace),
    ])
    assert rc == 0
    assert "sn_modularity=0.357143" in capsys.readouterr().out
    assert trace.read_text().splitlines()[0] == "iteration,constraint_km,sn_modularity,span_km,seconds"


def test_detect_summary_matches_library(fixture_files, tmp_path, capsys):
    edges, coords = fixture_files
    out = tmp_path / "p.csv"
    rc = main([
        "detect", "--edges", str(edges), "--coords", str(coords),
        "--algo", "louvain-sn", "--sigma", "250", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    summary = capsys.readouterr().out.strip()
    got = dict(kv.split("=") for kv in summary.split()[1:])
    g = load_graph(str(edges), str(coords))
    p = read_partition_csv(out, g)
    assert float(got["ng_modularity"]) == pytest.approx(ng_modularity(g, p), abs=1e-6)
    assert float(got["sn_modularity"]) == pytest.approx(
        sn_modularity(g, p, SNParams(250.0)), abs=1e-6
    )


def test_detect_usage_and_data_errors(fixture_files, tmp_path):
    edges, coords = fixture_files
    out = tmp_path / "p.csv"
    # missing --coords is a usage error
    with pytest.raises(SystemExit) as err:
        main(["detect", "--edges", str(edges), "--algo", "snic",
              "--sigma", "1", "--out", str(out)])
    assert err.value.code == 1
    # unreadable file is a data error
    rc = main(["detect", "--edges", str(tmp_path / "nope.tsv"), "--coords", str(coords),
               "--algo", "louvain", "--sigma", "1", "--out", str(out)])
    assert rc == 2
    # malformed edge content is a data error
    bad = tmp_path / "bad.tsv"
    bad.write_text("0 1\n")
    rc = main(["detect", "--edges", str(bad), "--coords", str(coords),
               "--algo", "louvain", "--sigma", "1", "--out", str(out)])
    assert rc == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


class TestScore:
    def _write_partition(self, tmp_path, labels):
        path = tmp_path / "given.csv"
        path.write_text("node,community\n" + "".join(f"{i},{c}\n" for i, c in enumerate(labels)))
        return path

    def test_single_community_scores_zero(self, fixture_files, tmp_path, capsys):
        edges, coords = fixture_files
        part = self._write_partition(tmp_path, [0] * 6)
        rc = main(["score", "--edges", str(edges), "--coords", str(coords),
                   "--partition", str(part), "--sigma", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ng_modularity,sn_modularity"
        ng, _sn = (float(x) for x in lines[1].split(","))
        assert ng == pytest.approx(0.0, abs=1e-9)
        assert lines[2] == "community,quality"

    def test_triangle_singletons_value(self, tmp_path, capsys):
        edges = tmp_path / "e.tsv"
        edges.write_text("0\t1\n1\t2\n0\t2\n")
        coords = tmp_path / "c.csv"
        coords.write_text("0,0,0\n1,0,0\n2,0,0\n")
        part = self._write_partition(tmp_path, [0, 1, 2])
        rc = main(["score", "--edges", str(edges), "--coords", str(coords),
                   "--partition", str(part), "--sigma", "1"])
        assert rc == 0
        values = capsys.readouterr().out.splitlines()[1]
        assert float(values.split(",")[0]) == pytest.approx(-0.333333, abs=1e-6)

    def test_colocated_coordinates_make_columns_equal(self, tmp_path, capsys):
        edges = tmp_path / "e.tsv"
        edges.write_text(BRIDGED_EDGE_TEXT)
        coords = tmp_path / "c.csv"
        coords.write_text(ZERO_COORD_TEXT)
        part = self._write_partition(tmp_path, [0, 0, 0, 1, 1, 1])
        rc = main(["score", "--edges", str(edges), "--coords", str(coords),
                   "--partition", str(part), "--sigma", "2"])
        assert rc == 0
        ng, sn = capsys.readouterr().out.splitlines()[1].split(",")
        assert ng == sn

    def test_builds_one_kernel_and_prints_library_values(self, tmp_path, capsys, monkeypatch):
        edges = tmp_path / "e.tsv"
        edges.write_text(BRIDGED_EDGE_TEXT)
        coords = tmp_path / "c.csv"
        coords.write_text("0,0,0\n1,0.2,0.1\n2,0,0.9\n3,1,1\n4,1.5,1\n5,-1,2\n")
        labels = [0, 0, 1, 1, 2, 2]
        part = self._write_partition(tmp_path, labels)
        builds = []
        init = geometry.GeoKernel.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(geometry.GeoKernel, "__init__", counting_init)
        rc = main(["score", "--edges", str(edges), "--coords", str(coords),
                   "--partition", str(part), "--sigma", "50"])
        assert rc == 0
        assert len(builds) == 1
        lines = capsys.readouterr().out.splitlines()
        g = load_graph(str(edges), str(coords))
        p = Partition(tuple(labels))
        params = SNParams(50.0)
        assert lines[1] == f"{ng_modularity(g, p):.12g},{sn_modularity(g, p, params):.12g}"
        assert len(lines) == 3 + p.num_communities

    def test_partition_with_unknown_node_errors(self, fixture_files, tmp_path):
        edges, coords = fixture_files
        part = tmp_path / "given.csv"
        part.write_text("node,community\n" + "".join(f"{i},0\n" for i in range(6)) + "9,0\n")
        rc = main(["score", "--edges", str(edges), "--coords", str(coords),
                   "--partition", str(part), "--sigma", "1"])
        assert rc == 2


class TestSweep:
    def test_zero_distance_dataset_sn_equals_ng(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text(BRIDGED_EDGE_TEXT)
        coords = tmp_path / "c.csv"
        coords.write_text(ZERO_COORD_TEXT)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--edges", str(edges), "--coords", str(coords),
                   "--sigmas", "300,5000", "--out", str(out), "--max-iters", "5"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6  # 2 sigmas x 3 algorithms
        for row in rows:
            assert row[4] == row[5]  # sn == ng on co-located data
        by_algo = {}
        for row in rows:
            by_algo.setdefault((row[1], row[2]), float(row[4]))
        for sigma in ("300", "5000"):
            assert by_algo[(sigma, "snic")] >= by_algo[(sigma, "louvain-sn")] - 1e-12
        improvements = tmp_path / "sweep_improvements.csv"
        ilines = improvements.read_text().splitlines()
        assert ilines[0] == IMPROVEMENT_HEADER
        assert len(ilines) == 5  # 2 sigmas x 2 non-baseline algorithms

    def test_append_safety_and_header_conflict(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("0\t1\n")
        coords = tmp_path / "c.csv"
        coords.write_text("0,0,0\n1,0,0\n")
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--edges", str(edges), "--coords", str(coords),
                "--sigmas", "100", "--algos", "louvain", "--out", str(out)]
        assert main(args) == 0
        n1 = len(out.read_text().splitlines())
        assert main(args) == 0
        n2 = len(out.read_text().splitlines())
        assert n2 == 2 * n1 - 1  # appended, header written once
        out.write_text("something,else\n1,2\n")
        assert main(args) == 2

    def test_synthetic_sweep_with_traces(self, tmp_path):
        out = tmp_path / "sweep.csv"
        traces = tmp_path / "traces"
        rc = main(["sweep", "--synthetic",
                   "nodes=60,clusters=3,p_intra=0.3,p_inter=0.02,spacing_km=800,spread_km=5",
                   "--graph-seeds", "0,1", "--sigmas", "300,5000", "--seeds", "0",
                   "--max-iters", "4", "--out", str(out), "--trace-dir", str(traces)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 3
        assert len(list(traces.glob("trace_*.csv"))) == 4  # one per snic run
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"synthetic-s0", "synthetic-s1"}

    def test_sweep_requires_some_input(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_bad_algorithm_rejected(self, tmp_path):
        rc = main(["sweep", "--synthetic", "nodes=10,clusters=2",
                   "--algos", "metis", "--out", str(tmp_path / "s.csv")])
        assert rc == 2


class TestExportGeojson:
    def test_counts_intra_flags_and_strict_structure(self, fixture_files, tmp_path):
        edges, coords = fixture_files
        part = tmp_path / "p.csv"
        rc = main(["detect", "--edges", str(edges), "--coords", str(coords),
                   "--algo", "louvain", "--sigma", "1", "--out", str(part)])
        assert rc == 0
        out = tmp_path / "graph.geojson"
        rc = main(["export-geojson", "--edges", str(edges), "--coords", str(coords),
                   "--partition", str(part), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        validate_geojson_strict(doc)
        points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
        lines = [f for f in doc["features"] if f["geometry"]["type"] == "LineString"]
        assert len(points) == 6
        assert len(lines) == 7
        # exactly the bridge edge crosses communities
        assert sum(1 for f in lines if not f["properties"]["intra"]) == 1


class TestSample:
    def test_sample_writes_reloadable_files(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text(BRIDGED_EDGE_TEXT)
        coords = tmp_path / "c.csv"
        coords.write_text(COLOCATED_COORD_TEXT)
        prefix = tmp_path / "sample"
        rc = main(["sample", "--edges", str(edges), "--coords", str(coords),
                   "--size", "4", "--seed", "2", "--out-prefix", str(prefix)])
        assert rc == 0
        sub = load_graph(f"{prefix}_edges.tsv", f"{prefix}_coords.csv")
        assert sub.num_nodes <= 4


def test_detect_runs_are_bit_identical(fixture_files, tmp_path):
    edges, coords = fixture_files
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        rc = main(["detect", "--edges", str(edges), "--coords", str(coords),
                   "--algo", "snic", "--sigma", "1", "--seed", "5", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
