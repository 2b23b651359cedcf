import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from snmod import cli, geometry, louvain, snic
from snmod.cli import (
    main, export_geojson, read_partition_csv, run_sweep, write_partition_csv,
    SWEEP_HEADER, IMPROVEMENT_HEADER,
)
from snmod.geograph import load_graph
from snmod.louvain import EngineConfig, LevelState, aggregate_graph, run_louvain
from snmod.metrics import Partition, SNParams, ng_modularity, score_terms, sn_modularity
from snmod.snic import SnicConfig, partition_max_span, run_snic
from snmod.sampler import SampleSpec, snowball_sample
from snmod.synth import SyntheticSpec, planted_geo_clusters

from conftest import BRIDGED_EDGES, triangle_graph

BRIDGED_EDGE_TEXT = "".join(f"{u}\t{v}\n" for u, v in BRIDGED_EDGES)
COLOCATED_COORD_TEXT = "".join(
    f"{i},0,0\n" for i in range(3)
) + "".join(f"{i},0,0.9\n" for i in range(3, 6))
ZERO_COORD_TEXT = "".join(f"{i},0,0\n" for i in range(6))
TRIANGLES_PARTITION = Partition.from_communities([[0, 1, 2], [3, 4, 5]], 6)
SWEEP_SIGMAS = (300.0, 5000.0)

NO_NUMPY_RUN = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
src, edges, coords, out = sys.argv[1:5]
sys.path.insert(0, src)
from snmod import cli
io = ["--edges", edges, "--coords", coords, "--sigma", "50"]
rcs = [
    cli.main(["detect", "--algo", "snic", "--out", out, *io]),
    cli.main(["score", "--partition", out, *io]),
]
print(rcs)
"""


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


@pytest.mark.parametrize("algo", ["louvain", "louvain-sn"])
def test_detect_refuses_trace_without_snic(fixture_files, tmp_path, capsys, monkeypatch, algo):
    def no_load(args):
        raise AssertionError("the graph was loaded")

    monkeypatch.setattr(cli, "_load", no_load)
    edges, coords = fixture_files
    out, trace = tmp_path / "p.csv", tmp_path / "trace.csv"
    rc = main([
        "detect", "--edges", str(edges), "--coords", str(coords),
        "--algo", algo, "--sigma", "1", "--out", str(out), "--trace", str(trace),
    ])
    assert rc == 2
    assert "--trace needs --algo snic" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_detect_bad_trace_path_leaves_no_partition(fixture_files, tmp_path, capsys):
    edges, coords = fixture_files
    out, trace = tmp_path / "p.csv", tmp_path / "nodir" / "tr.csv"
    rc = main([
        "detect", "--edges", str(edges), "--coords", str(coords),
        "--algo", "snic", "--sigma", "1", "--out", str(out), "--trace", str(trace),
    ])
    assert rc == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


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

    @pytest.mark.parametrize("header", ["", "node,community\n"], ids=["no-header", "header"])
    def test_partition_with_a_byte_order_mark(self, fixture_files, tmp_path, header):
        edges, coords = fixture_files
        g = load_graph(edges, coords)
        part = tmp_path / "given.csv"
        part.write_bytes((header + "".join(f"{i},{i // 3}\n" for i in range(6))).encode("utf-8-sig"))
        assert read_partition_csv(part, g) == TRIANGLES_PARTITION

    def test_partition_header_after_comment_lines(self, fixture_files, tmp_path):
        # the header is the first significant row, as in a coordinate CSV
        edges, coords = fixture_files
        g = load_graph(edges, coords)
        part = tmp_path / "given.csv"
        rows = "".join(f"{i},{i // 3}\n" for i in range(6))
        part.write_text("# written by hand\n\nnode,community\n" + rows)
        assert read_partition_csv(part, g) == TRIANGLES_PARTITION
        part.write_text("# no header\n" + rows)
        assert read_partition_csv(part, g) == TRIANGLES_PARTITION
        # a non-integer node field after the first row is still an error
        part.write_text("node,community\n" + rows + "node,community\n")
        rc = main(["score", "--edges", str(edges), "--coords", str(coords),
                   "--partition", str(part), "--sigma", "1"])
        assert rc == 2

    def test_empty_community_label_errors(self, fixture_files, tmp_path, capsys):
        edges, coords = fixture_files
        part = tmp_path / "given.csv"
        for blank in ("", " "):
            rows = "".join(f"{i},{blank if i == 2 else 0}\n" for i in range(6))
            part.write_text("node,community\n" + rows)
            rc = main(["score", "--edges", str(edges), "--coords", str(coords),
                       "--partition", str(part), "--sigma", "1"])
            assert rc == 2
            assert "partition line 4: empty community label" in capsys.readouterr().err

    def test_partition_with_unknown_node_errors(self, fixture_files, tmp_path):
        edges, coords = fixture_files
        part = tmp_path / "given.csv"
        part.write_text("node,community\n" + "".join(f"{i},0\n" for i in range(6)) + "9,0\n")
        rc = main(["score", "--edges", str(edges), "--coords", str(coords),
                   "--partition", str(part), "--sigma", "1"])
        assert rc == 2


def _sweep_datasets():
    specs = (SyntheticSpec(n_nodes=60, n_clusters=3, p_intra=0.3, p_inter=0.02,
                           spacing_km=800.0, spread_km=5.0, seed=gs) for gs in (0, 1))
    return [(f"s{k}", planted_geo_clusters(spec)[0]) for k, spec in enumerate(specs)]


def _separate_run_rows(datasets, algorithms, seeds, max_iters):
    """Sweep rows, without ``seconds``, from one library call per result."""
    rows = []

    def row(name, sigma, algo, seed, g, p, iterations):
        sn = sn_modularity(g, p, SNParams(sigma))
        rows.append(f"{name},{sigma:.12g},{algo},{seed},{sn:.12g},{ng_modularity(g, p):.12g},{iterations}")

    for name, g in datasets:
        for seed in seeds:
            base = run_louvain(g, None, EngineConfig(seed=seed))
            for sigma in SWEEP_SIGMAS:
                if "louvain" in algorithms:
                    row(name, sigma, "louvain", seed, g, base, 1)
            for sigma in SWEEP_SIGMAS:
                for algo in algorithms:
                    if algo == "louvain-sn":
                        row(name, sigma, algo, seed, g,
                            run_louvain(g, SNParams(sigma), EngineConfig(seed=seed)), 1)
                    elif algo == "snic":
                        cfg = SnicConfig(SNParams(sigma), max_iters=max_iters, seed=seed)
                        p, trace = run_snic(g, cfg)
                        row(name, sigma, algo, seed, g, p, len(trace.entries))
    return rows


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

    def test_appends_after_a_header_with_a_byte_order_mark(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("0\t1\n")
        coords = tmp_path / "c.csv"
        coords.write_text("0,0,0\n1,0,0\n")
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--edges", str(edges), "--coords", str(coords),
                "--sigmas", "100", "--algos", "louvain", "--out", str(out)]
        assert main(args) == 0
        out.write_bytes(out.read_text().encode("utf-8-sig"))
        assert main(args) == 0
        lines = out.read_text(encoding="utf-8-sig").splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 3

    @pytest.mark.parametrize("text", ["\ufeff", "\n", "\ufeff\n \n"], ids=["mark", "blank", "mark-blanks"])
    def test_a_file_without_rows_takes_the_header(self, tmp_path, text):
        edges = tmp_path / "e.tsv"
        edges.write_text("0\t1\n")
        coords = tmp_path / "c.csv"
        coords.write_text("0,0,0\n1,0,0\n")
        out = tmp_path / "sweep.csv"
        improvements = tmp_path / "sweep_improvements.csv"
        args = ["sweep", "--edges", str(edges), "--coords", str(coords),
                "--sigmas", "100", "--algos", "louvain", "--out", str(out)]
        for path in (out, improvements):
            path.write_text(text, encoding="utf-8")
        assert main(args) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 2
        assert improvements.read_text(encoding="utf-8").splitlines() == [IMPROVEMENT_HEADER]
        assert main(args) == 0
        again = out.read_text(encoding="utf-8").splitlines()
        assert again[:2] == lines
        assert len(again) == 3 and again[2] != SWEEP_HEADER

    def test_foreign_header_in_either_file_writes_neither(self, tmp_path, monkeypatch):
        def no_build(spec):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(cli, "planted_geo_clusters", no_build)
        out = tmp_path / "s.csv"
        improvements = tmp_path / "s_improvements.csv"
        args = ["sweep", "--synthetic", "nodes=60,clusters=3", "--sigmas", "300", "--out", str(out)]
        improvements.write_text("x,y\n")
        assert main(args) == 2
        assert not out.exists()
        assert improvements.read_text() == "x,y\n"
        improvements.unlink()
        out.write_text("x,y\n")
        assert main(args) == 2
        assert out.read_text() == "x,y\n"
        assert not improvements.exists()

    @pytest.mark.parametrize("algorithms", [("louvain", "louvain-sn", "snic"), ("louvain-sn",)])
    def test_rows_equal_separate_runs(self, algorithms):
        datasets = _sweep_datasets()
        rows, _, _ = run_sweep(datasets, SWEEP_SIGMAS, algorithms, (0, 1), "max", "haversine", 4)
        without_seconds = [",".join(r.split(",")[:6] + r.split(",")[7:]) for r in rows]
        assert without_seconds == _separate_run_rows(datasets, algorithms, (0, 1), 4)

    def test_snic_reuse_runs_louvain_sn_once(self, monkeypatch):
        real = louvain.run_louvain
        unconstrained = Counter()

        def counting(g, params=None, cfg=EngineConfig()):
            if params is not None and math.isinf(cfg.join_constraint_km):
                unconstrained[(id(g), params.sigma, cfg.seed)] += 1
            return real(g, params, cfg)

        monkeypatch.setattr(cli, "run_louvain", counting)
        monkeypatch.setattr(snic, "run_louvain", counting)
        datasets = _sweep_datasets()
        run_sweep(datasets, SWEEP_SIGMAS, ("louvain", "louvain-sn", "snic"), (0, 1),
                  "max", "haversine", 4)
        grid = {(id(g), sigma, seed) for _, g in datasets for sigma in SWEEP_SIGMAS for seed in (0, 1)}
        assert set(unconstrained) == grid
        assert set(unconstrained.values()) == {1}

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

    def test_trace_dir_that_is_a_file_touches_neither_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        improvements = tmp_path / "s_improvements.csv"
        notadir = tmp_path / "notadir"
        notadir.write_text("x\n")
        argv = ["sweep", "--synthetic", "nodes=60,clusters=3,p_intra=0.3,p_inter=0.02",
                "--sigmas", "300", "--max-iters", "2", "--out", str(out),
                "--trace-dir", str(notadir)]
        assert main(argv) == 2
        assert "File exists" in capsys.readouterr().err
        assert not out.exists() and not improvements.exists()
        out.write_text(SWEEP_HEADER + "\n")
        improvements.write_text(IMPROVEMENT_HEADER + "\n")
        assert main(argv) == 2
        assert out.read_text() == SWEEP_HEADER + "\n"
        assert improvements.read_text() == IMPROVEMENT_HEADER + "\n"
        assert notadir.read_text() == "x\n"

    def test_sweep_requires_some_input(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_sweep_refuses_files_with_synthetic(self, fixture_files, tmp_path):
        edges, coords = fixture_files
        out = tmp_path / "s.csv"
        for files in (["--edges", str(edges), "--coords", str(coords)], ["--edges", str(edges)]):
            rc = main(["sweep", *files, "--synthetic", "nodes=10,clusters=2",
                       "--sigmas", "300", "--max-iters", "2", "--out", str(out)])
            assert rc == 2
            assert not out.exists()

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


@pytest.mark.parametrize("labels", [(0, 0, 1, 1), (0, 1)])
def test_partition_length_is_checked_before_any_file_is_written(tmp_path, labels):
    g = triangle_graph()
    p = Partition(labels)
    calls = {
        "score_terms": lambda: score_terms(g, p, None),
        "aggregate_graph": lambda: aggregate_graph(g, p),
        "partition_max_span": lambda: partition_max_span(g, p),
        "LevelState": lambda: LevelState(g, None, assignment=labels),
        "write_partition_csv": lambda: write_partition_csv(tmp_path / "p.csv", g, p),
        "export_geojson": lambda: export_geojson(g, p, tmp_path / "g.geojson"),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"^partition covers {len(labels)} nodes, graph has 3$"):
            call()
    assert list(tmp_path.iterdir()) == []


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

    def test_sample_files_reload_to_the_sample_exactly(self, tmp_path):
        # the criterion-9 graph: its spread clusters give coordinates that a
        # 12-digit format would round
        g, _ = planted_geo_clusters(
            SyntheticSpec(n_nodes=200, n_clusters=4, p_intra=0.1, p_inter=0.01,
                          spacing_km=1000.0, spread_km=15.0, seed=3)
        )
        edges = tmp_path / "edges.tsv"
        edges.write_text("".join(
            f"{g.external_ids[u]}\t{g.external_ids[v]}\t{w!r}\n" for u, v, w in g.undirected_edges()
        ))
        coords = tmp_path / "coords.csv"
        coords.write_text("".join(
            f"{e},{node.lat!r},{node.lon!r}\n" for e, node in zip(g.external_ids, g.nodes)
        ))
        prefix = tmp_path / "sample"
        rc = main(["sample", "--edges", str(edges), "--coords", str(coords),
                   "--size", "50", "--seed", "1", "--out-prefix", str(prefix)])
        assert rc == 0
        want = snowball_sample(load_graph(edges, coords), SampleSpec(50, seed=1))
        assert load_graph(f"{prefix}_edges.tsv", f"{prefix}_coords.csv") == want

    def test_sample_with_an_isolated_node_is_refused(self, tmp_path, capsys):
        # at size 20 and seed 1 the snowball of the criterion-9 graph ends on
        # external node 33, none of whose neighbours is in the sample; an
        # edge file cannot carry it, so its files would reload to 19 nodes
        g, _ = planted_geo_clusters(
            SyntheticSpec(n_nodes=200, n_clusters=4, p_intra=0.1, p_inter=0.01,
                          spacing_km=1000.0, spread_km=15.0, seed=3)
        )
        edges = tmp_path / "edges.tsv"
        edges.write_text("".join(
            f"{g.external_ids[u]}\t{g.external_ids[v]}\t{w!r}\n" for u, v, w in g.undirected_edges()
        ))
        coords = tmp_path / "coords.csv"
        coords.write_text("".join(
            f"{e},{node.lat!r},{node.lon!r}\n" for e, node in zip(g.external_ids, g.nodes)
        ))
        prefix = tmp_path / "sample"
        rc = main(["sample", "--edges", str(edges), "--coords", str(coords),
                   "--size", "20", "--seed", "1", "--out-prefix", str(prefix)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("snmod: error: node 33 has no edges")
        assert not list(tmp_path.glob("sample_*"))


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


def test_detect_and_score_run_without_numpy(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text(BRIDGED_EDGE_TEXT)
    coords = tmp_path / "coords.csv"
    coords.write_text("0,0,0\n1,0.2,0.1\n2,0,0.9\n3,1,1\n4,1.5,1\n5,-1,2\n")
    run = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RUN, str(Path(__file__).resolve().parents[1] / "src"),
         str(edges), str(coords), str(tmp_path / "partition.csv")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0]", run.stdout + run.stderr
