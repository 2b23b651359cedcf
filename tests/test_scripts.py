import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from snmod.geograph import load_graph
from snmod.sampler import SampleSpec, snowball_sample
from snmod.synth import SyntheticSpec, planted_geo_clusters

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _run_script(name, *args, cwd):
    """Run a script on this checkout's sources; returns its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_brightkite_samples_reload_to_their_samples(tmp_path):
    # a 6-node ring with chords, every node of degree 3 or more, and
    # weights and mean check-in coordinates that short formats would round
    ring = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)]
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{u}\t{v}\t{0.1 * (u + v + 1)!r}\n" for u, v in ring))
    checkins = tmp_path / "checkins.txt"
    checkins.write_text("".join(
        f"{u}\t2009-0{k + 1}-01T00:00:00Z\t{10.0 + u / 7 + k / 3}\t{20.0 - u / 9 + k / 11}\tp{k}\n"
        for u in range(6)
        for k in range(3)
    ))
    out_dir = tmp_path / "samples"
    subprocess.run(
        [sys.executable, str(SCRIPTS / "brightkite_samples.py"), "--edges", str(edges),
         "--checkins", str(checkins), "--out-dir", str(out_dir), "--samples", "2", "--size", "4"],
        check=True, capture_output=True,
    )
    full = load_graph(edges, checkins, missing_policy="drop")
    for seed in range(2):
        sample = load_graph(
            out_dir / f"sample{seed:02d}_edges.tsv", out_dir / f"sample{seed:02d}_coords.csv"
        )
        assert sample.num_nodes == 4
        assert sample == snowball_sample(full, SampleSpec(4, seed=seed))


def test_brightkite_samples_skip_a_sample_that_cannot_reload(tmp_path):
    # the criterion-9 graph as check-ins: at size 20 the seed-1 snowball ends
    # on external node 33, which has no edge inside the sample
    g, _ = planted_geo_clusters(
        SyntheticSpec(n_nodes=200, n_clusters=4, p_intra=0.1, p_inter=0.01,
                      spacing_km=1000.0, spread_km=15.0, seed=3)
    )
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(
        f"{g.external_ids[u]}\t{g.external_ids[v]}\t{w!r}\n" for u, v, w in g.undirected_edges()
    ))
    checkins = tmp_path / "checkins.txt"
    checkins.write_text("".join(
        f"{e}\t2009-01-01T00:00:00Z\t{node.lat!r}\t{node.lon!r}\tp\n"
        for e, node in zip(g.external_ids, g.nodes)
    ))
    out_dir = tmp_path / "samples"
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "brightkite_samples.py"), "--edges", str(edges),
         "--checkins", str(checkins), "--out-dir", str(out_dir), "--samples", "3", "--size", "20"],
        capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert "sample 1: skipped (node 33 has no edges" in run.stdout
    assert "Traceback" not in run.stderr
    assert not list(out_dir.glob("sample01_*"))
    full = load_graph(edges, checkins, missing_policy="drop")
    for seed in (0, 2):
        sample = load_graph(
            out_dir / f"sample{seed:02d}_edges.tsv", out_dir / f"sample{seed:02d}_coords.csv"
        )
        assert sample == snowball_sample(full, SampleSpec(20, seed=seed))


def test_partition_digest_smoke(tmp_path):
    lines = _run_script(
        "partition_digest.py", "--ensemble-graphs", "0", "--random-graphs", "1", cwd=tmp_path
    )
    assert lines[0] == f"snmod {ROOT / 'src' / 'snmod'}"
    # one random graph x 2 settings x 2 aggs, as louvain-sn and as SNIC
    group_line = r"(\S+)\s+runs=\s*(\d+) cpu_s=\d+\.\d\d"
    groups = [re.fullmatch(group_line, line).groups() for line in lines[1:3]]
    assert groups == [("random-sn", "4"), ("random-snic", "4")]
    # pinned: a change to any partition or trace bit changes it
    assert lines[-1] == "digest c5219b95c0ae8612665d5e03c1fa354d7a53789e3213f5a50e19a5355972145a"
    assert len(lines) == 4


def test_runtime_scaling_smoke(tmp_path):
    out = tmp_path / "times.csv"
    lines = _run_script(
        "runtime_scaling.py", "--sizes", "100,200", "--reps", "1", "--max-iters", "2",
        "--out", str(out), cwd=tmp_path,
    )
    sizes = [re.fullmatch(r"n=\s*(\d+)  seconds=\d+\.\d{3}", line)[1] for line in lines[:2]]
    assert sizes == ["100", "200"]
    assert lines[2].startswith("linear fit: ") and len(lines) == 3
    rows = out.read_text().splitlines()
    assert rows[0] == "n,seconds"
    assert [row.split(",")[0] for row in rows[1:]] == ["100", "200"]


def test_load_digest_smoke(tmp_path):
    def run(edges, coords, *policy):
        """The script's lines after the package line; checks their format."""
        lines = _run_script("load_digest.py", str(edges), str(coords), *policy, cwd=tmp_path)
        assert lines[0] == f"snmod {ROOT / 'src' / 'snmod'}"
        assert re.fullmatch(r"digest [0-9a-f]{64}", lines[2])
        assert re.fullmatch(r"load_cpu_s \d+\.\d{3}", lines[3])
        assert re.fullmatch(r"traced_peak_mb \S+ retained_mb \S+ ratio \S+", lines[4])
        assert float(re.fullmatch(r"ru_maxrss_mb (\d+\.\d)", lines[5])[1]) > 0
        assert len(lines) == 6
        return lines[1:]

    edges = tmp_path / "edges.tsv"
    edges.write_text("0\t1\n1\t2\t2.5\n")
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text(
        "0\t2010-01-02T00:00:00Z\t1.5\t2.5\n0\t2010-01-01T00:00:00Z\t1.0\t-0.0\n"
        "1\t2010-01-01T00:00:00Z\t3.5\t4.5\n2\t2010-01-01T00:00:00Z\t5.5\t6.5\n"
    )
    # node 0's latest check-in as plain CSV: the same graph under 'last'
    csv = tmp_path / "coords.csv"
    csv.write_text("node,lat,lon\n0,1.5,2.5\n1,3.5,4.5\n2,5.5,6.5\n")

    def digest(coords, *policy):
        lines = run(edges, coords, *policy)
        assert lines[0] == "nodes 3 edges 2"
        return lines[1]

    last = digest(checkins, "--policy", "last")
    assert digest(csv) == last
    assert digest(checkins) == digest(checkins, "--policy", "mean") != last

    ring = tmp_path / "ring.tsv"
    ring.write_text("".join(f"{u}\t{(u + 1) % 500}\n" for u in range(500)))
    ring_checkins = tmp_path / "ring_checkins.tsv"
    ring_checkins.write_text("".join(f"{u}\t2010-01-0{k + 1}T00:00:00Z\t{u % 80}.5\t{k}.25\n"
                                     for u in range(500) for k in range(3)))
    for policy in ("mean", "last"):
        lines = run(ring, ring_checkins, "--policy", policy)
        assert lines[0] == "nodes 500 edges 500"
        peak, retained, ratio = map(float, re.fullmatch(
            r"traced_peak_mb (\S+) retained_mb (\S+) ratio (\S+)", lines[3]).groups())
        assert 0 < retained <= peak and ratio >= 1.0


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_fixed_lists():
    bench = _load_script("bench_pairs.py")
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 4.0]
    s = bench.compare(base, change)
    assert s["wins"] == 4  # pair 1 got slower
    assert s["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert s["change"] == {"median": 2.5, "q1": 2.0, "q3": 3.0, "iqr": 1.0}
    assert s["median_gap"] == 0.5 and s["relative_gap"] == 0.5 / 3.0
    assert s["beyond_base_iqr"] is False
    # a clear gain: every pair lower, medians apart by more than the base's quartiles
    s = bench.compare([0.50, 0.52, 0.55, 0.53], [0.40, 0.41, 0.39, 0.42])
    assert s["wins"] == 4 and s["beyond_base_iqr"] is True
    assert s["base"]["q1"] == pytest.approx(0.515) and s["base"]["q3"] == pytest.approx(0.535)
    ties = bench.compare([1.0, 1.0], [1.0, 1.0])
    assert ties["wins"] == 0 and ties["median_gap"] == 0.0
    for bad in (([1.0], [1.0]), ([1.0, 2.0], [1.0])):
        with pytest.raises(ValueError):
            bench.compare(*bad)

    def result(solve, rss, modularity, correct=True, failed=0):
        metrics = {"solve_s": solve, "peak_rss_mb": rss, "modularity": modularity}
        return {"correct": correct, "failed": failed,
                "metrics": {name: {"value": v} for name, v in metrics.items()}}

    runs = [
        {"base": result(b, r, 0.25), "change": result(c, r + 1.0, q, ok, f)}
        for b, c, r, q, ok, f in zip(base, change, [20.0, 21.0, 22.0, 23.0, 24.0],
                                     [0.25, 0.25, 0.125, 0.25, 0.25],
                                     [True, True, True, False, True], [0, 0, 0, 3, 1])
    ]
    s = bench.summarise(runs)
    assert s["pairs"] == 5 and s["modularity_equal"] == 4
    assert s["correct"] == {"base": 5, "change": 4} and s["failed"] == {"base": 0, "change": 4}
    assert set(s["metrics"]) == {"solve_s", "peak_rss_mb"}
    assert s["metrics"]["solve_s"] == bench.compare(base, change)
    assert s["metrics"]["peak_rss_mb"]["wins"] == 0
    assert s["metrics"]["peak_rss_mb"]["median_gap"] == -1.0
    # the benchmark's verdict: every end-to-end metric, by its own direction
    # and bound; 1 MB over a 22 MB median is within peak_rss_mb's 5%
    end_to_end = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(s["verdict"]) == {"solve_s", "peak_rss_mb", "modularity"}
    for name, v in s["verdict"].items():
        assert (v["better"], v["bound"]) == (end_to_end[name]["better"], end_to_end[name]["bound"])
        assert v["regressed"] is False
    assert s["verdict"]["solve_s"]["worse_by"] == -0.5 / 3.0
    assert s["verdict"]["peak_rss_mb"]["worse_by"] == 1.0 / 22.0
    assert s["verdict"]["modularity"]["worse_by"] == 0.0
    # past the bound either way: slower, or less modular
    assert bench.verdict([1.0, 1.0, 1.0], [1.5, 1.0, 1.5], "lower", 0.25)["regressed"] is True
    assert bench.verdict([1.0, 1.0, 1.0], [1.2, 1.0, 1.2], "lower", 0.25)["regressed"] is False
    assert bench.verdict([0.25, 0.25], [0.2, 0.2], "higher", 0.10)["regressed"] is True
    assert bench.verdict([0.25, 0.25], [0.3, 0.3], "higher", 0.10)["worse_by"] < 0.0
    assert bench.verdict([0.0, 0.0], [0.5, 0.5], "lower", 0.25) == {
        "better": "lower", "bound": 0.25, "worse_by": None, "regressed": True,
    }


def test_code_lines_columns_add_up(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nx = 1  # trailing\n\n\n'
        'def f():\n    """One line."""\n    return [\n        # inside a list\n        x,\n    ]\n'
    )
    (tmp_path / "a_module_name_over_16_chars.py").write_text("y = 2\n")
    lines = _run_script("code_lines.py", str(tmp_path), cwd=tmp_path)
    assert lines[0].split() == ["module", "lines", "code", "docstring", "comment", "blank"]
    assert lines[1].split() == ["a.py", "13", "5", "3", "2", "3"]
    assert lines[2].split() == ["a_module_name_over_16_chars.py", "1", "1", "0", "0", "0"]
    assert lines[3].split() == ["total", "14", "6", "3", "2", "3"]
    # every count ends where its header ends, whatever the names' lengths
    ends = [m.end() for m in re.finditer(r"\S+", lines[0])][1:]
    for line in lines[1:]:
        assert [m.end() for m in re.finditer(r"\S+", line)][1:] == ends
    # the package itself: one row per module, then their sums
    rows = [row.split() for row in _run_script("code_lines.py", cwd=tmp_path)[1:]]
    assert "louvain.py" in [row[0] for row in rows] and rows[-1][0] == "total"
    assert [sum(int(row[k]) for row in rows[:-1]) for k in range(1, 6)] == list(map(int, rows[-1][1:]))


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert len(expected) == 4
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want
