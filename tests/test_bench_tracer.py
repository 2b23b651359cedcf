"""The benchmark's tracer rebinds snmod functions and methods by name, so a
rename in snmod would otherwise break only traced benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import BRIDGED_EDGES

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
from pathlib import Path
root, edges, coords, out = sys.argv[1:5]
sys.path.insert(0, str(Path(root) / "perfbench"))
import worker
snmod = worker.import_snmod(Path(root))
tracer = worker.install_tracer(snmod)
from snmod import cli
io = ["--edges", edges, "--coords", coords, "--sigma", "50"]
rcs = [
    cli.main(["detect", "--algo", "snic", "--out", out, *io]),
    cli.main(["score", "--partition", out, *io]),
]
print(json.dumps({"rcs": rcs, "calls": {k: v["calls"] for k, v in tracer.summary().items()}}))
"""


def test_install_tracer_finds_every_name_it_rebinds(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"{u}\t{v}\n" for u, v in BRIDGED_EDGES))
    coords = tmp_path / "coords.csv"
    coords.write_text("0,0,0\n1,0.2,0.1\n2,0,0.9\n3,1,1\n4,1.5,1\n5,-1,2\n")
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT), str(edges), str(coords),
         str(tmp_path / "partition.csv")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0]
    for name in ("cli.command", "cli.partition_io", "cli.run_algorithm",
                 "geograph.load_graph", "snic.run_snic", "snic.span",
                 "louvain.run_louvain", "louvain.level_init", "louvain.move",
                 "geometry.stats", "metrics.score"):
        assert result["calls"][name] > 0, name


def test_traced_counts_are_recorded(tmp_path):
    """The counts the tracer reads from arguments and results stay positive.

    ``geometry.stats`` counts insertion scans (``stats`` called with
    ``plus``, read by keyword or at ``args[4]``) and ``louvain.move`` counts
    moves (``local_move_pass(...)[0]``); a signature change in snmod would
    zero them without any error.
    """
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"{u}\t{v}\n" for u, v in BRIDGED_EDGES))
    coords = tmp_path / "coords.csv"
    coords.write_text("0,0,0\n1,0.2,0.1\n2,0,0.9\n3,1,1\n4,1.5,1\n5,-1,2\n")
    script = TRACED_RUN + (
        'print(json.dumps({k: v["value"] for k, v in tracer.summary().items()}))\n'
    )
    run = subprocess.run(
        [sys.executable, "-c", script, str(ROOT), str(edges), str(coords),
         str(tmp_path / "partition.csv")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    values = json.loads(run.stdout.splitlines()[-1])
    calls = json.loads(run.stdout.splitlines()[-2])["calls"]
    assert 0 < values["geometry.stats"] < calls["geometry.stats"]
    assert values["louvain.move"] > 0
