"""Seeded input generators for the three benchmark workloads.

Every generator writes plain files (edge TSV, coordinate CSV or check-in
TSV, partition CSV) and uses only the standard library, so the program under
test receives nothing but the generated files.  The same seed always gives
byte-identical files.
"""

import math
import random
import time
from pathlib import Path

EARTH_RADIUS_KM = 6371.0
KM_PER_DEGREE = 2.0 * math.pi * EARTH_RADIUS_KM / 360.0

# -- ensemble-snic -------------------------------------------------------------

# The acceptance ensemble: 1000 nodes, 10 planted clusters, sites 2000 km
# apart on the equator, 20 km jitter, each node at a random site.
ENSEMBLE_NODES = 1000
ENSEMBLE_CLUSTERS = 10
ENSEMBLE_P_INTRA = 0.06
ENSEMBLE_P_INTER = 0.002
ENSEMBLE_SPACING_KM = 2000.0
ENSEMBLE_SPREAD_KM = 20.0


def ensemble_graph(graph_seed: int, edges_path: Path, coords_path: Path) -> None:
    """Write one scattered planted-cluster graph.

    Draws in the same order as the program's own planted-cluster generator,
    so graph seed s is acceptance-ensemble graph s.
    """
    rng = random.Random(graph_seed)
    n = ENSEMBLE_NODES
    k = ENSEMBLE_CLUSTERS
    spacing_deg = ENSEMBLE_SPACING_KM / KM_PER_DEGREE
    site_lons = [(c - (k - 1) / 2.0) * spacing_deg for c in range(k)]
    cluster_of = [v % k for v in range(n)]
    site_of = [rng.randrange(k) for _ in range(n)]
    jitter = ENSEMBLE_SPREAD_KM / KM_PER_DEGREE
    coords = []
    for v in range(n):
        lat = rng.gauss(0.0, jitter)
        lon = site_lons[site_of[v]] + rng.gauss(0.0, jitter)
        coords.append((max(-89.0, min(89.0, lat)), max(-179.9, min(180.0, lon))))
    rand = rng.random
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for u in range(n):
            cu = cluster_of[u]
            for v in range(u + 1, n):
                p = ENSEMBLE_P_INTRA if cluster_of[v] == cu else ENSEMBLE_P_INTER
                if rand() < p:
                    fh.write(f"{u}\t{v}\n")
    _write_coord_csv(coords_path, coords)


# -- checkin-louvain -------------------------------------------------------------

# Only the row format and the mean degree come from the public Brightkite
# data (SNAP loc-brightkite: 58,228 users, 214,078 friendships, 4,491,143
# check-ins).  Every other shape parameter below is an assumption, chosen so
# that ingestion and the NG move phase share the time; none is fitted to data.
CHECKIN_USERS = 10_000  # size of the workload, not of Brightkite
CHECKIN_ROWS = 400_000  # 40 per user; Brightkite has about 77
CHECKIN_METROS = 40  # assumption
CHECKIN_METRO_RANK_OFFSET = 3.0  # assumption: metro r has weight 1/(r + 3)
CHECKIN_MEAN_DEGREE = 7.5  # Brightkite: 2 * 214,078 / 58,228 = 7.35; about 7.1 after duplicates
CHECKIN_CIRCLE = 30  # assumption: friend circles inside a metro
CHECKIN_IN_CIRCLE = 0.5  # assumption: share of friendships inside the circle
CHECKIN_IN_METRO = 0.3  # assumption: share inside the metro, outside the circle
CHECKIN_TRAVEL = 0.1  # assumption: share of check-ins away from the home metro
CHECKIN_SPREAD_KM = 15.0  # assumption: spread of check-ins around a metro
CHECKIN_PARETO_ALPHA = 1.2  # assumption: tail of check-ins per user
CHECKIN_CAP_SHARE = 0.02  # assumption: no user holds more than 2% of the rows


def checkin_graph(seed: int, edges_path: Path, checkins_path: Path) -> None:
    """Write a metro-clustered friendship graph and a check-in log in Brightkite's format.

    Users live in one of CHECKIN_METROS metros (sizes skewed toward a few big
    ones) and sit in small friend circles; a friendship stays in the circle,
    the metro, or goes anywhere.  Each user has at least one check-in; the
    per-user counts are heavy-tailed and sum to exactly CHECKIN_ROWS.  Rows
    are ``user  ISO-time  lat  lon  place`` grouped by user, newest first, as
    in the public Brightkite dump.  The shape parameters above are assumptions,
    not fitted to that dump.
    """
    rng = random.Random(seed)
    n = CHECKIN_USERS
    metros = [
        (rng.uniform(-40.0, 60.0), rng.uniform(-180.0, 180.0)) for _ in range(CHECKIN_METROS)
    ]
    weights = [1.0 / (r + CHECKIN_METRO_RANK_OFFSET) for r in range(CHECKIN_METROS)]
    home = rng.choices(range(CHECKIN_METROS), weights=weights, k=n)
    by_metro: list[list[int]] = [[] for _ in range(CHECKIN_METROS)]
    for u, m in enumerate(home):
        by_metro[m].append(u)
    circle_of = [0] * n
    circles: list[list[int]] = []
    for members in by_metro:
        for start in range(0, len(members), CHECKIN_CIRCLE):
            group = members[start : start + CHECKIN_CIRCLE]
            for u in group:
                circle_of[u] = len(circles)
            circles.append(group)

    pairs = set()
    half_degree = CHECKIN_MEAN_DEGREE / 2.0
    for u in range(n):
        # geometric number of initiated friendships, mean half_degree
        d = 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - 1.0 / half_degree))
        for _ in range(d):
            r = rng.random()
            if r < CHECKIN_IN_CIRCLE:
                pool = circles[circle_of[u]]
            elif r < CHECKIN_IN_CIRCLE + CHECKIN_IN_METRO:
                pool = by_metro[home[u]]
            else:
                pool = None
            v = rng.randrange(n) if pool is None else pool[rng.randrange(len(pool))]
            if v != u:
                pairs.add((u, v) if u < v else (v, u))
    # every user gets a friend, so every user is a node of the graph
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    for u in range(n):
        if degree[u] == 0:
            pool = circles[circle_of[u]]
            v = pool[0] if pool[0] != u else pool[-1]
            if v == u:
                v = (u + 1) % n
            pairs.add((u, v) if u < v else (v, u))
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for u, v in sorted(pairs):
            fh.write(f"{u}\t{v}\n")

    counts = _heavy_tailed_counts(rng, n, CHECKIN_ROWS)
    spread = CHECKIN_SPREAD_KM / KM_PER_DEGREE
    t_end = 1_286_000_000  # 2010-10-02, near the end of the Brightkite log
    with open(checkins_path, "w", encoding="utf-8", newline="\n") as fh:
        for u in range(n):
            t = t_end - rng.randrange(86_400 * 30)
            for _ in range(counts[u]):
                m = home[u] if rng.random() >= CHECKIN_TRAVEL else rng.randrange(CHECKIN_METROS)
                lat = max(-89.0, min(89.0, metros[m][0] + rng.gauss(0.0, spread)))
                lon = metros[m][1] + rng.gauss(0.0, spread)
                lon = (lon + 180.0) % 360.0 - 180.0
                if lon == -180.0:
                    lon = 180.0
                fh.write(
                    f"{u}\t{_iso(t)}\t{lat:.6f}\t{lon:.6f}\t{rng.getrandbits(128):032x}\n"
                )
                t -= 60 + rng.randrange(86_400 * 3)


def _heavy_tailed_counts(rng: random.Random, n: int, total: int) -> list[int]:
    """n counts, each at least 1, Pareto-shaped, summing exactly to total."""
    raw = [rng.paretovariate(CHECKIN_PARETO_ALPHA) for _ in range(n)]
    cap = CHECKIN_CAP_SHARE * total
    raw = [min(r, cap) for r in raw]
    spare = total - n
    scale = spare / sum(raw)
    counts = [1 + int(r * scale) for r in raw]
    short = total - sum(counts)
    order = sorted(range(n), key=lambda u: -raw[u])
    for j in range(short):
        counts[order[j % n]] += 1
    return counts


def _iso(t: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


# -- cells-score -------------------------------------------------------------------

CELLS_NODES = 10_000
CELLS_LAT = (-60.0, 60.0)
CELLS_LON = (-180.0, 180.0)
CELLS_DLAT = 10.0
CELLS_DLON = 20.0
CELLS_EDGES_PER_NODE = 4
CELLS_LOCAL = 0.8  # share of edges inside the node's own grid cell


def _cell_of(lat: float, lon: float) -> int:
    """Grid cell index of a point inside the cells-score region."""
    cols = round((CELLS_LON[1] - CELLS_LON[0]) / CELLS_DLON)
    row = int((lat - CELLS_LAT[0]) // CELLS_DLAT)
    col = int((lon - CELLS_LON[0]) // CELLS_DLON)
    return row * cols + col


def cells_graph(seed: int, edges_path: Path, coords_path: Path, partition_path: Path) -> None:
    """Write a geo graph, its coordinate CSV, and a grid-cell partition.

    Nodes are uniform over a lat/lon box; edges mostly join nodes of the same
    grid cell.  The partition puts every node in its cell's community; it is
    built here, not by the program.
    """
    rng = random.Random(seed)
    n = CELLS_NODES
    coords = []
    for _ in range(n):
        lat = rng.uniform(*CELLS_LAT)
        lon = rng.uniform(*CELLS_LON)
        # keep inside the half-open box and the loader's (-180, 180] range
        lat = min(lat, math.nextafter(CELLS_LAT[1], 0.0))
        if lon <= -180.0:
            lon = math.nextafter(-180.0, 0.0)
        coords.append((lat, lon))
    cells = [_cell_of(lat, lon) for lat, lon in coords]
    members: dict[int, list[int]] = {}
    for u, c in enumerate(cells):
        members.setdefault(c, []).append(u)
    pairs = set()
    for u in range(n):
        for _ in range(CELLS_EDGES_PER_NODE):
            if rng.random() < CELLS_LOCAL:
                pool = members[cells[u]]
                v = pool[rng.randrange(len(pool))]
            else:
                v = rng.randrange(n)
            if v != u:
                pairs.add((u, v) if u < v else (v, u))
    nodes = sorted({u for pair in pairs for u in pair})
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for u, v in sorted(pairs):
            fh.write(f"{u}\t{v}\n")
    _write_coord_csv(coords_path, coords)
    labels = {}
    with open(partition_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,community\n")
        for u in nodes:
            label = labels.setdefault(cells[u], len(labels))
            fh.write(f"{u},{label}\n")


def _write_coord_csv(path: Path, coords) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,lat,lon\n")
        for u, (lat, lon) in enumerate(coords):
            fh.write(f"{u},{lat!r},{lon!r}\n")
