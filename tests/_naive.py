"""Independent brute-force re-implementations used as test oracles.

Everything here is written directly from the defining formulas, shares no
code with the package (``naive_load``, ``naive_induced_subgraph`` and
``naive_aggregate`` only build their results as a ``GeoGraph``), and is
deliberately O(n^2): modularity as a literal double sum over ordered node
pairs, dispersion from a freshly recomputed center, spans as exhaustive
pair scans.
"""

import math

RADIUS_KM = 6371.0


def naive_haversine(a, b):
    """Great-circle distance by Vincenty's atan2 formula for the sphere.

    It is well conditioned at every separation.  The haversine formula,
    2R asin(sqrt(h)), is not near antipodal points, where h nears 1: there
    it errs by about 1e-9 km at 0.1 degree from the antipode.
    """
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlon = lon2 - lon1
    y = math.hypot(
        math.cos(lat2) * math.sin(dlon),
        math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon),
    )
    x = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(dlon)
    return RADIUS_KM * math.atan2(y, x)


def naive_planar(a, b):
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)


def naive_center(points, metric="haversine"):
    """Mean location of a point list.

    Points whose vectors are all equal are centred on the first point.  On
    the plane, a point's vector is its (lat, lon), and the centre is their
    mean, added in order.  On the sphere, the unit vectors are summed in
    order and the sum is normalized; the longitude is read from the raw
    sums, and a set whose mean vector is shorter than 1e-9 (e.g. an
    antipodal pair) is centred on its first point.
    """
    if metric == "planar":
        vecs = [(float(lat), float(lon)) for lat, lon in points]
    else:
        vecs = []
        for lat, lon in points:
            phi, lam = math.radians(lat), math.radians(lon)
            vecs.append((math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)))
    if all(v == vecs[0] for v in vecs):
        return points[0]
    if metric == "planar":
        x = y = 0.0
        for vx, vy in vecs:
            x += vx
            y += vy
        return (x / len(points), y / len(points))
    x = y = z = 0.0
    for vx, vy, vz in vecs:
        x += vx
        y += vy
        z += vz
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-9 * len(points):
        return points[0]
    return (
        math.degrees(math.asin(max(-1.0, min(1.0, z / norm)))),
        math.degrees(math.atan2(y, x)),
    )


def naive_load(edge_text, coord_text, coord_policy="mean", missing_policy="drop"):
    """Load valid edge and coordinate texts the way the row-holding loader did.

    Every line is held; the coordinate rows are grouped per node, then each
    node takes the ``naive_center`` of its rows (``'mean'``) or its row
    greatest by (timestamp, position) (``'last'``; plain CSV rows have an
    empty timestamp).  No input checks: the texts must be valid, and under
    ``missing_policy='error'`` every edge endpoint must have coordinates.

    Returns the graph and the weighted degrees, each row's weights added
    left to right here, apart from the graph's own degrees.
    """
    from snmod.geograph import GeoGraph
    from snmod.geometry import GeoPoint

    def significant(text):
        return [line for line in text.splitlines() if line.strip() and not line.strip().startswith("#")]

    weights = {}
    for line in significant(edge_text):
        parts = line.strip().split("\t")
        u, v = int(parts[0]), int(parts[1])
        key = (min(u, v), max(u, v))
        weights[key] = weights.get(key, 0.0) + (float(parts[2]) if len(parts) == 3 else 1.0)

    rows = significant(coord_text)
    checkins = bool(rows) and "\t" in rows[0]
    per_node = {}
    for pos, line in enumerate(rows):
        if checkins:
            f = line.split("\t")
            node, ts, lat, lon = int(f[0]), f[1].strip(), float(f[2]), float(f[3])
        else:
            f = line.split(",")
            try:
                node, ts, lat, lon = int(f[0]), "", float(f[1]), float(f[2])
            except ValueError:
                if pos == 0:
                    continue  # header
                raise
        if lon == -180.0:
            lon = 180.0
        per_node.setdefault(node, []).append(((ts, pos), (lat, lon)))
    coords = {}
    for node, entries in per_node.items():
        if coord_policy == "mean":
            coords[node] = naive_center([p for _, p in entries])
        else:
            coords[node] = max(entries, key=lambda e: e[0])[1]

    nodes = sorted({e for pair in weights for e in pair})
    if missing_policy == "drop":
        nodes = [e for e in nodes if e in coords]
        weights = {(u, v): w for (u, v), w in weights.items() if u in coords and v in coords}
    index = {e: i for i, e in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for (u, v), w in weights.items():
        adj[index[u]].append((index[v], w))
        adj[index[v]].append((index[u], w))
    adj = [sorted(row) for row in adj]
    degrees = []
    for row in adj:
        k = 0.0
        for _, w in row:
            k += w
        degrees.append(k)
    # node longitudes lie in (-180, 180]: a mean that lands on -180 reads 180
    points = [GeoPoint(float(coords[e][0]), 180.0 if coords[e][1] == -180.0 else float(coords[e][1]))
              for e in nodes]
    return GeoGraph(nodes, points, adj), tuple(degrees)


def naive_induced_subgraph(g, keep):
    """The node-induced subgraph built through a dict of external-id pairs.

    The kept nodes are ordered by external id.  Every undirected edge of
    ``g`` (u <= v, self-loops included) between two kept nodes is stored
    under its (low, high) external ids; the rows are then rebuilt from that
    dict and sorted.
    """
    from snmod.geograph import GeoGraph

    keep_set = set(keep)
    kept = sorted(keep_set, key=lambda i: g.external_ids[i])
    ext = [g.external_ids[i] for i in kept]
    pairs = {}
    for u, row in enumerate(g.adj):
        for v, w in row:
            if u <= v and u in keep_set and v in keep_set:
                eu, ev = g.external_ids[u], g.external_ids[v]
                pairs[(min(eu, ev), max(eu, ev))] = w
    index = {e: i for i, e in enumerate(ext)}
    rows = [[] for _ in ext]
    for (eu, ev), w in pairs.items():
        rows[index[eu]].append((index[ev], w))
        if eu != ev:
            rows[index[ev]].append((index[eu], w))
    return GeoGraph(ext, [g.nodes[i] for i in kept], [sorted(row) for row in rows])


def naive_snowball_sample(g, target_size, seed):
    """Snowball sample that rebuilds its candidate list after every expansion.

    Each expansion draws ``candidates[randrange(len(candidates))]`` from the
    ascending list of nodes not yet included, then adds that node and its
    neighbours in ascending internal id until ``target_size`` nodes are in.
    O(|V|) per expansion; the result is built by ``naive_induced_subgraph``.
    """
    import random

    n = g.num_nodes
    if target_size >= n:
        return naive_induced_subgraph(g, range(n))
    rng = random.Random(seed)
    included = [False] * n
    count = 0
    candidates = list(range(n))
    while count < target_size:
        seed_node = candidates[rng.randrange(len(candidates))]
        batch = [seed_node]
        batch.extend(sorted(j for j, _ in g.adj[seed_node] if j != seed_node))
        for v in batch:
            if not included[v]:
                included[v] = True
                count += 1
                if count == target_size:
                    break
        candidates = [v for v in candidates if not included[v]]
    return naive_induced_subgraph(g, (i for i in range(n) if included[i]))


def naive_aggregate(g, p, metric="haversine"):
    """The coarsened graph built through a dict of community-label pairs.

    Rows are visited in node order and each row in its own order; an entry
    (i, j, w) whose labels a = label(i) <= b = label(j) adds w to the dict
    entry (a, b), started at 0.0.  So a community's loop gets each internal
    edge twice and each existing loop once.  The rows are rebuilt from the
    dict and sorted, and meta-node ``c`` sits at the ``naive_center`` of
    community ``c``'s points in node order.
    """
    from snmod.geograph import GeoGraph

    labels = p.assignment
    k = max(labels, default=-1) + 1
    pairs = {}
    for i, row in enumerate(g.adj):
        for j, w in row:
            a, b = labels[i], labels[j]
            if a <= b:
                pairs[(a, b)] = pairs.get((a, b), 0.0) + w
    rows = [[] for _ in range(k)]
    for (a, b), w in pairs.items():
        rows[a].append((b, w))
        if a != b:
            rows[b].append((a, w))
    centres = [
        naive_center([g.nodes[i] for i in range(g.num_nodes) if labels[i] == c], metric)
        for c in range(k)
    ]
    return GeoGraph(range(k), centres, [sorted(row) for row in rows])


def _weight_lookup(g):
    w = {}
    for i, row in enumerate(g.adj):
        for j, wt in row:
            w[(i, j)] = wt
    return w


def naive_ng(g, p):
    """Literal ordered-pair double sum of the modularity definition."""
    if g.two_m == 0:
        return 0.0
    w = _weight_lookup(g)
    two_m = g.two_m
    total = 0.0
    for members in p.communities:
        for i in members:
            for j in members:
                total += w.get((i, j), 0.0) - g.degrees[i] * g.degrees[j] / two_m
    return total / two_m


def naive_dispersion(g, members, params):
    pts = [(g.nodes[i].lat, g.nodes[i].lon) for i in members]
    center = naive_center(pts, params.metric)
    dist = naive_planar if params.metric == "planar" else naive_haversine
    terms = [(dist(p, center) / params.sigma) ** 2 for p in pts]
    return max(terms) if params.agg == "max" else sum(terms)


def naive_sn(g, p, params):
    """Literal per-community quality sum of the spatially-near definition."""
    if g.two_m == 0:
        return 0.0
    w = _weight_lookup(g)
    two_m = g.two_m
    total = 0.0
    for members in p.communities:
        num = 0.0
        for i in members:
            for j in members:
                num += w.get((i, j), 0.0) - g.degrees[i] * g.degrees[j] / two_m
        total += num / (1.0 + naive_dispersion(g, members, params))
    return total / two_m


def naive_span(points, metric="haversine"):
    dist = naive_planar if metric == "planar" else naive_haversine
    best = 0.0
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = max(best, dist(pts[i], pts[j]))
    return best


def naive_chord_span(points, metric="haversine"):
    """Largest pairwise distance by the chord route, from an all-pairs scan.

    Each point becomes a 3-D vector (the unit vector on the sphere,
    ``(x, y, 0)`` on the plane) and every pair's squared chord c2 is
    formed.  On the plane the span is the square root of the largest c2.
    On the sphere, when some pair is past a quarter circle (c2 > 2), the
    span is ``πR - 2R asin(|a + b| / 2)`` from the smallest squared sum
    |a + b|² among those pairs; otherwise it is ``2R asin(chord / 2)`` of
    the largest c2.  It rounds as the package's kernel does, so it must
    agree to the bit, where ``naive_span`` agrees only within rounding.
    """
    vecs = []
    for lat, lon in points:
        if metric == "planar":
            vecs.append((float(lat), float(lon), 0.0))
        else:
            phi, lam = math.radians(lat), math.radians(lon)
            vecs.append((math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)))
    chords = []
    far_sums = []
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            c2 = sum((a - b) * (a - b) for a, b in zip(vecs[i], vecs[j]))
            chords.append(c2)
            if c2 > 2.0:
                far_sums.append(sum((a + b) * (a + b) for a, b in zip(vecs[i], vecs[j])))
    best = max(chords, default=0.0)
    if metric == "planar":
        return math.sqrt(best)
    if far_sums:
        return math.pi * RADIUS_KM - 2.0 * RADIUS_KM * math.asin(math.sqrt(min(far_sums)) * 0.5)
    return 2.0 * RADIUS_KM * math.asin(min(1.0, math.sqrt(best) * 0.5))
