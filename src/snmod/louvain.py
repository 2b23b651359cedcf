"""Two-phase greedy modularity optimizer, generic over the objective.

The first phase repeatedly sweeps nodes, moving each into the neighboring
community (or a fresh singleton) with the largest objective gain; the second
phase collapses communities into meta-nodes, carrying accumulated edge
weights as self-loops and placing each meta-node at its community's center.
The phases alternate until a sweep moves nothing.

With the spatially-near objective each candidate community is first bounded
in O(1), in three tiers that each read more geometry: dispersion 0, then the
chord from the node to the cached community center, then the arc.  Only a
candidate whose every bound could still beat the best move found so far is
re-evaluated exactly, with an O(|c|) scan of the union's dispersion; its
center takes O(1), from the community's cached in-order vector sums plus
the node's vector.  No bound falls below the exact gain (triangle
inequality plus a rounding slack), so pruning never changes a decision.
Internal-weight and degree sums are cached incrementally; cached qualities
and exact spatially-near gains are built from
:func:`snmod.metrics.community_term`, the term the scores sum.
An optional join constraint, under the spatially-near objective only,
forbids a node from entering a community unless it is within a given
distance of every current member, which is what the iterated-constraint heuristic in
:mod:`snmod.snic` relies on; the same center distance accepts or rejects
most candidates in O(1) and leaves only the rest to a member scan.

Each community keeps two per-level move clocks.  ``stamp`` records the
last move that touched it at all.  ``opened`` records the last move that may
have raised a non-member's gain of joining it: every departure, and under
the spatially-near objective every arrival too, since an arrival moves the
centre.  Under plain modularity an arrival only raises the community's
degree sum, and the plain insertion gain cannot rise when that sum does:
every floating-point operation in it is monotone under round-to-nearest.
A node's decision reads only its own community, its neighbors' labels and
the neighboring communities' caches, so a node that stayed is skipped
outright while its own community is unstamped and no other community it
read has been opened since; under the spatially-near objective, a node
whose own community is unstamped also reuses its last removal gain.  Both
are exact: the skipped visit would have stayed again, and the visit order
and stopping rule are unchanged.
"""

import bisect
import math
import random
from dataclasses import dataclass

from .geograph import GeoGraph
from .geometry import EARTH_RADIUS_KM, _arc_km
from .metrics import Partition, SNParams, _community_sums, check_assignment, community_term

# Relative slack on each distance that the O(1) bounds read.  Every distance
# is mapped from a squared chord between stored vectors (see GeoKernel);
# differences of nearby stored vectors are exact, so rounding stays relative
# even for sub-millimetre communities, and the arc map adds at most a few
# 1e-8 near antipodal points.  A bound widened by this much still holds for
# the rounded values that the exact scans compare.
#
# On the sphere, tier 2 of the move phase reads R * sqrt(c2), the chord in
# km, in place of the arc 2R asin(sqrt(c2) / 2).  The exact chord is never
# longer than the exact arc, and the rounded one errs from it by the square
# root's and the product's roundings, about 2^-53 relative each, on top of
# the squared chord's own; so it exceeds the distance the exact scan sees by
# far less than this slack, and a bound built from it still holds.  Nor does
# it exceed the rounded arc: halving is exact and asin(h) >= h, so
# 2R asin(sqrt(c2) / 2) rounds to at least R * sqrt(c2).  Tier 2 thus prunes
# only candidates that tier 3 would prune too, up to the rounding of the
# bound's own arithmetic.
_BOUND_SLACK = 1e-6

# Whether the spatially-near move phase skips candidates by their O(1)
# bounds.  The bounds never change a decision, so a run without them (the
# full scan the pruned runs are tested against) differs only in its work.
_PRUNE = True

# A move is applied only when it gains more than this.
_MIN_GAIN = 1e-12

# Coarsening stops after this many levels.
_MAX_LEVELS = 50


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs; defaults reproduce the unconstrained optimizer.

    A finite ``join_constraint_km`` applies under the spatially-near
    objective only; the optimizer refuses it under plain modularity.  It
    holds against every member at node resolution on level 0 only: coarsened
    levels check it between meta-node centres, so a final community may span
    more than the constraint.  ``seed=None`` visits nodes in ascending order;
    an int derives one shuffled visit order per level from it, so runs are
    deterministic for a fixed config.
    """

    join_constraint_km: float = math.inf
    seed: int | None = None

    def __post_init__(self):
        if not self.join_constraint_km > 0:
            raise ValueError("join_constraint_km must be positive (inf = unbounded)")
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise ValueError(f"seed must be None or an integer, got {self.seed!r}")


class _Community:
    __slots__ = (
        "members", "sum_deg", "sum_in", "sums", "centroid", "dispersion", "radius", "quality",
        "stamp", "opened",
    )

    def __init__(self):
        self.members: list[int] = []
        self.sum_deg = 0.0
        self.sum_in = 0.0
        # the members' in-order vector sums, as GeoKernel._sums returns them
        self.sums = None
        # centre vector, as GeoKernel.stats returns it
        self.centroid = None
        self.dispersion = 0.0
        # sigma * sqrt(dispersion): no member is farther from the centroid
        self.radius = 0.0
        self.quality = 0.0
        # move clock of the last move that touched this community
        self.stamp = 0
        # move clock of the last move that may have raised a non-member's
        # gain of joining: a departure, or under SN an arrival; <= stamp
        self.opened = 0


class LevelState:
    """Mutable move-phase state over one (possibly coarsened) graph.

    Holds the node -> community assignment (singletons by default) plus
    per-community caches.  A state is built for one objective, plain
    modularity when ``params`` is None, and is single-threaded; the graph is
    never mutated.  ``clock`` counts the moves applied; each move stamps its
    source and target community with the new count and opens its source,
    and under the spatially-near objective its target too.
    """

    def __init__(self, graph: GeoGraph, params: SNParams | None, assignment=None, visit_order=None):
        self.graph = graph
        self.params = params
        n = graph.num_nodes
        self.two_m = graph.two_m
        self.self_w = [0.0] * n
        for i in range(n):
            for j, w in graph.adj[i]:
                if j == i:
                    self.self_w[i] = w
        # each node's quality as a singleton, read by every SN gain
        two_m = self.two_m
        self.q_single = None if params is None else [
            community_term(self.self_w[i], k, 0.0, two_m) if two_m else 0.0
            for i, k in enumerate(graph.degrees)
        ]
        self.kernel = graph.kernel("haversine" if params is None else params.metric)
        self.comm = list(range(n)) if assignment is None else [int(c) for c in assignment]
        check_assignment(graph, self.comm)
        self.visit_order = list(range(n)) if visit_order is None else list(visit_order)
        self.clock = 0
        self.communities: dict[int, _Community] = {}
        for i, c in enumerate(self.comm):
            entry = self.communities.setdefault(c, _Community())
            entry.members.append(i)
        self.next_label = max(self.communities, default=-1) + 1
        for c in self.communities.values():
            c.members.sort()
            c.sum_in, c.sum_deg = _community_sums(graph, c.members)
            self._refresh_geo(c)

    def extract_partition(self) -> Partition:
        return Partition.from_assignment(self.comm)

    # -- internals ---------------------------------------------------------

    def _refresh_geo(self, c: _Community) -> None:
        params = self.params
        if params is None or self.two_m == 0:
            return
        c.sums = self.kernel._sums(c.members)
        c.centroid, c.dispersion = self.kernel.stats(
            c.members, params.sigma, params.agg, sums=c.sums
        )
        c.radius = params.sigma * math.sqrt(c.dispersion)
        c.quality = community_term(c.sum_in, c.sum_deg, c.dispersion, self.two_m)

    def _insertion_gain(self, i: int, c: _Community, kiin: float) -> float:
        """Change in the objective from inserting isolated node i into community c."""
        two_m = self.two_m
        k = self.graph.degrees[i]
        params = self.params
        if params is None or (
            # zero dispersion before and after: the spatially-near gain
            # reduces algebraically to the plain form; computing it that way
            # keeps the two objectives bit-identical on co-located nodes
            c.dispersion == 0.0
            and self.kernel.vecs[i] == c.centroid
        ):
            return (2.0 * kiin - 2.0 * k * c.sum_deg / two_m) / two_m
        _, disp = self.kernel.stats(c.members, params.sigma, params.agg, plus=i, sums=c.sums)
        q_union = community_term(
            c.sum_in + 2.0 * kiin + self.self_w[i], c.sum_deg + k, disp, two_m
        )
        return q_union - c.quality - self.q_single[i]

    def _removal_back_gain(self, i: int, old: _Community, kiin_old: float) -> float:
        """Gain of re-inserting i into its own community after removal."""
        if len(old.members) == 1:
            return 0.0
        two_m = self.two_m
        k = self.graph.degrees[i]
        params = self.params
        # dispersion exactly zero means the whole community is co-located,
        # so removal keeps it zero and the plain form applies unchanged
        if params is None or old.dispersion == 0.0:
            return (2.0 * kiin_old - 2.0 * k * (old.sum_deg - k) / two_m) / two_m
        reduced = [m for m in old.members if m != i]
        _, disp = self.kernel.stats(reduced, params.sigma, params.agg)
        q_reduced = community_term(
            old.sum_in - 2.0 * kiin_old - self.self_w[i], old.sum_deg - k, disp, two_m
        )
        return old.quality - q_reduced - self.q_single[i]

    def _neighbor_weights(self, i: int) -> dict[int, float]:
        kiin: dict[int, float] = {}
        comm = self.comm
        for j, w in self.graph.adj[i]:
            if j != i:
                c = comm[j]
                # weights are positive, so starting at w adds what 0.0 + w would
                if c in kiin:
                    kiin[c] += w
                else:
                    kiin[c] = w
        return kiin

    def _apply_move(self, i: int, old_label: int, new_label: int | None, kiin) -> int:
        """Move i out of old_label into new_label (None = fresh singleton)."""
        old = self.communities[old_label]
        k = self.graph.degrees[i]
        self.clock += 1
        clock = self.clock
        old.stamp = old.opened = clock
        old.members.remove(i)
        old.sum_deg -= k
        old.sum_in -= 2.0 * kiin.get(old_label, 0.0) + self.self_w[i]
        if not old.members:
            del self.communities[old_label]
        else:
            self._refresh_geo(old)
        if new_label is None:
            new_label = self.next_label
            self.next_label += 1
            target = self.communities.setdefault(new_label, _Community())
        else:
            target = self.communities[new_label]
        target.stamp = clock
        if self.params is not None:
            target.opened = clock
        bisect.insort(target.members, i)
        target.sum_deg += k
        target.sum_in += 2.0 * kiin.get(new_label, 0.0) + self.self_w[i]
        self.comm[i] = new_label
        self._refresh_geo(target)
        return new_label


def move_gain(state: LevelState, i: int, target_community: int) -> float:
    """Exact objective delta of moving node i into an existing community.

    Measured, under the state's objective, as removal from i's current
    community followed by insertion into the target; the state is not
    modified.
    """
    if target_community not in state.communities:
        raise ValueError(f"unknown community label {target_community}")
    old_label = state.comm[i]
    if old_label == target_community:
        raise ValueError("node already belongs to the target community")
    if state.two_m == 0:
        return 0.0
    kiin = state._neighbor_weights(i)
    back = state._removal_back_gain(i, state.communities[old_label], kiin.get(old_label, 0.0))
    ins = state._insertion_gain(
        i, state.communities[target_community], kiin.get(target_community, 0.0)
    )
    return ins - back


def _join_verdict(d: float, radius: float, limit: float) -> bool | None:
    """Decide the join constraint in O(1) when the centroid distance allows.

    Every member lies within ``radius`` of the centroid, which is ``d`` from
    the node, so every member is within d + radius of the node and farther
    than d - radius.  Returns True when all members are within ``limit``,
    False when all are beyond it, and None when only a member scan can tell.
    """
    slack = _BOUND_SLACK * (d + radius + limit)
    if d + radius + slack <= limit:
        return True
    if d - radius - slack > limit:
        return False
    return None


def _unchanged(communities: dict[int, _Community], own: int, labels, clock: int) -> bool:
    """True when no move has stamped community ``own`` after move clock
    ``clock``, and every labelled community still exists and no move has
    opened it since."""
    if communities[own].stamp > clock:
        return False
    for label in labels:
        c = communities.get(label)
        if c is None or c.opened > clock:
            return False
    return True


def local_move_pass(state: LevelState, cfg: EngineConfig = EngineConfig()):
    """Sweep nodes until a full sweep moves nothing; returns (moved, state).

    Each node is tested, under the objective the state was built for,
    against every distinct neighboring community and a fresh singleton; the
    best strictly-improving move (gain > ``_MIN_GAIN``) is applied,
    preferring to stay on ties and the smallest community label otherwise.
    With a finite join constraint, a community is a candidate only when the
    node is within the constraint of all current members; a finite one under
    plain modularity raises ValueError.  One candidate loop serves both
    objectives, and exact spatially-near gains are differences of
    :func:`snmod.metrics.community_term`, the term the scores sum.

    Under the spatially-near objective each candidate is bound, then
    verified.  Every member lies within the candidate's radius of its
    centroid, which is some distance d from the node, so whatever center
    the union gets, the triangle inequality puts the node or some member at
    least (d - radius) / 2 from it.  That bounds the union's dispersion from
    below and its term from above; a bound repeats the exact gain's
    floating-point operations with the smaller dispersion, and rounding is
    monotone, so the exact gain never exceeds it.  The bounds share the
    union's modularity numerator, computed once per candidate, and a
    smaller d only loosens them, so they come in three tiers:

    1. dispersion 0, reading no geometry; a non-positive numerator ends
       here, since no dispersion raises it above 0;
    2. the dispersion implied by the chord from the node to the
       candidate's centroid, ``R * sqrt(c2)`` on the sphere; on the plane
       the chord is the distance, so this tier is the last;
    3. on the sphere, the dispersion implied by the arc.

    A candidate whose bound cannot beat the best gain so far is skipped at
    the first tier that shows it, without its join check or its O(|c|)
    dispersion scan.  The tiers run in that order because each is at least
    as tight as the one before and dearer to compute.  A candidate co-located
    with a community of zero dispersion is never bounded, as its exact gain
    is O(1).  The join constraint of the rest is mostly decided in O(1)
    (:func:`_join_verdict`), reusing the last tier's distance.  Exact
    insertion scans take the union's center from the community's cached
    vector sums (see :meth:`snmod.geometry.GeoKernel.stats`).  Candidates
    are still visited in label order, so a skipped one could never have
    been chosen and the moves are exactly those of a full scan.

    A node that decides to stay records the move clock, the neighboring
    labels it read and its removal gain.  Its next visit is skipped while
    its own community is unstamped since that clock and every neighboring
    community still exists unopened since (:func:`_unchanged`).  A neighbor
    that moves opens the community it leaves, and labels are never reused,
    so the node's community weights and its removal gain are those it read.
    A neighboring community may only have gained members, and then only
    under plain modularity, where that raises its degree sum ``S_c`` alone.
    The insertion gain ``(2 k_i,c - 2 k_i S_c / 2m) / 2m`` then cannot
    rise: each rounded operation is monotone and ``fl(S_c + k) >= S_c``, so
    every decision value stays at or below ``_MIN_GAIN`` and the skipped
    visit would have stayed again.  Under plain modularity a visit that runs
    takes both gains in their O(1) plain form, with the floating-point
    operations of :meth:`LevelState._insertion_gain` and
    :meth:`LevelState._removal_back_gain`; under the spatially-near
    objective it reuses the recorded removal gain while its own community
    is unstamped.  Under either objective the moves are those of visiting
    every node.
    """
    limit = cfg.join_constraint_km
    constrained = math.isfinite(limit)
    sn = state.params is not None
    if constrained and not sn:
        raise ValueError("a finite join_constraint_km needs the spatially-near objective")
    two_m = state.two_m
    if two_m == 0:
        return 0, state
    communities = state.communities
    comm = state.comm
    degrees = state.graph.degrees
    kernel = state.kernel
    prune = sn and _PRUNE
    if prune:
        vecs = kernel.vecs
        self_w = state.self_w
        q_single = state.q_single
        sigma = state.params.sigma
        sphere = kernel.metric == "haversine"
        # tier 2's distance per unit of chord: R on the sphere, 1 on the plane
        chord_scale = EARTH_RADIUS_KM if sphere else 1.0
        keep = 1.0 - _BOUND_SLACK
    # per node: (clock, neighboring labels read, removal gain) of its last
    # stay, else None; its own community is the one it is still in
    stays: list[tuple | None] = [None] * state.graph.num_nodes
    total_moved = 0
    while True:
        moved = 0
        for i in state.visit_order:
            seen = stays[i]
            old_label = comm[i]
            if seen is not None and _unchanged(communities, old_label, seen[1], seen[0]):
                continue
            old = communities[old_label]
            kiin = state._neighbor_weights(i)
            k = degrees[i]
            if not sn:
                # _removal_back_gain's plain form, O(1)
                k2 = 2.0 * k
                if len(old.members) == 1:
                    back = 0.0
                else:
                    back = (2.0 * kiin.get(old_label, 0.0) - k2 * (old.sum_deg - k) / two_m) / two_m
            elif seen is not None and _unchanged(communities, old_label, (), seen[0]):
                back = seen[2]
            else:
                back = state._removal_back_gain(i, old, kiin.get(old_label, 0.0))
            if prune:
                vec = vecs[i]
                x, y, z = vec
                grow = self_w[i]
                qs = q_single[i]
            best_label: int | None = old_label
            best_gain = 0.0
            for label in sorted(kiin):
                if label == old_label:
                    continue
                cand = communities[label]
                if not sn:
                    # _insertion_gain's plain form
                    gain = (2.0 * kiin[label] - k2 * cand.sum_deg / two_m) / two_m - back
                else:
                    d = None  # distance from i to cand's centre, once a tier takes it
                    # the co-located shortcut is exact in O(1) already
                    if prune and not (cand.dispersion == 0.0 and vec == cand.centroid):
                        sum_deg = cand.sum_deg + k
                        num = cand.sum_in + 2.0 * kiin[label] + grow - sum_deg * sum_deg / two_m
                        base = cand.quality
                        # tier 1, dispersion 0; a non-positive numerator stays
                        # non-positive at any dispersion, so its bound ends here
                        if (num / two_m if num > 0.0 else 0.0) - base - qs - back <= best_gain:
                            continue
                        if num > 0.0:
                            radius = cand.radius
                            cx, cy, cz = cand.centroid
                            dx = x - cx
                            dy = y - cy
                            dz = z - cz
                            c2 = dx * dx + dy * dy + dz * dz
                            # tier 2, the chord: the distance itself on the plane
                            d = math.sqrt(c2) * chord_scale
                            reach = 0.5 * (d - radius) - _BOUND_SLACK * (d + radius)
                            if reach > 0.0:
                                scaled = reach / sigma
                                q = num / (1.0 + scaled * scaled * keep) / two_m
                                if q - base - qs - back <= best_gain:
                                    continue
                            if sphere:
                                # tier 3, the arc
                                d = _arc_km(c2)
                                reach = 0.5 * (d - radius) - _BOUND_SLACK * (d + radius)
                                if reach > 0.0:
                                    scaled = reach / sigma
                                    q = num / (1.0 + scaled * scaled * keep) / two_m
                                    if q - base - qs - back <= best_gain:
                                        continue
                    if constrained:
                        if d is None:
                            d = kernel.distance(i, cand.centroid)
                        ok = _join_verdict(d, cand.radius, limit)
                        if ok is None:
                            ok = kernel.within_limit(cand.members, i, limit)
                        if not ok:
                            continue
                    gain = state._insertion_gain(i, cand, kiin[label]) - back
                if gain > best_gain:
                    best_gain = gain
                    best_label = label
            fresh_gain = -back
            if fresh_gain > best_gain:
                best_gain = fresh_gain
                best_label = None
            if best_label != old_label and best_gain > _MIN_GAIN:
                state._apply_move(i, old_label, best_label, kiin)
                stays[i] = None
                moved += 1
            else:
                stays[i] = (state.clock, tuple(kiin), back)
        total_moved += moved
        if moved == 0:
            return total_moved, state


def aggregate_graph(g: GeoGraph, p: Partition, metric: str = "haversine") -> GeoGraph:
    """Collapse each community into a meta-node; returns the coarsened graph.

    Meta-node ``c`` stands for community ``c`` of ``p``.  Meta-edge weights
    sum the weights between the two communities; each meta-node carries a
    self-loop equal to its community's ordered-pair internal weight, so total
    weight is conserved.  Meta-nodes sit at their community's center.
    """
    check_assignment(g, p.assignment)
    kernel = g.kernel(metric)
    labels = p.assignment
    # each pair's weight is added on its lower label's row, in node order
    upper: list[dict[int, float]] = [{} for _ in range(p.num_communities)]
    for i, row in enumerate(g.adj):
        ci = labels[i]
        acc = upper[ci]
        for j, w in row:
            cj = labels[j]
            if ci <= cj:
                # a loop gets the ordered-pair internal total: each internal
                # edge lands twice (once per endpoint row), existing loops once
                acc[cj] = acc.get(cj, 0.0) + w
    rows = [list(acc.items()) for acc in upper]
    for c, acc in enumerate(upper):
        for d, w in acc.items():
            if d != c:
                rows[d].append((c, w))
    for row in rows:
        row.sort()
    centres = [kernel.centroid(members) for members in p.communities]
    return GeoGraph(range(p.num_communities), centres, rows)


def run_louvain(
    g: GeoGraph, params: SNParams | None = None, cfg: EngineConfig = EngineConfig()
) -> Partition:
    """Run the full two-phase optimizer; returns a partition of g's nodes.

    Starts from the singleton partition; ``params=None`` maximizes plain
    modularity.  Scores reported by callers should be recomputed on the
    original graph; at coarsened levels the spatially-near gain sees
    meta-node locations only.
    """
    node_to_meta = list(range(g.num_nodes))
    level_graph = g
    for level in range(_MAX_LEVELS):
        order = list(range(level_graph.num_nodes))
        if cfg.seed is not None:
            # one deterministic order per (seed, level)
            random.Random(cfg.seed * 1_000_003 + level).shuffle(order)
        state = LevelState(level_graph, params, visit_order=order)
        moved, _ = local_move_pass(state, cfg)
        if moved == 0:
            break
        p_level = state.extract_partition()
        node_to_meta = [p_level.assignment[c] for c in node_to_meta]
        if p_level.num_communities == level_graph.num_nodes:
            break
        level_graph = aggregate_graph(level_graph, p_level, metric=state.kernel.metric)
    return Partition.from_assignment(node_to_meta)
