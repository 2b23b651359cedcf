"""Two-phase greedy modularity optimizer, generic over the objective.

The first phase visits nodes from a queue, moving each into the neighboring
community (or a fresh singleton) with the largest objective gain; the second
phase collapses communities into meta-nodes, carrying accumulated edge
weights as self-loops and placing each meta-node at its community's center.
The phases alternate until a level moves nothing.

Internal-weight and degree sums are cached incrementally; a community's
centre, dispersion and quality are recomputed from its members after each
move.  Cached qualities and exact spatially-near gains are built from
:func:`snmod.metrics.community_term`, the term the scores sum.  The move
phase prunes candidates by O(1) bounds, which never changes a decision (see
:func:`local_move_pass`).  The optional join constraint of
:class:`EngineConfig` is what the iterated-constraint heuristic in
:mod:`snmod.snic` relies on.
"""

import bisect
import math
import random
from collections import deque
from dataclasses import dataclass

from .geograph import GeoGraph
from .geometry import EARTH_RADIUS_KM
from .metrics import Partition, SNParams, _community_sums, check_assignment, community_term

# Relative slack on each distance that the O(1) bounds of local_move_pass
# read.  Every distance is mapped from a squared chord between stored vectors
# (see GeoKernel); differences of nearby stored vectors are exact, so rounding
# stays relative even for sub-millimetre communities, and the arc map adds at
# most a few 1e-8 near antipodal points.  A bound may read the chord in km,
# R * sqrt(c2), in place of the arc 2R asin(sqrt(c2) / 2): the exact chord is
# never longer than the exact arc, and the rounded one errs from it by two more
# roundings of about 2^-53 relative each; nor does it exceed the rounded arc,
# since halving is exact and asin(h) >= h.  A bound widened by this much
# therefore still holds for the rounded values that the exact scans compare.
_BOUND_SLACK = 1e-6

# False scans every candidate with no bound: the full scan that tests
# compare pruned runs against.
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
    more than the constraint.  ``seed=None`` queues each level's nodes in
    ascending order; an int derives one shuffled initial queue order per level
    from it, so runs are deterministic for a fixed config.
    """

    join_constraint_km: float = math.inf
    seed: int | None = None

    def __post_init__(self):
        if not self.join_constraint_km > 0:
            raise ValueError("join_constraint_km must be positive (inf = unbounded)")
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise ValueError(f"seed must be None or an integer, got {self.seed!r}")


class _Community:
    __slots__ = ("members", "sum_deg", "sum_in", "centroid", "dispersion", "radius", "quality")

    def __init__(self):
        self.members: list[int] = []
        self.sum_deg = 0.0
        self.sum_in = 0.0
        # centre vector, as GeoKernel.stats returns it
        self.centroid = None
        self.dispersion = 0.0
        # sigma * sqrt(dispersion): no member is farther from the centroid
        self.radius = 0.0
        self.quality = 0.0


class LevelState:
    """Mutable move-phase state over one (possibly coarsened) graph.

    Holds the node -> community assignment (singletons by default) plus
    per-community caches.  A state is built for one objective, plain
    modularity when ``params`` is None, and is single-threaded; the graph is
    never mutated.
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
        c.centroid, c.dispersion = self.kernel.stats(c.members, params.sigma, params.agg)
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
        _, disp = self.kernel.stats(c.members, params.sigma, params.agg, plus=i)
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


def local_move_pass(state: LevelState, cfg: EngineConfig = EngineConfig()):
    """Visit queued nodes until the queue is empty; returns (moved, state).

    The queue starts as ``state.visit_order``.  Each node taken from it is
    tested, under the objective the state was built for, against every
    distinct neighboring community and a fresh singleton; the best
    strictly-improving move (gain > ``_MIN_GAIN``) is applied, preferring to
    stay on ties and the smallest community label otherwise.  With a finite
    join constraint, a community is a candidate only when the node is within
    the constraint of all current members; a finite one under plain
    modularity raises ValueError.

    When a node moves, each neighbor that is neither queued nor in the
    node's new community joins the back of the queue, in adjacency order:
    the fast local move of Traag, Waltman & van Eck (From Louvain to Leiden,
    2019).  A move also changes gains that it queues no node for, such as
    those of members of the communities it leaves and enters, so a node may
    be left with an improving move when the queue empties.

    Under the spatially-near objective each candidate is bound, then
    verified.  Every member lies within the candidate's radius of its
    centroid, which is some distance d from the node, so whatever center
    the union gets, the triangle inequality puts the node or some member at
    least (d - radius) / 2 from it.  That bounds the union's dispersion from
    below and its term from above; a bound repeats the exact gain's
    floating-point operations with the smaller dispersion, and rounding is
    monotone, so the exact gain never exceeds it (``_BOUND_SLACK`` covers
    the distances' own rounding).  The bounds share the union's modularity
    numerator, computed once per candidate, and a smaller d only loosens
    them, so they come in two tiers:

    1. dispersion 0, reading no geometry; a non-positive numerator ends
       here, since no dispersion raises it above 0;
    2. the dispersion implied by the chord from the node to the
       candidate's centroid: ``R * sqrt(c2)`` on the sphere, never longer
       than the arc, and the distance itself on the plane.

    A candidate whose bound cannot beat the best gain so far is skipped at
    the first tier that shows it, without its join check or its O(|c|)
    dispersion scan.  A candidate co-located with a community of zero
    dispersion is never bounded, as its exact gain is O(1).  The join
    constraint of the rest is mostly decided in O(1) from the node's
    distance to the centroid (:func:`_join_verdict`).  Candidates are still
    visited in label order, so a skipped one could never have been chosen
    and the moves are exactly those of a full scan.
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
        # tier 2's distance per unit of chord: R on the sphere, 1 on the plane
        chord_scale = EARTH_RADIUS_KM if kernel.metric == "haversine" else 1.0
        keep = 1.0 - _BOUND_SLACK
    queue = deque(state.visit_order)
    queued = [False] * state.graph.num_nodes
    for i in queue:
        queued[i] = True
    adj = state.graph.adj
    moved = 0
    while queue:
        i = queue.popleft()
        queued[i] = False
        old_label = comm[i]
        old = communities[old_label]
        kiin = state._neighbor_weights(i)
        k = degrees[i]
        if not sn:
            # both plain gains inline, with the floating-point operations of
            # the plain branches of _removal_back_gain and _insertion_gain;
            # test_identical_coordinates_make_sn_equal_ng keeps the two
            # copies bit-equal
            k2 = 2.0 * k
            if len(old.members) == 1:
                back = 0.0
            else:
                back = (2.0 * kiin.get(old_label, 0.0) - k2 * (old.sum_deg - k) / two_m) / two_m
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
                gain = (2.0 * kiin[label] - k2 * cand.sum_deg / two_m) / two_m - back
            else:
                # the co-located shortcut is exact in O(1) already
                if prune and not (cand.dispersion == 0.0 and vec == cand.centroid):
                    sum_deg = cand.sum_deg + k
                    num = cand.sum_in + 2.0 * kiin[label] + grow - sum_deg * sum_deg / two_m
                    base = cand.quality
                    # tier 1
                    if (num / two_m if num > 0.0 else 0.0) - base - qs - back <= best_gain:
                        continue
                    if num > 0.0:
                        radius = cand.radius
                        cx, cy, cz = cand.centroid
                        dx = x - cx
                        dy = y - cy
                        dz = z - cz
                        c2 = dx * dx + dy * dy + dz * dz
                        # tier 2
                        d = math.sqrt(c2) * chord_scale
                        reach = 0.5 * (d - radius) - _BOUND_SLACK * (d + radius)
                        if reach > 0.0:
                            scaled = reach / sigma
                            q = num / (1.0 + scaled * scaled * keep) / two_m
                            if q - base - qs - back <= best_gain:
                                continue
                if constrained:
                    ok = _join_verdict(kernel.distance(i, cand.centroid), cand.radius, limit)
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
            new_label = state._apply_move(i, old_label, best_label, kiin)
            moved += 1
            for j, _ in adj[i]:
                if not queued[j] and comm[j] != new_label:
                    queued[j] = True
                    queue.append(j)
    return moved, state


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
        moved = local_move_pass(state, cfg)[0]
        if moved == 0:
            break
        p_level = state.extract_partition()
        metric = state.kernel.metric
        del state  # free the finished level before the next one is built
        node_to_meta = [p_level.assignment[c] for c in node_to_meta]
        if p_level.num_communities == level_graph.num_nodes:
            break
        level_graph = aggregate_graph(level_graph, p_level, metric=metric)
    return Partition.from_assignment(node_to_meta)
