"""Two-phase greedy modularity optimizer, generic over the objective.

The first phase repeatedly sweeps nodes, moving each into the neighboring
community (or a fresh singleton) with the largest objective gain; the second
phase collapses communities into meta-nodes, carrying accumulated edge
weights as self-loops and placing each meta-node at its community's center.
The phases alternate until a sweep moves nothing.

With the spatially-near objective the gain of a candidate move re-evaluates
the affected communities' centers and dispersions exactly, in O(|c|) per
candidate; internal-weight and degree sums are cached incrementally.  An
optional join constraint forbids a node from entering a community unless it
is within a given distance of every current member, which is what the
iterated-constraint driver in :mod:`snmod.snic` relies on.
"""

import bisect
import math
import random
from dataclasses import dataclass

import numpy as np

from .geograph import GeoGraph, assemble_graph
from .geometry import metric_centroid
from .metrics import Partition, SNParams, ng_modularity, sn_modularity


@dataclass(frozen=True)
class Objective:
    """What the engine maximizes: plain modularity or the spatially-near form."""

    kind: str
    params: SNParams | None = None

    def __post_init__(self):
        if self.kind not in ("ng", "sn"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "sn" and self.params is None:
            raise ValueError("spatially-near objective requires SNParams")
        if self.kind == "ng" and self.params is not None:
            raise ValueError("plain modularity takes no SNParams")

    @classmethod
    def ng(cls) -> "Objective":
        return cls("ng")

    @classmethod
    def sn(cls, params: SNParams) -> "Objective":
        return cls("sn", params)


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs; defaults reproduce the unconstrained optimizer.

    ``node_order='shuffle'`` derives one visit order per level from ``seed``,
    so runs are deterministic for a fixed config.
    """

    join_constraint_km: float = math.inf
    min_gain: float = 1e-12
    node_order: str = "ascending"
    seed: int = 0
    max_levels: int = 50

    def __post_init__(self):
        if self.min_gain < 0:
            raise ValueError("min_gain must be >= 0")
        if not self.join_constraint_km > 0:
            raise ValueError("join_constraint_km must be positive (inf = unbounded)")
        if self.node_order not in ("ascending", "shuffle"):
            raise ValueError(f"unknown node_order {self.node_order!r}")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")


@dataclass(frozen=True)
class MetaGraph:
    """A coarsened graph plus, per meta-node, the original node ids it covers."""

    graph: GeoGraph
    provenance: tuple[frozenset[int], ...]


def objective_value(g: GeoGraph, p: Partition, obj: Objective) -> float:
    """Evaluate a partition under the given objective."""
    if obj.kind == "ng":
        return ng_modularity(g, p)
    return sn_modularity(g, p, obj.params)


class _Community:
    __slots__ = ("members", "rows", "sum_deg", "sum_in", "centroid", "dispersion", "quality")

    def __init__(self):
        self.members: list[int] = []
        self.rows: np.ndarray | None = None
        self.sum_deg = 0.0
        self.sum_in = 0.0
        self.centroid = None
        self.dispersion = 0.0
        self.quality = 0.0


class LevelState:
    """Mutable move-phase state over one (possibly coarsened) graph.

    Holds the node -> community assignment plus per-community caches.  A
    state is built for one objective and is single-threaded; the underlying
    graph is never mutated.
    """

    def __init__(self, graph: GeoGraph, obj: Objective, assignment, visit_order=None):
        self.graph = graph
        self.objective = obj
        n = graph.num_nodes
        self.two_m = graph.two_m
        self.self_w = [0.0] * n
        for i in range(n):
            for j, w in graph.adj[i]:
                if j == i:
                    self.self_w[i] = w
        metric = obj.params.metric if obj.kind == "sn" else "haversine"
        self.kernel = graph.kernel(metric)
        self.comm = [int(c) for c in assignment]
        if len(self.comm) != n:
            raise ValueError("assignment length does not match the graph")
        self.visit_order = list(range(n)) if visit_order is None else list(visit_order)
        self.communities: dict[int, _Community] = {}
        for i, c in enumerate(self.comm):
            entry = self.communities.setdefault(c, _Community())
            entry.members.append(i)
        self.next_label = max(self.communities, default=-1) + 1
        for c in self.communities.values():
            c.members.sort()
            c.sum_deg = sum(graph.degrees[i] for i in c.members)
            member_set = set(c.members)
            c.sum_in = sum(
                w for i in c.members for j, w in graph.adj[i] if j in member_set
            )
            self._refresh_geo(c)

    @classmethod
    def from_singletons(cls, graph, obj, visit_order=None) -> "LevelState":
        return cls(graph, obj, range(graph.num_nodes), visit_order)

    @classmethod
    def from_partition(cls, graph, partition: Partition, obj, visit_order=None) -> "LevelState":
        return cls(graph, obj, partition.assignment, visit_order)

    def extract_partition(self) -> Partition:
        return Partition.from_assignment(self.comm)

    def objective_value(self) -> float:
        """Working objective recomputed from the community caches."""
        if self.two_m == 0:
            return 0.0
        total = 0.0
        for c in self.communities.values():
            num = c.sum_in - c.sum_deg * c.sum_deg / self.two_m
            if self.objective.kind == "sn":
                num /= 1.0 + c.dispersion
            total += num
        return total / self.two_m

    # -- internals ---------------------------------------------------------

    def _refresh_geo(self, c: _Community) -> None:
        c.rows = self.kernel.member_rows(c.members)
        if self.objective.kind != "sn" or self.two_m == 0:
            return
        params = self.objective.params
        c.centroid, c.dispersion = self.kernel.stats(
            c.members, params.sigma, params.agg, rows=c.rows
        )
        c.quality = (
            (c.sum_in - c.sum_deg * c.sum_deg / self.two_m)
            / (1.0 + c.dispersion)
            / self.two_m
        )

    def _q_single(self, i: int) -> float:
        k = self.graph.degrees[i]
        return (self.self_w[i] - k * k / self.two_m) / self.two_m

    def _insertion_gain(self, i: int, c: _Community | None, kiin: float) -> float:
        """Objective delta of inserting isolated node i into community c."""
        if c is None or not c.members:
            return 0.0
        two_m = self.two_m
        k = self.graph.degrees[i]
        if self.objective.kind == "ng" or (
            # zero dispersion before and after: the spatially-near gain
            # reduces algebraically to the plain form; computing it that way
            # keeps the two objectives bit-identical on co-located nodes
            c.dispersion == 0.0
            and self.graph.point(i) == c.centroid
        ):
            return (2.0 * kiin - 2.0 * k * c.sum_deg / two_m) / two_m
        params = self.objective.params
        _, disp = self.kernel.stats(c.members, params.sigma, params.agg, plus=i, rows=c.rows)
        sum_in = c.sum_in + 2.0 * kiin + self.self_w[i]
        sum_deg = c.sum_deg + k
        q_union = (sum_in - sum_deg * sum_deg / two_m) / (1.0 + disp) / two_m
        return q_union - c.quality - self._q_single(i)

    def _removal_back_gain(self, i: int, old: _Community, kiin_old: float) -> float:
        """Gain of re-inserting i into its own community after removal."""
        if len(old.members) == 1:
            return 0.0
        two_m = self.two_m
        k = self.graph.degrees[i]
        # dispersion exactly zero means the whole community is co-located,
        # so removal keeps it zero and the plain form applies unchanged
        if self.objective.kind == "ng" or old.dispersion == 0.0:
            return (2.0 * kiin_old - 2.0 * k * (old.sum_deg - k) / two_m) / two_m
        params = self.objective.params
        reduced = [m for m in old.members if m != i]
        _, disp = self.kernel.stats(reduced, params.sigma, params.agg)
        sum_in = old.sum_in - 2.0 * kiin_old - self.self_w[i]
        sum_deg = old.sum_deg - k
        q_reduced = (sum_in - sum_deg * sum_deg / two_m) / (1.0 + disp) / two_m
        return old.quality - q_reduced - self._q_single(i)

    def _neighbor_weights(self, i: int) -> dict[int, float]:
        kiin: dict[int, float] = {}
        comm = self.comm
        for j, w in self.graph.adj[i]:
            if j != i:
                c = comm[j]
                kiin[c] = kiin.get(c, 0.0) + w
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


def move_gain(state: LevelState, i: int, target_community: int, obj: Objective) -> float:
    """Exact objective delta of moving node i into an existing community.

    Measured as removal from i's current community followed by insertion
    into the target; the state is not modified.
    """
    if obj != state.objective:
        raise ValueError("objective does not match the one the state was built for")
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


def local_move_pass(state: LevelState, obj: Objective, cfg: EngineConfig = EngineConfig()):
    """Sweep nodes until a full sweep moves nothing; returns (moved, state).

    Each node is tested against every distinct neighboring community and a
    fresh singleton; the best strictly-improving move (gain > min_gain) is
    applied, preferring to stay on ties and the smallest community label
    otherwise.  With a finite join constraint, a community is a candidate
    only when the node is within the constraint of all current members.
    """
    if obj != state.objective:
        raise ValueError("objective does not match the one the state was built for")
    if state.two_m == 0:
        return 0, state
    limit = cfg.join_constraint_km
    total_moved = 0
    while True:
        moved = 0
        for i in state.visit_order:
            old_label = state.comm[i]
            old = state.communities[old_label]
            point_i = state.graph.point(i)
            kiin = state._neighbor_weights(i)
            back = state._removal_back_gain(i, old, kiin.get(old_label, 0.0))
            best_label: int | None = old_label
            best_gain = 0.0
            for label in sorted(kiin):
                if label == old_label:
                    continue
                cand = state.communities[label]
                if math.isfinite(limit) and not state.kernel.within_limit(
                    cand.members, point_i, limit, rows=cand.rows
                ):
                    continue
                gain = state._insertion_gain(i, cand, kiin[label]) - back
                if gain > best_gain:
                    best_gain = gain
                    best_label = label
            fresh_gain = -back
            if fresh_gain > best_gain:
                best_gain = fresh_gain
                best_label = None
            if best_label != old_label and best_gain > cfg.min_gain:
                state._apply_move(i, old_label, best_label, kiin)
                moved += 1
        total_moved += moved
        if moved == 0:
            return total_moved, state


def aggregate_graph(
    g: GeoGraph,
    p: Partition,
    metric: str = "haversine",
    provenance: tuple[frozenset[int], ...] | None = None,
) -> MetaGraph:
    """Collapse each community into a meta-node.

    Meta-edge weights sum the weights between the two communities; each
    meta-node carries a self-loop equal to its community's ordered-pair
    internal weight, so total weight is conserved.  Meta-nodes sit at their
    community's center.  ``provenance`` maps current nodes to original ids
    (defaults to singletons) and is composed through the coarsening.
    """
    if len(p.assignment) != g.num_nodes:
        raise ValueError("partition does not match the graph")
    if provenance is None:
        provenance = tuple(frozenset({i}) for i in range(g.num_nodes))
    centroid_of = metric_centroid(metric)
    labels = p.assignment
    pair_weights: dict[tuple[int, int], float] = {}
    for i in range(g.num_nodes):
        ci = labels[i]
        for j, w in g.adj[i]:
            cj = labels[j]
            if ci < cj:
                pair_weights[(ci, cj)] = pair_weights.get((ci, cj), 0.0) + w
            elif ci == cj:
                # ordered-pair internal total: each undirected edge lands here
                # twice (once per endpoint row), existing loops once
                pair_weights[(ci, ci)] = pair_weights.get((ci, ci), 0.0) + w
    coords = {}
    meta_prov = []
    for c, members in enumerate(p.communities):
        center = centroid_of([g.point(i) for i in members])
        coords[c] = (center.lat, center.lon)
        meta_prov.append(frozenset().union(*(provenance[i] for i in members)))
    meta = assemble_graph(
        range(p.num_communities), coords, pair_weights, allow_self_loops=True
    )
    return MetaGraph(meta, tuple(meta_prov))


def _visit_order(n: int, cfg: EngineConfig, level: int) -> list[int]:
    order = list(range(n))
    if cfg.node_order == "shuffle":
        # one deterministic order per (seed, level)
        random.Random(cfg.seed * 1_000_003 + level).shuffle(order)
    return order


def run_louvain(g: GeoGraph, obj: Objective, cfg: EngineConfig = EngineConfig()) -> Partition:
    """Run the full two-phase optimizer; returns a partition of g's nodes.

    Starts from the singleton partition.  Scores reported by callers should
    be recomputed on the original graph (see :func:`objective_value`); at
    coarsened levels the spatially-near gain sees meta-node locations only.
    """
    n = g.num_nodes
    node_to_meta = list(range(n))
    level_graph = g
    provenance = tuple(frozenset({i}) for i in range(n))
    metric = obj.params.metric if obj.kind == "sn" else "haversine"
    for level in range(cfg.max_levels):
        order = _visit_order(level_graph.num_nodes, cfg, level)
        state = LevelState.from_singletons(level_graph, obj, visit_order=order)
        moved, _ = local_move_pass(state, obj, cfg)
        if moved == 0:
            break
        p_level = state.extract_partition()
        node_to_meta = [p_level.assignment[c] for c in node_to_meta]
        if p_level.num_communities == level_graph.num_nodes:
            break
        meta = aggregate_graph(level_graph, p_level, metric=metric, provenance=provenance)
        level_graph = meta.graph
        provenance = meta.provenance
    return Partition.from_assignment(node_to_meta)
