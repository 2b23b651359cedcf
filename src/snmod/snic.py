"""Spatially Near Iterative Constraining: repeated constrained optimizer runs.

The first iteration runs the spatially-near optimizer unconstrained; each
following iteration constrains joins to the previous partition's maximum
intra-community span.  The loop stops when the constraint would reach zero,
fails to strictly decrease, or the iteration cap is hit, and the best-scoring
partition seen anywhere in the trace is returned.
"""

import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

from .geograph import GeoGraph
from .louvain import EngineConfig, Objective, run_louvain
from .metrics import Partition, SNParams, sn_modularity


@dataclass(frozen=True)
class SnicConfig:
    params: SNParams
    max_iters: int = 100
    engine: EngineConfig = EngineConfig()

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class SnicIteration:
    """One iteration record; constraint_km is inf on the first iteration."""

    iteration: int
    constraint_km: float
    sn_modularity: float
    span_km: float
    seconds: float


@dataclass(frozen=True)
class SnicTrace:
    entries: tuple[SnicIteration, ...]

    def best_index(self) -> int:
        """Index of the first entry attaining the maximum score."""
        best = 0
        for i, e in enumerate(self.entries):
            if e.sn_modularity > self.entries[best].sn_modularity:
                best = i
        return best

    def best_sn_modularity(self) -> float:
        return self.entries[self.best_index()].sn_modularity

    def csv_rows(self):
        yield "iteration,constraint_km,sn_modularity,span_km,seconds"
        for e in self.entries:
            yield (
                f"{e.iteration},{e.constraint_km:.12g},{e.sn_modularity:.12g},"
                f"{e.span_km:.12g},{e.seconds:.6f}"
            )


class SnicRun(NamedTuple):
    partition: Partition
    trace: SnicTrace


def partition_max_span(g: GeoGraph, p: Partition, metric: str = "haversine") -> float:
    """Largest pairwise member distance over all communities, at node resolution."""
    if len(p.assignment) != g.num_nodes:
        raise ValueError("partition does not match the graph")
    kernel = g.kernel(metric)
    best = 0.0
    for members in p.communities:
        span = kernel.span(members)
        if span > best:
            best = span
    return best


def run_snic(g: GeoGraph, cfg: SnicConfig) -> SnicRun:
    """Run the iterated-constraint heuristic; returns (best partition, trace)."""
    obj = Objective.sn(cfg.params)
    constraint = math.inf
    entries: list[SnicIteration] = []
    best_partition: Partition | None = None
    best_score = -math.inf
    for iteration in range(1, cfg.max_iters + 1):
        engine = replace(cfg.engine, join_constraint_km=constraint)
        started = time.perf_counter()
        partition = run_louvain(g, obj, engine)
        seconds = time.perf_counter() - started
        score = sn_modularity(g, partition, cfg.params)
        span = partition_max_span(g, partition, cfg.params.metric)
        entries.append(SnicIteration(iteration, constraint, score, span, seconds))
        if score > best_score:
            best_score = score
            best_partition = partition
        if span == 0.0 or span >= constraint:
            break
        constraint = span
    return SnicRun(best_partition, SnicTrace(tuple(entries)))
