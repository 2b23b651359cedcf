"""Spatially Near Iterative Constraining: repeated constrained optimizer runs.

The first iteration runs the spatially-near optimizer unconstrained; each
following iteration constrains joins to the previous partition's maximum
intra-community span.  The loop stops when the constraint would reach zero,
fails to strictly decrease, or the iteration cap is hit, and the best-scoring
partition seen anywhere in the trace is returned.
"""

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .geograph import GeoGraph
from .louvain import EngineConfig, run_louvain
from .metrics import Partition, SNParams, check_assignment, sn_modularity


@dataclass(frozen=True)
class SnicConfig:
    """SNIC settings; ``seed`` sets each iteration's visit order as in :class:`EngineConfig`."""

    params: SNParams
    max_iters: int = 100
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        EngineConfig(seed=self.seed)  # validates the seed


@dataclass(frozen=True)
class SnicIteration:
    """One iteration record; constraint_km is inf on the first iteration.

    ``partition`` is the optimizer's result that ``sn_modularity`` scores;
    the first iteration's is the unconstrained spatially-near run.
    """

    iteration: int
    constraint_km: float
    sn_modularity: float
    span_km: float
    seconds: float
    partition: Partition = field(repr=False)


@dataclass(frozen=True)
class SnicTrace:
    entries: tuple[SnicIteration, ...]

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
    check_assignment(g, p.assignment)
    return g.kernel(metric).max_span(p.communities)


def run_snic(g: GeoGraph, cfg: SnicConfig) -> SnicRun:
    """Run the iterated-constraint heuristic; returns (best partition, trace).

    The best partition is that of the first entry with the highest score.
    """
    constraint = math.inf
    entries: list[SnicIteration] = []
    for iteration in range(1, cfg.max_iters + 1):
        engine = EngineConfig(join_constraint_km=constraint, seed=cfg.seed)
        started = time.perf_counter()
        partition = run_louvain(g, cfg.params, engine)
        seconds = time.perf_counter() - started
        score = sn_modularity(g, partition, cfg.params)
        span = partition_max_span(g, partition, cfg.params.metric)
        entries.append(SnicIteration(iteration, constraint, score, span, seconds, partition))
        if span == 0.0 or span >= constraint:
            break
        constraint = span
    best = max(entries, key=lambda e: e.sn_modularity)  # max keeps the first of equals
    return SnicRun(best.partition, SnicTrace(tuple(entries)))
