"""Exact brute-force optimum over all set partitions of a small graph.

Partitions are enumerated as restricted growth strings in lexicographic
order, which visits every set partition exactly once with constant memory.
Feasible up to n = 12 (4,213,597 partitions).
"""

from typing import Iterator

from .geograph import GeoGraph
from .metrics import Partition, SNParams, ng_modularity, sn_modularity

# Bell numbers B(0)..B(12)
BELL_NUMBERS = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)

MAX_ORACLE_NODES = 12


def _rgs(n: int) -> Iterator[list[int]]:
    """Yield restricted growth strings over n elements, lexicographically.

    The yielded list is reused; callers must copy if they retain it.
    """
    a = [0] * n
    b = [0] * n  # b[i] = max(a[0..i-1])
    while True:
        yield a
        j = n - 1
        while j > 0 and a[j] > b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        prev = max(b[j], a[j])
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = prev
            prev = b[i]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Stream every set partition of 0..n-1 exactly once."""
    if not 1 <= n <= MAX_ORACLE_NODES:
        raise ValueError(f"n must be in 1..{MAX_ORACLE_NODES}, got {n}")
    for a in _rgs(n):
        # restricted growth strings are already dense first-appearance labels
        yield Partition(tuple(a))


def oracle_best(g: GeoGraph, params: SNParams | None = None) -> tuple[Partition, float]:
    """Arg-max partition and value by exhaustive search; ties keep the first."""
    best_partition = None
    best_value = -float("inf")
    for p in enumerate_partitions(g.num_nodes):
        value = ng_modularity(g, p) if params is None else sn_modularity(g, p, params)
        if value > best_value:
            best_value = value
            best_partition = p
    return best_partition, best_value
