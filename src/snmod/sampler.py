"""Snowball sampling of node-induced subgraphs.

Each expansion picks a uniformly random not-yet-included node (seeded
Mersenne Twister, so runs replicate across platforms), then adds it and its
neighbors in ascending internal id until the target size is reached exactly.
The pick is the k-th not-yet-included node in ascending id, for
``k = randrange(count)``, found in O(log |V|) by a Fenwick tree over the
nodes.
"""

import random
from dataclasses import dataclass

from .geograph import GeoGraph, induced_subgraph


@dataclass(frozen=True)
class SampleSpec:
    target_size: int
    seed: int = 0

    def __post_init__(self):
        if self.target_size < 1:
            raise ValueError("target_size must be >= 1")


class _Remaining:
    """The nodes 0..n-1 not yet taken, as a Fenwick tree of 0/1 counts."""

    def __init__(self, n: int):
        self.n = n
        # every node remains, so entry i counts all i & -i nodes it covers
        self.tree = [i & -i for i in range(n + 1)]
        self.top = 1 << (n.bit_length() - 1) if n else 0

    def kth(self, k: int) -> int:
        """The k-th (from 0) remaining node in ascending order."""
        tree = self.tree
        pos = 0
        step = self.top
        while step:
            nxt = pos + step
            if nxt <= self.n and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return pos

    def take(self, v: int) -> None:
        tree = self.tree
        i = v + 1
        while i <= self.n:
            tree[i] -= 1
            i += i & -i


def snowball_sample(g: GeoGraph, spec: SampleSpec) -> GeoGraph:
    """Grow a node-induced subgraph of exactly min(target_size, |V|) nodes."""
    n = g.num_nodes
    if n == 0:
        raise ValueError("cannot sample an empty graph")
    if spec.target_size >= n:
        return induced_subgraph(g, range(n))
    rng = random.Random(spec.seed)
    included = [False] * n
    remaining = _Remaining(n)
    count = 0
    while count < spec.target_size:
        seed_node = remaining.kth(rng.randrange(n - count))
        batch = [seed_node]
        batch.extend(sorted(j for j, _ in g.adj[seed_node] if j != seed_node))
        for v in batch:
            if not included[v]:
                included[v] = True
                remaining.take(v)
                count += 1
                if count == spec.target_size:
                    break
    return induced_subgraph(g, (i for i in range(n) if included[i]))
