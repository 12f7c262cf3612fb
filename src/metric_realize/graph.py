"""Positive-weighted graphs, the 2-weight computation, and pruning.

The 2-weight of a pair (i, j) is the minimum total weight of a connected
subgraph containing both; with positive weights this is the shortest-path
weight, computed here by Floyd-Warshall on the dense min-plus kernel
(``metric_realize.kernel``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from . import kernel
from .comparison import EXACT, Cmp, Number
from .family import DistanceFamily, FamilyError

Edge = Tuple[int, int, Number]


class GraphError(ValueError):
    """Raised for structurally invalid graphs (loops, duplicates, disconnection)."""


class WeightedGraph:
    """Labeled vertex set [n] with positively weighted undirected edges.

    Simple graphs only: no self-loops, no duplicate edges.  Connectivity is
    checked on construction unless ``require_connected=False`` (used by
    ``support_graph``, which may legitimately return a disconnected
    structure).
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, Number]], require_connected: bool = True):
        if n < 1:
            raise GraphError("vertex count must be >= 1")
        normalized: List[Edge] = []
        seen: Set[Tuple[int, int]] = set()
        for u, v, w in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            if not w > 0:
                raise GraphError(f"nonpositive weight on edge ({u},{v}): {w}")
            seen.add((u, v))
            normalized.append((u, v, w))
        if require_connected and len(normalized) < n - 1:
            # before anything of size n is built: n may come from a document
            raise GraphError(
                f"{len(normalized)} edges cannot connect {n} vertices; "
                f"a connected graph needs at least {n - 1}"
            )
        normalized.sort(key=lambda e: (e[0], e[1]))
        self.n = n
        self.edges = tuple(normalized)
        if require_connected and not self.is_connected():
            raise GraphError("graph is not connected")

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightedGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={list(self.edges)!r})"

    def edge_pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)

    def weight(self, i: int, j: int) -> Number:
        if i > j:
            i, j = j, i
        for u, v, w in self.edges:
            if u == i and v == j:
                return w
        raise GraphError(f"no edge ({i},{j})")

    def adjacency(self) -> Dict[int, Dict[int, Number]]:
        adj: Dict[int, Dict[int, Number]] = {v: {} for v in range(1, self.n + 1)}
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for u, w, _ in self.edges if u == v or w == v)

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = self.adjacency()
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def without_edge(self, i: int, j: int, require_connected: bool = True) -> "WeightedGraph":
        if i > j:
            i, j = j, i
        kept = [e for e in self.edges if (e[0], e[1]) != (i, j)]
        if len(kept) == len(self.edges):
            raise GraphError(f"no edge ({i},{j})")
        return WeightedGraph(self.n, kept, require_connected=require_connected)


@dataclass
class EdgeUsefulness:
    """Partition of an edge set into useful and useless edges."""

    useful: FrozenSet[Tuple[int, int]]
    useless: FrozenSet[Tuple[int, int]]


def _scale(graph: WeightedGraph):
    """The kernel's scale for the graph's weights (None for float64)."""
    return kernel.common_scale(w for _u, _v, w in graph.edges)


def _distances(graph: WeightedGraph) -> kernel.Scaled:
    """The graph's 2-weights from the kernel; the graph must be connected."""
    if graph.n < 2:
        raise GraphError("2-weights need n >= 2")
    if not graph.is_connected():
        raise GraphError("2-weights are only defined for connected graphs")
    dist, _inf = kernel.all_pairs(graph.n, graph.edges, _scale(graph))
    return dist


def shortest_path_matrix(graph: WeightedGraph) -> List[List[Number]]:
    """All-pairs shortest path weights, 0-indexed matrix (Floyd-Warshall);
    ``float("inf")`` for pairs in different components."""
    dist, inf = kernel.all_pairs(graph.n, graph.edges, _scale(graph))
    apart = (dist.array == inf).tolist()
    return [
        [float("inf") if far else x for x, far in zip(dist.numbers(row), row_apart)]
        for row, row_apart in zip(dist.array, apart)
    ]


def two_weights(graph: WeightedGraph, cmp: Cmp = EXACT) -> DistanceFamily:
    """The family of 2-weights of a connected positive-weighted graph."""
    dist = _distances(graph)
    upper = dist.array[np.triu_indices(graph.n, 1)]
    pairs = itertools.combinations(range(1, graph.n + 1), 2)
    return DistanceFamily(graph.n, dict(zip(pairs, dist.numbers(upper))), cmp)


def _useful_mask(graph: WeightedGraph, cmp: Cmp) -> List[bool]:
    try:
        return kernel.useful(_distances(graph), graph.edges, cmp).tolist()
    except OverflowError:
        raise GraphError(kernel.OUT_OF_FLOAT_RANGE) from None


def useful_edges(graph: WeightedGraph, cmp: Cmp = EXACT) -> EdgeUsefulness:
    """Classify every edge as useful or useless.

    An edge e(u,v) is useful iff its weight equals D_{u,v} and D_{u,v} is
    indecomposable in the family of 2-weights; this matches the path-based
    definition (an edge some pair cannot avoid).
    """
    useful = set()
    useless = set()
    for (u, v, _w), keep in zip(graph.edges, _useful_mask(graph, cmp)):
        (useful if keep else useless).add((u, v))
    return EdgeUsefulness(frozenset(useful), frozenset(useless))


def prune(graph: WeightedGraph, cmp: Cmp = EXACT) -> WeightedGraph:
    """Remove all useless edges simultaneously.

    Usefulness is a property of the (invariant) family of 2-weights, so the
    result does not depend on any removal order; the operation is idempotent
    and preserves all 2-weights.
    """
    kept = [e for e, keep in zip(graph.edges, _useful_mask(graph, cmp)) if keep]
    return WeightedGraph(graph.n, kept)


def verify_realization(graph: WeightedGraph, family: DistanceFamily) -> bool:
    """True iff the graph's 2-weights equal the family entrywise under its cmp mode."""
    if graph.n != family.n:
        raise GraphError(f"size mismatch: graph n={graph.n}, family n={family.n}")
    # A disconnected graph has infinite 2-weights, which the tolerance rule
    # would call close to anything; it never realizes D.
    if not graph.is_connected():
        return False
    target = family.scaled
    scale = kernel.joint_scale(target.scale, _scale(graph))
    if scale != target.scale:
        target = kernel.pair_matrix(family.n, family.values, scale)
    dist, _inf = kernel.all_pairs(graph.n, graph.edges, scale)
    try:
        return bool(kernel.eq(dist.array, target.array, scale, family.cmp).all())
    except OverflowError:
        raise GraphError(kernel.OUT_OF_FLOAT_RANGE) from None


def support_graph(family: DistanceFamily) -> WeightedGraph:
    """Graph on [n] whose edges are exactly the indecomposable pairs.

    Each edge carries the family value of its pair: an indecomposable entry
    forces an edge of exactly that weight in any pruned realization.  Raises
    FamilyError when the triangle inequalities fail.  The graph is computed
    once per family (``DistanceFamily.support``).
    """
    support = family.support
    if support.violation is not None:
        raise FamilyError(f"triangle violation at {support.violation}")
    return support.graph
