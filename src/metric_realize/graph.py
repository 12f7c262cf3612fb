"""Positive-weighted graphs, the 2-weight computation, and pruning.

The 2-weight of a pair (i, j) is the minimum total weight of a connected
subgraph containing both; with positive weights this is the shortest-path
weight, computed here by Floyd-Warshall on the dense min-plus kernel
(``metric_realize.kernel``).  Exact verification does not compute it: it
checks the Bellman equations of the graph on the family's array
(``kernel.bellman``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from . import kernel
from .comparison import EXACT, Cmp, Number
from .family import DistanceFamily, FamilyError

Edge = Tuple[int, int, Number]


class GraphError(ValueError):
    """Raised for structurally invalid graphs (loops, duplicates, disconnection)."""


# Why an exact comparison raises OverflowError: a float on one side puts it in
# float64, where an exact value beyond the float range has no value.
_FLOAT_AGAINST_BEYOND_FLOATS = (
    "an exact value beyond the float range cannot be compared with a float weight or family value"
)


class WeightedGraph:
    """Labeled vertex set [n] with positively weighted undirected edges.

    Simple graphs only: no self-loops, no duplicate edges.  Connectivity is
    checked on construction unless ``require_connected=False`` (used by
    ``support_graph``, which may legitimately return a disconnected
    structure).
    """

    # ``_dist`` keeps the 2-weights once ``two_weights`` or ``prune`` has
    # computed them (``_distances``); the graph does not change after
    # construction, so neither do they.
    __slots__ = ("n", "edges", "_dist")

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
        self._dist = None
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

    def adjacency(self) -> Dict[int, Dict[int, Number]]:
        adj: Dict[int, Dict[int, Number]] = {v: {} for v in range(1, self.n + 1)}
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj

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


def _scale(graph: WeightedGraph):
    """The kernel's scale for the graph's weights (None for float64)."""
    return kernel.common_scale(w for _u, _v, w in graph.edges)


def _distances(graph: WeightedGraph) -> kernel.Scaled:
    """The graph's 2-weights from the kernel, computed on first use and kept
    with the graph, so that ``two_weights`` and ``prune`` on one graph run
    one Floyd-Warshall; the graph must be connected, and in float mode every
    2-weight finite.  Nothing writes to the kept array."""
    if graph._dist is not None:
        return graph._dist
    if graph.n < 2:
        raise GraphError("2-weights need n >= 2")
    if not graph.is_connected():
        raise GraphError("2-weights are only defined for connected graphs")
    dist = kernel.all_pairs(graph.n, graph.edges, _scale(graph))
    if dist.scale is None and not np.isfinite(dist.array).all():
        raise GraphError("a 2-weight exceeds the float range: a path's total weight overflows float64")
    graph._dist = dist
    return dist


def two_weights(graph: WeightedGraph, cmp: Cmp = EXACT) -> DistanceFamily:
    """The family of 2-weights of a connected positive-weighted graph: the
    kernel's matrix is its array (``DistanceFamily.scaled``)."""
    return DistanceFamily._of_array(_distances(graph), cmp)


def prune(graph: WeightedGraph, cmp: Cmp = EXACT) -> WeightedGraph:
    """Remove all useless edges simultaneously.

    An edge e(u,v) is useful iff its weight equals D_{u,v} and D_{u,v} is
    indecomposable in the family of 2-weights; this matches the path-based
    definition (an edge some pair cannot avoid).  Usefulness is a property
    of the (invariant) family of 2-weights, so the result does not depend on
    any removal order; the operation is idempotent and preserves all
    2-weights.
    """
    try:
        keep = kernel.useful(_distances(graph), graph.edges, cmp).tolist()
    except OverflowError:
        raise GraphError(kernel.OUT_OF_FLOAT_RANGE) from None
    return WeightedGraph(graph.n, [e for e, k in zip(graph.edges, keep) if k])


def verify_realization(graph: WeightedGraph, family: DistanceFamily) -> bool:
    """True iff the graph's 2-weights equal the family entrywise under its cmp
    mode.

    In exact mode with exact weights this is the Bellman check
    (``kernel.bellman``) on the family's array, O(n * m) and no
    Floyd-Warshall: D_ij = min over the neighbours u of i of w_iu + D_uj.
    It also rules out a disconnected graph.  Under a tolerance, or with a
    float on either side, the graph's 2-weights are computed here afresh
    (not taken from the ones ``two_weights`` or ``prune`` kept with it) and
    compared entrywise: near-ties within a tolerance do not chain along a
    path, and float sums round."""
    if graph.n != family.n:
        raise GraphError(f"size mismatch: graph n={graph.n}, family n={family.n}")
    target, own = family.scaled
    scale = kernel.joint_scale(own, _scale(graph))
    if scale is not None and scale != own:
        # in Python ints, whose products are exact
        target = target.astype(object) * (scale // own)
    if family.cmp.exact and scale is not None:
        return kernel.bellman(graph.n, graph.edges, target, scale)
    # A disconnected graph has infinite 2-weights, which the tolerance rule
    # would call close to anything; it never realizes D.
    if not graph.is_connected():
        return False
    try:
        dist = kernel.all_pairs(graph.n, graph.edges, scale)
        if scale is None and own is not None:
            # in Python ints, whose true division rounds correctly, as
            # float(Fraction) does
            target = np.asarray(target.astype(object) / own, dtype=np.float64)
        return bool(kernel.eq(dist.array, target, scale, family.cmp).all())
    except OverflowError:
        if family.cmp.exact:
            raise GraphError(_FLOAT_AGAINST_BEYOND_FLOATS) from None
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
