"""Positive-weighted graphs, the 2-weight computation, and pruning.

The 2-weight of a pair (i, j) is the minimum total weight of a connected
subgraph containing both; with positive weights this is the shortest-path
weight, computed here by Floyd-Warshall on the dense min-plus kernel
(``metric_realize.kernel``).  Exact verification does not compute it:
when the graph's 2-weights are known (``two_weights`` computed them, or an
exact ``prune`` kept its graph's) it compares them with the family's array,
and otherwise it checks the Bellman equations of the graph on that array
(``kernel.bellman``).

A graph is stored as columns: 0-based vertex indices ``u`` < ``v`` in
sorted order, and the weights ``w`` scaled by ``scale`` as the kernel scales
a family (int64, Python ints or float64).  The kernel reads these columns.
A graph is connected, as a 2-weight needs.  One checker, ``_columns``,
checks the edges of ``WeightedGraph(n, edges)`` and of a graph document as
columns, the count and the walk included.  Graphs built from checked arrays
(S, K_{X,Y}, the pruned graph, the closed snake, a checked document) come
from the trusted maker ``WeightedGraph._of_arrays``, as a family's array
comes from ``DistanceFamily._of_array``; each maker knows its graph
connected (``support.analyse`` keeps no S that is not), so a graph has no
connectivity state.  ``edges`` and ``adjacency()`` are views built on first
use; the scale is kept with the graph, so that no later step derives it
again.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

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

    Simple connected graphs only, checked as columns by ``_columns``:
    integer ends in [n], no loops, no twins, positive weights, then the edge
    count and a walk.  The graphs the package makes come from
    ``_of_arrays``.

    The graph is stored as columns, one entry per edge in sorted order:
    ``u`` and ``v`` hold 0-based vertex indices (label - 1) with u < v, and
    ``w`` holds the weights times ``scale``, a common multiple of their
    denominators (their LCM, but a pruned graph keeps the scale of the
    graph it pruned), by the kernel's rule: int64 when the largest fits,
    Python ints (``object``) otherwise, and float64 with ``scale`` None as
    soon as one weight is a float.  The graph keeps no other copy of its edges:
    ``edges`` (the sorted ``(u, v, weight)`` tuples) and ``adjacency()`` are
    views of the columns built on first use, so they show the numbers the
    columns hold (an np.int64 or bool weight as an int, an exact weight
    beside a float as that float); ``==``, ``hash`` and ``repr`` read
    ``edges``.
    """

    # ``_dist`` keeps the 2-weights once ``two_weights`` or ``prune`` has
    # computed them (``_distances``), and an exact ``prune`` gives the
    # pruned graph the 2-weights of the graph it pruned, which it keeps.
    # The graph does not change after construction, so neither do they.
    __slots__ = ("n", "u", "v", "w", "scale", "_edges", "_adj", "_dist")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, Number]]):
        us, vs, ws = tuple(zip(*edges, strict=True)) or ((), (), ())
        u, v, order = _columns(n, us, vs, np.array(ws, dtype=object), ws.__getitem__)
        ws = [ws[i] for i in order.tolist()]
        try:
            values, scale = kernel.scale_numbers(ws)
        except OverflowError:
            raise GraphError(kernel._FLOAT_BESIDE_BEYOND_FLOATS) from None
        self._store(n, u, v, kernel.scaled_array(values, scale), scale)

    @classmethod
    def _of_arrays(cls, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, scale: Optional[int]) -> "WeightedGraph":
        """The graph of checked columns that its maker built: 0-based indices
        u < v in sorted order without repeats that join the n vertices,
        positive weights ``w`` times ``scale`` (int64 or object; float64 when
        ``scale`` is None)."""
        graph = cls.__new__(cls)
        graph._store(n, u, v, w, scale)
        return graph

    def _store(self, n, u, v, w, scale) -> None:
        self.n, self.u, self.v, self.w, self.scale = n, u, v, w, scale
        self._edges = self._adj = self._dist = None

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The sorted ``(u, v, weight)`` tuples, labels from 1, weights as
        Python int, Fraction or float."""
        if self._edges is None:
            labels = (self.u + 1).tolist(), (self.v + 1).tolist()
            self._edges = tuple(zip(*labels, kernel.numbers(self.w, self.scale)))
        return self._edges

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightedGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={list(self.edges)!r})"

    def edge_pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset(zip((self.u + 1).tolist(), (self.v + 1).tolist()))

    def adjacency(self) -> Dict[int, Dict[int, Number]]:
        """Neighbour -> weight per vertex, built on first use and kept;
        callers must not change it.  It reads the columns and builds no
        ``edges`` tuples of its own."""
        if self._adj is None:
            adj: Dict[int, Dict[int, Number]] = {v: {} for v in range(1, self.n + 1)}
            ws = kernel.numbers(self.w, self.scale)
            for u, v, w in zip((self.u + 1).tolist(), (self.v + 1).tolist(), ws):
                adj[u][v] = w
                adj[v][u] = w
            self._adj = adj
        return self._adj


def _walk(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the edges (u, v) join all n vertices into one component, by
    union-find with path halving over n parents; a graph from outside is
    counted first, so n is at most its edges + 1.  The walk stops at the
    edge that leaves one component, and uses no edge after it; it reads the
    columns n edges at a time, so an early stop converts few of them."""
    parent = list(range(n))
    components = n
    for lo in range(0, len(u), n):
        for a, b in zip(u[lo:lo + n].tolist(), v[lo:lo + n].tolist()):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                components -= 1
                if components == 1:
                    return True
    return components == 1


def _check_connected(n: int, u: np.ndarray, v: np.ndarray) -> None:
    """That the edges (u, v) join the n vertices: by count, which builds nothing of size n, then by a walk."""
    if len(u) < n - 1:
        raise GraphError(f"{len(u)} edges cannot connect {n} vertices; a connected graph needs at least {n - 1}")
    if not _walk(n, u, v):
        raise GraphError("graph is not connected")


@kernel.python_floats
def _columns(n: int, us: Sequence, vs: Sequence, w: np.ndarray, weight: Callable):
    """The checked edges ``us[i]``-``vs[i]`` of a connected graph on [n] as
    0-based columns u < v in sorted order, and that order.  ``w`` has the
    weights' signs, and ``weight(i)`` names edge i's weight.  The first
    faulty edge is named by its first fault: a loop, an end out of [n], an
    end not an integer, a repeat, a weight not positive; then come the count
    and the walk.  A graph past the count has n <= edges + 1, so its labels
    fit int64 when they become indices."""
    if n < 1:
        raise GraphError("vertex count must be >= 1")
    uv, top, fraction = np.array((us, vs)), min(n, kernel.INT64_MAX), False
    if uv.dtype.kind != "i":  # floats, bools, Fractions, ints beyond int64
        uv, top = np.array((us, vs), dtype=object), n
        whole = np.array([isinstance(x, numbers.Integral) for x in (*us, *vs)], dtype=bool)
        fraction = ~whole.reshape(2, -1).all(axis=0)  # the index columns would truncate it
    loop, out = uv[0] == uv[1], ((uv < 1) | (uv > top)).any(axis=0)
    k = next(iter((loop | out | fraction).nonzero()[0].tolist()), len(loop))
    # the edges ahead of those faults as lo < hi, sorted stably (a repeat follows its twin)
    lo, hi = np.minimum(uv[0, :k], uv[1, :k]), np.maximum(uv[0, :k], uv[1, :k])
    order = np.lexsort((hi, lo))
    lo, hi = lo[order] - 1, hi[order] - 1
    twins = order[1:][(lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])]
    i = min(twins.tolist() + (~(w[:k] > 0)).nonzero()[0].tolist(), default=k)
    if i < k:
        a, b = sorted((us[i], vs[i]))
        if i in twins:
            raise GraphError(f"duplicate edge ({a},{b})")
        raise GraphError(f"nonpositive weight on edge ({a},{b}): {weight(i)}")
    if k < len(loop):
        a, b = us[k], vs[k]
        if loop[k]:
            raise GraphError(f"self-loop at vertex {a}")
        fault = f"out of range for n={n}" if out[k] else "has a vertex that is not an integer"
        raise GraphError(f"edge ({a},{b}) {fault}")
    _check_connected(n, lo, hi)
    return lo.astype(np.intp, copy=False), hi.astype(np.intp, copy=False), order


def _distances(graph: WeightedGraph) -> kernel.Scaled:
    """The graph's 2-weights from the kernel, computed on first use and kept
    with the graph, so that ``two_weights`` and ``prune`` on one graph run
    one Floyd-Warshall; in float mode every 2-weight must be finite.
    Nothing writes to the kept array."""
    if graph._dist is not None:
        return graph._dist
    if graph.n < 2:
        raise GraphError("2-weights need n >= 2")
    dist = kernel.all_pairs(graph.n, graph.u, graph.v, graph.w, graph.scale)
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
    2-weights.  A one-vertex graph, which has no edge, comes back as is.

    One call of ``kernel.splits`` gives every edge's smallest split M_uv,
    and an edge is kept when w = D_uv < M_uv, as ``support.analyse`` finds
    S; ``lt`` is monotone in the split, an infinite one included, so this
    is the test of every z, in exact and tolerance mode.  A tolerance
    compares the weights and the 2-weights in float64, converted once; the
    kept edges keep their weights.  In exact mode a useless weight in
    Python ints may stand beside int64 2-weights.

    Exact numbers need no walk: the kept edges are S of the 2-weights (an
    indecomposable pair's shortest path is one edge), which the split scan
    proves connected and a realization of them (``support.analyse``).  So
    the pruned graph keeps the graph's 2-weights, and runs no Floyd-Warshall
    of its own.  A float64 array, float weights or a tolerance, is walked,
    and the pruned graph keeps no 2-weights: sums round and near-ties do not
    chain.
    """
    if graph.n == 1:
        return graph
    u, v, w = graph.u, graph.v, graph.w
    dist = _distances(graph)
    if not cmp.exact:
        try:
            w = kernel.at_scale(w, graph.scale, None)
            dist = kernel.Scaled(kernel.at_scale(dist.array, dist.scale, None, 2), None)
        except OverflowError:
            raise GraphError(kernel.OUT_OF_FLOAT_RANGE) from None
    m = kernel.splits(dist, u, v)
    duv = dist.array[u, v]
    keep = kernel.eq(w, duv, cmp) & kernel.lt(duv, m, cmp)
    u, v = u[keep], v[keep]
    pruned = WeightedGraph._of_arrays(graph.n, u, v, graph.w[keep], graph.scale)
    if dist.scale is None:
        _check_connected(graph.n, u, v)
    else:
        pruned._dist = dist
    return pruned


def verify_realization(graph: WeightedGraph, family: DistanceFamily) -> bool:
    """True iff the graph's 2-weights equal the family entrywise under its cmp
    mode.

    In exact mode with exact weights no Floyd-Warshall runs.  A graph whose
    2-weights are known (kept by ``two_weights`` or an exact ``prune``) is
    compared with the family's array at their common scale, O(n^2).  Any
    other graph (a document, ``WeightedGraph(n, edges)``, S, K_{X,Y}, the
    closed snake) gets the Bellman check (``kernel.bellman``) on the
    family's array, O(n * m): D_ij = min over the neighbours u of i of
    w_iu + D_uj.  Under a tolerance (a float64 family) or with a float
    weight, the graph's 2-weights are computed here afresh in float64 (not
    taken from the ones ``two_weights`` kept with it) and compared
    entrywise: near-ties within a tolerance do not chain along a path, and
    float sums round."""
    if graph.n != family.n:
        raise GraphError(f"size mismatch: graph n={graph.n}, family n={family.n}")
    target, own = family.scaled
    if own is not None and graph.scale is not None:  # exact numbers, so exact mode
        scale = math.lcm(own, graph.scale)
        target = kernel.at_scale(target, own, scale, 2)
        if graph._dist is not None:
            return np.array_equal(kernel.at_scale(graph._dist.array, graph.scale, scale, 2), target)
        w = kernel.at_scale(graph.w, graph.scale, scale)
        return kernel.bellman(graph.n, graph.u, graph.v, w, target, scale)
    try:
        w = kernel.at_scale(graph.w, graph.scale, None)
        target = kernel.at_scale(target, own, None, 2)
    except OverflowError:
        if family.cmp.exact:
            raise GraphError(_FLOAT_AGAINST_BEYOND_FLOATS) from None
        raise GraphError(kernel.OUT_OF_FLOAT_RANGE) from None
    dist = kernel.all_pairs(graph.n, graph.u, graph.v, w, None)
    return bool(kernel.eq(dist.array, target, family.cmp).all())


def support_graph(family: DistanceFamily) -> WeightedGraph:
    """Graph on [n] whose edges are exactly the indecomposable pairs.

    Each edge carries the family value of its pair: an indecomposable entry
    forces an edge of exactly that weight in any pruned realization.  Raises
    FamilyError with S's rejection when S is no graph (``support.Support``).
    The graph is computed once per family (``DistanceFamily.support``).
    """
    support = family.support
    if support.graph is None:
        raise FamilyError(support.rejection().reason)
    return support.graph
