"""Polygon (cycle) recognizers, as shape tests on the support graph S, and
the paper's sequential ordering walk."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .bipartite import _min_pair
from .family import DistanceFamily, FamilyError, indecomposable_partners
from .graph import WeightedGraph, verify_realization
from .realization import InternalInconsistencyError, Realization
from .trees import snake_check


@dataclass
class PolygonOrder:
    """Vertex order produced by the renaming walk along indecomposable pairs.

    ``complete`` is true when all n vertices were absorbed before the walk
    first revisited a seen vertex; consecutive entries (cyclically, when
    complete) are indecomposable pairs of the family.
    """

    order: Tuple[int, ...]
    complete: bool


def polygon_order(family: DistanceFamily) -> PolygonOrder:
    """Walk the indecomposable-partner relation starting from a minimal pair.

    Precondition: every vertex has exactly two indecomposable partners (a
    violation raises FamilyError).  The walk starts at the lexicographically
    first minimal pair, whose value must itself be indecomposable, and
    repeatedly appends the unused partner of the last vertex.
    """
    if family.n < 3:
        raise FamilyError("polygon ordering needs n >= 3")
    partners = {}
    for i in range(1, family.n + 1):
        p = indecomposable_partners(family, i)
        if len(p) != 2:
            raise FamilyError(
                f"vertex {i} has {len(p)} indecomposable partners, expected exactly 2"
            )
        partners[i] = p
    u, v = _min_pair(family)
    if v not in partners[u]:
        raise FamilyError(f"minimal pair ({u},{v}) is not indecomposable; malformed family")
    order = [u, v]
    seen = {u, v}
    while True:
        last, prev = order[-1], order[-2]
        a, b = partners[last]
        nxt = b if a == prev else a
        if nxt in seen:
            break
        order.append(nxt)
        seen.add(nxt)
    return PolygonOrder(tuple(order), complete=(len(order) == family.n))


def pruned_polygon_check(family: DistanceFamily) -> Realization:
    """Decide realizability by a pruned positive-weighted polygon: S must
    be an n-cycle (every vertex of degree 2; S is connected), and S is the
    polygon.

    The tests compare this with the paper's criterion: the ordering walk of
    ``polygon_order`` absorbs all n vertices, and along that cyclic order
    every 2-weight equals the minimum of its two arc sums.
    """
    if family.n < 3:
        return Realization.rejected("a polygon needs n >= 3")
    support = family.support
    failed = support.rejection()
    if failed is not None:
        return failed
    for v, nbrs in support.adj.items():
        if len(nbrs) != 2:
            return Realization.rejected(
                f"vertex {v} has degree {len(nbrs)} in the support graph "
                f"(neighbours {sorted(nbrs)}); a polygon needs 2"
            )
    return Realization.ok(support.realization)


def polygon_check(family: DistanceFamily) -> Realization:
    """Decide polygonlike: pruned polygon, or a snake closed into a cycle.

    The snake branch closes the path with an edge between its endpoints of
    weight exactly D_{endpoints} (the minimal valid closure weight).
    """
    if family.n < 3:
        return Realization.rejected("a polygon needs n >= 3")
    pruned = pruned_polygon_check(family)
    if pruned.accepted:
        return pruned
    snake = snake_check(family)
    if snake.accepted:
        ends = sorted(v for v, nbrs in family.support.adj.items() if len(nbrs) == 1)
        graph = WeightedGraph(family.n, [*snake.graph.edges, (*ends, family.d(*ends))])
        # The closing edge weighs D_ends = d_S(ends), so in exact mode no
        # 2-weight changes; within a tolerance, paths through it may fall short.
        if not family.cmp.exact and not verify_realization(graph, family):
            raise InternalInconsistencyError("snake closure failed verification")
        return Realization.ok(graph)
    return Realization.rejected(
        f"neither pruned polygon ({pruned.reason}) nor snake ({snake.reason})"
    )


def canonical_cycle_order(graph: WeightedGraph) -> Tuple[int, ...]:
    """Vertex order of a cycle graph, starting at the smallest label and
    oriented toward its smaller neighbor; for comparisons up to rotation and
    reflection."""
    adj = {v: [] for v in range(1, graph.n + 1)}
    for u, v, _w in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    for v, nb in adj.items():
        if len(nb) != 2:
            raise FamilyError(f"not a cycle: vertex {v} has degree {len(nb)}")
    start = 1
    order = [start, min(adj[start])]
    while len(order) < graph.n:
        a, b = adj[order[-1]]
        order.append(b if a == order[-2] else a)
    return tuple(order)
