"""Polygon (cycle) recognizers, as shape tests on the support graph S."""

from __future__ import annotations

import numpy as np

from .family import DistanceFamily
from .realization import Realization
from .support import rebuild
from .trees import snake_check


def pruned_polygon_check(family: DistanceFamily) -> Realization:
    """Decide realizability by a pruned positive-weighted polygon: S must
    be an n-cycle (every vertex of degree 2; S is connected), and S is the
    polygon.

    The tests compare this with the paper's criterion: the ordering walk
    along indecomposable partners from a minimal pair absorbs all n
    vertices, and along that cyclic order every 2-weight equals the minimum
    of its two arc sums.
    """
    if family.n < 3:
        return Realization.rejected("a polygon needs n >= 3")
    support = family.support
    failed = support.rejection()
    if failed is not None:
        return failed
    for v, nbrs in support.graph.adjacency().items():
        if len(nbrs) != 2:
            return Realization.rejected(
                f"vertex {v} has degree {len(nbrs)} in the support graph "
                f"(neighbours {sorted(nbrs)}); a polygon needs 2"
            )
    return Realization.ok(support.realization)


def polygon_check(family: DistanceFamily) -> Realization:
    """Decide polygonlike: pruned polygon, or a snake closed into a cycle.

    The snake branch closes the path, S's realization, with an edge between
    its endpoints of weight exactly D_{endpoints} (the minimal valid closure
    weight); a closed snake that fails verification is rejected.
    """
    if family.n < 3:
        return Realization.rejected("a polygon needs n >= 3")
    pruned = pruned_polygon_check(family)
    if pruned.accepted:
        return pruned
    snake = snake_check(family)
    if snake.accepted:
        path = family.support.graph
        a, b = sorted(v - 1 for v, nbrs in path.adjacency().items() if len(nbrs) == 1)
        u, v = np.append(path.u, a), np.append(path.v, b)
        order = np.lexsort((v, u))
        graph = rebuild(family, u[order], v[order])
        if graph is None:
            return Realization.rejected("snake conditions hold but the closed snake failed verification")
        return Realization.ok(graph)
    return Realization.rejected(
        f"neither pruned polygon ({pruned.reason}) nor snake ({snake.reason})"
    )

