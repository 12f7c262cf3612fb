"""Recognizers for snakes, caterpillars, and labeled trees.

A snake is a tree with exactly two leaves (a path); a caterpillar is a tree
whose degree->=2 vertices form a path (the spine).  Each recognizer is a
shape test on the family's support graph S, which is also the realization
it returns (``Support.realization``): a tree metric's unique pruned
realization is its tree.
"""

from __future__ import annotations

from typing import Optional

from .family import DistanceFamily
from .realization import Realization
from .support import Support


def _not_a_tree(support: Support) -> Optional[Realization]:
    """The rejection the tree classes share, or None when S is a tree."""
    failed = support.rejection()
    if failed is None and not support.is_tree():
        n = support.graph.n
        failed = Realization.rejected(
            f"support graph has {len(support.graph.u)} edges; a tree on {n} vertices has {n - 1}"
        )
    return failed


def snake_check(family: DistanceFamily) -> Realization:
    """Decide whether the family is realizable by a positive-weighted path:
    S must be a tree of maximum degree 2, and S is the path.

    The tests compare this with the paper's snake condition: with (x, y) a
    pair of maximal D, D_{i,j} = |D_{i,x} - D_{j,x}| for all i, j != x.
    """
    support = family.support
    failed = _not_a_tree(support)
    if failed is not None:
        return failed
    for v, nbrs in support.graph.adjacency().items():
        if len(nbrs) > 2:
            return Realization.rejected(
                f"vertex {v} has degree {len(nbrs)} in the support graph "
                f"(neighbours {sorted(nbrs)}); a snake has at most 2"
            )
    return Realization.ok(support.realization)


def caterpillar_check(family: DistanceFamily) -> Realization:
    """Decide caterpillar realizability: S must be a tree whose inner
    (degree >= 2) vertices induce a path, i.e. no inner vertex has three
    inner neighbours; S is the caterpillar.

    The tests compare this with the paper's criterion: four-point and median
    conditions, and for the pair (a, b) maximizing D_{a,b} - t_a - t_b over
    the pendant offsets t_x = 1/2 min_{y,z} (D_{x,y} + D_{x,z} - D_{y,z}),
    D_{a,b} + D_{i,j} >= max{D_{a,i}+D_{b,j}, D_{a,j}+D_{b,i}} for all
    distinct i, j outside {a, b}.
    """
    support = family.support
    failed = _not_a_tree(support)
    if failed is not None:
        return failed
    adj = support.graph.adjacency()
    for v, nbrs in adj.items():
        inner = sorted(u for u in nbrs if len(adj[u]) >= 2)
        if len(nbrs) >= 2 and len(inner) > 2:
            return Realization.rejected(
                f"inner vertex {v} has {len(inner)} inner neighbours {inner} "
                "in the support graph; a caterpillar has at most 2"
            )
    return Realization.ok(support.realization)


def tree_check(family: DistanceFamily) -> Realization:
    """Decide labeled-tree realizability: S must have n - 1 edges, and S is
    the tree.

    The tests compare this with the paper's criterion, the four-point
    condition plus the median condition (``check_four_point``,
    ``check_median``).
    """
    failed = _not_a_tree(family.support)
    return failed if failed is not None else Realization.ok(family.support.realization)
