"""Recognizers for pruned complete graphs and (complete) bipartite graphs,
as tests on the support graph S, including bipartition recovery through
tight chains of indecomposable links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .family import DistanceFamily
from .graph import WeightedGraph, verify_realization
from .realization import Realization


def complete_check(family: DistanceFamily) -> Realization:
    """Decide realizability by a pruned complete graph: S must be K_n, and
    S is the realization.

    The tests compare this with the paper's criterion, every entry
    indecomposable (``is_indecomposable``).
    """
    support = family.support
    failed = support.rejection()
    if failed is not None:
        return failed
    for i, j in family.pairs():  # stops at the first non-edge, after at most m pairs
        if j not in support.adj[i]:
            return Realization.rejected(f"entry ({i},{j}) is decomposable")
    return Realization.ok(support.realization)


@dataclass
class Bipartition:
    """Recovered sides X and Y with the tight chains that placed each vertex.

    The base pair (x, y) attains the minimal 2-weight.  A vertex lands in
    ``x_side`` via a tight chain with an even number of indecomposable links
    from x (the empty chain for x itself) and in ``y_side`` via an odd one
    (a single indecomposable link for direct partners of x).  Witness chains
    list the intermediate vertices only.  Sides may overlap; overlap is the
    caller's concern, it is reported rather than hidden.
    """

    base_pair: Tuple[int, int]
    x_side: FrozenSet[int]
    y_side: FrozenSet[int]
    x_witnesses: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    y_witnesses: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def _min_pair(family: DistanceFamily) -> Tuple[int, int]:
    """Pair (i, j), i < j, with minimal D; lexicographic tie-break."""
    best = None
    best_val = None
    for i, j in family.pairs():
        v = family.d(i, j)
        if best_val is None or v < best_val:
            best_val = v
            best = (i, j)
    return best


def bipartition(family: DistanceFamily) -> Bipartition:
    """Recover the two sides of a would-be bipartite realization.

    Dynamic programming over vertices in increasing D_{x,.} order on states
    (vertex, parity): (v, p) is reachable iff some u with (u, p^1) reachable
    has (u, v) indecomposable (an edge of S) and D_{x,u} + D_{u,v} = D_{x,v};
    the first such u in D_{x,.} order becomes the parent.  This equals
    explicit enumeration of tight chains because the triangle inequalities
    force every prefix of a tight chain to be tight; tightness also makes
    D_{x,.} strictly increase along a chain, so chains are simple.
    """
    x, y = _min_pair(family)
    d = family.d
    cmp = family.cmp
    n = family.n

    adj = family.support.adj
    order = sorted((v for v in range(1, n + 1) if v != x), key=lambda v: d(x, v))
    rank = {v: k for k, v in enumerate([x] + order)}
    # parent[(v, p)] = predecessor vertex on a tight chain of parity p, x-rooted
    parent: Dict[Tuple[int, int], Optional[int]] = {(x, 0): None}
    for v in order:
        neighbours = sorted(adj[v], key=rank.__getitem__)
        tight = [u for u in neighbours if cmp.eq(d(x, u) + d(u, v), d(x, v))]
        for p in (0, 1):
            u = next((u for u in tight if (u, p ^ 1) in parent), None)
            if u is not None:
                parent[(v, p)] = u

    def chain(v: int, p: int) -> Tuple[int, ...]:
        links: List[int] = []
        cur, cp = v, p
        while True:
            pred = parent[(cur, cp)]
            if pred is None:
                break
            links.append(pred)
            cur, cp = pred, cp ^ 1
        links.reverse()
        return tuple(links[1:])  # drop x, keep intermediates only

    x_side = {x}
    y_side = set()
    x_witnesses: Dict[int, Tuple[int, ...]] = {x: ()}
    y_witnesses: Dict[int, Tuple[int, ...]] = {}
    for v in order:
        if v != y and (v, 0) in parent:
            x_side.add(v)
            x_witnesses[v] = chain(v, 0)
        if (v, 1) in parent:
            y_side.add(v)
            y_witnesses[v] = chain(v, 1)
    return Bipartition((x, y), frozenset(x_side), frozenset(y_side), x_witnesses, y_witnesses)


def _bigraph(family: DistanceFamily) -> Tuple[Realization, Optional[Bipartition]]:
    # Only a triangle violation stops this early: the complete bipartite graph
    # is verified below, so S need not realize D (within a tolerance it may not).
    if family.support.violation is not None:
        return family.support.rejection(), None
    bp = bipartition(family)
    overlap = bp.x_side & bp.y_side
    if overlap:
        return Realization.rejected(f"sides overlap at {sorted(overlap)}"), bp
    gap = set(range(1, family.n + 1)) - (bp.x_side | bp.y_side)
    if gap:
        return Realization.rejected(f"cover gap: {sorted(gap)} in neither side"), bp
    if bp.base_pair[1] not in bp.y_side:
        return Realization.rejected(
            f"base partner {bp.base_pair[1]} did not land in the Y side"
        ), bp
    # Every same-side pair splits through the other side iff no edge of S
    # (an indecomposable pair) joins two vertices of one side, when S realizes D.
    for a, b, _w in family.support.graph.edges:
        if (a in bp.x_side) == (b in bp.x_side):
            return Realization.rejected(
                f"same-side pair ({a},{b}) is an edge of the support graph"
            ), bp
    d = family.d
    edges = [
        (a, b, d(a, b))
        for a in sorted(bp.x_side)
        for b in sorted(bp.y_side)
    ]
    graph = WeightedGraph(family.n, edges)
    if not verify_realization(graph, family):
        return Realization.rejected(
            "bipartite conditions hold but the reconstruction failed verification"
        ), bp
    return Realization.ok(graph), bp


def _pruned_bigraph(
    family: DistanceFamily, result: Realization, bp: Optional[Bipartition]
) -> Realization:
    """Narrow a bipartite verdict to pruned complete bipartite: S must be
    the complete bipartite graph on the sides, and S is the realization."""
    if not result.accepted:
        return result
    support = family.support
    for a in sorted(bp.x_side):  # stops at the first missing cross pair, after at most m pairs
        for b in sorted(bp.y_side):
            if b not in support.adj[a]:
                return Realization.rejected(f"cross entry ({a},{b}) is decomposable")
    return Realization.ok(support.realization)


def bigraph_check(family: DistanceFamily) -> Realization:
    """Decide bipartite realizability: S must be 2-colourable, with the
    sides that ``bipartition`` recovers.  The witness realization is the
    complete bipartite graph on those sides with the cross 2-weights as
    weights.

    The tests compare this with the paper's criterion: every same-side pair
    splits through a vertex of the other side.
    """
    result, _bp = _bigraph(family)
    return result


def cobigraph_check(family: DistanceFamily) -> Realization:
    """Decide realizability by a *pruned* complete bipartite graph: bipartite
    realizability with S equal to the complete bipartite graph on the sides;
    S is the realization.

    The tests compare this with the paper's criterion: bipartite, and every
    cross pair indecomposable.
    """
    return _pruned_bigraph(family, *_bigraph(family))
