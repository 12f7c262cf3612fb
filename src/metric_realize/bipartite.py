"""Recognizers for pruned complete graphs and (complete) bipartite graphs,
as tests on the support graph S, including bipartition recovery as a
2-colouring of S along tight chains of indecomposable links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from . import kernel
from .family import DistanceFamily
from .realization import Realization
from .support import rebuild


def complete_check(family: DistanceFamily) -> Realization:
    """Decide realizability by a pruned complete graph: S must be K_n
    (n(n - 1)/2 edges), and S is the realization.

    The tests compare this with the paper's criterion, every entry
    indecomposable (``is_indecomposable``).
    """
    support = family.support
    failed = support.rejection()
    if failed is not None:
        return failed
    if len(support.graph.u) == family.n * (family.n - 1) // 2:
        return Realization.ok(support.realization)
    adj = support.graph.adjacency()
    i, j = next((i, j) for i, j in family.pairs() if j not in adj[i])
    return Realization.rejected(f"entry ({i},{j}) is decomposable")


@dataclass
class Bipartition:
    """Recovered sides X and Y with the tight chains that placed each vertex.

    The base pair (x, y) attains the minimal 2-weight.  A vertex lands in
    ``x_side`` via a tight chain with an even number of indecomposable links
    from x (the empty chain for x itself) and in ``y_side`` via an odd one
    (a single indecomposable link for direct partners of x).  Witness chains
    list the intermediate vertices only.  A vertex that no tight chain
    reaches is in neither side; that happens only within a tolerance.
    """

    base_pair: Tuple[int, int]
    x_side: FrozenSet[int]
    y_side: FrozenSet[int]
    x_witnesses: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    y_witnesses: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def _min_pair(family: DistanceFamily) -> Tuple[int, int]:
    """Pair (i, j), i < j, with minimal D, ties broken lexicographically:
    the first off-diagonal minimum in row-major order, which lies above the
    diagonal because the array is symmetric.  The off-diagonal entries are
    read as a view: past its first entry, the flat array is n - 1 runs of
    n + 1 entries, each ending on a diagonal entry, so the k-th off-diagonal
    entry is flat entry k + k // n + 1."""
    n = family.n
    off = family.scaled.array.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]
    k = int(np.argmin(off))
    i, j = divmod(k + k // n + 1, n)
    return i + 1, j + 1


@kernel.python_floats
def bipartition(family: DistanceFamily) -> Bipartition:
    """Recover the two sides of a would-be bipartite realization.

    A parity walk over the vertices in increasing D_{x,.} order: each vertex
    v takes as parent its first tight S-neighbour u already placed, one with
    D_{x,u} + D_{u,v} = D_{x,v}, and lands on the side opposite u.  Parent
    chains are thus tight chains of indecomposable links from x; tightness
    makes D_{x,.} strictly increase along them, so they are simple.  When S
    realizes D the last link of a shortest S-path to v is tight, so every
    vertex is placed, and the sides 2-colour S exactly when S is bipartite.
    One ``kernel.eq`` call tests tightness on S's 2m links, each edge both
    ways; nothing of size n^2 is built.
    """
    x, y = _min_pair(family)
    s, d = family.support.graph, family.scaled.array
    dx = d[x - 1]
    order = [v + 1 for v in sorted(range(family.n), key=dx.tolist().__getitem__)]
    rank = {v: k for k, v in enumerate(order)}
    # S's links u -> v, both ways, and the tight ones: D_{x,u} + D_{u,v} = D_{x,v}
    src, dst = np.concatenate((s.u, s.v)), np.concatenate((s.v, s.u))
    tight = kernel.eq(dx[src] + d[src, dst], dx[dst], family.cmp)
    parents: Dict[int, List[int]] = {}  # each vertex's tight in-neighbours
    for u, v in zip((src[tight] + 1).tolist(), (dst[tight] + 1).tolist()):
        parents.setdefault(v, []).append(u)
    side = {x: 0}
    chains: Dict[int, Tuple[int, ...]] = {x: ()}
    for v in order[1:]:
        placed = [u for u in parents.get(v, ()) if u in side]
        if placed:
            u = min(placed, key=rank.__getitem__)
            side[v] = side[u] ^ 1
            chains[v] = chains[u] + (u,) if u != x else ()
    x_witnesses, y_witnesses = ({v: c for v, c in chains.items() if side[v] == p} for p in (0, 1))
    return Bipartition((x, y), frozenset(x_witnesses), frozenset(y_witnesses), x_witnesses, y_witnesses)


def _two_coloured(family: DistanceFamily) -> Tuple[Realization, Optional[np.ndarray]]:
    """``DistanceFamily.sides``: the verdict that both bipartite classes share
    and, on acceptance, X's membership per vertex index, built once.  It
    accepts, with S's realization and the ``bipartition`` walk as witness,
    when the walk covers every vertex and every edge of S crosses the sides."""
    support = family.support
    failed = support.rejection()
    if failed is not None:
        return failed, None
    bp = bipartition(family)
    gap = set(range(1, family.n + 1)) - bp.x_side - bp.y_side
    if gap:  # only within a tolerance, see ``bipartition``
        return Realization.rejected(f"cover gap: {sorted(gap)} in neither side"), None
    x = np.zeros(family.n, dtype=bool)
    x[[a - 1 for a in bp.x_side]] = True
    # Every same-side pair splits through the other side iff no edge of S
    # (an indecomposable pair) joins two vertices of one side.
    s = support.graph
    same = x[s.u] == x[s.v]
    if same.any():
        k = int(np.argmax(same))  # the first such edge in sorted order
        a, b = int(s.u[k]) + 1, int(s.v[k]) + 1
        return Realization.rejected(f"same-side pair ({a},{b}) is an edge of the support graph"), None
    return Realization(True, graph=support.realization, witness=bp), x


def _complete_bipartite(family: DistanceFamily, bp: Bipartition) -> bool:
    """Is S, whose every edge crosses the sides, all of K_{X,Y}?"""
    return len(family.support.graph.u) == len(bp.x_side) * len(bp.y_side)


def bigraph_check(family: DistanceFamily) -> Realization:
    """Decide bipartite realizability: S must be 2-coloured by the sides
    that ``bipartition`` recovers, which the accepted verdict carries as its
    witness.  The realization is the complete bipartite graph on those sides
    with the cross 2-weights as weights, bar S's edges, which keep S's
    realization's weights (``support.rebuild``).

    The tests compare this with the paper's criterion: every same-side pair
    splits through a vertex of the other side.
    """
    result, x = family.sides
    if not result or _complete_bipartite(family, result.witness):
        # when S is K_{X,Y}, keep its verified realization, as the pruned
        # class does, so that within a tolerance the two verdicts agree
        return result
    # K_{X,Y}: the pairs u < v on different sides, sorted as they come in
    # row-major order (every vertex is in X or Y once the sides accept, so
    # "not in X" is Y)
    u, v = np.nonzero(x[:, None] != x)
    upper = u < v
    graph = rebuild(family, u[upper], v[upper])
    if graph is None:
        return Realization.rejected("bipartite conditions hold but the reconstruction failed verification")
    return Realization(True, graph=graph, witness=result.witness)


def cobigraph_check(family: DistanceFamily) -> Realization:
    """Decide realizability by a *pruned* complete bipartite graph: S must
    be 2-coloured by the recovered sides and join every cross pair; S is the
    realization, and the sides are the witness.

    The tests compare this with the paper's criterion: bipartite, and every
    cross pair indecomposable.
    """
    result, _ = family.sides
    if not result or _complete_bipartite(family, result.witness):
        return result
    bp, adj = result.witness, family.support.graph.adjacency()
    a, b = next((a, b) for a in sorted(bp.x_side) for b in sorted(bp.y_side) if b not in adj[a])
    return Realization.rejected(f"cross entry ({a},{b}) is decomposable")
