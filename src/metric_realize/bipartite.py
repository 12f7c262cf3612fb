"""Recognizers for pruned complete graphs and (complete) bipartite graphs,
as tests on the support graph S, including bipartition recovery as S's
2-colouring along chains of indecomposable links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from . import kernel
from .family import DistanceFamily
from .graph import support_graph
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
    """Recovered sides X and Y with the chains that placed each vertex.

    The base pair (x, y) attains the minimal 2-weight.  A chain is an S-path
    from x, tight (its links add up to D_{x,v}) when S realizes D.  A vertex
    lands in ``x_side`` via a chain with an even number of indecomposable
    links from x (the empty chain for x itself) and in ``y_side`` via an odd
    one (a single indecomposable link for direct partners of x).  Witness
    chains list the intermediate vertices only.
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
    v takes as parent its first tight S-neighbour u already placed (D_{x,u}
    + D_{u,v} = D_{x,v}), else its first placed S-neighbour, and lands on the
    side opposite u; one with neither waits for a later pass.  S is
    connected (``support_graph``, which raises when S is no graph), so each
    pass places a vertex, and parent chains are S-paths from x that reach
    every vertex: the sides 2-colour S exactly when S is bipartite; when S
    realizes D they are tight, as the last link of a shortest S-path is.
    One ``kernel.eq`` call tests tightness on S's 2m links.
    """
    s, d = support_graph(family), family.scaled.array
    x, y = _min_pair(family)
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
    waiting = order[1:]
    while waiting:
        left = []
        for v in waiting:
            placed = [u for u in parents.get(v, ()) if u in side] or [u for u in s.adjacency()[v] if u in side]
            if not placed:
                left.append(v)
                continue
            u = min(placed, key=rank.__getitem__)
            side[v] = side[u] ^ 1
            chains[v] = chains[u] + (u,) if u != x else ()
        waiting = left
    x_witnesses, y_witnesses = ({v: c for v, c in chains.items() if side[v] == p} for p in (0, 1))
    return Bipartition((x, y), frozenset(x_witnesses), frozenset(y_witnesses), x_witnesses, y_witnesses)


def _two_coloured(family: DistanceFamily) -> Tuple[Optional[Realization], Optional[Bipartition], Optional[np.ndarray]]:
    """``DistanceFamily.sides``, on S's shape alone: no S (S's own
    rejection) or an edge of S in one side rejects; else None, the
    ``bipartition`` walk and X's membership per vertex index."""
    support = family.support
    if support.graph is None:
        return support.rejection(), None, None
    bp = bipartition(family)
    x = np.zeros(family.n, dtype=bool)
    x[[a - 1 for a in bp.x_side]] = True
    # Every same-side pair splits through the other side iff no edge of S
    # (an indecomposable pair) joins two vertices of one side.
    s = support.graph
    same = x[s.u] == x[s.v]
    if same.any():
        k = int(np.argmax(same))  # the first such edge in sorted order
        a, b = int(s.u[k]) + 1, int(s.v[k]) + 1
        return Realization.rejected(f"same-side pair ({a},{b}) is an edge of the support graph"), None, None
    return None, bp, x


def bigraph_check(family: DistanceFamily) -> Realization:
    """Decide bipartite realizability: S must be 2-coloured by the sides
    that ``bipartition`` recovers, which the accepted verdict carries as its
    witness.  The realization is K_{X,Y} on those sides with the cross
    2-weights as weights, bar S's edges, which keep the weights of S's
    realization if any (``support.rebuild``), and its own check is the one
    numeric test: an S that misses D within a tolerance does not reject.

    The tests compare this with the paper's criterion: every same-side pair
    splits through a vertex of the other side.
    """
    failed, bp, x = family.sides
    if failed is not None:
        return failed
    s, realization = family.support.graph, family.support.realization
    if realization is not None and len(s.u) == len(bp.x_side) * len(bp.y_side):
        # S is all of K_{X,Y}: one graph with the pruned class, verified and rendered once
        return Realization(True, graph=realization, witness=bp)
    # K_{X,Y}: the pairs u < v on different sides, sorted as they come in
    # row-major order (every vertex is in X or Y once the sides accept, so
    # "not in X" is Y)
    u, v = np.nonzero(x[:, None] != x)
    upper = u < v
    graph = rebuild(family, u[upper], v[upper])
    if graph is None:
        return Realization.rejected("bipartite conditions hold but the reconstruction failed verification")
    return Realization(True, graph=graph, witness=bp)


def cobigraph_check(family: DistanceFamily) -> Realization:
    """Decide realizability by a *pruned* complete bipartite graph: S must
    realize D, be 2-coloured by the recovered sides and join every cross
    pair; S is the realization, and the sides are the witness.

    The tests compare this with the paper's criterion: bipartite, and every
    cross pair indecomposable.
    """
    failed = family.support.rejection()  # S is the realization: it must realize D
    failed, bp, _ = family.sides if failed is None else (failed, None, None)
    if failed is not None:
        return failed
    s = family.support.graph
    if len(s.u) == len(bp.x_side) * len(bp.y_side):  # S is K_{X,Y}
        return Realization(True, graph=family.support.realization, witness=bp)
    adj = s.adjacency()
    a, b = next((a, b) for a in sorted(bp.x_side) for b in sorted(bp.y_side) if b not in adj[a])
    return Realization.rejected(f"cross entry ({a},{b}) is decomposable")
