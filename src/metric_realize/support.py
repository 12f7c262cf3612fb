"""The support graph S of a family, computed once per family.

S is the graph of indecomposable pairs, each edge weighted by its family
value.  When the triangle inequalities hold, S is the unique pruned
realization on [n] (Hakimi & Yau 1965), so every class verdict is a test on
the shape of S.  ``DistanceFamily.support`` memoises :func:`analyse`, which
finds S and the triangle check with the dense min-plus kernel
(``metric_realize.kernel``) on the family's array, not with a loop over
pairs and midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import kernel
from .comparison import Number
from .family import DistanceFamily, FamilyError
from .graph import WeightedGraph, verify_realization
from .realization import InternalInconsistencyError, Realization


@dataclass(frozen=True)
class Support:
    """S with its adjacency, the family's first triangle violation (or None)
    and the graph of S's shape that realizes the family (or None).

    That graph is S itself whenever S realizes D, which always holds in
    exact mode once the triangle inequalities do.  In tolerance mode
    near-ties within the tolerance can add up along S until S misses D;
    a tree S is then reweighted from one end of a longest pair (as the
    paper rebuilds a snake), and kept when that verifies.
    """

    graph: WeightedGraph
    adj: Dict[int, Dict[int, Number]]
    violation: Optional[Tuple[int, int, int]]
    realization: Optional[WeightedGraph]
    exact: bool

    def rejection(self) -> Optional[Realization]:
        """The verdict shared by every class when S cannot decide it: a
        triangle violation rejects, and so does an S that misses the family
        in tolerance mode; in exact mode that is an internal inconsistency.
        None when S decides."""
        if self.violation is not None:
            return Realization.rejected(f"triangle violation at {self.violation}")
        if self.realization is None:
            if self.exact:
                raise InternalInconsistencyError("support graph failed verification")
            return Realization.rejected(
                "the support graph does not realize the family within the tolerance"
            )
        return None

    def is_tree(self) -> bool:
        return len(self.graph.edges) == self.graph.n - 1


def analyse(family: DistanceFamily) -> Support:
    """S and the triangle check from one min-plus product on the family's
    array (``kernel.splits``, n numpy steps of n^2): for each pair, the
    smallest split M_ij = min over z outside {i, j} of D_iz + D_zj decides
    both the triangle inequality (D_ij <= M_ij) and indecomposability
    (D_ij < M_ij).  Both comparisons are monotone in the split, so they agree
    with testing every z, in exact and tolerance mode.  S is verified once,
    when D is a metric.
    """
    n, cmp = family.n, family.cmp
    d, m = kernel.splits(family.scaled)
    scale = family.scaled.scale
    # the pairs i < j in lexicographic order
    rows, cols = np.triu_indices(n, 1)
    dij, mij = d[rows, cols], m[rows, cols]
    try:
        below = kernel.lt(dij, mij, scale, cmp)
        above = kernel.lt(mij, dij, scale, cmp)
        violation = None
        if above.any():
            first = int(np.argmax(above))
            i, j = int(rows[first]), int(cols[first])
            violation = (i + 1, j + 1, kernel.first_shortcut(d, i, j, scale, cmp) + 1)
    except OverflowError:
        raise FamilyError(kernel.OUT_OF_FLOAT_RANGE) from None
    pairs = zip((rows[below] + 1).tolist(), (cols[below] + 1).tolist())
    edges = [(i, j, family.values[(i, j)]) for i, j in pairs]
    graph = WeightedGraph(n, edges, require_connected=False)
    adj = graph.adjacency()
    realization = None
    # A disconnected S has infinite 2-weights, which tolerance mode would
    # compare as equal to anything; it never realizes D.
    if violation is None and graph.is_connected():
        if verify_realization(graph, family):
            realization = graph
        elif not cmp.exact and len(edges) == n - 1:
            realization = _reweighted_tree(family, adj)
    return Support(graph, adj, violation, realization, cmp.exact)


def _reweighted_tree(family: DistanceFamily, adj: Dict[int, Dict[int, Number]]) -> Optional[WeightedGraph]:
    """The tree S with each edge weighted by the step in D_{x,.} along it,
    x the first vertex of the lexicographically first pair of maximal D;
    None when a step is not positive or the tree fails verification."""
    d = family.d
    x = max(family.pairs(), key=lambda p: d(*p))[0]
    edges, stack, seen = [], [x], {x}
    while stack:
        u = stack.pop()
        for v in adj[u].keys() - seen:
            edges.append((u, v, d(x, v) - d(x, u)))
            seen.add(v)
            stack.append(v)
    if not all(w > 0 for _u, _v, w in edges):
        return None
    graph = WeightedGraph(family.n, edges)
    return graph if verify_realization(graph, family) else None
