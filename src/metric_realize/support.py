"""The support graph S of a family, computed once per family.

S is the graph of indecomposable pairs, each edge weighted by its family
value.  When the triangle inequalities hold, S is the unique pruned
realization on [n] (Hakimi & Yau 1965), so every class verdict is a test on
the shape of S.  ``DistanceFamily.support`` memoises :func:`analyse`, which
finds S and the triangle check with the dense min-plus kernel
(``metric_realize.kernel``) on the family's array, not with a loop over
pairs and midpoints.  Each other fact about S is derived once: the midpoint
of the first triangle violation from two rows of that array, whether S
realizes D, and the bipartite classes' shared verdict on S's 2-colouring
(``DistanceFamily.sides``), which the planarity counts also read.  One
maker, :func:`rebuild`, weighs and checks the graphs that add pairs of D to
S: on exact numbers the split scan proves that S realizes D, so exact
``classify`` runs no verification; float arrays are verified.  S is kept
once, as its graph; a class test that decides by the edge count never
builds the graph's adjacency view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernel
from .family import DistanceFamily
from .graph import WeightedGraph, verify_realization
from .realization import Realization


@dataclass(frozen=True)
class Support:
    """S as its graph, the family's first triangle violation (or None) and
    the graph of S's shape that realizes the family (or None).

    That graph is S itself whenever S realizes D, which always holds on
    exact numbers once the triangle inequalities do.  On floats, near-ties
    within a tolerance, or rounded sums, can add up along S until S misses
    D; under a tolerance a tree S is then reweighted from one end of a
    longest pair (as the paper rebuilds a snake), and kept when that
    verifies.
    """

    graph: WeightedGraph
    violation: Optional[Tuple[int, int, int]]
    realization: Optional[WeightedGraph]

    def rejection(self) -> Optional[Realization]:
        """The verdict shared by every class when S cannot decide it: a
        triangle violation rejects, and so does an S that misses the family,
        which only float numbers allow.  None when S decides."""
        if self.violation is not None:
            return Realization.rejected(f"triangle violation at {self.violation}")
        if self.realization is None:
            return Realization.rejected(
                "the support graph does not realize the family within the tolerance"
            )
        return None

    def is_tree(self) -> bool:
        return len(self.graph.u) == self.graph.n - 1


@kernel.python_floats
def analyse(family: DistanceFamily) -> Support:
    """S and the triangle check from one call of ``kernel.splits`` on every
    pair i < j of the family's array, in row-major order, which is the
    lexicographic order of the pairs: the smallest split M_ij = min over z
    outside {i, j} of D_iz + D_zj decides both the triangle inequality
    (D_ij <= M_ij) and indecomposability (D_ij < M_ij).  Both comparisons
    are monotone in the split, so they agree with testing every z, in exact
    and tolerance mode, where an infinite split (a sum beyond the float
    range) is above every D_ij, as the exact split is.  S's edges, the
    pairs with D < M, come out sorted; the first pair with M < D is the
    first violation, and its midpoint is the first z with D_iz + D_zj <
    D_ij, read off the two rows of the array.  No n x n split matrix is
    built.

    On exact numbers with no violation, the scan is the proof that S
    realizes D.  It showed D_ij <= M_ij for every pair, and (i, j) in S iff
    D_ij < M_ij.  Every path from i to j weighs at least D_ij, by the
    triangle inequalities.  S has a path of weight D_ij, by induction on
    D_ij: a pair in S is an edge, and any other pair has D_ij = D_iz + D_zj
    with both terms positive and smaller.  So S realizes D and is
    connected.  Float sums round, so the induction does not hold bit for
    bit: on a float64 array S is verified.
    """
    n, cmp = family.n, family.cmp
    a, scale = family.scaled
    index = np.arange(n)
    rows, cols = np.nonzero(index[:, None] < index)
    m = kernel.splits(family.scaled, rows, cols)
    d = a[rows, cols]
    below = kernel.lt(d, m, cmp)
    above = kernel.lt(m, d, cmp)
    violation = None
    if above.any():
        k = int(np.argmax(above))
        i, j = int(rows[k]), int(cols[k])
        # z = i and z = j give D_ij itself, which is never below it
        z = int(np.argmax(kernel.lt(a[i] + a[j], a[i, j], cmp)))
        violation = (i + 1, j + 1, z + 1)
    graph = WeightedGraph._of_arrays(n, rows[below], cols[below], d[below], scale)
    del rows, cols, d, m, below, above  # a float S's verification below needs room of its own at large n
    realization = None
    if violation is None:
        if scale is not None or verify_realization(graph, family):
            realization = graph
        elif not cmp.exact and len(graph.u) == n - 1:
            realization = _reweighted_tree(family, graph)
    return Support(graph, violation, realization)


def rebuild(family: DistanceFamily, u: np.ndarray, v: np.ndarray) -> Optional[WeightedGraph]:
    """The graph on the sorted 0-based pairs u < v, which hold S, each pair
    weighing D_uv but S's edges, which keep the weights of S's realization
    (D's own unless a tolerance reweighted S); None unless it realizes the
    family.  An exact array is certified: S by the split scan, and an added
    pair (a, b) weighs D_ab = d_S(a, b), which changes no 2-weight.  A
    float64 array (tolerance mode, or floats under ``EXACT``) is verified:
    float sums round, and a path through an added pair may fall short."""
    d, scale = family.scaled
    w, s, r = d[u, v], family.support.graph, family.support.realization
    if r is not s:
        w[np.searchsorted(u * family.n + v, s.u * family.n + s.v)] = r.w
    # the pairs hold S, which is connected as it has a realization
    graph = WeightedGraph._of_arrays(family.n, u, v, w, scale, connected=True)
    return graph if scale is not None or verify_realization(graph, family) else None


def _reweighted_tree(family: DistanceFamily, s: WeightedGraph) -> Optional[WeightedGraph]:
    """S, of n - 1 edges, with each edge weighted by the step in D_{x,.}
    along it, x the first row holding the largest D; None unless the steps
    rise away from x along a tree that verifies.  The far end of an edge is
    its end of larger D_{x,.}.  With no tie at an edge and no vertex the far
    end of two edges, each vertex but x (D_xx = 0) has one parent of smaller
    D_{x,.}, and parents lead to x: the edges span a tree rooted at x, which
    a cycle or a disconnected part fails."""
    a = family.scaled.array
    dx = a[int(np.argmax(a.max(axis=1)))]
    du, dv = dx[s.u], dx[s.v]
    far = np.where(du < dv, s.v, s.u)
    if (du == dv).any() or np.bincount(far, minlength=family.n).max() > 1:
        return None
    graph = WeightedGraph._of_arrays(family.n, s.u, s.v, np.abs(du - dv), s.scale, connected=True)
    return graph if verify_realization(graph, family) else None
