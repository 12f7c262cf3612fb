"""The paper's class criteria on the raw family, as verdict-only predicates.

The recognizers read every verdict off the support graph S; these
predicates decide the same classes from the criteria the paper states on
the family itself, so tests can compare the two.  The module also holds
the paper's constructions they rest on: the pendant offsets of a
caterpillar and the polygon ordering walk along indecomposable partners.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from metric_realize import (
    DistanceFamily,
    FamilyError,
    WeightedGraph,
    bipartition,
    check_four_point,
    check_median,
    check_triangle,
    is_indecomposable,
)
from metric_realize.bipartite import _min_pair
from metric_realize.comparison import Number

from oracles import eq, le


def indecomposable_partners(family: DistanceFamily, i: int) -> List[int]:
    """All j != i such that D_{i,j} is indecomposable."""
    return [j for j in range(1, family.n + 1) if j != i and is_indecomposable(family, i, j)]


@dataclass
class CaterpillarStats:
    """Pendant offsets t_x per vertex and the pair maximizing D_{a,b} - t_a - t_b.

    ``offsets[i - 1]`` is t_i.  For a family realized by a caterpillar, t_x is
    the pendant-edge weight when x is a leaf and 0 when x is on the spine.
    """

    offsets: Tuple[Number, ...]
    extremal_pair: Tuple[int, int]

    def t(self, x: int) -> Number:
        return self.offsets[x - 1]


def pendant_offsets(family: DistanceFamily) -> CaterpillarStats:
    """Compute t_x = 1/2 min over distinct y,z != x of (D_{x,y}+D_{x,z}-D_{y,z})
    and the extremal pair maximizing D_{a,b} - t_a - t_b (lexicographic ties).

    Requires n >= 3 and the triangle inequalities (caller responsibility);
    under them every t_x is nonnegative.
    """
    if family.n < 3:
        raise FamilyError("pendant offsets need n >= 3")
    d = family.d
    offsets: List[Number] = []
    for x in range(1, family.n + 1):
        others = [v for v in range(1, family.n + 1) if v != x]
        m = min(d(x, y) + d(x, z) - d(y, z) for y, z in itertools.combinations(others, 2))
        offsets.append(m / 2 if isinstance(m, float) else _half(m))
    best = None
    best_val = None
    for a, b in family.pairs():
        v = d(a, b) - offsets[a - 1] - offsets[b - 1]
        if best_val is None or v > best_val:
            best_val = v
            best = (a, b)
    return CaterpillarStats(tuple(offsets), best)


def _half(value) -> Number:
    if isinstance(value, int) and value % 2 == 0:
        return value // 2
    return Fraction(value, 2) if isinstance(value, int) else value / 2


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


def triangle(family):
    return check_triangle(family, max_violations=1).holds


def snake_condition(family):
    """With (x, y) a pair of maximal D (first in lexicographic order),
    D_{i,j} = |D_{i,x} - D_{j,x}| for all distinct i, j != x."""
    d, cmp = family.d, family.cmp
    x, _y = max(family.pairs(), key=lambda p: (d(*p), -p[0], -p[1]))
    rest = [v for v in range(1, family.n + 1) if v != x]
    return all(eq(cmp, d(i, j), abs(d(i, x) - d(j, x))) for i, j in itertools.combinations(rest, 2))


def tree_condition(family):
    """Triangle, four-point and median conditions."""
    return (
        triangle(family)
        and check_four_point(family, max_violations=1).holds
        and check_median(family, max_violations=1).holds
    )


def caterpillar_condition(family):
    """Tree conditions, and for the extremal pair (a, b) of the pendant
    offsets: D_{a,b} + D_{i,j} >= max{D_{a,i} + D_{b,j}, D_{a,j} + D_{b,i}}
    for all distinct i, j outside {a, b}."""
    if not tree_condition(family):
        return False
    if family.n == 2:
        return True
    d, cmp = family.d, family.cmp
    a, b = pendant_offsets(family).extremal_pair
    rest = [v for v in range(1, family.n + 1) if v not in (a, b)]
    return all(
        le(cmp, max(d(a, i) + d(b, j), d(a, j) + d(b, i)), d(a, b) + d(i, j))
        for i, j in itertools.combinations(rest, 2)
    )


def pruned_polygon_condition(family):
    """The ordering walk absorbs all n vertices, and along the cyclic order
    it gives every 2-weight equals the minimum of its two arc sums."""
    if family.n < 3 or not triangle(family):
        return False
    try:
        ordering = polygon_order(family)
    except FamilyError:
        return False
    if not ordering.complete:
        return False
    order, n, d, cmp = ordering.order, family.n, family.d, family.cmp
    prefix = [0]
    for k in range(1, n):
        prefix.append(prefix[-1] + d(order[k - 1], order[k]))
    total = prefix[-1] + d(order[-1], order[0])
    return all(
        eq(cmp, d(order[p], order[q]), min(prefix[q] - prefix[p], total - prefix[q] + prefix[p]))
        for p, q in itertools.combinations(range(n), 2)
    )


def polygon_condition(family):
    return family.n >= 3 and (pruned_polygon_condition(family) or snake_condition(family))


def complete_condition(family):
    """Every entry indecomposable."""
    return triangle(family) and all(is_indecomposable(family, i, j) for i, j in family.pairs())


def bipartite_condition(family):
    """The recovered sides partition [n] with the base partner on the Y
    side, and every same-side pair splits through a vertex of the other side."""
    if not triangle(family):
        return False
    bp = bipartition(family)
    if bp.x_side & bp.y_side or len(bp.x_side | bp.y_side) != family.n:
        return False
    if bp.base_pair[1] not in bp.y_side:
        return False
    d, cmp = family.d, family.cmp
    return all(
        any(eq(cmp, d(a, b), d(a, z) + d(z, b)) for z in other)
        for side, other in ((bp.x_side, bp.y_side), (bp.y_side, bp.x_side))
        for a, b in itertools.combinations(sorted(side), 2)
    )


def pruned_bipartite_condition(family):
    """Bipartite, and every cross pair indecomposable."""
    if not bipartite_condition(family):
        return False
    bp = bipartition(family)
    return all(is_indecomposable(family, a, b) for a in bp.x_side for b in bp.y_side)


CRITERIA = {
    "snake": snake_condition,
    "caterpillar": caterpillar_condition,
    "tree": tree_condition,
    "pruned_polygon": pruned_polygon_condition,
    "polygon": polygon_condition,
    "complete": complete_condition,
    "bipartite": bipartite_condition,
    "pruned_bipartite": pruned_bipartite_condition,
}
