"""The paper's class criteria on the raw family, as verdict-only predicates.

The recognizers read every verdict off the support graph S; these
predicates decide the same classes from the criteria the paper states on
the family itself, so tests can compare the two.
"""

import itertools

from metric_realize import (
    FamilyError,
    bipartition,
    check_four_point,
    check_median,
    check_triangle,
    is_indecomposable,
    pendant_offsets,
    polygon_order,
)


def triangle(family):
    return check_triangle(family, max_violations=1).holds


def snake_condition(family):
    """With (x, y) a pair of maximal D (first in lexicographic order),
    D_{i,j} = |D_{i,x} - D_{j,x}| for all distinct i, j != x."""
    d, cmp = family.d, family.cmp
    x, _y = max(family.pairs(), key=lambda p: (d(*p), -p[0], -p[1]))
    rest = [v for v in range(1, family.n + 1) if v != x]
    return all(cmp.eq(d(i, j), abs(d(i, x) - d(j, x))) for i, j in itertools.combinations(rest, 2))


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
        cmp.le(max(d(a, i) + d(b, j), d(a, j) + d(b, i)), d(a, b) + d(i, j))
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
        cmp.eq(d(order[p], order[q]), min(prefix[q] - prefix[p], total - prefix[q] + prefix[p]))
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
        any(cmp.eq(d(a, b), d(a, z) + d(z, b)) for z in other)
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
