"""Small-n brute-force realizability oracles, the exhaustive Kuratowski
search, and the scalar 2-weights, usefulness, verification and split loops,
against which the tests check the recognizers and the dense min-plus kernel.

Oracles enumerate candidate topologies (Prufer sequences for trees, cyclic
orders for polygons, side assignments for bipartitions) with edge weights
forced to the family values of adjacent pairs, and decide by checking all
path sums.  The witness search looks for a K5 or K33 subdivision in a graph
by backtracking over disjoint hub-to-hub chains.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from metric_realize import (
    EXACT,
    Cmp,
    DistanceFamily,
    EdgeUsefulness,
    PlanarWitness,
    WeightedGraph,
    check_triangle,
    is_indecomposable,
    support_graph,
)
from metric_realize.comparison import Number
from metric_realize.generators import tree_from_prufer

ORACLE_SIZE_LIMIT = 7
SEARCH_SIZE_LIMIT = 10


class SizeGuardError(ValueError):
    """The brute-force witness search was refused for being too large."""


# ---------------------------------------------------------------------------
# Scalar 2-weights, usefulness and verification (references for the kernel)
# ---------------------------------------------------------------------------


def shortest_path_matrix(graph: WeightedGraph) -> List[List[Number]]:
    """All-pairs shortest path weights, 0-indexed matrix (scalar
    Floyd-Warshall); ``float("inf")`` for pairs in different components."""
    n = graph.n
    inf = float("inf")
    dist: List[List[Number]] = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v, w in graph.edges:
        if w < dist[u - 1][v - 1]:
            dist[u - 1][v - 1] = w
            dist[v - 1][u - 1] = w
    for k in range(n):
        # Only finite entries are added: an exact value beyond the float
        # range plus inf would overflow.  Row k equals column k (the graph is
        # undirected) and does not change while k is the midpoint.
        reach = [(j, w) for j, w in enumerate(dist[k]) if w != inf]
        for i, dik in reach:
            di = dist[i]
            for j, dkj in reach:
                alt = dik + dkj
                if alt < di[j]:
                    di[j] = alt
    return dist


def family_of_matrix(matrix: List[List[Number]], cmp: Cmp = EXACT) -> DistanceFamily:
    n = len(matrix)
    return DistanceFamily(
        n, {(i, j): matrix[i - 1][j - 1] for i, j in itertools.combinations(range(1, n + 1), 2)}, cmp
    )


def useful_edges(graph: WeightedGraph, cmp: Cmp = EXACT) -> EdgeUsefulness:
    """Per edge: its weight equals D_{u,v} and D_{u,v} is indecomposable,
    one ``is_indecomposable`` scan per edge."""
    family = family_of_matrix(shortest_path_matrix(graph), cmp)
    useful = set()
    useless = set()
    for u, v, w in graph.edges:
        if cmp.eq(w, family.d(u, v)) and is_indecomposable(family, u, v):
            useful.add((u, v))
        else:
            useless.add((u, v))
    return EdgeUsefulness(frozenset(useful), frozenset(useless))


def verify_realization(graph: WeightedGraph, family: DistanceFamily) -> bool:
    """Every pair compared under the family's cmp mode."""
    return _matrix_matches(shortest_path_matrix(graph), family)


def support_scan(family: DistanceFamily) -> Tuple[WeightedGraph, Optional[Tuple[int, int, int]], Optional[WeightedGraph]]:
    """S, the first triangle violation and the realization of S's shape
    (see ``metric_realize.support.Support``) by the scalar split scan: per
    pair i < j, the smallest D_iz + D_zj over rows whose diagonal is raised
    above every split, and for the first violating pair the first k."""
    from metric_realize.support import _reweighted_tree

    n, cmp, d = family.n, family.cmp, family.d
    big = 2 * max(family.values.values()) + 1
    rows = [[d(i, j) if i != j else big for j in range(1, n + 1)] for i in range(1, n + 1)]
    edges = []
    violation = None
    for i in range(1, n + 1):
        row = rows[i - 1]
        for j in range(i + 1, n + 1):
            dij = row[j - 1]
            split = min(map(operator.add, row, rows[j - 1]))
            if cmp.lt(dij, split):
                edges.append((i, j, dij))
            elif violation is None and cmp.lt(split, dij):
                k = next(k for k in range(1, n + 1) if cmp.lt(row[k - 1] + rows[k - 1][j - 1], dij))
                violation = (i, j, k)
    graph = WeightedGraph(n, edges, require_connected=False)
    realization = None
    if violation is None and graph.is_connected():
        if verify_realization(graph, family):
            realization = graph
        elif not cmp.exact and len(edges) == n - 1:
            realization = _reweighted_tree(family, graph.adjacency())
    return graph, violation, realization


def parse_family_csv(text: str, cmp: Cmp = EXACT) -> DistanceFamily:
    """The matrix document read cell by cell with ``parse_number`` and
    checked pair by pair in row order, the diagonal cell ahead of its row."""
    from metric_realize.serialize import ParseError, parse_number

    rows = [line for line in (l.strip() for l in text.splitlines()) if line]
    n = len(rows)
    if n < 2:
        raise ParseError(f"matrix needs at least 2 rows, got {n}")
    matrix = []
    for i, row in enumerate(rows, start=1):
        cells = row.split(",")
        if len(cells) != n:
            raise ParseError(f"row {i} has {len(cells)} cells, expected {n}")
        matrix.append([parse_number(c, cmp) for c in cells])
    values = {}
    for i in range(1, n + 1):
        if not cmp.eq(matrix[i - 1][i - 1], 0):
            raise ParseError(f"nonzero diagonal at ({i},{i})")
        for j in range(i + 1, n + 1):
            a, b = matrix[i - 1][j - 1], matrix[j - 1][i - 1]
            if not cmp.eq(a, b):
                raise ParseError(f"asymmetric at ({i},{j})")
            if not a > 0:
                raise ParseError(f"nonpositive 2-weight at ({i},{j})")
            values[(i, j)] = a
    return DistanceFamily(n, values, cmp)


# ---------------------------------------------------------------------------
# Tree shapes
# ---------------------------------------------------------------------------


def prufer_sequences(n: int) -> Iterator[Sequence[int]]:
    if n == 2:
        yield ()
        return
    yield from itertools.product(range(1, n + 1), repeat=n - 2)


def _degrees(n: int, edges: Sequence[Tuple[int, int]]) -> List[int]:
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def is_caterpillar_edges(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """Tree test: the degree->=2 vertices must induce a path."""
    deg = _degrees(n, edges)
    inner = {v for v in range(1, n + 1) if deg[v] >= 2}
    inner_deg = {v: 0 for v in inner}
    for u, v in edges:
        if u in inner and v in inner:
            inner_deg[u] += 1
            inner_deg[v] += 1
    return all(d <= 2 for d in inner_deg.values())


def is_snake_edges(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    deg = _degrees(n, edges)
    if n == 2:
        return len(edges) == 1
    return len(edges) == n - 1 and sum(1 for v in range(1, n + 1) if deg[v] == 1) == 2 and max(deg[1:]) <= 2


# ---------------------------------------------------------------------------
# Exhaustive Kuratowski-subdivision search
# ---------------------------------------------------------------------------


def _adjacency(graph: WeightedGraph) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {v: set() for v in range(1, graph.n + 1)}
    for u, v, _w in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _interior_paths(
    adj: Dict[int, Set[int]], a: int, b: int, banned: Set[int]
) -> Iterator[Tuple[int, ...]]:
    """Simple paths a -> b with at least one interior vertex, interiors
    avoiding ``banned``; yields the tuple of interiors."""

    def extend(v: int, interiors: List[int]) -> Iterator[Tuple[int, ...]]:
        for w in sorted(adj[v]):
            if w == b:
                if interiors:
                    yield tuple(interiors)
            elif w not in banned and w != a and w not in interiors:
                interiors.append(w)
                yield from extend(w, interiors)
                interiors.pop()

    yield from extend(a, [])


def _connect_hubs(
    adj: Dict[int, Set[int]], pairs: Sequence[Tuple[int, int]], hubs: Set[int]
) -> Optional[Dict[FrozenSet[int], Tuple[int, ...]]]:
    """Backtracking search for pairwise-disjoint connecting chains; direct
    edges use the empty chain and consume no interior vertices."""
    used: Set[int] = set()
    chains: Dict[FrozenSet[int], Tuple[int, ...]] = {}

    def solve(k: int) -> bool:
        if k == len(pairs):
            return True
        a, b = pairs[k]
        if b in adj[a]:
            chains[frozenset((a, b))] = ()
            if solve(k + 1):
                return True
            del chains[frozenset((a, b))]
            return False
        for interiors in _interior_paths(adj, a, b, hubs | used):
            used.update(interiors)
            chains[frozenset((a, b))] = interiors
            if solve(k + 1):
                return True
            del chains[frozenset((a, b))]
            used.difference_update(interiors)
        return False

    return chains if solve(0) else None


def subdivision_witness_search(
    graph: WeightedGraph, size_limit: int = SEARCH_SIZE_LIMIT
) -> Optional[PlanarWitness]:
    """Exhaustive search for a K5 or K33 subdivision with hubs among [n].

    Intended for small graphs (the search is exponential); beyond
    ``size_limit`` vertices it refuses explicitly rather than degrade.
    """
    if graph.n > size_limit:
        raise SizeGuardError(
            f"witness search refused for n={graph.n} > {size_limit}; use the general planarity test"
        )
    adj = _adjacency(graph)
    vertices = range(1, graph.n + 1)
    for q in itertools.combinations(vertices, 5):
        chains = _connect_hubs(adj, list(itertools.combinations(q, 2)), set(q))
        if chains is not None:
            return PlanarWitness("K5", tuple(q), chains)
    for a_set in itertools.combinations(vertices, 3):
        rest = [v for v in vertices if v not in a_set]
        for b_set in itertools.combinations(rest, 3):
            if min(b_set) < min(a_set):
                continue  # unordered {A, B}: avoid the mirror duplicate
            pairs = [(a, b) for a in a_set for b in b_set]
            chains = _connect_hubs(adj, pairs, set(a_set) | set(b_set))
            if chains is not None:
                return PlanarWitness("K33", (tuple(a_set), tuple(b_set)), chains)
    return None


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def _forced_tree_realizes(n: int, edges: Sequence[Tuple[int, int]], family: DistanceFamily) -> bool:
    """Does the tree with forced weights w(u,v) = D_{u,v} realize the family?

    Checks every path sum by DFS from each root, exiting on the first
    mismatch; independent of the shortest-path machinery.
    """
    cmp = family.cmp
    d = family.d
    adj: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for root in range(1, n):
        stack = [(root, 0, 0)]
        while stack:
            v, parent, acc = stack.pop()
            for w in adj[v]:
                if w == parent:
                    continue
                dist = acc + d(v, w)
                if not cmp.eq(dist, d(root, w)):
                    return False
                stack.append((w, v, dist))
    return True


def _snakelike_brute(family: DistanceFamily) -> bool:
    n = family.n
    if n == 2:
        return True
    cmp = family.cmp
    d = family.d
    for perm in itertools.permutations(range(1, n + 1)):
        if perm[0] > perm[-1]:
            continue
        acc = 0
        prefix = [0]
        ok = True
        for k in range(1, n):
            acc = acc + d(perm[k - 1], perm[k])
            prefix.append(acc)
            if not cmp.eq(acc, d(perm[0], perm[k])):
                ok = False
                break
        if not ok:
            continue
        if all(
            cmp.eq(prefix[j] - prefix[i], d(perm[i], perm[j]))
            for i in range(1, n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def _treelike_brute(family: DistanceFamily, caterpillar_only: bool = False) -> bool:
    n = family.n
    if n == 2:
        return True
    for seq in prufer_sequences(n):
        edges = tree_from_prufer(seq, n)
        if caterpillar_only and not is_caterpillar_edges(n, edges):
            continue
        if _forced_tree_realizes(n, edges, family):
            return True
    return False


def _pruned_polygonlike_brute(family: DistanceFamily) -> bool:
    n = family.n
    if n < 3:
        return False
    cmp = family.cmp
    d = family.d
    for rest in itertools.permutations(range(2, n + 1)):
        if rest[0] > rest[-1]:
            continue  # reflections are the same cycle
        order = (1, *rest)
        prefix = [0]
        for k in range(1, n):
            prefix.append(prefix[-1] + d(order[k - 1], order[k]))
        total = prefix[-1] + d(order[-1], order[0])
        if not all(
            cmp.eq(d(order[p], order[q]), min(prefix[q] - prefix[p], total - (prefix[q] - prefix[p])))
            for p in range(n)
            for q in range(p + 1, n)
        ):
            continue
        # the cycle realizes the family; it is pruned only when no edge ties
        # with its complementary arc (a tied edge is useless)
        edges = [
            (order[k], order[(k + 1) % n], d(order[k], order[(k + 1) % n]))
            for k in range(n)
        ]
        if _all_edges_needed(WeightedGraph(n, edges)):
            return True
    return False


def _matrix_matches(matrix, family: DistanceFamily) -> bool:
    cmp = family.cmp
    for i, j in family.pairs():
        if not cmp.eq(matrix[i - 1][j - 1], family.d(i, j)):
            return False
    return True


def _all_edges_needed(graph: WeightedGraph) -> bool:
    """Every edge's deletion changes some 2-weight (or disconnects): pruned."""
    base = shortest_path_matrix(graph)
    for u, v, _w in graph.edges:
        reduced = graph.without_edge(u, v, require_connected=False)
        if not reduced.is_connected():
            continue
        alt = shortest_path_matrix(reduced)
        if alt == base:
            return False
    return True


def _cographlike_brute(family: DistanceFamily) -> bool:
    if not check_triangle(family, max_violations=1).holds:
        return False
    graph = WeightedGraph(
        family.n, [(i, j, family.d(i, j)) for i, j in family.pairs()]
    )
    return _matrix_matches(shortest_path_matrix(graph), family) and _all_edges_needed(graph)


def _bigraphlike_brute(family: DistanceFamily, pruned: bool = False) -> bool:
    n = family.n
    others = list(range(2, n + 1))
    for r in range(0, n - 1):
        for extra in itertools.combinations(others, r):
            x_side = {1, *extra}
            y_side = [v for v in range(1, n + 1) if v not in x_side]
            if not y_side:
                continue
            edges = [(a, b, family.d(a, b)) for a in sorted(x_side) for b in y_side]
            graph = WeightedGraph(n, edges, require_connected=False)
            if not graph.is_connected():
                continue
            if not _matrix_matches(shortest_path_matrix(graph), family):
                continue
            if pruned and not _all_edges_needed(graph):
                continue
            return True
    return False


def _planarlike_brute(family: DistanceFamily) -> bool:
    if not check_triangle(family, max_violations=1).holds:
        return False
    return subdivision_witness_search(support_graph(family)) is None


def brute_force_class_check(family: DistanceFamily, class_id: str) -> bool:
    """Independent small-n oracle: does some graph of the class realize the family?

    Enumeration strategies: permutations for snakes, Prufer sequences for
    trees and caterpillars, cyclic orders for pruned polygons (plus the snake
    branch for general polygons), side assignments for bipartite classes,
    edge-deletion tests for prunedness, and the exhaustive subdivision search
    for planarity.  Guarded at n <= 7.
    """
    if family.n > ORACLE_SIZE_LIMIT:
        raise ValueError(f"brute-force oracle refused for n={family.n} > {ORACLE_SIZE_LIMIT}")
    if class_id == "snake":
        return _snakelike_brute(family)
    if class_id == "caterpillar":
        return _treelike_brute(family, caterpillar_only=True)
    if class_id == "tree":
        return _treelike_brute(family)
    if class_id == "polygon":
        return _pruned_polygonlike_brute(family) or _snakelike_brute(family)
    if class_id == "pruned_polygon":
        return _pruned_polygonlike_brute(family)
    if class_id == "complete":
        return _cographlike_brute(family)
    if class_id == "complete_bipartite":
        return _bigraphlike_brute(family)
    if class_id == "pruned_complete_bipartite":
        return _bigraphlike_brute(family, pruned=True)
    if class_id == "planar":
        return _planarlike_brute(family)
    raise ValueError(f"no oracle for class {class_id!r}")
