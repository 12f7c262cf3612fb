"""Small-n brute-force realizability oracles, the exhaustive Kuratowski
search, the scalar comparison rule, the scalar 2-weights, usefulness,
verification, split and family-check loops, the bipartition walk, the
edge-by-edge graph checks, the matrix document written cell by cell and
the dict form of the classify report, against which the tests check the
recognizers, the dense min-plus kernel, the graph checker, the matrix
writer and the report writer; and ``any_graph``, a graph connected or not,
for the tests that need a disconnected one (the package takes connected
graphs only).

Oracles enumerate candidate topologies (Prufer sequences for trees, cyclic
orders for polygons, side assignments for bipartitions) with edge weights
forced to the family values of adjacent pairs, and decide by checking all
path sums.  The witness search looks for a K5 or K33 subdivision in a graph
by backtracking over disjoint hub-to-hub chains; the deletion pass finds a
Kuratowski subgraph with networkx's planarity test at every step.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from metric_realize import (
    EXACT,
    Bipartition,
    Cmp,
    DistanceFamily,
    FamilyError,
    PairPredicateReport,
    PlanarWitness,
    WeightedGraph,
    support_graph,
)
from metric_realize import kernel
from metric_realize.comparison import Number
from metric_realize.generators import tree_from_prufer

ORACLE_SIZE_LIMIT = 7
SEARCH_SIZE_LIMIT = 10


class SizeGuardError(ValueError):
    """The brute-force witness search was refused for being too large."""


# ---------------------------------------------------------------------------
# The scalar comparison rule (the reference for ``kernel.eq`` and ``kernel.lt``)
# ---------------------------------------------------------------------------


def _slack(cmp: Cmp, a: Number, b: Number) -> float:
    return cmp.tol * min(max(1.0, abs(a), abs(b)), sys.float_info.max)


def eq(cmp: Cmp, a: Number, b: Number) -> bool:
    """a = b: exactly, or within the relative tolerance tol * max(1, |a|, |b|),
    the magnitude capped at the largest float."""
    if cmp.exact:
        return a == b
    return abs(a - b) <= _slack(cmp, a, b)


def lt(cmp: Cmp, a: Number, b: Number) -> bool:
    """Strictly less; in tolerance mode the gap must exceed tol * max(1, |a|, |b|)."""
    if cmp.exact:
        return a < b
    return b - a > _slack(cmp, a, b)


def le(cmp: Cmp, a: Number, b: Number) -> bool:
    return not lt(cmp, b, a)


# ---------------------------------------------------------------------------
# Scalar family checks (references for ``metric_realize.family``)
# ---------------------------------------------------------------------------


def triangle_scan(family: DistanceFamily, max_violations: int) -> PairPredicateReport:
    """``check_triangle`` by the loop over pairs i < j and midpoints k."""
    d, cmp = family.d, family.cmp
    violations: List[tuple] = []
    for i, j in family.pairs():
        for k in range(1, family.n + 1):
            if k != i and k != j and lt(cmp, d(i, k) + d(k, j), d(i, j)):
                violations.append((i, j, k))
                if len(violations) >= max_violations:
                    return PairPredicateReport(False, violations)
    return PairPredicateReport(not violations, violations)


def four_point_scan(family: DistanceFamily, max_violations: int) -> PairPredicateReport:
    """``check_four_point`` by the loop over quadruples i < j < k < h."""
    d, cmp = family.d, family.cmp
    violations: List[tuple] = []
    for i, j, k, h in itertools.combinations(range(1, family.n + 1), 4):
        sums = sorted((d(i, j) + d(k, h), d(i, k) + d(j, h), d(i, h) + d(j, k)))
        if not eq(cmp, sums[1], sums[2]):
            if sums[1] == math.inf:  # two sums beyond the float range
                raise FamilyError("a sum of two values beyond the float range cannot be compared under a tolerance")
            violations.append((i, j, k, h))
            if len(violations) >= max_violations:
                return PairPredicateReport(False, violations)
    return PairPredicateReport(not violations, violations)


def median_scan(family: DistanceFamily, max_violations: int) -> PairPredicateReport:
    """``check_median`` by the loop over triples a < b < c and candidates m,
    stopping at a second median."""
    d, cmp = family.d, family.cmp
    violations: List[tuple] = []
    for a, b, c in itertools.combinations(range(1, family.n + 1), 3):
        count = 0
        for m in range(1, family.n + 1):
            if (
                eq(cmp, d(a, b), d(a, m) + d(b, m))
                and eq(cmp, d(a, c), d(a, m) + d(c, m))
                and eq(cmp, d(b, c), d(b, m) + d(c, m))
            ):
                count += 1
                if count > 1:
                    break
        if count != 1:
            violations.append((a, b, c, count))
            if len(violations) >= max_violations:
                return PairPredicateReport(False, violations)
    return PairPredicateReport(not violations, violations)


def indecomposable_scan(family: DistanceFamily, i: int, j: int) -> bool:
    """``is_indecomposable`` by the loop over midpoints z outside {i, j}."""
    if i == j:
        raise FamilyError("indecomposability needs i != j")
    d, cmp = family.d, family.cmp
    others = (z for z in range(1, family.n + 1) if z != i and z != j)
    return all(lt(cmp, d(i, j), d(i, z) + d(z, j)) for z in others)


# ---------------------------------------------------------------------------
# The edge-by-edge graph checks (the reference for ``graph._columns``) and
# the graphs, connected or not, that the tests build past them
# ---------------------------------------------------------------------------


def edge_fault(n, edges) -> Optional[str]:
    """The message ``WeightedGraph(n, edges)`` raises for a graph on [n]
    with the ``(u, v, w)`` edges, or None when it holds: edge by edge a
    loop, an end out of range, an end that is not an integer, a repeat of an
    earlier edge and a weight that is not positive; then the edge count and
    a walk."""
    if n < 1:
        return "vertex count must be >= 1"
    seen: Set[Tuple[int, int]] = set()
    for u, v, w in edges:
        if u == v:
            return f"self-loop at vertex {u}"
        if not (1 <= u <= n and 1 <= v <= n):
            return f"edge ({u},{v}) out of range for n={n}"
        if not (isinstance(u, numbers.Integral) and isinstance(v, numbers.Integral)):
            return f"edge ({u},{v}) has a vertex that is not an integer"
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            return f"duplicate edge ({u},{v})"
        if not w > 0:
            return f"nonpositive weight on edge ({u},{v}): {w}"
        seen.add((u, v))
    if len(seen) < n - 1:
        return f"{len(seen)} edges cannot connect {n} vertices; a connected graph needs at least {n - 1}"
    graph = nx.Graph(seen)
    graph.add_nodes_from(range(1, n + 1))
    return None if nx.is_connected(graph) else "graph is not connected"


def any_graph(n: int, edges) -> WeightedGraph:
    """The graph on [n] with the valid ``(u, v, w)`` edges, connected or
    not, for the tests that need a disconnected one: the columns that
    ``WeightedGraph(n, edges)`` would store, given to the trusted maker
    ``WeightedGraph._of_arrays``, which leaves connectivity to a walk."""
    edges = sorted((int(min(u, v)), int(max(u, v)), w) for u, v, w in edges)
    u = np.array([e[0] for e in edges], dtype=np.intp) - 1
    v = np.array([e[1] for e in edges], dtype=np.intp) - 1
    values, scale = kernel.scale_numbers([w for *_e, w in edges])
    return WeightedGraph._of_arrays(n, u, v, kernel.scaled_array(values, scale), scale)


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


def useful_edges(graph: WeightedGraph, cmp: Cmp = EXACT) -> FrozenSet[Tuple[int, int]]:
    """The useful edges: per edge, its weight equals D_{u,v} and D_{u,v} is
    indecomposable, one ``indecomposable_scan`` per edge."""
    family = family_of_matrix(shortest_path_matrix(graph), cmp)
    return frozenset(
        (u, v) for u, v, w in graph.edges if eq(cmp, w, family.d(u, v)) and indecomposable_scan(family, u, v)
    )


def without_edge(graph: WeightedGraph, u: int, v: int) -> WeightedGraph:
    """``graph`` less its edge (u, v), u < v, connected or not."""
    kept = [e for e in graph.edges if e[:2] != (u, v)]
    assert len(kept) < len(graph.edges), f"no edge ({u},{v})"
    return any_graph(graph.n, kept)


def verify_realization(graph: WeightedGraph, family: DistanceFamily) -> bool:
    """Every pair compared under the family's cmp mode.  A disconnected
    graph, one with an infinite scalar 2-weight, realizes nothing."""
    dist = shortest_path_matrix(graph)
    if any(float("inf") in row for row in dist):
        return False
    return _matrix_matches(dist, family)


def split_rows(family: DistanceFamily) -> List[List[Number]]:
    """The family's rows, 0-indexed, with the diagonal raised to
    2 * max D + 1, above every split: the smallest D_iz + D_zj over rows i
    and j is the split of the pair i != j."""
    n, d = family.n, family.d
    big = 2 * max(family.values.values()) + 1
    return [[d(i, j) if i != j else big for j in range(1, n + 1)] for i in range(1, n + 1)]


def support_scan(family: DistanceFamily) -> Tuple[WeightedGraph, Optional[Tuple[int, int, int]], Optional[WeightedGraph]]:
    """S, the first triangle violation and the realization of S's shape
    (see ``metric_realize.support.Support``) by the scalar split scan: per
    pair i < j, the smallest D_iz + D_zj over rows whose diagonal is raised
    above every split, and for the first violating pair the first k."""
    n, cmp = family.n, family.cmp
    rows = split_rows(family)
    edges = []
    violation = None
    for i in range(1, n + 1):
        row = rows[i - 1]
        for j in range(i + 1, n + 1):
            dij = row[j - 1]
            split = min(map(operator.add, row, rows[j - 1]))
            if lt(cmp, dij, split):
                edges.append((i, j, dij))
            elif violation is None and lt(cmp, split, dij):
                k = next(k for k in range(1, n + 1) if lt(cmp, row[k - 1] + rows[k - 1][j - 1], dij))
                violation = (i, j, k)
    graph = any_graph(n, edges)
    realization = None
    if violation is None and graph.is_connected():
        if verify_realization(graph, family):
            realization = graph
        elif not cmp.exact and len(edges) == n - 1:
            realization = reweighted_tree(family, graph.adjacency())
    return graph, violation, realization


def reweighted_tree(family: DistanceFamily, adj: Dict[int, Dict[int, Number]]) -> Optional[WeightedGraph]:
    """``support._reweighted_tree`` by scalar lookups: the tree S with each
    edge weighted by the step in D_{x,.} along a walk from x, x the first
    vertex of the lexicographically first pair of maximal D; None when the
    walk misses a vertex, a step is not positive or the tree fails
    verification."""
    d = family.d
    x = max(family.pairs(), key=lambda p: d(*p))[0]
    edges, stack, seen = [], [x], {x}
    while stack:
        u = stack.pop()
        for v in adj[u].keys() - seen:
            edges.append((u, v, d(x, v) - d(x, u)))
            seen.add(v)
            stack.append(v)
    if len(seen) < family.n or not all(w > 0 for _u, _v, w in edges):
        return None
    graph = WeightedGraph(family.n, edges)
    return graph if verify_realization(graph, family) else None


def bipartition_walk(family: DistanceFamily) -> Bipartition:
    """``bipartite.bipartition`` by scalar lookups: from x of the first pair
    of minimal D, per vertex v in increasing D_{x,.} order, the neighbours u
    in the scanned S that are already placed and have D_xu + D_uv = D_xv
    (``eq``); the one of lowest rank is v's parent, and v lands on the side
    opposite it."""
    d, cmp = family.d, family.cmp
    x, y = min(family.pairs(), key=lambda p: d(*p))
    adj = support_scan(family)[0].adjacency()
    order = sorted(range(1, family.n + 1), key=lambda v: d(x, v))
    rank = {v: k for k, v in enumerate(order)}
    side, chains = {x: 0}, {x: ()}
    for v in order[1:]:
        parents = [u for u in adj[v] if u in side and eq(cmp, d(x, u) + d(u, v), d(x, v))]
        if parents:
            u = min(parents, key=rank.__getitem__)
            side[v] = side[u] ^ 1
            chains[v] = chains[u] + (u,) if u != x else ()
    x_chains, y_chains = ({v: c for v, c in chains.items() if side[v] == p} for p in (0, 1))
    return Bipartition((x, y), frozenset(x_chains), frozenset(y_chains), x_chains, y_chains)


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
        if not eq(cmp, matrix[i - 1][i - 1], 0):
            raise ParseError(f"nonzero diagonal at ({i},{i})")
        for j in range(i + 1, n + 1):
            a, b = matrix[i - 1][j - 1], matrix[j - 1][i - 1]
            if not eq(cmp, a, b):
                raise ParseError(f"asymmetric at ({i},{j})")
            if not a > 0:
                raise ParseError(f"nonpositive 2-weight at ({i},{j})")
            values[(i, j)] = a
    return DistanceFamily(n, values, cmp)


def family_to_csv(family) -> str:
    """The matrix document written cell by cell from the family's values by
    ``format_number``, each pair's text at both of its cells (the reference
    for ``serialize.family_to_csv``)."""
    from metric_realize.serialize import format_number

    cells = [["0"] * family.n for _ in range(family.n)]
    for (i, j), value in family.values.items():
        cells[i - 1][j - 1] = cells[j - 1][i - 1] = format_number(value)
    return "".join(",".join(row) + "\n" for row in cells)


def graph_to_dict(graph) -> dict:
    """The graph document as a dict (the reference for
    ``serialize.graph_to_json``)."""
    from metric_realize.serialize import format_number

    return {
        "n": graph.n,
        "edges": [{"u": u, "v": v, "w": format_number(w)} for u, v, w in graph.edges],
    }


def report_dict(report) -> dict:
    """The classify report as a dict built field by field (the reference for
    ``serialize.report_to_json``, which must print exactly
    ``json.dumps(report_dict(report), indent=2)`` plus a newline)."""
    out: dict = {"classes": {}, "conditions": report.condition_summary}
    for name, r in report.verdicts.items():
        entry: dict = {"accepted": r.accepted}
        if r.reason:
            entry["reason"] = r.reason
        if r.graph is not None:
            entry["realization"] = graph_to_dict(r.graph)
        out["classes"][name] = entry
    if report.bipartition is not None:
        out["bipartition"] = {
            "x_side": sorted(report.bipartition.x_side),
            "y_side": sorted(report.bipartition.y_side),
        }
    if report.planar_witness is not None:
        w = report.planar_witness
        out["planar_witness"] = {
            "kind": w.kind,
            "hubs": list(w.hubs) if w.kind == "K5" else [list(w.hubs[0]), list(w.hubs[1])],
            "chains": {f"{min(p)},{max(p)}": list(c) for p, c in w.chains.items()},
        }
    return out


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


def kuratowski_deletion_pass(graph: WeightedGraph) -> List[Tuple[int, int]]:
    """The sorted edges of a Kuratowski subgraph of the non-planar
    ``graph``, with networkx's left-right test at every step (the reference
    for ``planar._kuratowski_subgraph``): bisection finds the smallest k
    with the vertex prefix [1..k] non-planar, then one deletion pass over
    that prefix's sorted edges keeps an edge only when the graph is planar
    without it."""
    g = nx.Graph()
    g.add_nodes_from(range(1, graph.n + 1))
    g.add_edges_from((u, v) for u, v, _w in graph.edges)
    lo, hi = 5, graph.n
    while lo < hi:
        mid = (lo + hi) // 2
        if nx.check_planarity(g.subgraph(range(1, mid + 1)))[0]:
            lo = mid + 1
        else:
            hi = mid
    sub = g.subgraph(range(1, hi + 1)).copy()
    for u, v in sorted(sub.edges):
        sub.remove_edge(u, v)
        if nx.check_planarity(sub)[0]:
            sub.add_edge(u, v)
    return sorted((min(e), max(e)) for e in sub.edges)


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
                if not eq(cmp, dist, d(root, w)):
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
            if not eq(cmp, acc, d(perm[0], perm[k])):
                ok = False
                break
        if not ok:
            continue
        if all(
            eq(cmp, prefix[j] - prefix[i], d(perm[i], perm[j]))
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
            eq(cmp, d(order[p], order[q]), min(prefix[q] - prefix[p], total - (prefix[q] - prefix[p])))
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
        if not eq(cmp, matrix[i - 1][j - 1], family.d(i, j)):
            return False
    return True


def _all_edges_needed(graph: WeightedGraph) -> bool:
    """Every edge's deletion changes some 2-weight (or disconnects): pruned."""
    base = shortest_path_matrix(graph)
    for u, v, _w in graph.edges:
        reduced = without_edge(graph, u, v)
        if not reduced.is_connected():
            continue
        alt = shortest_path_matrix(reduced)
        if alt == base:
            return False
    return True


def _cographlike_brute(family: DistanceFamily) -> bool:
    if not triangle_scan(family, 1).holds:
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
            graph = any_graph(n, edges)
            if not graph.is_connected():
                continue
            if not _matrix_matches(shortest_path_matrix(graph), family):
                continue
            if pruned and not _all_edges_needed(graph):
                continue
            return True
    return False


def _planarlike_brute(family: DistanceFamily) -> bool:
    if not triangle_scan(family, 1).holds:
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
