"""Planar realizability via the support graph, with Kuratowski-subdivision
witnesses (a K5 hub set or disjoint K33 hub triples joined by vertex-disjoint
chains of indecomposable links)."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .family import DistanceFamily, FamilyError, is_indecomposable
from .realization import Realization

Pair = Tuple[int, int]


@dataclass
class PlanarWitness:
    """Certificate that the support graph contains a Kuratowski subdivision.

    ``kind`` is "K5" (hubs = a 5-set) or "K33" (hubs = two disjoint 3-sets).
    ``chains`` maps each hub pair to the tuple of interior vertices of its
    connecting path; the empty tuple means the pair is directly
    indecomposable.  Chains avoid all hubs and are pairwise disjoint.
    """

    kind: str
    hubs: tuple
    chains: Dict[FrozenSet[int], Tuple[int, ...]]

    def hub_set(self) -> Set[int]:
        if self.kind == "K5":
            return set(self.hubs)
        return set(self.hubs[0]) | set(self.hubs[1])

    def hub_pairs(self) -> List[Tuple[int, int]]:
        if self.kind == "K5":
            return list(itertools.combinations(self.hubs, 2))
        return [(a, b) for a in self.hubs[0] for b in self.hubs[1]]

    def validate(self, family: DistanceFamily) -> None:
        """Check the witness's structural invariants against a family."""
        if self.kind == "K5":
            sides, shape = [self.hubs], "five distinct hubs"
        elif self.kind == "K33":
            sides, shape = list(self.hubs), "two disjoint hub triples"
        else:
            raise FamilyError(f"unknown witness kind {self.kind!r}")
        sizes = [len(side) for side in sides]
        if sizes != ([5] if self.kind == "K5" else [3, 3]) or len(self.hub_set()) != sum(sizes):
            raise FamilyError(f"{self.kind} witness needs {shape}")
        hubs = self.hub_set()
        used: Set[int] = set()
        for a, b in self.hub_pairs():
            chain = self.chains.get(frozenset((a, b)))
            if chain is None:
                raise FamilyError(f"{self.kind} witness has no chain for ({a},{b})")
            for v in chain:
                if v in hubs:
                    raise FamilyError(f"chain for ({a},{b}) passes through hub {v}")
                if v in used:
                    raise FamilyError(f"chains are not disjoint: vertex {v} reused")
                used.add(v)
            walk = (a, *chain, b)
            for u, v in zip(walk, walk[1:]):
                if not is_indecomposable(family, u, v):
                    raise FamilyError(f"link ({u},{v}) in witness is decomposable")


def _adjacency(edges: Sequence[Pair]) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _reduced(edges: Sequence[Pair]) -> Dict[int, Set[int]]:
    """The adjacency left when vertices of degree at most 1 are deleted and
    vertices of degree 2 are smoothed (their two edges replaced by one
    between their neighbours, dropped when those are already adjacent),
    until every vertex has degree 3 or more.  Both steps keep a graph
    planar and keep it non-planar, and neither raises a degree."""
    adj = _adjacency(edges)
    low = [x for x, nbrs in adj.items() if len(nbrs) <= 2]
    while low:
        x = low.pop()
        nbrs = adj.pop(x, None)
        if nbrs is None:  # queued twice
            continue
        for y in nbrs:
            adj[y].discard(x)
        if len(nbrs) == 2:
            a, b = nbrs
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
        low.extend(y for y in nbrs if len(adj[y]) <= 2)
    return adj


def _planar(edges: Sequence[Pair], bipartite: bool) -> bool:
    """Whether the graph with these edges is planar; ``bipartite`` may be
    True only for a bipartite graph.

    Counts decide most graphs.  With v non-isolated vertices and m edges,
    Euler's formula gives m <= 3v - 6 for a planar graph on v >= 3
    vertices, and m <= 2v - 4 for a bipartite one.  A non-planar graph
    contains a K5 or K33 subdivision, so it has m >= 9 and v >= 5, and on
    5 vertices it is K5, which the Euler bound rejects.

    When the counts of the graph itself do not decide, they are applied
    again to its reduction (``_reduced``: pendant vertices deleted, degree-2
    vertices smoothed), which has fewer vertices and edges and the same
    planarity; there m > 3v - 6 (smoothing may break bipartiteness) means
    non-planar, v <= 5 or m <= 8 planar, and three degree-3 vertices with
    one neighbour set span a K33.  networkx's left-right test runs on the
    reduction only when none of these rules decides.
    """
    vertices = {x for edge in edges for x in edge}
    m, v = len(edges), len(vertices)
    if v >= 3 and m > (2 * v - 4 if bipartite else 3 * v - 6):
        return False
    if v <= 5 or m <= 8:
        return True
    adj = _reduced(edges)
    v = len(adj)
    m = sum(map(len, adj.values())) // 2
    if v >= 3 and m > 3 * v - 6:
        return False
    if v <= 5 or m <= 8:
        return True
    triples = Counter(frozenset(nbrs) for nbrs in adj.values() if len(nbrs) == 3)
    if max(triples.values(), default=0) >= 3:
        return False
    import networkx as nx

    g = nx.Graph()
    # the reduction, in label order: the left-right test's depth-first
    # search follows the node order, and its running time with it
    nodes = sorted(adj)
    g.add_nodes_from(nodes)
    g.add_edges_from((x, y) for x in nodes for y in sorted(adj[x]) if x < y)
    return nx.check_planarity(g)[0]


def _witness_from_kuratowski(edges: Sequence[Pair]) -> PlanarWitness:
    """Convert the edge list of a Kuratowski subgraph (a K5/K33 subdivision)
    into a witness whose chains run from the first to the second hub of
    each hub pair."""
    adj = _adjacency(edges)
    four = sorted(v for v, nbrs in adj.items() if len(nbrs) == 4)
    if len(four) == 5:
        kind = "K5"
        hubs = set(four)
    else:
        kind = "K33"
        hubs = {v for v, nbrs in adj.items() if len(nbrs) == 3}

    # Every chain is walked from both of its hubs; walks[(a, b)] runs a -> b.
    walks: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for h in hubs:
        for start in adj[h]:
            interiors: List[int] = []
            prev, cur = h, start
            while cur not in hubs:
                interiors.append(cur)
                nxt = [w for w in adj[cur] if w != prev]
                prev, cur = cur, nxt[0]
            walks[(h, cur)] = tuple(interiors)

    if kind == "K5":
        hub_tuple: tuple = tuple(sorted(hubs))
    else:
        # in K33 the hubs joined to the smallest hub form the other triple,
        # so the smallest hub is on the first
        side_b = {b for a, b in walks if a == min(hubs)}
        hub_tuple = (tuple(sorted(hubs - side_b)), tuple(sorted(side_b)))
    witness = PlanarWitness(kind, hub_tuple, {})
    witness.chains.update({frozenset(pair): walks[pair] for pair in witness.hub_pairs()})
    return witness


def _kuratowski_subgraph(edges: Sequence[Pair], n: int, bipartite: bool) -> List[Pair]:
    """An edge-minimal non-planar subgraph of the non-planar graph on 1..n
    with the sorted edge list ``edges`` (pairs u < v): the edges of a K5 or
    K33 subdivision.

    Bisection finds the smallest k with the prefix S[1..k] (the edges whose
    larger end is at most k) non-planar in O(log n) tests; one deletion pass over that
    prefix's edges, in sorted order, then keeps an edge only when the graph
    is planar without it.  An edge kept at its turn stays needed, since
    later deletions only shrink a graph already planar without it.  An edge
    with an endpoint of degree 1 lies on no Kuratowski subdivision, so it is
    dropped without a test.  Every subgraph of a bipartite graph is
    bipartite, so ``bipartite`` (S's flag) serves every test.
    """

    def prefix(k: int) -> List[Pair]:
        return [edge for edge in edges if edge[1] <= k]

    lo, hi = 5, n  # S[1..hi] is non-planar, S[1..4] planar
    while lo < hi:
        mid = (lo + hi) // 2
        if _planar(prefix(mid), bipartite):
            lo = mid + 1
        else:
            hi = mid
    sub = prefix(hi)
    degree = Counter(x for edge in sub for x in edge)
    kept: List[Pair] = []
    for k, (u, v) in enumerate(sub):
        if degree[u] > 1 and degree[v] > 1 and _planar(kept + sub[k + 1 :], bipartite):
            kept.append((u, v))
        else:
            degree[u] -= 1
            degree[v] -= 1
    return kept


def planar_check(family: DistanceFamily) -> Realization:
    """Decide planargraphlike: S must be planar, and S is the realization
    (the pruned realization forced by the indecomposable pairs).

    Edge and vertex counts settle planarity where they can (``_planar``):
    an S with m - n + 1 <= 3 is planar, and Euler's bound (m <= 3n - 6, or
    2n - 4 when S is bipartite) rejects every K_n with n >= 5 and every
    K_{a,b} with a, b >= 3.  Where the counts of a graph do not decide,
    those of its reduction (pendant vertices deleted, degree-2 vertices
    smoothed) are taken; on the complete and complete bipartite S of the
    tests and the benchmark (n <= 21, labels in any order) they decide
    every step of the witness search.  networkx's left-right test runs
    only when no count decides.

    On rejection for non-planarity the result carries a PlanarWitness read
    off a Kuratowski subgraph of S.  It is found in the smallest non-planar
    vertex prefix S[1..k] by one edge-deletion pass on S's edge list, not by
    networkx's counterexample search over all of S.  The tests compare the
    verdict with an exhaustive Kuratowski-subdivision search on S, and the
    subgraph with the deletion pass that tests every step with networkx.
    """
    support = family.support
    failed = support.rejection()
    if failed is not None:
        return failed
    # S is connected here.  A K5 subdivision has cyclomatic number 6 and a
    # K33 one 4, and no subgraph has a larger one than its graph, so S is
    # planar when m - n + 1 <= 3 (every tree and polygon S).
    s = support.graph
    if len(s.u) - family.n + 1 <= 3:
        return Realization.ok(support.realization)
    edges = list(zip((s.u + 1).tolist(), (s.v + 1).tolist()))
    # S is 2-coloured when the bipartite classes' shared verdict accepts,
    # and the walk 2-colours every bipartite S that realizes D.  A walk that
    # leaves a vertex out (within a tolerance only) clears the flag, which
    # only forgoes Euler's 2v - 4 shortcut: ``_planar`` decides exactly.
    bipartite = family.sides[0].accepted
    if _planar(edges, bipartite):
        return Realization.ok(support.realization)
    witness = _witness_from_kuratowski(_kuratowski_subgraph(edges, family.n, bipartite))
    return Realization.rejected(
        f"support graph contains a {witness.kind} subdivision", witness=witness
    )
