"""Planar realizability via the support graph, with Kuratowski-subdivision
witnesses (a K5 hub set or disjoint K33 hub triples joined by vertex-disjoint
chains of indecomposable links)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

import networkx as nx

from .family import DistanceFamily, FamilyError, is_indecomposable
from .realization import Realization


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
        hubs = self.hub_set()
        expected = 5 if self.kind == "K5" else 6
        if len(hubs) != expected:
            raise FamilyError(f"{self.kind} witness needs {expected} distinct hubs")
        used: Set[int] = set()
        for a, b in self.hub_pairs():
            chain = self.chains[frozenset((a, b))]
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


def _witness_from_kuratowski(sub: "nx.Graph") -> PlanarWitness:
    """Convert a Kuratowski subgraph (a K5/K33 subdivision) into a witness
    whose chains run from the first to the second hub of each hub pair."""
    degrees = dict(sub.degree())
    four = sorted(v for v, d in degrees.items() if d == 4)
    if len(four) == 5:
        kind = "K5"
        hubs = set(four)
    else:
        kind = "K33"
        hubs = {v for v, d in degrees.items() if d == 3}

    # Every chain is walked from both of its hubs; walks[(a, b)] runs a -> b.
    walks: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for h in hubs:
        for start in sub.neighbors(h):
            interiors: List[int] = []
            prev, cur = h, start
            while cur not in hubs:
                interiors.append(cur)
                nxt = [w for w in sub.neighbors(cur) if w != prev]
                prev, cur = cur, nxt[0]
            walks[(h, cur)] = tuple(interiors)

    if kind == "K5":
        hub_tuple: tuple = tuple(sorted(hubs))
    else:
        # in K33 the hubs joined to the smallest hub form the other triple
        side_b = {b for a, b in walks if a == min(hubs)}
        a_set, b_set = sorted(hubs - side_b), sorted(side_b)
        if min(b_set) < min(a_set):
            a_set, b_set = b_set, a_set
        hub_tuple = (tuple(a_set), tuple(b_set))
    witness = PlanarWitness(kind, hub_tuple, {})
    witness.chains.update({frozenset(pair): walks[pair] for pair in witness.hub_pairs()})
    return witness


def _kuratowski_subgraph(g: "nx.Graph") -> "nx.Graph":
    """An edge-minimal non-planar subgraph of the non-planar graph ``g`` on
    1..n, without isolated vertices: a K5 or K33 subdivision.

    Bisection finds the smallest k with ``g[1..k]`` non-planar in O(log n)
    tests; one deletion pass over that subgraph's edges then keeps an edge
    only when the graph is planar without it.  An edge kept at its turn stays
    needed, since later deletions only shrink a graph already planar
    without it.
    """
    lo, hi = 5, g.number_of_nodes()  # g[1..hi] is non-planar, g[1..4] planar
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
    sub.remove_nodes_from([v for v, d in sub.degree() if d == 0])
    return sub


def planar_check(family: DistanceFamily) -> Realization:
    """Decide planargraphlike: S must be planar, and S is the realization
    (the pruned realization forced by the indecomposable pairs).

    On rejection for non-planarity the result carries a PlanarWitness read
    off a Kuratowski subgraph of S.  It is found in the smallest non-planar
    vertex prefix S[1..k] by one edge-deletion pass, not by networkx's
    counterexample search over all of S.  The tests compare the verdict with
    an exhaustive Kuratowski-subdivision search on S.
    """
    support = family.support
    failed = support.rejection()
    if failed is not None:
        return failed
    g = nx.Graph()
    g.add_nodes_from(range(1, family.n + 1))
    g.add_edges_from((u, v) for u, v, _w in support.graph.edges)
    if nx.check_planarity(g)[0]:
        return Realization.ok(support.realization)
    witness = _witness_from_kuratowski(_kuratowski_subgraph(g))
    return Realization.rejected(
        f"support graph contains a {witness.kind} subdivision", witness=witness
    )
