import itertools
import random

import pytest

import networkx as nx

from metric_realize import (
    WeightedGraph,
    planar_check,
    support_graph,
    two_weights,
    verify_realization,
)

from conftest import fam, random_connected_graph
from oracles import SizeGuardError, subdivision_witness_search


def unit_family(n, pairs):
    """Family of 2-weights of the unit-weight graph with the given edges."""
    return two_weights(WeightedGraph(n, [(u, v, 1) for u, v in pairs]))


PETERSEN_PAIRS = [
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
]


class TestWitnessSearch:
    def test_unit_k5_yields_k5_witness(self):
        g = WeightedGraph(5, [(i, j, 1) for i, j in itertools.combinations(range(1, 6), 2)])
        w = subdivision_witness_search(g)
        assert w is not None
        assert w.kind == "K5"
        assert set(w.hubs) == {1, 2, 3, 4, 5}
        assert all(chain == () for chain in w.chains.values())

    def test_unit_k33_yields_k33_witness(self):
        g = WeightedGraph(6, [(a, b, 1) for a in (1, 2, 3) for b in (4, 5, 6)])
        w = subdivision_witness_search(g)
        assert w is not None
        assert w.kind == "K33"
        assert {frozenset(w.hubs[0]), frozenset(w.hubs[1])} == {
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6}),
        }

    def test_unit_k4_is_clean(self):
        g = WeightedGraph(4, [(i, j, 1) for i, j in itertools.combinations(range(1, 5), 2)])
        assert subdivision_witness_search(g) is None

    def test_subdivided_k5_found_through_chains(self):
        # split the edge (1, 2) of K5 with an interior vertex 6
        pairs = [p for p in itertools.combinations(range(1, 6), 2) if p != (1, 2)]
        pairs += [(1, 6), (6, 2)]
        g = WeightedGraph(6, [(u, v, 1) for u, v in pairs])
        w = subdivision_witness_search(g)
        assert w is not None
        assert w.kind == "K5"
        assert w.chains[frozenset((1, 2))] == (6,)

    def test_petersen_graph_is_nonplanar(self):
        g = WeightedGraph(10, [(u, v, 1) for u, v in PETERSEN_PAIRS])
        w = subdivision_witness_search(g)
        assert w is not None
        assert w.kind == "K33"  # the Petersen graph has no K5 subdivision

    def test_size_guard(self):
        g = WeightedGraph(11, [(k, k + 1, 1) for k in range(1, 11)])
        with pytest.raises(SizeGuardError):
            subdivision_witness_search(g)

    def test_agrees_with_library_planarity(self):
        rng = random.Random(141)
        for _ in range(150):
            n = rng.randint(3, 9)
            g = random_connected_graph(n, rng, extra_edges=rng.randint(0, 3 * n))
            nxg = nx.Graph((u, v) for u, v, _w in g.edges)
            nxg.add_nodes_from(range(1, n + 1))
            assert (subdivision_witness_search(g) is None) == nx.check_planarity(nxg)[0]


class TestPlanarCheck:
    def test_accepts_unit_k4(self):
        f = fam(4, {p: 1 for p in itertools.combinations(range(1, 5), 2)})
        r = planar_check(f)
        assert r.accepted
        assert verify_realization(r.graph, f)

    def test_rejects_unit_k5_with_valid_witness(self):
        f = fam(5, {p: 1 for p in itertools.combinations(range(1, 6), 2)})
        r = planar_check(f)
        assert not r.accepted
        assert r.witness.kind == "K5"
        r.witness.validate(f)

    def test_rejects_unit_k33_with_valid_witness(self):
        f = unit_family(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
        # all cross distances 1, same-side distances 2: every cross pair is
        # indecomposable, so the support graph is exactly K33
        r = planar_check(f)
        assert not r.accepted
        assert r.witness.kind == "K33"
        r.witness.validate(f)

    def test_rejects_petersen_family_with_valid_witness(self):
        f = unit_family(10, PETERSEN_PAIRS)
        assert support_graph(f).edge_pairs() == {
            (min(p), max(p)) for p in PETERSEN_PAIRS
        }
        r = planar_check(f)
        assert not r.accepted
        r.witness.validate(f)

    def test_rejects_triangle_violation(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 5})
        r = planar_check(f)
        assert not r.accepted
        assert "triangle" in r.reason

    def test_accepts_every_tree_family(self, fig2_family):
        assert planar_check(fig2_family).accepted

    def test_rejection_witnesses_always_validate(self):
        rng = random.Random(151)
        seen_reject = 0
        for _ in range(150):
            n = rng.randint(5, 9)
            g = random_connected_graph(n, rng, extra_edges=rng.randint(0, 3 * n))
            f = two_weights(g)
            r = planar_check(f)
            if r.accepted:
                assert verify_realization(r.graph, f)
            else:
                r.witness.validate(f)
                seen_reject += 1
        assert seen_reject > 5
        # larger dense graphs: witness chains with interior vertices
        rng = random.Random(7)
        seen_reject = 0
        for _ in range(25):
            n = rng.randint(14, 26)
            f = two_weights(random_connected_graph(n, rng, extra_edges=3 * n))
            r = planar_check(f)
            if not r.accepted:
                r.witness.validate(f)
                seen_reject += 1
        assert seen_reject > 20

    def test_agrees_with_witness_search_route(self):
        rng = random.Random(152)
        for _ in range(120):
            n = rng.randint(3, 8)
            g = random_connected_graph(n, rng, extra_edges=rng.randint(0, 2 * n))
            f = two_weights(g)
            s = support_graph(f)
            assert planar_check(f).accepted == (subdivision_witness_search(s) is None)


def interleaved_bipartite_pairs(a, b):
    """K_{a,b} whose sides alternate in label order (1, 3, 5, ... on one
    side while both sides last), so no vertex prefix is a single side."""
    labels = list(range(1, a + b + 1))
    k = min(a, b)
    side_a = labels[0 : 2 * k : 2] + labels[2 * k :][: a - k]
    side_b = [v for v in labels if v not in side_a]
    return [(min(u, v), max(u, v)) for u in side_a for v in side_b]


def complete_pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def subdivided(pairs, edge, n):
    """The graph with ``edge`` split by a new vertex n + 1."""
    u, v = edge
    return [p for p in pairs if p != edge] + [(u, n + 1), (v, n + 1)]


class TestWitnessCost:
    """The witness comes from the smallest non-planar vertex prefix of S and
    one edge-deletion pass, a few left-right planarity runs instead of two
    per edge of S."""

    @pytest.fixture
    def lr_runs(self, monkeypatch):
        from networkx.algorithms.planarity import LRPlanarity

        runs = [0]
        original = LRPlanarity.lr_planarity

        def counted(self):
            runs[0] += 1
            return original(self)

        monkeypatch.setattr(LRPlanarity, "lr_planarity", counted)
        return runs

    def test_unit_k21_needs_few_planarity_runs(self, lr_runs):
        r = planar_check(unit_family(21, complete_pairs(21)))
        assert not r.accepted and r.witness.kind == "K5"
        assert lr_runs[0] <= 20, lr_runs[0]

    @pytest.mark.parametrize(
        "n, pairs, kind",
        [(n, complete_pairs(n), "K5") for n in range(5, 22)]
        + [
            (a + b, interleaved_bipartite_pairs(a, b), "K33")
            for a, b in [(3, 3), (3, 4), (4, 3), (3, 7), (5, 5), (6, 9)]
        ]
        + [
            (10, PETERSEN_PAIRS, "K33"),
            # the split vertex has the last label: the prefix is all of S
            (6, subdivided(complete_pairs(5), (1, 2), 5), "K5"),
            (7, subdivided(interleaved_bipartite_pairs(3, 3), (1, 2), 6), "K33"),
        ],
    )
    def test_rejection_witnesses_validate(self, n, pairs, kind):
        f = unit_family(n, pairs)
        r = planar_check(f)
        assert not r.accepted
        assert r.witness.kind == kind
        r.witness.validate(f)
