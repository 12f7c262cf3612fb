import random
from fractions import Fraction

import pytest

from metric_realize import (
    EXACT,
    Cmp,
    GraphError,
    WeightedGraph,
    prune,
    support_graph,
    two_weights,
    verify_realization,
)
from metric_realize import kernel

from conftest import fam_of, random_connected_graph, with_value
from oracles import without_edge


class TestWeightedGraph:
    def test_normalizes_edge_orientation(self):
        g = WeightedGraph(3, [(2, 1, 5), (3, 2, 1)])
        assert g.edges == ((1, 2, 5), (2, 3, 1))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(1, 1, 1), (1, 2, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(1, 2, 1), (2, 1, 3)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(1, 2, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(1, 3, 1)])

    @pytest.mark.parametrize("require_connected", (True, False))
    def test_rejects_a_vertex_that_is_not_an_integer(self, require_connected):
        # the index columns would read 1.5 as vertex 1
        with pytest.raises(GraphError, match=r"edge \(1.5,2\) has a vertex that is not an integer"):
            WeightedGraph(3, [(1.5, 2, 1), (2, 3, 1)], require_connected=require_connected)

    def test_rejects_disconnected_by_default(self):
        with pytest.raises(GraphError):
            WeightedGraph(4, [(1, 2, 1), (3, 4, 1)])

    def test_too_few_edges_rejected_by_count(self):
        # a connected graph on n vertices has at least n - 1 edges; the count
        # decides before anything of size n is built
        with pytest.raises(GraphError, match="1 edges cannot connect 10000 vertices"):
            WeightedGraph(10_000, [(1, 2, 1)])
        assert WeightedGraph(10_000, [(1, 2, 1)], require_connected=False).n == 10_000

    def test_disconnected_allowed_when_asked(self):
        g = WeightedGraph(4, [(1, 2, 1), (3, 4, 1)], require_connected=False)
        assert not g.is_connected()

    def test_weight_lookup(self):
        g = WeightedGraph(3, [(1, 2, 5), (2, 3, Fraction(1, 2))])
        assert g.adjacency()[3][2] == Fraction(1, 2)
        assert 3 not in g.adjacency()[1]

    def test_degree(self):
        g = WeightedGraph(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
        assert len(g.adjacency()[1]) == 3
        assert len(g.adjacency()[4]) == 1


class TestTwoWeights:
    def test_path(self):
        f = fam_of(3, [(1, 2, 2), (2, 3, 3)])
        assert f.d(1, 3) == 5

    def test_shortcut_beats_direct_edge(self):
        g = WeightedGraph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 10)])
        assert two_weights(g).d(1, 3) == 2

    def test_fractional_weights_stay_exact(self):
        g = WeightedGraph(3, [(1, 2, Fraction(1, 3)), (2, 3, Fraction(1, 6))])
        assert two_weights(g).d(1, 3) == Fraction(1, 2)

    def test_exact_values_beyond_float_range(self):
        big = 10**400
        f = two_weights(WeightedGraph(3, [(1, 2, big), (2, 3, big)]))
        assert (f.d(1, 2), f.d(1, 3)) == (big, 2 * big)
        # apart: big + 1, the exact stand-in for +inf, exceeds every path
        apart = WeightedGraph(3, [(1, 2, big)], require_connected=False)
        dist = kernel.all_pairs(3, apart.u, apart.v, apart.w, apart.scale)
        assert dist.array.tolist() == [[0, big, big + 1], [big, 0, big + 1], [big + 1, big + 1, 0]]

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError):
            two_weights(WeightedGraph(1, []))

    def test_matches_per_pair_dijkstra_oracle(self):
        import heapq

        rng = random.Random(21)
        for _ in range(50):
            g = random_connected_graph(rng.randint(2, 9), rng)
            f = two_weights(g)
            adj = g.adjacency()
            for s in range(1, g.n + 1):
                dist = {s: 0}
                heap = [(0, s)]
                while heap:
                    d, v = heapq.heappop(heap)
                    if d > dist.get(v, float("inf")):
                        continue
                    for u, w in adj[v].items():
                        nd = d + w
                        if nd < dist.get(u, float("inf")):
                            dist[u] = nd
                            heapq.heappush(heap, (nd, u))
                for t in range(1, g.n + 1):
                    if t != s:
                        assert f.d(s, t) == dist[t]


class TestUsefulEdges:
    def test_tree_edges_are_all_useful(self):
        g = WeightedGraph(4, [(1, 2, 1), (2, 3, 2), (2, 4, 7)])
        assert prune(g).edge_pairs() == g.edge_pairs()

    def test_heavy_chord_is_useless(self):
        g = WeightedGraph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 2)])
        assert prune(g).edge_pairs() == {(1, 2), (2, 3)}

    def test_light_chord_is_useful(self):
        g = WeightedGraph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert prune(g).edge_pairs() == g.edge_pairs()

    def test_deletion_oracle(self):
        # an edge is dropped iff deleting it keeps every 2-weight intact
        rng = random.Random(31)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 8), rng)
            f = two_weights(g)
            kept = prune(g).edge_pairs()
            for a, b, _ in g.edges:
                smaller = without_edge(g, a, b)
                same = smaller.is_connected() and two_weights(smaller).values == f.values
                assert same == ((a, b) not in kept)


class TestPrune:
    def test_preserves_two_weights(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 9), rng)
            assert two_weights(prune(g)).values == two_weights(g).values

    def test_idempotent(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 9), rng)
            p = prune(g)
            assert prune(p) == p

    def test_prune_equals_support_of_family(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 9), rng)
            s = support_graph(two_weights(g))
            assert prune(g) == WeightedGraph(s.n, s.edges)

    def test_a_single_vertex_is_returned_unchanged(self):
        # no edge to prune and no 2-weight to compute, in either mode
        g = WeightedGraph(1, [])
        for cmp in (EXACT, Cmp(1e-9)):
            assert prune(g, cmp) is g
        with pytest.raises(GraphError, match="2-weights need n >= 2"):
            two_weights(g)
        # a disconnected graph still has no 2-weights to prune by
        with pytest.raises(GraphError, match="connected"):
            prune(WeightedGraph(2, [], require_connected=False))


class TestVerifyRealization:
    def test_accepts_own_family(self, fig2_graph, fig2_family):
        assert verify_realization(fig2_graph, fig2_family)

    def test_rejects_perturbed_family(self, fig2_graph, fig2_family):
        bumped = with_value(fig2_family, 4, 6, fig2_family.d(4, 6) + 1)
        assert not verify_realization(fig2_graph, bumped)

    def test_size_mismatch(self, fig2_family):
        with pytest.raises(GraphError):
            verify_realization(WeightedGraph(2, [(1, 2, 1)]), fig2_family)
