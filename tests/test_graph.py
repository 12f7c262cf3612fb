import json
import random
from fractions import Fraction
from math import nan

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
from metric_realize import graph as graph_module
from metric_realize import kernel
from metric_realize.serialize import ParseError, graph_from_json, parse_number

import oracles
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

    def test_the_walk_stops_once_the_graph_is_connected(self):
        # the first two edges join the three vertices; the entries after
        # them are out of range and the walk must not reach them
        u, v = np.array([0, 1, 7, -9]), np.array([1, 2, 8, 5])
        assert graph_module._walk(3, u, v) is True
        # a graph that stays in two components walks every edge
        assert graph_module._walk(4, np.array([0, 2, 0]), np.array([1, 3, 1])) is False

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

    @pytest.mark.parametrize("weight", (np.int64(5), True))
    def test_numpy_and_bool_weights_come_back_as_ints(self, weight):
        # edges and adjacency() are views of the int64 column
        g = WeightedGraph(3, [(1, 2, weight), (2, 3, 2)])
        assert g.edges == ((1, 2, int(weight)), (2, 3, 2))
        assert [type(w) for _u, _v, w in g.edges] == [int, int]
        assert type(g.adjacency()[2][1]) is int

    def test_an_exact_weight_beside_a_float_shows_as_its_float(self):
        # one float makes the column float64, and the views read the column
        g = WeightedGraph(3, [(1, 2, Fraction(1, 3)), (2, 3, 0.5)])
        assert g.scale is None
        assert [w for _u, _v, w in g.edges] == g.w.tolist() == [1 / 3, 0.5]
        assert g.adjacency()[1][2] == 1 / 3
        assert g == WeightedGraph(3, [(1, 2, 1 / 3), (2, 3, 0.5)])


def graph_document(n, rows) -> str:
    return json.dumps({"n": n, "edges": [{"u": u, "v": v, "w": w} for u, v, w in rows]})


CHECKER_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def mostly(draw, common, rare):
    """A draw of ``common`` about four times in five, else of ``rare``."""
    return draw(rare if draw(st.integers(0, 4)) == 2 else common)


# Label kinds: mostly int, else a kind the constructor takes (numpy int,
# bool) or names (float, Fraction, and 1.5 for 1)
LABEL_KINDS = mostly(st.just(int), st.sampled_from([np.int64, bool, float, Fraction, lambda x: x + 0.5]))


@st.composite
def edge_lists(draw, kinds, weight):
    """(n, edges): a path over [n] or nothing, then drawn edges with ends
    mostly in [n] and mostly distinct, labels of the drawn ``kinds``; some
    edges are twins of earlier ones in either orientation, inserted anywhere."""
    n = draw(mostly(st.integers(1, 6), st.integers(-1, 0)))
    edges = [(i, i + 1, 1) for i in range(1, n)] if draw(st.booleans()) else []
    inside, near = st.integers(1, max(n, 1)), st.integers(-1, n + 1)
    for _ in range(draw(st.integers(0, 4))):
        if edges and draw(st.integers(0, 2)) == 0:
            u, v, _w = draw(st.sampled_from(edges))
            if draw(st.booleans()):
                u, v = v, u
        else:
            u = draw(mostly(inside, near))
            v = draw(mostly(inside.map(lambda v: v if v != u else v % max(n, 1) + 1), near))
            u, v = draw(kinds)(u), draw(kinds)(v)
        edges.insert(draw(st.integers(0, len(edges))), (u, v, draw(weight)))
    return n, edges


class TestGraphChecker:
    """Both doors, the constructor and the graph document, name what the
    edge-by-edge reference ``oracles.edge_fault`` names."""

    @CHECKER_SETTINGS
    @given(
        edge_lists(
            LABEL_KINDS,
            mostly(st.sampled_from([1, 2, Fraction(1, 2), 2.5]), st.sampled_from([0, -1, Fraction(-1, 3), -0.5, nan])),
        ),
        st.booleans(),
    )
    @example((4, [(1, 2, 1), (2, 3, 1), (3, 1, 1)]), True)  # enough edges, yet not connected
    @example((3, [(np.int64(1), 2, 1), (True, 3, 2.5), (3, np.int64(2), Fraction(1, 2))]), True)
    @example((3, [(2, 1, 1), (np.int64(2), True, 1)]), False)
    @example((4, [(1, 4, 1), (3, 2, 1), (1, 2, 1)]), True)  # sorted by the lower end first
    @example((1, [(1, 1.5, 1)]), False)  # 1.5 > n, though 0.5 < n as an index
    def test_the_constructor_names_what_the_reference_names(self, graph, require_connected):
        n, edges = graph
        want = oracles.edge_fault(n, edges, require_connected)
        if want is not None:
            with pytest.raises(GraphError) as raised:
                WeightedGraph(n, edges, require_connected)
            assert str(raised.value) == want
            return
        g = WeightedGraph(n, edges, require_connected)
        # labels as Python ints, weights as given
        assert g.edges == tuple(sorted((int(min(u, v)), int(max(u, v)), w) for u, v, w in edges))
        assert {type(x) for e in g.edges for x in e[:2]} <= {int}

    @CHECKER_SETTINGS
    @given(
        edge_lists(
            st.just(int),
            mostly(st.sampled_from(["1", "2", "3/2", "2.5"]), st.sampled_from(["0", "-1", "-0.5"])),
        ),
        st.sampled_from([EXACT, Cmp(1e-9)]),
    )
    def test_the_reader_names_what_the_reference_names(self, graph, cmp):
        n, rows = graph
        rows = [(u, v, str(w)) for u, v, w in rows]
        edges = [(u, v, parse_number(w, cmp)) for u, v, w in rows]
        want = oracles.edge_fault(n, edges)
        if want is not None:
            with pytest.raises(ParseError) as raised:
                graph_from_json(graph_document(n, rows), cmp)
            assert str(raised.value) == want
            return
        g = graph_from_json(graph_document(n, rows), cmp)
        assert g == WeightedGraph(n, edges) and g.is_connected()

    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            (
                10**21,
                [(1, 2)],
                "1 edges cannot connect 1000000000000000000000 vertices; "
                "a connected graph needs at least 999999999999999999999",
            ),
            (10**21, [(1, 2), (2, 1)], "duplicate edge (1,2)"),
            (
                2**64,
                [(1, 2**64)],
                "1 edges cannot connect 18446744073709551616 vertices; "
                "a connected graph needs at least 18446744073709551615",
            ),
            (2**64, [(1, 2**64 + 1)], "edge (1,18446744073709551617) out of range for n=18446744073709551616"),
            (2**40, [(1, 2**40), (1, 2**40)], "duplicate edge (1,1099511627776)"),
            (0, [(1, 2)], "vertex count must be >= 1"),
            (-3, [], "vertex count must be >= 1"),
        ],
    )
    def test_hostile_sizes_are_named(self, n, pairs, message):
        # n and the labels may exceed int64: they are compared as numbers,
        # and no index is cast before the count has passed
        with pytest.raises(GraphError) as raised:
            WeightedGraph(n, [(u, v, 1) for u, v in pairs])
        assert str(raised.value) == message
        with pytest.raises(ParseError) as raised:
            graph_from_json(graph_document(n, [(u, v, "1") for u, v in pairs]))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            (
                2**64,
                [(1, 2**64)],
                "edge (1,18446744073709551616) has a vertex beyond the index range 1..9223372036854775807",
            ),
            (
                2**64,
                [(3, 2), (2**63, 1)],
                "edge (9223372036854775808,1) has a vertex beyond the index range 1..9223372036854775807",
            ),
            (
                2**63,
                [(2**63 - 1, 1), (2**63, 2)],
                "edge (9223372036854775808,2) has a vertex beyond the index range 1..9223372036854775807",
            ),
            (2**63, [(2**63 - 1, 1)], None),
            (10**21, [(1, 2)], None),
        ],
    )
    def test_hostile_sizes_without_the_count(self, n, pairs, message):
        # no count runs: a label beyond int64 is named where its index would
        # overflow, and the walk answers by count before it builds n parents
        edges = [(u, v, 1) for u, v in pairs]
        assert oracles.edge_fault(n, edges, require_connected=False) == message
        if message is not None:
            with pytest.raises(GraphError) as raised:
                WeightedGraph(n, edges, require_connected=False)
            assert str(raised.value) == message
            return
        g = WeightedGraph(n, edges, require_connected=False)
        assert g.edges == tuple(sorted((min(u, v), max(u, v), 1) for u, v in pairs))
        assert g.is_connected() is False

    def test_a_long_path_document_meets_the_size_limit(self):
        rows = [(i, i + 1, "1") for i in range(1, 3000)]
        with pytest.raises(ParseError, match="^3000 vertices exceed the limit of 2048$"):
            graph_from_json(graph_document(3000, rows))
        assert WeightedGraph(3000, [(u, v, 1) for u, v, _w in rows]).n == 3000

    def test_a_float_beside_an_exact_value_beyond_floats_is_named(self):
        with pytest.raises(GraphError, match="^an exact value beyond the float range cannot stand beside a float$"):
            WeightedGraph(3, [(1, 2, 1), (2, 3, 10**400), (1, 3, 0.5)])
        # a fault of the edges themselves is named first
        with pytest.raises(GraphError, match="^self-loop at vertex 1$"):
            WeightedGraph(3, [(1, 1, 1), (2, 3, 10**400), (1, 3, 0.5)])

    def test_labels_read_back_as_python_ints(self):
        g = WeightedGraph(3, [(np.int64(2), True, 1), (np.int64(3), 2, Fraction(1, 2))])
        assert repr(g) == "WeightedGraph(n=3, edges=[(1, 2, 1), (2, 3, Fraction(1, 2))])"
        assert {type(x) for e in g.edges for x in e[:2]} == {int}


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

    @pytest.mark.parametrize("weights", ((Fraction(1, 3), 0.5, 2), (np.int64(1), Fraction(1, 2), 3)))
    def test_the_pruned_edges_are_the_view_of_the_kept_columns(self, weights):
        # the chord 1-3 is longer than the path 1-2-3 and goes
        g = WeightedGraph(3, [(1, 2, weights[0]), (2, 3, weights[1]), (1, 3, weights[2])])
        p = prune(g)
        view = tuple(zip((p.u + 1).tolist(), (p.v + 1).tolist(), kernel.numbers(p.w, p.scale)))
        assert p.edges == view == (g.edges[0], g.edges[2])

    def test_an_infinite_float_split_keeps_its_edge_under_a_tolerance(self):
        # the one pair of n = 2 (its split is 2 * big) and each pair of a
        # 1e308 triangle have a split beyond the float range, inf in
        # float64, which lies above every 2-weight: a tolerance keeps every
        # edge, as exact mode and the scalar usefulness test do
        tol = Cmp(1e-9)
        for g in (WeightedGraph(2, [(1, 2, 1e308)]), WeightedGraph(3, [(1, 2, 1e308), (2, 3, 1e308), (1, 3, 1e308)])):
            assert prune(g) == g
            assert prune(g, tol) == g
            assert prune(g, tol).edge_pairs() == oracles.useful_edges(g, tol) == g.edge_pairs()

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
