import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_realize import (
    GenSpec,
    GenerationError,
    WeightedGraph,
    caterpillar_check,
    classify,
    cobigraph_check,
    complete_check,
    bigraph_check,
    generate,
    planar_check,
    polygon_check,
    prune,
    pruned_polygon_check,
    snake_check,
    tree_check,
    two_weights,
    verify_realization,
)
from metric_realize.generators import random_prufer_tree

from oracles import brute_force_class_check, is_caterpillar_edges, is_snake_edges

RECOGNIZER_FOR = {
    "snake": snake_check,
    "caterpillar": caterpillar_check,
    "tree": tree_check,
    "polygon": polygon_check,
    "complete": complete_check,
    "complete_bipartite": bigraph_check,
    "planar": planar_check,
}


class TestGenSpec:
    def test_rejects_unknown_class(self):
        with pytest.raises(GenerationError):
            GenSpec("pyramid", 5, 0)

    def test_rejects_too_small_n(self):
        with pytest.raises(GenerationError):
            GenSpec("polygon", 2, 0)

    def test_rejects_bad_range(self):
        with pytest.raises(GenerationError):
            GenSpec("tree", 5, 0, lo=9, hi=3)

    def test_rejects_unknown_weight_model(self):
        with pytest.raises(GenerationError):
            GenSpec("tree", 5, 0, weight_kind="gaussian")

    def test_unit_range_complete_degenerates_to_equal_weights(self):
        g = generate(GenSpec("complete", 4, 0, lo=1, hi=1))
        assert {w for _u, _v, w in g.edges} == {1}
        assert prune(g) == g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    class_id=st.sampled_from(["complete", "complete_bipartite"]),
    n=st.integers(2, 12),
    bounds=st.tuples(st.integers(1, 30), st.integers(1, 30)).map(sorted),
    weight_kind=st.sampled_from(["int", "decimal"]),
    seed=st.integers(),
)
def test_narrowed_ranges_give_pruned_instances_of_their_class(class_id, n, bounds, weight_kind, seed):
    # every edge is drawn shorter than any path of 2 (complete) or 3
    # (complete bipartite) edges, so the instance is the pruned graph that
    # its class recognizes
    lo, hi = bounds
    g = generate(GenSpec(class_id, n, seed, weight_kind, lo, hi))
    assert prune(g) == g
    check = complete_check if class_id == "complete" else cobigraph_check
    r = check(two_weights(g))
    assert r.accepted, r.reason
    assert r.graph == g


class TestDeterminism:
    def test_same_spec_same_graph(self):
        a = generate(GenSpec("planar", 9, 42))
        b = generate(GenSpec("planar", 9, 42))
        assert a == b

    def test_different_seed_usually_differs(self):
        graphs = {generate(GenSpec("tree", 8, s)) for s in range(20)}
        assert len(graphs) > 15

    def test_seed_independent_of_call_order(self):
        a = generate(GenSpec("snake", 6, 7))
        generate(GenSpec("polygon", 5, 3))
        b = generate(GenSpec("snake", 6, 7))
        assert a == b


class TestShapes:
    def test_snake_is_path(self):
        for s in range(20):
            g = generate(GenSpec("snake", 7, s))
            assert is_snake_edges(7, [(u, v) for u, v, _ in g.edges])

    def test_caterpillar_shape(self):
        for s in range(20):
            g = generate(GenSpec("caterpillar", 9, s))
            assert is_caterpillar_edges(9, [(u, v) for u, v, _ in g.edges])

    def test_tree_edge_count(self):
        for s in range(20):
            g = generate(GenSpec("tree", 10, s))
            assert len(g.edges) == 9

    def test_polygon_degrees(self):
        for s in range(20):
            g = generate(GenSpec("polygon", 8, s))
            assert all(len(nbrs) == 2 for nbrs in g.adjacency().values())

    def test_complete_is_pruned(self):
        for s in range(20):
            g = generate(GenSpec("complete", 6, s))
            assert len(g.edges) == 15
            assert prune(g) == g

    def test_complete_bipartite_is_pruned(self):
        for s in range(20):
            g = generate(GenSpec("complete_bipartite", 7, s))
            assert prune(g) == g
            # bipartite: 2-color by the edge set
            color = {}
            for u, v, _w in g.edges:
                color.setdefault(u, 0)
                color.setdefault(v, color[u] ^ 1)
            assert all(color[u] != color[v] for u, v, _w in g.edges)

    def test_decimal_weights_stay_on_grid(self):
        from fractions import Fraction

        g = generate(GenSpec("tree", 8, 3, weight_kind="decimal"))
        for _u, _v, w in g.edges:
            assert Fraction(w).limit_denominator(10) == Fraction(w)
            assert 1 <= w <= 20


class TestConstructions:
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 10, 60, 400))
    def test_planar_instances_are_planar_connected_and_sparse(self, n):
        import networkx as nx

        for s in range(5):
            spec = GenSpec("planar", n, s)
            g = generate(spec)
            h = nx.Graph(g.edge_pairs())
            h.add_nodes_from(range(1, n + 1))
            assert nx.check_planarity(h)[0] and nx.is_connected(h)
            assert n < 3 or len(g.edges) <= 3 * n - 6
            assert generate(spec) == g

    def test_planar_generation_leaves_networkx_unloaded(self):
        import metric_realize

        src = os.path.dirname(os.path.dirname(metric_realize.__file__))
        script = (
            "import sys\n"
            "from metric_realize import GenSpec, generate\n"
            "generate(GenSpec('planar', 60, 0))\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 30))
    def test_arbitrary_connected_is_its_tree_plus_its_count_of_chords(self, n):
        # the Prufer tree and the number of chords come first off the rng,
        # the count capped at the pairs the tree leaves
        for s in range(10):
            spec = GenSpec("arbitrary_connected", n, s)
            rng = spec.rng()
            tree = {tuple(sorted(e)) for e in random_prufer_tree(n, rng)}
            count = min(rng.randint(0, n), n * (n - 1) // 2 - (n - 1))
            pairs = generate(spec).edge_pairs()
            assert tree <= pairs and len(pairs) == n - 1 + count

    def test_arbitrary_connected_lists_no_pairs(self):
        # n = 2048: listing all n(n - 1)/2 pairs to pick at most n chords
        # took about 4 x 8n^2 bytes
        n = 2048
        tracemalloc.start()
        try:
            g = generate(GenSpec("arbitrary_connected", n, 0))
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n - 1 <= len(g.edges) <= 2 * n - 1
        assert peak < 0.25 * 8 * n * n


class TestRoundTrips:
    def test_generated_instances_accepted_by_their_recognizer(self):
        for class_id, check in RECOGNIZER_FOR.items():
            for s in range(15):
                n = 3 + (s % 8)
                g = generate(GenSpec(class_id, n, s))
                f = two_weights(g)
                r = check(f)
                assert r.accepted, (class_id, n, s, r.reason)
                assert verify_realization(r.graph, f)


class TestOracles:
    def test_oracle_size_guard(self):
        f = two_weights(generate(GenSpec("tree", 8, 0)))
        with pytest.raises(ValueError):
            brute_force_class_check(f, "tree")

    def test_oracle_rejects_unknown_class(self):
        f = two_weights(generate(GenSpec("tree", 5, 0)))
        with pytest.raises(ValueError):
            brute_force_class_check(f, "pyramid")

    @pytest.mark.parametrize(
        "class_id,oracle_id",
        [
            ("snake", "snake"),
            ("caterpillar", "caterpillar"),
            ("tree", "tree"),
            ("polygon", "polygon"),
            ("complete", "complete"),
            ("complete_bipartite", "complete_bipartite"),
            ("planar", "planar"),
        ],
    )
    def test_recognizers_agree_with_oracles_on_in_class_input(self, class_id, oracle_id):
        check = RECOGNIZER_FOR[class_id]
        for s in range(40):
            n = 3 + (s % 4)
            g = generate(GenSpec(class_id, n, s))
            f = two_weights(g)
            assert check(f).accepted
            assert brute_force_class_check(f, oracle_id)

    def test_recognizers_agree_with_oracles_on_arbitrary_input(self):
        oracle_ids = [
            "snake",
            "caterpillar",
            "tree",
            "polygon",
            "pruned_polygon",
            "complete",
            "complete_bipartite",
            "pruned_complete_bipartite",
            "planar",
        ]
        checks = dict(
            RECOGNIZER_FOR,
            pruned_polygon=pruned_polygon_check,
            pruned_complete_bipartite=cobigraph_check,
        )
        for s in range(40):
            n = 3 + (s % 4)
            g = generate(GenSpec("arbitrary_connected", n, s))
            f = two_weights(g)
            for oid in oracle_ids:
                key = oid if oid in checks else oid
                assert checks[key](f).accepted == brute_force_class_check(f, oid), (
                    s,
                    oid,
                )


class TestClassifyLattice:
    def test_no_containment_violations_on_random_input(self):
        for s in range(60):
            n = 3 + (s % 7)
            g = generate(GenSpec("arbitrary_connected", n, s))
            report = classify(two_weights(g))
            assert report.lattice_violations() == []
