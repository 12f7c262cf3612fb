import itertools
import random
from fractions import Fraction

import pytest

from metric_realize import (
    FamilyError,
    WeightedGraph,
    caterpillar_check,
    snake_check,
    tree_check,
    two_weights,
    verify_realization,
)
from metric_realize.generators import random_prufer_tree, tree_from_prufer

from conftest import fam, fam_of
from oracles import is_caterpillar_edges, is_snake_edges, prufer_sequences
from paper_criteria import pendant_offsets


def weighted(pairs, rng):
    return [(u, v, rng.randint(1, 20)) for u, v in pairs]


class TestSnake:
    def test_two_vertices(self):
        r = snake_check(fam(2, {(1, 2): 7}))
        assert r.accepted
        assert r.graph.edges == ((1, 2, 7),)

    def test_accepts_scrambled_path(self):
        # path 3 - 1 - 4 - 2 with weights 2, 5, 1
        g = WeightedGraph(4, [(3, 1, 2), (1, 4, 5), (4, 2, 1)])
        r = snake_check(two_weights(g))
        assert r.accepted
        assert r.graph == g

    def test_rejects_star(self):
        f = fam_of(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
        r = snake_check(f)
        assert not r.accepted
        assert "vertex 1 has degree 3" in r.reason

    def test_rejects_unit_triangle(self):
        f = fam(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        assert not snake_check(f).accepted

    def test_fractional_weights(self):
        g = WeightedGraph(3, [(1, 2, Fraction(1, 3)), (2, 3, Fraction(2, 7))])
        r = snake_check(two_weights(g))
        assert r.accepted
        assert r.graph == g

    def test_exhaustive_n5_against_permutation_oracle(self):
        rng = random.Random(51)
        for seq in prufer_sequences(5):
            pairs = tree_from_prufer(seq, 5)
            f = fam_of(5, weighted(pairs, rng))
            assert snake_check(f).accepted == is_snake_edges(5, pairs)


class TestPendantOffsets:
    def test_needs_three_vertices(self):
        with pytest.raises(FamilyError):
            pendant_offsets(fam(2, {(1, 2): 1}))

    def test_worked_caterpillar_values(self, fig2_family):
        stats = pendant_offsets(fig2_family)
        assert stats.t(1) == 2
        assert stats.t(2) == 0
        assert stats.t(8) == Fraction(21, 10)
        assert stats.extremal_pair == (1, 11)

    def test_leaf_offsets_equal_pendant_weights(self, fig2_graph, fig2_family):
        stats = pendant_offsets(fig2_family)
        spine = {2, 5, 7, 9, 11}
        for v in range(1, 19):
            if v in spine:
                assert stats.t(v) == 0
            else:
                ((_nbr, w),) = fig2_graph.adjacency()[v].items()
                assert stats.t(v) == w


class TestCaterpillar:
    def test_round_trips_worked_example(self, fig2_graph, fig2_family):
        r = caterpillar_check(fig2_family)
        assert r.accepted
        assert r.graph == fig2_graph

    def test_rejects_spider(self):
        # three legs of length 2 from a hub: a tree but not a caterpillar
        g = WeightedGraph(
            7,
            [(1, 2, 1), (2, 3, 1), (1, 4, 1), (4, 5, 1), (1, 6, 1), (6, 7, 1)],
        )
        r = caterpillar_check(two_weights(g))
        assert not r.accepted
        assert "inner vertex 1 has 3 inner neighbours [2, 4, 6]" in r.reason
        assert tree_check(two_weights(g)).accepted

    def test_rejects_unit_four_cycle(self):
        f = fam(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1, (1, 3): 2, (2, 4): 2})
        r = caterpillar_check(f)
        assert not r.accepted
        assert "support graph has 4 edges; a tree on 4 vertices has 3" in r.reason

    def test_rejects_unit_complete_graph(self):
        f = fam(4, {p: 1 for p in itertools.combinations(range(1, 5), 2)})
        r = caterpillar_check(f)
        assert not r.accepted
        assert "support graph has 6 edges; a tree on 4 vertices has 3" in r.reason

    def test_exhaustive_n6_against_shape_oracle(self):
        rng = random.Random(61)
        for seq in prufer_sequences(6):
            pairs = tree_from_prufer(seq, 6)
            f = fam_of(6, weighted(pairs, rng))
            assert caterpillar_check(f).accepted == is_caterpillar_edges(6, pairs)

    def test_two_vertices_delegates_to_snake(self):
        r = caterpillar_check(fam(2, {(1, 2): 3}))
        assert r.accepted


class TestTree:
    def test_round_trips_worked_example(self, fig2_graph, fig2_family):
        r = tree_check(fig2_family)
        assert r.accepted
        assert r.graph == fig2_graph

    def test_recovers_random_trees_exactly(self):
        rng = random.Random(71)
        for _ in range(100):
            n = rng.randint(2, 12)
            g = WeightedGraph(n, weighted(random_prufer_tree(n, rng), rng))
            r = tree_check(two_weights(g))
            assert r.accepted
            assert r.graph == g

    def test_rejects_unit_triangle(self):
        f = fam(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        r = tree_check(f)
        assert not r.accepted
        assert "support graph has 3 edges; a tree on 3 vertices has 2" in r.reason

    def test_rejects_unit_four_cycle(self):
        f = fam(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1, (1, 3): 2, (2, 4): 2})
        r = tree_check(f)
        assert not r.accepted
        assert "support graph has 4 edges; a tree on 4 vertices has 3" in r.reason


class TestContainment:
    def test_snake_implies_caterpillar_implies_tree(self):
        rng = random.Random(81)
        for _ in range(80):
            n = rng.randint(3, 8)
            g = WeightedGraph(n, weighted(random_prufer_tree(n, rng), rng))
            f = two_weights(g)
            if snake_check(f).accepted:
                assert caterpillar_check(f).accepted
            if caterpillar_check(f).accepted:
                assert tree_check(f).accepted

    def test_accepted_graphs_always_verify(self):
        rng = random.Random(82)
        for _ in range(80):
            n = rng.randint(2, 9)
            g = WeightedGraph(n, weighted(random_prufer_tree(n, rng), rng))
            f = two_weights(g)
            for check in (snake_check, caterpillar_check, tree_check):
                r = check(f)
                if r.accepted:
                    assert verify_realization(r.graph, f)
