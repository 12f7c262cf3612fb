import io
import itertools
import random
import sys

import pytest

from metric_realize import (
    Cmp,
    DistanceFamily,
    FamilyError,
    WeightedGraph,
    classify,
    polygon_check,
    prune,
    pruned_polygon_check,
    snake_check,
    two_weights,
    verify_realization,
)
from metric_realize import support
from metric_realize.cli import run
from metric_realize.serialize import family_to_csv

from conftest import fam, fam_of
from oracles import brute_force_class_check
from paper_criteria import canonical_cycle_order, polygon_order


def cycle_graph(weights):
    n = len(weights)
    edges = [(k, k + 1, weights[k - 1]) for k in range(1, n)]
    edges.append((n, 1, weights[-1]))
    return WeightedGraph(n, edges)


class TestPolygonOrder:
    def test_pentagon_walk_is_complete(self):
        f = two_weights(cycle_graph([1, 1, 1, 1, 1]))
        ordering = polygon_order(f)
        assert ordering.complete
        assert ordering.order == (1, 2, 3, 4, 5)

    def test_scrambled_hexagon(self):
        # cycle through 1, 4, 2, 6, 3, 5 with mixed weights
        walk = [1, 4, 2, 6, 3, 5]
        edges = [
            (walk[k], walk[(k + 1) % 6], w)
            for k, w in enumerate([2, 3, 1, 2, 4, 3])
        ]
        f = two_weights(WeightedGraph(6, edges))
        ordering = polygon_order(f)
        assert ordering.complete
        seq = list(ordering.order)
        doubled = walk + walk
        assert any(
            doubled[i : i + 6] == seq or doubled[i : i + 6] == seq[::-1]
            for i in range(6)
        )

    def test_rejects_wrong_partner_count(self):
        f = fam_of(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
        with pytest.raises(FamilyError):
            polygon_order(f)

    def test_needs_three_vertices(self):
        with pytest.raises(FamilyError):
            polygon_order(fam(2, {(1, 2): 1}))


class TestPrunedPolygon:
    def test_accepts_unit_pentagon(self):
        g = cycle_graph([1, 1, 1, 1, 1])
        r = pruned_polygon_check(two_weights(g))
        assert r.accepted
        assert r.graph == g

    def test_round_trips_random_pruned_cycles(self):
        rng = random.Random(91)
        for _ in range(80):
            n = rng.randint(3, 10)
            g = cycle_graph([rng.randint(1, 9) for _ in range(n)])
            p = prune(g)
            if p != g:
                continue
            r = pruned_polygon_check(two_weights(g))
            assert r.accepted
            assert canonical_cycle_order(r.graph) == canonical_cycle_order(g)
            assert r.graph == g

    def test_rejects_cycle_with_useless_edge(self):
        # the 10-edge dominates: pruning removes it, leaving a path
        g = cycle_graph([1, 1, 1, 10])
        r = pruned_polygon_check(two_weights(g))
        assert not r.accepted

    def test_rejects_tree_family(self, fig2_family):
        assert not pruned_polygon_check(fig2_family).accepted

    def test_rejects_small_n(self):
        assert not pruned_polygon_check(fam(2, {(1, 2): 1})).accepted

    def test_agrees_with_cyclic_order_oracle(self):
        rng = random.Random(92)
        count = 0
        for _ in range(200):
            n = rng.randint(3, 6)
            g = cycle_graph([rng.randint(1, 9) for _ in range(n)])
            f = two_weights(g)
            mine = pruned_polygon_check(f).accepted
            oracle = brute_force_class_check(f, "pruned_polygon")
            assert mine == oracle
            count += mine
        assert count > 50


def noisy_snake(tol=1e-9, at=(0.0, 0.1, 0.3, 0.6, 1.0)):
    """Collinear points whose tight splits are off by half the tolerance: a
    snake under ``Cmp(tol)``, which the polygon check closes into a cycle."""
    n = len(at)
    pairs = itertools.combinations(range(n), 2)
    return DistanceFamily(n, {(a + 1, b + 1): at[b] - at[a] - tol / 2 * (b - a - 1) for a, b in pairs}, Cmp(tol))


class TestPolygon:
    def test_dominated_cycle_accepted_via_snake_closure(self):
        g = cycle_graph([1, 1, 1, 10])
        f = two_weights(g)
        r = polygon_check(f)
        assert r.accepted
        assert verify_realization(r.graph, f)
        # closure edge carries the minimal valid weight, here 3, not 10
        assert r.graph.adjacency()[1][4] == 3

    def test_every_cycle_family_is_polygonlike(self):
        rng = random.Random(93)
        for _ in range(120):
            n = rng.randint(3, 9)
            g = cycle_graph([rng.randint(1, 12) for _ in range(n)])
            f = two_weights(g)
            r = polygon_check(f)
            assert r.accepted
            assert verify_realization(r.graph, f)
            assert all(len(nbrs) == 2 for nbrs in r.graph.adjacency().values())

    def test_rejects_star(self):
        f = fam_of(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
        r = polygon_check(f)
        assert not r.accepted
        assert "neither" in r.reason

    def test_a_closed_snake_that_fails_verification_is_a_rejection(self, monkeypatch, capsys):
        assert snake_check(noisy_snake()).accepted and polygon_check(noisy_snake()).accepted
        # the closed snake is the one graph of n edges that the check verifies
        verify = support.verify_realization
        monkeypatch.setattr(support, "verify_realization", lambda g, f: len(g.u) != g.n and verify(g, f))
        reason = "snake conditions hold but the closed snake failed verification"
        r = polygon_check(noisy_snake())
        assert not r.accepted and r.reason == reason
        verdict = classify(noisy_snake()).verdicts["polygon"]
        assert not verdict.accepted and verdict.reason == reason
        monkeypatch.setattr(sys, "stdin", io.StringIO(family_to_csv(noisy_snake())))
        assert run(["check", "--class", "polygon", "-", "--tol"]) == 1
        out, err = capsys.readouterr()
        assert reason in out and err == ""

    def test_agrees_with_oracle_on_mixed_input(self):
        rng = random.Random(94)
        from conftest import random_connected_graph

        for _ in range(120):
            n = rng.randint(3, 6)
            g = random_connected_graph(n, rng)
            f = two_weights(g)
            assert polygon_check(f).accepted == brute_force_class_check(f, "polygon")


class TestCanonicalCycleOrder:
    def test_rotation_and_reflection_invariant_representative(self):
        a = WeightedGraph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
        b = WeightedGraph(4, [(2, 1, 1), (1, 4, 1), (4, 3, 1), (3, 2, 1)])
        assert canonical_cycle_order(a) == canonical_cycle_order(b)

    def test_rejects_non_cycle(self):
        with pytest.raises(FamilyError):
            canonical_cycle_order(WeightedGraph(3, [(1, 2, 1), (2, 3, 1)]))
