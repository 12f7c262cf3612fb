import io
import itertools
import json
import random
import sys
from fractions import Fraction

from metric_realize import (
    Cmp,
    DistanceFamily,
    WeightedGraph,
    bigraph_check,
    bipartition,
    classify,
    cobigraph_check,
    complete_check,
    is_indecomposable,
    prune,
    two_weights,
    verify_realization,
)
from metric_realize import support
from metric_realize.bipartite import _min_pair
from metric_realize.cli import run
from metric_realize.serialize import family_to_csv, parse_family_csv

from conftest import fam, fam_of, random_connected_graph
from oracles import brute_force_class_check


def complete_bipartite(x_side, y_side, weight):
    n = len(x_side) + len(y_side)
    edges = [(a, b, weight(a, b)) for a in x_side for b in y_side]
    return WeightedGraph(n, edges)


class TestComplete:
    def test_accepts_unit_k4(self):
        f = fam(4, {p: 1 for p in itertools.combinations(range(1, 5), 2)})
        r = complete_check(f)
        assert r.accepted
        assert len(r.graph.edges) == 6

    def test_rejects_tight_entry(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 2})
        r = complete_check(f)
        assert not r.accepted
        assert "(1,3)" in r.reason

    def test_rejects_triangle_violation(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3})
        assert not complete_check(f).accepted

    def test_round_trips_narrow_range_complete_graphs(self):
        # weights in [11, 20]: 2 min > max, so every direct edge is a strict
        # shortest path and the complete graph is pruned
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(3, 8)
            g = WeightedGraph(
                n,
                [
                    (i, j, rng.randint(11, 20))
                    for i, j in itertools.combinations(range(1, n + 1), 2)
                ],
            )
            f = two_weights(g)
            r = complete_check(f)
            assert r.accepted
            assert r.graph == g

    def test_agrees_with_oracle(self):
        rng = random.Random(102)
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 6), rng)
            f = two_weights(g)
            assert complete_check(f).accepted == brute_force_class_check(f, "complete")


class TestBipartition:
    def test_base_pair_is_the_first_minimal_pair(self):
        rng = random.Random(71)
        huge = 10**400
        for scale in (1, Fraction(1, 3), 0.5, 2**62, huge):  # int64, float64 and object arrays
            for _ in range(40):
                n = rng.randint(2, 7)
                f = fam(n, {p: scale * rng.randint(1, 3) for p in itertools.combinations(range(1, n + 1), 2)})
                assert _min_pair(f) == min(f.pairs(), key=lambda p: f.d(*p))

    def test_k23_sides_and_witnesses(self):
        g = complete_bipartite([1, 2], [3, 4, 5], lambda a, b: 1)
        bp = bipartition(two_weights(g))
        assert bp.x_side in ({1, 2}, {3, 4, 5})
        assert {bp.x_side, bp.y_side} == {frozenset({1, 2}), frozenset({3, 4, 5})}
        x = bp.base_pair[0]
        assert bp.x_witnesses[x] == ()
        for v, chain in bp.y_witnesses.items():
            assert len(chain) % 2 == 0
        for v, chain in bp.x_witnesses.items():
            assert len(chain) % 2 == 1 or v == x

    def test_star_recovers_center_versus_leaves(self):
        g = WeightedGraph(4, [(2, 1, 1), (2, 3, 1), (2, 4, 1)])
        bp = bipartition(two_weights(g))
        assert {bp.x_side, bp.y_side} == {frozenset({2}), frozenset({1, 3, 4})}

    def test_sides_partition_vertices_of_non_bipartite_support(self):
        unit_triangle = fam(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        unit_k5 = fam(5, {p: 1 for p in itertools.combinations(range(1, 6), 2)})
        # pentagon whose vertex 3 ends tight chains of 2 and of 3 links from 1
        odd_polygon = fam_of(5, [(1, 2, 3), (2, 3, 3), (3, 4, 2), (4, 5, 2), (5, 1, 2)])
        for f in (unit_triangle, unit_k5, odd_polygon):
            bp = bipartition(f)
            assert not bp.x_side & bp.y_side
            assert bp.x_side | bp.y_side == set(range(1, f.n + 1))
            assert not bigraph_check(f).accepted

    def test_witness_chains_are_tight_indecomposable_paths(self):
        rng = random.Random(111)
        for _ in range(40):
            nx = rng.randint(1, 3)
            ny = rng.randint(1, 3)
            labels = list(range(1, nx + ny + 1))
            rng.shuffle(labels)
            xs, ys = labels[:nx], labels[nx:]
            g = complete_bipartite(xs, ys, lambda a, b: rng.randint(5, 7))
            f = two_weights(g)
            bp = bipartition(f)
            x = bp.base_pair[0]
            for side, witnesses in ((bp.x_side, bp.x_witnesses), (bp.y_side, bp.y_witnesses)):
                for v in side:
                    if v == x:
                        continue
                    walk = (x, *witnesses[v], v)
                    assert len(set(walk)) == len(walk)
                    total = 0
                    for a, b in zip(walk, walk[1:]):
                        assert is_indecomposable(f, a, b)
                        total += f.d(a, b)
                    assert total == f.d(x, v)


class TestBigraph:
    def test_accepts_unit_k23(self):
        g = complete_bipartite([1, 2], [3, 4, 5], lambda a, b: 1)
        f = two_weights(g)
        r = bigraph_check(f)
        assert r.accepted
        assert r.graph == g

    def test_rejects_unit_triangle(self):
        f = fam(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        r = bigraph_check(f)
        assert not r.accepted
        assert "same-side pair" in r.reason

    def test_rejects_unit_k4(self):
        f = fam(4, {p: 1 for p in itertools.combinations(range(1, 5), 2)})
        assert not bigraph_check(f).accepted

    def test_accepts_snakes_of_even_structure(self):
        # every path is complete bipartite only for n <= 3; the 2-path works
        f = fam_of(3, [(1, 2, 2), (2, 3, 5)])
        r = bigraph_check(f)
        assert r.accepted
        assert r.graph.edge_pairs() == {(1, 2), (2, 3)}

    def test_planted_side_recovery(self):
        rng = random.Random(121)
        for _ in range(60):
            nx = rng.randint(1, 4)
            ny = rng.randint(1, 4)
            labels = list(range(1, nx + ny + 1))
            rng.shuffle(labels)
            xs, ys = set(labels[:nx]), set(labels[nx:])
            g = complete_bipartite(sorted(xs), sorted(ys), lambda a, b: rng.randint(7, 20))
            f = two_weights(g)
            r = bigraph_check(f)
            assert r.accepted
            bp = bipartition(f)
            assert {bp.x_side, bp.y_side} == {frozenset(xs), frozenset(ys)}

    def test_accepted_verdicts_carry_the_bipartition(self):
        g = complete_bipartite([1, 2], [3, 4, 5], lambda a, b: 1)
        f = two_weights(g)
        for check in (bigraph_check, cobigraph_check):
            assert check(f).witness == bipartition(f)
        assert "bipartition" in classify(f).to_dict()
        unit_triangle = fam(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        report = classify(unit_triangle)
        assert report.bipartition is None
        assert "bipartition" not in report.to_dict()

    def test_agrees_with_side_assignment_oracle(self):
        rng = random.Random(122)
        for _ in range(120):
            g = random_connected_graph(rng.randint(2, 6), rng)
            f = two_weights(g)
            assert bigraph_check(f).accepted == brute_force_class_check(
                f, "complete_bipartite"
            )


    def test_a_cover_gap_rejects_both_classes_alike(self, monkeypatch, capsys):
        # D_12 = D_23 = D_34 = 1, D_24 = 2, D_13 = 2 + 1.8t, D_14 = 3 - 2.7t
        # under the tolerance t = 1e-6: S is the path 1-2-3-4, and vertex 4's
        # one tight test, D_13 + D_34 = D_14, fails by 4.5t against a slack of 3t
        f = parse_family_csv(COVER_GAP, Cmp(1e-6))
        assert f.support.graph.edge_pairs() == {(1, 2), (2, 3), (3, 4)}
        bp = bipartition(f)
        gap = set(range(1, 5)) - bp.x_side - bp.y_side
        assert gap == {4}
        reason = f"cover gap: {sorted(gap)} in neither side"
        for check in (bigraph_check, cobigraph_check):
            r = check(f)
            assert not r.accepted and r.reason == reason
        report = classify(f)
        assert report.accepted_classes() == ["snake", "caterpillar", "tree", "polygon", "planar"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(COVER_GAP))
        assert run(["classify", "-", "--tol", "1e-6"]) == 0
        out, err = capsys.readouterr()
        classes = json.loads(out)["classes"]
        assert classes["bipartite"]["reason"] == classes["pruned_bipartite"]["reason"] == reason
        assert err == ""

    def test_k_xy_keeps_the_weights_of_s_s_reweighted_realization(self, monkeypatch, capsys):
        # under Cmp(1e-15), S is the path 1-4-2-3, whose D weights fall
        # short of D_13 by more than the tolerance, so S is kept reweighted
        # from vertex 1; K_{X,Y} on {1, 2} and {3, 4} holds that path, and
        # verifies because S's edges keep the reweighted weights
        f = DistanceFamily(4, SHORT_CROSS_PATH, Cmp(1e-15))
        assert f.support.graph.edge_pairs() == {(1, 4), (2, 3), (2, 4)}
        assert f.support.realization is not f.support.graph
        assert cobigraph_check(f).reason == "cross entry (1,3) is decomposable"
        r = bigraph_check(f)
        assert r.accepted and r.graph.edge_pairs() == {(1, 3), (1, 4), (2, 3), (2, 4)}
        on_s = tuple(e for e in r.graph.edges if (e[0], e[1]) in f.support.graph.edge_pairs())
        assert on_s == f.support.realization.edges
        assert r.graph.adjacency()[1][3] == SHORT_CROSS_PATH[(1, 3)]
        assert verify_realization(r.graph, f)
        report = classify(f)
        assert report.accepted_classes() == ["snake", "caterpillar", "tree", "polygon", "bipartite", "planar"]
        assert report.verdicts["bipartite"].graph == r.graph
        monkeypatch.setattr(sys, "stdin", io.StringIO(family_to_csv(f)))
        assert run(["check", "--class", "bipartite", "-", "--tol", "1e-15"]) == 0
        out, err = capsys.readouterr()
        assert out == "bipartite: accepted\n" and err == ""

    def test_a_k_xy_that_fails_verification_is_a_rejection(self, monkeypatch, capsys):
        f = DistanceFamily(4, SHORT_CROSS_PATH, Cmp(1e-15))
        # the graphs of n edges that the check verifies are K_{2,2} and the
        # closed snake 1-4-2-3-1, here the same graph; S has n - 1 edges
        verify = support.verify_realization
        monkeypatch.setattr(support, "verify_realization", lambda g, f: len(g.u) != g.n and verify(g, f))
        reason = "bipartite conditions hold but the reconstruction failed verification"
        r = bigraph_check(f)
        assert not r.accepted and r.reason == reason
        report = classify(f)
        assert report.verdicts["bipartite"].reason == reason
        assert report.accepted_classes() == ["snake", "caterpillar", "tree", "planar"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(family_to_csv(f)))
        assert run(["check", "--class", "bipartite", "-", "--tol", "1e-15"]) == 1
        out, err = capsys.readouterr()
        assert reason in out and err == ""


COVER_GAP = "0,1,2.0000018,2.9999973\n1,0,1,2\n2.0000018,1,0,1\n2.9999973,2,1,0\n"
SHORT_CROSS_PATH = {
    (1, 2): 0.8000000000000002, (1, 3): 1.0000000000000007, (1, 4): 0.6999999999999997,
    (2, 3): 0.19999999999999984, (2, 4): 0.09999999999999998, (3, 4): 0.3000000000000004,
}


class TestCobigraph:
    def test_accepts_narrow_range_k33(self):
        # weights in [14, 20]: every 2-edge detour (>= 28) exceeds any direct
        # edge, so all cross pairs stay indecomposable
        rng = random.Random(131)
        g = complete_bipartite([1, 2, 3], [4, 5, 6], lambda a, b: rng.randint(14, 20))
        f = two_weights(g)
        r = cobigraph_check(f)
        assert r.accepted
        assert r.graph == g
        assert prune(r.graph) == r.graph

    def test_rejects_bipartite_with_useless_edge(self):
        # edge (1, 3) of weight 20 is dominated by the detour 1-4-2-3 (= 9)
        g = complete_bipartite([1, 2], [3, 4], lambda a, b: 20 if (a, b) == (1, 3) else 3)
        f = two_weights(g)
        assert bigraph_check(f).accepted
        r = cobigraph_check(f)
        assert not r.accepted
        assert "decomposable" in r.reason

    def test_agrees_with_oracle(self):
        rng = random.Random(132)
        for _ in range(120):
            g = random_connected_graph(rng.randint(2, 6), rng)
            f = two_weights(g)
            assert cobigraph_check(f).accepted == brute_force_class_check(
                f, "pruned_complete_bipartite"
            )

    def test_accepted_graphs_verify_and_are_pruned(self):
        rng = random.Random(133)
        for _ in range(40):
            nx = rng.randint(1, 3)
            ny = rng.randint(2, 4)
            g = complete_bipartite(
                list(range(1, nx + 1)),
                list(range(nx + 1, nx + ny + 1)),
                lambda a, b: rng.randint(10, 20),
            )
            f = two_weights(g)
            r = cobigraph_check(f)
            if r.accepted:
                assert verify_realization(r.graph, f)
                assert prune(r.graph) == r.graph
