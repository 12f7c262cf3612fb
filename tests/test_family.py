"""Distance families, the four family checks and the support graph; the
array checks against the scalar scans in ``oracles``."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_realize import (
    EXACT,
    Cmp,
    DistanceFamily,
    FamilyError,
    GenSpec,
    WeightedGraph,
    bigraph_check,
    check_four_point,
    check_median,
    check_triangle,
    classify,
    cobigraph_check,
    generate,
    is_indecomposable,
    planar_check,
    polygon_check,
    prune,
    support_graph,
    two_weights,
    verify_realization,
)
from metric_realize import kernel
from metric_realize import support as support_module
from metric_realize.generators import CLASS_MIN_N
from metric_realize.serialize import family_to_csv, parse_family_csv, report_to_json

import oracles
from conftest import fam, fam_of, random_connected_graph, with_cmp
from test_support import SETTINGS, families


class TestDistanceFamily:
    def test_requires_all_pairs(self):
        with pytest.raises(FamilyError):
            DistanceFamily(3, {(1, 2): 1, (1, 3): 1})

    def test_rejects_nonpositive(self):
        with pytest.raises(FamilyError):
            fam(3, {(1, 2): 1, (1, 3): 0, (2, 3): 1})

    def test_diagonal_is_zero(self):
        f = fam(3, {(1, 2): 1, (1, 3): 2, (2, 3): 1})
        assert f.d(2, 2) == 0

    def test_symmetric_lookup(self):
        f = fam(3, {(1, 2): 1, (1, 3): 2, (2, 3): 1})
        assert f.d(3, 1) == f.d(1, 3) == 2

    def test_needs_two_vertices(self):
        with pytest.raises(FamilyError):
            DistanceFamily(1, {})

    @pytest.mark.parametrize("i, j", [(0, 3), (1, 4), (0, 0), (4, 4), (-1, 2), (3, 5)])
    def test_indices_outside_one_to_n_raise(self, i, j):
        f = fam(3, {(1, 2): 1, (1, 3): 2, (2, 3): 1})
        with pytest.raises(FamilyError, match="index out of range"):
            f.d(i, j)

    @pytest.mark.parametrize("cmp", (EXACT, Cmp(1e-9)))
    @pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
    def test_rejects_non_finite_values(self, value, cmp):
        with pytest.raises(FamilyError, match=r"at \(1,2\)"):
            DistanceFamily(3, {(1, 2): value, (1, 3): 1, (2, 3): 1}, cmp)

    @pytest.mark.parametrize("key", [(1.5, 3), (2.0, 3), (Fraction(2), 3)])
    def test_rejects_a_pair_key_that_is_not_an_integer(self, key):
        # the array's indices would truncate (1.5, 3) to (1, 3)
        with pytest.raises(FamilyError, match=rf"^bad pair key \({key[0]},3\) for n=3$"):
            DistanceFamily(3, {(1, 2): 1, (1, 3): 2, key: 5})

    def test_a_float_beside_an_exact_value_beyond_floats_is_named(self):
        with pytest.raises(FamilyError, match="^an exact value beyond the float range cannot stand beside a float$"):
            DistanceFamily(3, {(1, 2): 10**400, (1, 3): 0.5, (2, 3): 1})
        # a fault of the pairs themselves is named first
        with pytest.raises(FamilyError, match=r"^nonpositive 2-weight at \(2,3\): 0$"):
            DistanceFamily(3, {(1, 2): 10**400, (1, 3): 0.5, (2, 3): 0})

    def test_values_and_d_read_the_array(self):
        exact = fam(3, {(1, 2): Fraction(4, 2), (1, 3): Fraction(1, 2), (2, 3): 10**400})
        assert "values" not in exact.__dict__
        assert exact.d(2, 1) == 2 and type(exact.d(2, 1)) is int
        assert exact.values == {(1, 2): 2, (1, 3): Fraction(1, 2), (2, 3): 10**400}
        assert [type(v) for v in exact.values.values()] == [int, Fraction, int]
        # the array is float64 once a value is a float, and so are the views
        mixed = fam(3, {(1, 2): 1, (1, 3): Fraction(1, 2), (2, 3): 1.5})
        assert mixed.values == {(1, 2): 1.0, (1, 3): 0.5, (2, 3): 1.5}
        assert all(type(v) is float for v in mixed.values.values())
        assert type(mixed.d(1, 2)) is float and mixed.d(3, 3) == 0

    def test_equal_values_make_equal_families(self):
        # a chord off every shortest path sets the array's scale to 21, the
        # values' own is 3
        g = WeightedGraph(3, [(1, 2, Fraction(1, 3)), (2, 3, 1), (1, 3, Fraction(100, 7))])
        f = two_weights(g)
        same = fam(3, {(1, 2): Fraction(1, 3), (1, 3): Fraction(4, 3), (2, 3): 1})
        assert (f.scaled.scale, same.scaled.scale) == (21, 3)
        assert f == same and f != with_cmp(same, Cmp(1e-9)) and f != fam(2, {(1, 2): 1})
        with pytest.raises(TypeError):
            hash(f)


class TestTriangle:
    def test_equality_case_holds(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 2})
        assert check_triangle(f).holds

    def test_violation_reported(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3})
        report = check_triangle(f)
        assert not report.holds
        assert (1, 3, 2) in report.violations

    def test_violation_cap(self):
        # D_{1,2} huge: many (1,2,k) violations, capped at the limit
        values = {(i, j): 1 for i in range(1, 9) for j in range(i + 1, 9)}
        values[(1, 2)] = 10
        f = fam(8, values)
        report = check_triangle(f, max_violations=3)
        assert not report.holds
        assert len(report.violations) == 3

    def test_graph_families_satisfy_triangle(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_connected_graph(rng.randint(2, 10), rng)
            assert check_triangle(two_weights(g)).holds


class TestFourPoint:
    def test_path_family_holds(self):
        f = fam_of(4, [(1, 2, 1), (2, 3, 2), (3, 4, 3)])
        assert check_four_point(f).holds

    def test_unit_four_cycle_fails(self):
        f = fam_of(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
        report = check_four_point(f)
        assert not report.holds
        assert report.violations == [(1, 2, 3, 4)]

    def test_vacuous_for_three_points(self):
        f = fam(3, {(1, 2): 1, (1, 3): 3, (2, 3): 1})
        assert check_four_point(f).holds

    def test_tree_families_hold(self):
        from metric_realize.generators import random_prufer_tree

        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 10)
            edges = [(u, v, rng.randint(1, 20)) for u, v in random_prufer_tree(n, rng)]
            f = two_weights(WeightedGraph(n, edges))
            assert check_four_point(f).holds
            assert check_median(f).holds


class TestMedian:
    def test_path_triple_median_is_interior_vertex(self):
        f = fam_of(3, [(1, 2, 1), (2, 3, 2)])
        assert check_median(f).holds

    def test_unit_star_median_is_center(self):
        f = fam_of(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
        assert check_median(f).holds

    def test_unit_complete_graph_has_no_medians(self):
        f = fam(4, {(i, j): 1 for i in range(1, 5) for j in range(i + 1, 5)})
        report = check_median(f)
        assert not report.holds
        assert report.violations[0] == (1, 2, 3, 0)

    def test_vacuous_for_two_points(self):
        f = fam(2, {(1, 2): 5})
        assert check_median(f).holds

    def test_median_count_stops_at_two(self):
        # unit K33 on the sides {1, 2, 3} and {4, 5, 6}: each side's triple
        # has the three vertices of the other side as medians
        f = fam_of(6, [(a, b, 1) for a in (1, 2, 3) for b in (4, 5, 6)])
        report = check_median(f)
        assert report == oracles.median_scan(f, 32)
        assert (1, 2, 3, 2) in report.violations and (4, 5, 6, 2) in report.violations


class TestIndecomposable:
    def test_unit_triangle(self):
        f = fam(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        assert is_indecomposable(f, 1, 2)

    def test_tight_entry_is_decomposable(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 2})
        assert not is_indecomposable(f, 1, 3)

    def test_figure_family_entries(self, fig2_family):
        assert is_indecomposable(fig2_family, 7, 9)
        assert not is_indecomposable(fig2_family, 1, 12)

    def test_symmetry(self, fig2_family):
        for i, j in [(3, 5), (1, 2), (4, 6), (12, 11)]:
            assert is_indecomposable(fig2_family, i, j) == is_indecomposable(fig2_family, j, i)

    def test_bad_indices(self):
        f = fam(2, {(1, 2): 1})
        with pytest.raises(FamilyError):
            is_indecomposable(f, 1, 1)
        with pytest.raises(FamilyError):
            is_indecomposable(f, 0, 2)


class TestSupportGraph:
    def test_unit_triangle_gives_complete(self):
        f = fam(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        g = support_graph(f)
        assert g.edge_pairs() == {(1, 2), (1, 3), (2, 3)}

    def test_tight_family_gives_path(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 2})
        g = support_graph(f)
        assert g.edge_pairs() == {(1, 2), (2, 3)}

    def test_unit_k5(self):
        f = fam(5, {(i, j): 1 for i in range(1, 6) for j in range(i + 1, 6)})
        assert len(support_graph(f).edges) == 10

    def test_rejects_triangle_violation(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3})
        with pytest.raises(FamilyError):
            support_graph(f)

    def test_support_of_pruned_graph_family_is_the_graph(self):
        rng = random.Random(99)
        for _ in range(40):
            g = prune(random_connected_graph(rng.randint(2, 9), rng))
            assert support_graph(two_weights(g)) == WeightedGraph(g.n, g.edges)


class TestToleranceMode:
    def test_float_equality_within_tolerance(self):
        cmp = Cmp(1e-9)
        f = fam(3, {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 2.0 + 1e-13}, cmp)
        assert check_triangle(f).holds
        assert not is_indecomposable(f, 1, 3)

    def test_strictness_needs_clear_gap(self):
        cmp = Cmp(1e-6)
        f = fam(3, {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 2.0 - 1e-9}, cmp)
        # within tolerance of equality: still counted as decomposable
        assert not is_indecomposable(f, 1, 3)

    def test_tolerance_must_lie_between_0_and_1(self):
        # from 1 on no gap between positive values exceeds the slack of
        # kernel.lt, so no pair would be indecomposable
        for bad in (0.0, -1.0, float("nan"), float("inf"), 1.0, 2.0, 1e300):
            with pytest.raises(ValueError, match="tolerance must satisfy 0 < tol < 1"):
                Cmp(bad)
        below_1 = math.nextafter(1.0, 0.0)
        assert Cmp(1e-300).tol == 1e-300 and Cmp(below_1).tol == below_1


class TestOnePassSupport:
    def test_agrees_with_per_pair_checks(self):
        # small value ranges give many ties and many triangle violations;
        # float mode adds sub-tolerance and above-tolerance near-ties
        rng = random.Random(171)
        for case in range(300):
            n = rng.randint(2, 7)
            cmp = Cmp(1e-9) if case % 2 else None
            values = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    v = rng.randint(1, 4)
                    values[(i, j)] = v + rng.choice((0, 1e-12, -1e-12, 1e-6)) if cmp else v
            f = fam(n, values, cmp)
            support = f.support
            triangle = check_triangle(f, max_violations=1)
            assert support.violation == (None if triangle.holds else triangle.violations[0])
            indecomposable = [(i, j, f.d(i, j)) for i, j in f.pairs() if is_indecomposable(f, i, j)]
            # S is a graph, so connected, or None
            connected = oracles.is_connected(oracles.any_graph(n, indecomposable))
            assert (support.graph is None) == (not triangle.holds or not connected)
            if support.graph is not None:
                assert support.graph.edge_pairs() == {(i, j) for i, j, _w in indecomposable}

    def test_computed_once_per_family(self, fig2_family, monkeypatch):
        import metric_realize
        from metric_realize import support as support_module

        calls = []
        analyse = support_module.analyse

        def counting(family):
            calls.append(family)
            return analyse(family)

        monkeypatch.setattr(support_module, "analyse", counting)
        unit_k5 = fam(5, {(i, j): 1 for i in range(1, 6) for j in range(i + 1, 6)})
        for f in (with_cmp(fig2_family, fig2_family.cmp), unit_k5):
            calls.clear()
            metric_realize.classify(f)
            for name in (
                "snake_check", "caterpillar_check", "tree_check",
                "pruned_polygon_check", "polygon_check", "complete_check",
                "bigraph_check", "cobigraph_check", "planar_check",
            ):
                getattr(metric_realize, name)(f)
            metric_realize.bipartition(f)
            metric_realize.support_graph(f)
            assert calls == [f]

    def test_no_floyd_warshall_per_exact_classify(self, monkeypatch):
        # S's own verification is the only one in exact mode, and it is the
        # Bellman check on the family's array: the complete bipartite graph
        # and the closed snake add edges of weight D_ab = d_S(a, b), which
        # change no 2-weight.  Every all-pairs run goes through the kernel's
        # entry point, which is what is counted.
        import metric_realize
        from metric_realize import GenSpec, generate
        from metric_realize import kernel
        from metric_realize.generators import CLASS_MIN_N

        calls = []
        all_pairs = kernel.all_pairs

        def counting(n, u, v, w, scale):
            calls.append((u, v, w))
            return all_pairs(n, u, v, w, scale)

        for class_id in sorted(CLASS_MIN_N):
            for n, kind in ((3, "int"), (8, "decimal"), (12, "int")):
                f = two_weights(generate(GenSpec(class_id, n, 5, weight_kind=kind)))
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(kernel, "all_pairs", counting)
                    report = metric_realize.classify(f)
                assert calls == [], (class_id, n, report.accepted_classes())

    def test_one_bipartite_walk_per_classify(self, monkeypatch):
        # both bipartite checks read the walk kept with the family
        import metric_realize
        from metric_realize import GenSpec, generate
        from metric_realize import bipartite as bipartite_module
        from metric_realize.generators import CLASS_MIN_N

        calls = []
        bipartition = bipartite_module.bipartition

        def counting(family):
            calls.append(family)
            return bipartition(family)

        for class_id in sorted(CLASS_MIN_N):
            for n, kind in ((3, "int"), (8, "decimal"), (12, "int")):
                f = two_weights(generate(GenSpec(class_id, n, 5, weight_kind=kind)))
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(bipartite_module, "bipartition", counting)
                    report = metric_realize.classify(f)
                    pruned = metric_realize.cobigraph_check(f)
                assert calls == [f], (class_id, n, report.accepted_classes())
                assert pruned == report.verdicts["pruned_bipartite"]
                if report.bipartition is not None:
                    assert report.bipartition == bipartition(f)


    def test_one_side_check_per_classify(self, monkeypatch):
        # the bipartite classes and the planarity counts read one verdict
        # kept with the family: one walk of S and one check of S's edges
        # against its sides, which checking the classes again repeats not
        from metric_realize import bipartite as bipartite_module

        walks, side_checks = [], []
        for name, calls in (("bipartition", walks), ("_two_coloured", side_checks)):
            monkeypatch.setattr(bipartite_module, name, _spy(getattr(bipartite_module, name), calls))
        for class_id in sorted(CLASS_MIN_N):
            f = two_weights(generate(GenSpec(class_id, 12, 5)))
            walks.clear()
            side_checks.clear()
            classify(f)
            for check in (bigraph_check, cobigraph_check, planar_check):
                check(f)
            assert walks == side_checks == [f], class_id


def _spy(function, calls):
    """``function``, recording the first argument of each call in ``calls``."""

    def spy(*args):
        calls.append(args[0])
        return function(*args)

    return spy


NINE_RECOGNIZERS = (
    "snake_check", "caterpillar_check", "tree_check",
    "pruned_polygon_check", "polygon_check", "complete_check",
    "bigraph_check", "cobigraph_check", "planar_check",
)


class TestToleranceSupport:
    """Within a tolerance, near-ties can leave S disconnected or let errors
    add up along S; every recognizer still returns a clean verdict."""

    def test_disconnected_support_rejects_cleanly(self):
        import metric_realize

        # 2 and 3 within tolerance of coinciding: the only indecomposable
        # pair is (2, 3), so S is disconnected, and no graph
        f = fam(3, {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1e-10}, Cmp(1e-9))
        assert [e[:2] for e in oracles.split_scan(f)[0]] == [(2, 3)]
        assert f.support == support_module.Support(None, None, None)
        reason = "the support graph is disconnected within the tolerance"
        for public in (metric_realize.support_graph, metric_realize.bipartition):
            with pytest.raises(FamilyError) as raised:
                public(f)
            assert str(raised.value) == reason
        for name in NINE_RECOGNIZERS:
            r = getattr(metric_realize, name)(f)
            assert not r.accepted and r.reason, name
        assert metric_realize.planar_check(f).reason == reason
        report = metric_realize.classify(f)
        assert report.accepted_classes() == []
        assert not any("internal inconsistency" in r.reason for r in report.verdicts.values())

    def test_errors_adding_up_along_a_path(self):
        import metric_realize
        from metric_realize import verify_realization

        # ten collinear points, every tight split off by half the tolerance:
        # S is the path, whose own entries miss D(1, 10) by 4.5 tolerances
        tol = 1e-9
        f = fam(10, {
            (i, j): 0.1 * (j - i) - tol / 2 * (j - i - 1)
            for i in range(1, 11) for j in range(i + 1, 11)
        }, Cmp(tol))
        assert f.support.graph.edge_pairs() == {(k, k + 1) for k in range(1, 10)}
        assert not verify_realization(f.support.graph, f)
        # the path reweighted by the steps in D_{1,.}, as the snake rebuild does
        assert f.support.realization == WeightedGraph(
            10, [(k, k + 1, f.d(1, k + 1) - f.d(1, k)) for k in range(1, 10)]
        )
        report = metric_realize.classify(f)
        assert report.accepted_classes() == [
            "snake", "caterpillar", "tree", "polygon", "bipartite", "planar"
        ]
        assert report.lattice_violations() == []
        for name in NINE_RECOGNIZERS:
            r = getattr(metric_realize, name)(f)
            if r.accepted:
                assert verify_realization(r.graph, f), name
            else:
                assert r.reason, name


class TestExactSupport:
    """On exact numbers the split scan proves that S realizes D; floats
    under EXACT are verified, and an S that misses D rejects every class
    but bipartite, which K_{X,Y}'s own check decides."""

    def test_floats_under_exact_that_miss_by_an_ulp_reject_cleanly_bar_bipartite(self):
        import metric_realize

        g = WeightedGraph(5, [(1, 2, 0.2), (1, 3, 0.1), (1, 4, 0.2), (2, 3, 0.1), (2, 5, 0.3)])
        f = two_weights(g, EXACT)
        # (1, 2) ties with 1-3-2, and S's path 4-1-3-2-5 sums to one ulp
        # above d(4, 5) = 0.7
        assert f.support.graph.edge_pairs() == {(1, 3), (1, 4), (2, 3), (2, 5)}
        assert f.support.violation is None and f.support.realization is None
        assert f.support.rejection().reason == (
            "the support graph does not realize the family within the tolerance"
        )
        # S's shape is a path, so the sides accept, and K_{X,Y} weighed by D,
        # whose own check is the one numeric test, passes it
        for name in NINE_RECOGNIZERS:
            r = getattr(metric_realize, name)(f)
            if name == "bigraph_check":
                assert r.accepted and verify_realization(r.graph, f)
                assert (r.witness.x_side, r.witness.y_side) == ({1, 2}, {3, 4, 5})
                assert all(w == f.d(a, b) for a, b, w in r.graph.edges)
            else:
                assert not r.accepted and r.reason, name
        report = classify(f)
        assert report.accepted_classes() == ["bipartite"]
        assert not any("internal inconsistency" in (r.reason or "") for r in report.verdicts.values())

    @pytest.mark.parametrize("class_id", sorted(CLASS_MIN_N))
    def test_exact_classify_runs_no_bellman_check(self, class_id, monkeypatch):
        def no_bellman(*args):
            raise AssertionError("kernel.bellman called")

        family = two_weights(generate(GenSpec(class_id, 12, 1)))
        with monkeypatch.context() as m:
            m.setattr(kernel, "bellman", no_bellman)
            report = classify(family)
        assert family.support.realization is family.support.graph
        assert report.accepted_classes()
        for r in report.verdicts.values():
            assert not r.accepted or verify_realization(r.graph, family)


    def test_floats_under_exact_verify_the_graphs_rebuilt_from_s(self, monkeypatch):
        # a float array is verified wherever S is rebuilt: the dyadic path
        # 1-2-3-4-5 (its sums are exact floats), its closed snake and its
        # K_{X,Y} on {1, 3, 5} and {2, 4} all reach ``verify_realization``
        f = two_weights(WeightedGraph(5, [(1, 2, 0.5), (2, 3, 0.25), (3, 4, 1.5), (4, 5, 0.75)]), EXACT)
        assert f.scaled.scale is None  # a float64 array
        verified = []
        monkeypatch.setattr(support_module, "verify_realization", _spy(support_module.verify_realization, verified))
        polygon, bipartite = polygon_check(f), bigraph_check(f)
        assert polygon.accepted and bipartite.accepted
        assert verified == [f.support.graph, polygon.graph, bipartite.graph]
        assert len(polygon.graph.u) == 5 and len(bipartite.graph.u) == 6


TOL = Cmp(1e-9)
# Relative noise on float entries: none, well within, just within and just
# outside TOL.
NOISE = (0.0, 1e-12, -1e-12, 7e-10, -7e-10, 1e-8, -1e-8)


@st.composite
def checked_families(draw):
    """A family of ``test_support.families`` (int, decimal, beyond-int64 and
    beyond-float values; metric or not) as it is, exactly or under TOL
    (which holds their floats), or as floats exactly, or with NOISE under
    TOL.  Values beyond the float range stay exact: a tolerance refuses
    them."""
    kind, family = draw(families())
    modes = ("exact",) if kind == "huge" else ("exact", "tol", "float", "noisy")
    mode = draw(st.sampled_from(modes))
    if mode == "exact":
        return family  # with the array that two_weights kept, if it made the family
    values = family.values
    if mode == "float":
        values = {p: float(v) for p, v in values.items()}
    elif mode == "noisy":
        values = {p: float(v) * (1 + draw(st.sampled_from(NOISE))) for p, v in values.items()}
    return DistanceFamily(family.n, values, EXACT if mode == "float" else TOL)


@settings(SETTINGS, max_examples=400)
@given(checked_families(), st.sampled_from((1, 5, 32)))
def test_the_array_checks_equal_the_scalar_scans(family, cap):
    reports = (
        (check_triangle(family, cap), oracles.triangle_scan(family, cap)),
        (check_four_point(family, cap), oracles.four_point_scan(family, cap)),
        (check_median(family, cap), oracles.median_scan(family, cap)),
    )
    for got, want in reports:
        assert got == want
        assert all(type(x) is int for violation in got.violations for x in violation)
    for i, j in family.pairs():
        assert is_indecomposable(family, i, j) is oracles.indecomposable_scan(family, i, j)


@pytest.mark.parametrize("check", (check_triangle, check_four_point, check_median, classify))
def test_the_checks_under_a_tolerance_decide_sums_beyond_the_float_range_as_exact_mode_does(check):
    # K_{3,3} of weight 5e307: every value fits a float, but the sums of two
    # same-side values (2 * 1e308) that the checks compare are inf, which is
    # within no tolerance of a finite value
    g = WeightedGraph(6, [(a, b, 5 * 10**307) for a in (1, 2, 3) for b in (4, 5, 6)])
    got, want = check(two_weights(g, Cmp(1e-9))), check(two_weights(g))
    if check is classify:
        got, want = (
            ({k: (r.accepted, r.reason) for k, r in report.verdicts.items()}, report.condition_summary, report.bipartition)
            for report in (got, want)
        )
    else:
        assert not want.holds or check is check_triangle
    assert got == want


# Exact values whose tolerance family is the one the command line reads for
# them: ints, decimals, ratios p/q, values whose scaled ints pass 2^53 (no
# exact float64 value) within int64, and ints beyond int64.
EXACT_VALUES = {
    "int": st.integers(1, 20),
    "decimal": st.integers(1, 400).map(lambda k: Fraction(k, 20)),
    "ratio": st.builds(Fraction, st.integers(1, 60), st.integers(1, 13)),
    "past 2^53": st.builds(Fraction, st.integers(2**53 + 1, 2**59), st.sampled_from((1, 3))),
    "beyond int64": st.integers(2**63, 2**70),
}


@st.composite
def exact_graphs(draw):
    """A connected graph with exact weights of one kind, and either its
    2-weights or arbitrary values of that kind (mostly not a metric)."""
    value = EXACT_VALUES[draw(st.sampled_from(sorted(EXACT_VALUES)))]
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = {(draw(st.integers(1, v - 1)), v): draw(value) for v in range(2, n + 1)}
    for _ in range(draw(st.integers(0, n))):
        edges[draw(st.sampled_from(pairs))] = draw(value)
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
    values = two_weights(g).values if draw(st.booleans()) else {p: draw(value) for p in pairs}
    return g, values


@settings(SETTINGS, max_examples=150)
@given(exact_graphs())
def test_a_tolerance_family_of_exact_numbers_is_the_family_the_command_line_reads(drawn):
    g, values = drawn
    family = DistanceFamily(g.n, values, TOL)
    read = parse_family_csv(family_to_csv(DistanceFamily(g.n, values)), TOL)
    assert family.scaled.scale is read.scaled.scale is None
    assert family.scaled.array.dtype.name == read.scaled.array.dtype.name == "float64"
    assert family.scaled.array.tobytes() == read.scaled.array.tobytes()
    assert report_to_json(classify(family)) == report_to_json(classify(read))
    # two_weights under a tolerance holds the correctly rounded exact
    # 2-weights, and with prune and exact two_weights on one graph it runs
    # one Floyd-Warshall
    g = WeightedGraph(g.n, g.edges)
    runs = []
    all_pairs = kernel.all_pairs

    def counting(*args):
        runs.append(args)
        return all_pairs(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernel, "all_pairs", counting)
        tolerant, pruned, exact = two_weights(g, TOL), prune(g, TOL), two_weights(g)
    assert len(runs) == 1
    assert tolerant.values == {p: float(v) for p, v in exact.values.items()}
    assert tolerant.scaled.array.tobytes() == DistanceFamily(g.n, exact.values, TOL).scaled.array.tobytes()
    assert pruned.scale == g.scale and set(pruned.edges) <= set(g.edges)
