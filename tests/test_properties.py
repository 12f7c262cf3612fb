"""Properties every verdict keeps: relabelling the vertices relabels the
verdicts' graphs and sides, integral data gets the same verdicts in exact
and in tolerance mode, and at small n every recognizer agrees with its
brute-force oracle."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import metric_realize
from metric_realize import Cmp, DistanceFamily, GenSpec, classify, generate, two_weights
from metric_realize.generators import CLASS_MIN_N

from oracles import brute_force_class_check

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def families(draw, weight_kinds=("int", "decimal"), min_n=2, max_n=10):
    """Two-weights of a generated instance of any class at n <= max_n, half
    of them with one entry raised by 1 or 2 (often no longer a metric)."""
    class_id = draw(st.sampled_from(sorted(CLASS_MIN_N)))
    n = draw(st.integers(max(min_n, CLASS_MIN_N[class_id]), max_n))
    spec = GenSpec(class_id, n, draw(st.integers(0, 10**6)), weight_kind=draw(st.sampled_from(weight_kinds)))
    f = two_weights(generate(spec))
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(list(f.pairs())))
        f = f.with_value(i, j, f.d(i, j) + draw(st.sampled_from((1, 2))))
    return f


def relabelled(family, perm):
    """The family with vertex v renamed perm[v - 1]."""
    values = {}
    for (i, j), v in family.values.items():
        a, b = perm[i - 1], perm[j - 1]
        values[(min(a, b), max(a, b))] = v
    return DistanceFamily(family.n, values, family.cmp)


def accepted(report):
    return {c: r.accepted for c, r in report.verdicts.items()}


@PROPERTY_SETTINGS
@given(st.data())
def test_verdicts_follow_a_relabelling(data):
    f = data.draw(families())
    perm = data.draw(st.permutations(range(1, f.n + 1)))
    report, moved = classify(f), classify(relabelled(f, perm))
    assert accepted(moved) == accepted(report)
    for c, r in report.verdicts.items():
        if r.accepted:
            edges = {(frozenset((perm[u - 1], perm[v - 1])), w) for u, v, w in r.graph.edges}
            assert {(frozenset((u, v)), w) for u, v, w in moved.verdicts[c].graph.edges} == edges, c
    if report.bipartition is not None:
        bp, moved_bp = report.bipartition, moved.bipartition
        sides = {frozenset(perm[v - 1] for v in side) for side in (bp.x_side, bp.y_side)}
        assert {moved_bp.x_side, moved_bp.y_side} == sides


@PROPERTY_SETTINGS
@given(families(weight_kinds=("int",)))
def test_exact_and_tolerance_mode_agree_on_integral_data(f):
    floats = DistanceFamily(f.n, {p: float(v) for p, v in f.values.items()}, Cmp(1e-9))
    assert accepted(classify(floats)) == accepted(classify(f))


ORACLE_FOR = {
    "snake_check": "snake",
    "caterpillar_check": "caterpillar",
    "tree_check": "tree",
    "pruned_polygon_check": "pruned_polygon",
    "polygon_check": "polygon",
    "complete_check": "complete",
    "bigraph_check": "complete_bipartite",
    "cobigraph_check": "pruned_complete_bipartite",
    "planar_check": "planar",
}


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(families(min_n=3, max_n=6))
def test_recognizers_agree_with_the_brute_force_oracles(f):
    for name, oracle_id in ORACLE_FOR.items():
        verdict = getattr(metric_realize, name)(f)
        assert verdict.accepted == brute_force_class_check(f, oracle_id), (name, verdict.reason)
