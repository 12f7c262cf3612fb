"""Properties every verdict keeps: relabelling the vertices relabels the
verdicts' graphs and sides, integral data gets the same verdicts in exact
and in tolerance mode, and at small n every recognizer agrees with its
brute-force oracle.  Pruning is idempotent and keeps every 2-weight."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import metric_realize
from metric_realize import (
    Cmp,
    DistanceFamily,
    GenSpec,
    WeightedGraph,
    caterpillar_check,
    classify,
    generate,
    prune,
    support_graph,
    tree_check,
    two_weights,
)
from metric_realize.generators import CLASS_MIN_N

from conftest import with_value
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
        f = with_value(f, i, j, f.d(i, j) + draw(st.sampled_from((1, 2))))
    return f


@st.composite
def graphs(draw, max_n=10):
    """A generated instance of any class, or a G(n, m) graph (a random
    spanning tree plus any number of further edges, most of them useless
    under random weights), with int or decimal weights."""
    kind = draw(st.sampled_from(("int", "decimal")))
    if draw(st.booleans()):
        class_id = draw(st.sampled_from(sorted(CLASS_MIN_N)))
        n = draw(st.integers(CLASS_MIN_N[class_id], max_n))
        return generate(GenSpec(class_id, n, draw(st.integers(0, 10**6)), weight_kind=kind))
    n = draw(st.integers(2, max_n))
    pairs = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    chords = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in pairs]
    if chords:
        pairs.update(draw(st.lists(st.sampled_from(chords), unique=True)))
    if kind == "int":
        weights = st.integers(1, 20)
    else:
        weights = st.integers(10, 200).map(lambda tenths: Fraction(tenths, 10))
    return WeightedGraph(n, [(u, v, draw(weights)) for u, v in sorted(pairs)])


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


@PROPERTY_SETTINGS
@given(graphs())
def test_prune_is_idempotent_and_keeps_the_two_weights(g):
    pruned = prune(g)
    assert prune(pruned) == pruned
    family = two_weights(g)
    # a fresh graph of the kept edges: the pruned graph holds g's 2-weights
    assert two_weights(WeightedGraph(pruned.n, pruned.edges)).values == family.values
    # and the result is the unique pruned realization, the support graph
    assert pruned == support_graph(family)


# The spider (a claw with legs of length 2, hub 4) is the smallest tree that
# is not a caterpillar, so the draws above (n <= 6) cannot tell the two
# recognizers apart; these n = 7 families can.
SPIDER_PAIRS = [(4, 2), (2, 7), (4, 5), (5, 1), (4, 6), (6, 3)]
SEVEN_VERTEX_FAMILIES = [
    pytest.param(
        two_weights(WeightedGraph(7, [(u, v, w) for (u, v), w in zip(SPIDER_PAIRS, weights)])),
        id=f"spider-{name}",
    )
    for name, weights in (
        ("unit", [1] * 6),
        ("int", [3, 1, 4, 1, 5, 9]),
        ("decimal", [Fraction(k, 10) for k in (13, 7, 21, 5, 9, 30)]),
    )
] + [
    pytest.param(two_weights(generate(GenSpec(class_id, 7, seed, weight_kind=kind))), id=f"{class_id}-{seed}-{kind}")
    for class_id in ("tree", "caterpillar")
    for seed in (0, 1)
    for kind in ("int", "decimal")
]


@pytest.mark.parametrize("f", SEVEN_VERTEX_FAMILIES)
def test_tree_recognizers_agree_with_the_oracles_at_seven_vertices(f):
    for check, oracle_id in ((caterpillar_check, "caterpillar"), (tree_check, "tree")):
        assert check(f).accepted == brute_force_class_check(f, oracle_id), check.__name__
