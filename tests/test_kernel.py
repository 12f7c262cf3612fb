"""The dense min-plus kernel against the scalar loops in ``oracles``: the
comparison rule entry by entry, and 2-weights, pruning and verification on
int, Fraction and float weights and on weights whose sums leave int64
(object dtype), connected or not, exactly and under ``Cmp(1e-9)``.  Results
are Python numbers and a Python bool.  Values beyond the float range
(10**400) run in exact mode only: a tolerance compares floats, and refuses
an exact value that has none."""

import itertools
import json
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from metric_realize import (
    EXACT,
    Cmp,
    DistanceFamily,
    GenSpec,
    GraphError,
    WeightedGraph,
    check_triangle,
    classify,
    generate,
    is_indecomposable,
    prune,
    support_graph,
    two_weights,
    verify_realization,
)
from metric_realize import graph as graph_module
from metric_realize import kernel, serialize, support
from metric_realize.bipartite import bigraph_check
from metric_realize.polygons import polygon_check
from metric_realize.serialize import graph_from_json, graph_to_dot, graph_to_json, parse_family_csv

import oracles
from conftest import with_value

KERNEL_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CMPS = (EXACT, Cmp(1e-9))
HUGE = 10**400

WEIGHTS = {
    "int": st.integers(1, 20),
    "fraction": st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)),
    "float": st.floats(0.01, 50, allow_nan=False, allow_infinity=False),
    # sums of these do not fit int64: the object-dtype path
    "wide": st.integers(1, 20).map(lambda k: k * 2**60),
    "huge": st.integers(1, 20).map(lambda k: k * HUGE),
}


# Relative offsets of a chord from the path it bridges: an exact tie, ties
# well and just within Cmp(1e-9), and gaps just outside it.
OFFSETS = (Fraction(1, 10**12), Fraction(7, 10**10), Fraction(1, 10**8))
NEAR_TIES = (0, *OFFSETS, *(-x for x in OFFSETS))


@KERNEL_SETTINGS
@given(
    st.sampled_from(sorted(WEIGHTS) + ["signed"]),
    st.sampled_from((*CMPS, Cmp(0.5))),
    st.data(),
)
def test_eq_and_lt_apply_the_scalar_rule_entry_by_entry(kind, cmp, data):
    # pairs (a, b) with b a near tie of a or a value of its own; Cmp(0.5)
    # meets the floor of 1 in max(1, |a|, |b|) on small values
    value = WEIGHTS.get(kind, st.integers(-20, 20))
    a = data.draw(st.lists(value, min_size=1, max_size=12))
    b = []
    for x in a:
        offset = data.draw(st.sampled_from(NEAR_TIES))
        tie = x * (1 + float(offset)) if isinstance(x, float) else x * (1 + offset)
        b.append(data.draw(st.sampled_from((tie, x)) | value))
    (sa, sb), scale = kernel.row_matrix([kernel.scale_numbers(a), kernel.scale_numbers(b)], len(a))
    if not cmp.exact:
        # a tolerance compares the correctly rounded floats, as a family
        # holds them; an exact value beyond the float range has none
        if kind == "huge":
            with pytest.raises(OverflowError):
                kernel.at_scale(sa, scale, None)
            return
        sa, sb = (kernel.at_scale(x, scale, None) for x in (sa, sb))
        a, b = [float(x) for x in a], [float(y) for y in b]
    assert kernel.eq(sa, sb, cmp).tolist() == [oracles.eq(cmp, x, y) for x, y in zip(a, b)]
    assert kernel.lt(sa, sb, cmp).tolist() == [oracles.lt(cmp, x, y) for x, y in zip(a, b)]
    assert kernel.lt(sb, sa, cmp).tolist() == [oracles.lt(cmp, y, x) for x, y in zip(a, b)]


BIG = 1e308
INF = float("inf")


@pytest.mark.parametrize("finite", (0.0, 1.0, BIG, -BIG))
@pytest.mark.parametrize("infinite", (INF, -INF))
def test_an_infinite_sum_is_within_no_tolerance_of_a_finite_value(infinite, finite):
    # the slack's magnitude is capped at the largest float, so an infinite
    # operand keeps a finite slack; near the cap finite values keep theirs
    cmp = Cmp(1e-9)
    x, y = np.array([infinite, finite]), np.array([finite, infinite])
    assert kernel.eq(x, y, cmp).tolist() == [False, False]
    assert kernel.lt(x, y, cmp).tolist() == [infinite < 0, infinite > 0]
    for a, b in ((infinite, finite), (finite, infinite)):
        assert oracles.eq(cmp, a, b) is False and oracles.lt(cmp, a, b) is (a < b)
    near, far = np.array([BIG * (1 - 1e-12), BIG * (1 - 1e-8)]), np.array([BIG, BIG])
    assert kernel.eq(near, far, cmp).tolist() == [True, False]
    assert kernel.lt(near, far, cmp).tolist() == [False, True]


def comparable(g, cmp):
    return cmp.exact or all(w < HUGE for *_e, w in g.edges)


@st.composite
def weighted_graphs(draw, connected=True, max_n=8, n=None, weights=WEIGHTS):
    """A random spanning tree (or forest) plus chords, one weight kind, at
    times with ties between a chord and the path it bridges."""
    kind = draw(st.sampled_from(sorted(weights)))
    if n is None:
        n = draw(st.integers(2, max_n))
    weight = weights[kind]
    edges = {}
    for v in range(2, n + 1):
        if connected or draw(st.booleans()):
            edges[(draw(st.integers(1, v - 1)), v)] = draw(weight)
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(sorted)
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(pair)
        edges[(u, v)] = draw(weight)
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(pair)
        g = oracles.any_graph(n, [(a, b, w) for (a, b), w in edges.items()])
        d = oracles.shortest_path_matrix(g)[u - 1][v - 1]
        offset = draw(st.sampled_from(NEAR_TIES))
        if d != float("inf"):
            edges[(u, v)] = d * (1 + float(offset)) if isinstance(d, float) else d * (1 + offset)
    edges = [(u, v, w) for (u, v), w in edges.items()]
    return WeightedGraph(n, edges) if connected else oracles.any_graph(n, edges)


def edges_of(u, v, w, scale):
    """The edge tuples of the columns a kernel entry point takes."""
    return tuple(zip((u + 1).tolist(), (v + 1).tolist(), kernel.numbers(w, scale)))


def assert_python_number(x):
    assert type(x) in (int, Fraction, float), type(x)


def assert_all_pairs_equal_the_scalar_loop(g):
    """Connected pairs hold the loop's value; pairs apart hold a stand-in
    for +inf that exceeds the weight sum, hence every path."""
    assert g.scale == kernel.common_scale(w for *_e, w in g.edges)
    dist = kernel.all_pairs(g.n, g.u, g.v, g.w, g.scale)
    total = sum(w for *_e, w in g.edges)
    for row, want in zip(dist.array, oracles.shortest_path_matrix(g)):
        for x, y in zip(dist.numbers(row), want):
            assert_python_number(x)
            if y == float("inf"):
                assert x > total
            else:
                assert x == y


@KERNEL_SETTINGS
@given(weighted_graphs(connected=False))
def test_all_pairs_equals_the_scalar_loop(g):
    assert_all_pairs_equal_the_scalar_loop(g)


@KERNEL_SETTINGS
@given(weighted_graphs(), st.sampled_from(CMPS))
def test_two_weights_equal_the_scalar_loop(g, cmp):
    assume(comparable(g, cmp))
    family = two_weights(g, cmp)
    assert family == oracles.family_of_matrix(oracles.shortest_path_matrix(g), cmp)
    for x in family.values.values():
        assert_python_number(x)
    for i, j in family.values:
        assert type(i) is int and type(j) is int
    # the family of its own values is the family; its array holds the same
    # numbers, at the values' own scale: the graph's weights set the scale of
    # the Floyd-Warshall array, and a weight off every shortest path may make
    # it a multiple of that
    rebuilt = DistanceFamily(family.n, family.values, cmp)
    assert rebuilt == family
    (a, scale), (b, own) = family.scaled, rebuilt.scaled
    if scale is None:
        assert own is None and b.dtype == a.dtype and np.array_equal(a, b)
    else:
        assert scale % own == 0 and np.array_equal(a, b * (scale // own))
        assert a.dtype == object or b.dtype == np.int64


@KERNEL_SETTINGS
@given(weighted_graphs(), st.sampled_from(CMPS))
def test_prune_equals_the_per_edge_scan(g, cmp):
    assume(comparable(g, cmp))
    pruned = prune(g, cmp)
    assert pruned.edge_pairs() == oracles.useful_edges(g, cmp)
    for u, v, w in pruned.edges:
        assert type(u) is int and type(v) is int
        assert_python_number(w)


@KERNEL_SETTINGS
@given(weighted_graphs(), st.sampled_from(CMPS), st.integers(0, 10**6))
def test_verify_realization_equals_the_scalar_comparison(g, cmp, pick):
    assume(comparable(g, cmp))
    family = two_weights(g, cmp)
    assert verify_realization(g, family) is True
    pairs = sorted(family.values)
    i, j = pairs[pick % len(pairs)]
    d = family.d(i, j)
    # doubled, just outside the tolerance and within it (exact Fractions,
    # which never overflow)
    for factor in (2, *(1 + x for x in OFFSETS)):
        bumped = Fraction(d) * factor
        other = with_value(family, i, j, bumped)
        got = verify_realization(g, other)
        assert type(got) is bool
        assert got == oracles.verify_realization(g, other)


# weights next to 2**62: the Bellman sums w + D reach the int64 boundary
PAIR_WEIGHTS = {**WEIGHTS, "int64 edge": st.integers(2**62 - 4, 2**62 + 4)}


@st.composite
def graph_pairs(draw):
    """A graph g and a graph h on its vertices: g less an edge (connected or
    not), g plus a chord at D_uv or one unit of the array off it, g with one
    vertex cut off, or a graph of its own."""
    g = draw(weighted_graphs(weights=PAIR_WEIGHTS))
    n = g.n
    shape = draw(st.sampled_from(("less", "chord", "isolated", "unrelated")))
    missing = sorted(set(itertools.combinations(range(1, n + 1), 2)) - g.edge_pairs())
    if shape == "chord" and missing:
        u, v = draw(st.sampled_from(missing))
        d = oracles.shortest_path_matrix(g)[u - 1][v - 1]
        unit = math.ulp(d) if isinstance(d, float) else Fraction(1, kernel.common_scale(w for *_e, w in g.edges))
        w = d + draw(st.sampled_from((0, unit, -unit)))
        assume(w > 0)
        if isinstance(w, Fraction) and w.denominator == 1:
            w = w.numerator
        return g, WeightedGraph(n, [*g.edges, (u, v, w)])
    if shape == "isolated":
        x = draw(st.integers(1, n))
        return g, oracles.any_graph(n, [e for e in g.edges if x not in e[:2]])
    if shape == "unrelated":
        return g, draw(weighted_graphs(connected=False, n=n, weights=PAIR_WEIGHTS))
    u, v, _w = draw(st.sampled_from(g.edges))
    return g, oracles.without_edge(g, u, v)


@KERNEL_SETTINGS
@given(graph_pairs(), st.sampled_from(CMPS))
def test_verify_realization_of_another_graph_equals_the_scalar_comparison(pair, cmp):
    # the family of g, as two_weights gives it and rebuilt from its values
    # (an int64 array where two_weights needs object), checked on h with
    # blocks of the default size and with one source per block.  A
    # disconnected h never realizes D, in the package and in the oracle.
    g, h = pair
    assume(comparable(g, cmp) and comparable(h, cmp))
    # a float against 10**400 raises GraphError, which the tests of the
    # float range check
    weights = [w for graph in pair for *_e, w in graph.edges]
    assume(not (any(isinstance(w, float) for w in weights) and any(w >= HUGE for w in weights)))
    family = two_weights(g, cmp)
    for f in (family, DistanceFamily(g.n, family.values, cmp)):
        want = oracles.verify_realization(h, f)
        for block in (kernel.SPLIT_BLOCK, 1):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(kernel, "SPLIT_BLOCK", block)
                got = verify_realization(h, f)
            assert type(got) is bool and got == want


# Exact weights of graphs whose 2-weights are known: int, tenths (scale 10)
# and multiples of 2**60 and 10**400, whose sums need Python ints
KNOWN_WEIGHTS = {
    "int": st.integers(1, 20),
    "decimal": st.integers(1, 200).map(lambda k: Fraction(k, 10)).map(
        lambda q: q.numerator if q.denominator == 1 else q
    ),
    "wide": WEIGHTS["wide"],
    "huge": WEIGHTS["huge"],
}


@st.composite
def known_cases(draw):
    """Pairs (graph, family) of an exact graph g: g against its own
    2-weights, their family rebuilt from its values, the 2-weights with one
    entry one unit of the array off, and another graph's 2-weights.  For g
    at scale 1 also the 2-weights of g plus a useless chord of weight
    D_uv + k/10 (k prime to 10, so scale 10): that graph against g's
    2-weights, and g against its 2-weights and the same with one entry a
    tenth off."""
    kind = draw(st.sampled_from(sorted(KNOWN_WEIGHTS)))
    g = draw(weighted_graphs(weights={kind: KNOWN_WEIGHTS[kind]}))
    family = two_weights(g)
    i, j = draw(st.sampled_from(sorted(family.values)))
    d, unit = family.d(i, j), Fraction(1, family.scaled.scale)
    off = with_value(family, i, j, d + (unit if d == unit else draw(st.sampled_from((unit, -unit)))))
    other = two_weights(draw(weighted_graphs(n=g.n, weights={kind: KNOWN_WEIGHTS[kind]})))
    cases = [(g, f) for f in (family, DistanceFamily(g.n, family.values), off, other)]
    missing = sorted(set(itertools.combinations(range(1, g.n + 1), 2)) - g.edge_pairs())
    if g.scale == 1 and missing:
        u, v = draw(st.sampled_from(missing))
        chord = WeightedGraph(g.n, [*g.edges, (u, v, family.d(u, v) + Fraction(draw(st.sampled_from((1, 3, 7, 9))), 10))])
        tenths = two_weights(chord)
        assert chord.scale == tenths.scaled.scale == 10
        cases += [(chord, family), (g, tenths), (g, with_value(tenths, i, j, d + Fraction(1, 10)))]
    return cases


@KERNEL_SETTINGS
@given(known_cases())
def test_verification_of_known_2_weights_equals_the_bellman_check(cases):
    # g and its prune hold g's 2-weights, which verification compares with
    # the family's array; a graph of the same edges made afresh holds none,
    # and the Bellman check on its columns, the scalar loop and verification
    # of the fresh graph must agree with that comparison
    for g, family in cases:
        two_weights(g)
        target, own = family.scaled
        for known in (g, prune(g)):
            fresh = WeightedGraph(known.n, known.edges)
            scale = math.lcm(own, fresh.scale)
            w = kernel.at_scale(fresh.w, fresh.scale, scale)
            bellman = kernel.bellman(fresh.n, fresh.u, fresh.v, w, kernel.at_scale(target, own, scale, 2), scale)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(kernel, "bellman", lambda *args: pytest.fail("a known graph ran the Bellman check"))
                m.setattr(kernel, "all_pairs", lambda *args: pytest.fail("a known graph ran Floyd-Warshall"))
                got = verify_realization(known, family)
            assert type(got) is bool
            assert got == bellman == oracles.verify_realization(known, family)
            assert verify_realization(fresh, family) is got


# Tolerances down to about five float64 ulps, where the rounding of a
# comparison could decide it
SECOND_SCALE_CMPS = (Cmp(1e-9), Cmp(1e-12), Cmp(1e-15))


@st.composite
def second_scale_pairs(draw, cmp):
    """A graph g with int weights whose 2-weights reach 2**61, and h: g plus a
    chord (u, v) at D_uv moved by 0, 1/2, 1 or 2 tolerances (whole units)
    and by k/7, so that h and its 2-weights have scale 7."""
    g = draw(weighted_graphs(max_n=8, weights={"wide int": st.integers(1, 2**61 // 8)}))
    missing = sorted(set(itertools.combinations(range(1, g.n + 1), 2)) - g.edge_pairs())
    assume(missing)
    u, v = draw(st.sampled_from(missing))
    d = oracles.shortest_path_matrix(g)[u - 1][v - 1]
    shift = draw(st.sampled_from((0, 0.5, 1, 2))) * draw(st.sampled_from((1, -1)))
    w = d + math.floor(d * cmp.tol * shift) + Fraction(draw(st.integers(1, 6)), 7)
    return g, WeightedGraph(g.n, [*g.edges, (u, v, w)])


@KERNEL_SETTINGS
@given(st.sampled_from(SECOND_SCALE_CMPS), st.data())
def test_verification_at_a_second_scale_rounds_as_on_python_ints(cmp, data):
    # the family of one graph checked on the other under a tolerance: the
    # 2-weights, at scale 1 or 7 and up to 2**61, and the graph's weights
    # are compared as the floats that Python's true division of ints gives
    g, h = data.draw(second_scale_pairs(cmp))
    for graph, other in ((h, g), (g, h)):
        family = two_weights(other, cmp)
        floats = {p: float(v) for p, v in two_weights(other).values.items()}
        assert family.values == floats
        rounded = WeightedGraph(graph.n, [(u, v, float(w)) for u, v, w in graph.edges])
        assert verify_realization(graph, family) is verify_realization(rounded, DistanceFamily(graph.n, floats, cmp))


def noisy_path(tol):
    """The exact values of ten collinear points 1/10 apart, every tight
    split off by half the tolerance, so that S, the path, misses D(1, 10)
    and is reweighted from vertex 1 (``support._reweighted_tree``); D(a, b)
    with a > 1 moved by a 70th of the tolerance, which puts a 7 into their
    scale."""
    unit = Fraction(str(tol))
    return {
        (a, b): Fraction(b - a, 10) - unit / 2 * (b - a - 1) + (unit / 70 if a > 1 else 0)
        for a, b in itertools.combinations(range(1, 11), 2)
    }


@pytest.mark.parametrize("cmp", SECOND_SCALE_CMPS)
def test_classify_at_a_second_scale_reports_as_on_python_ints(cmp):
    # the Fractions, at a scale with a 7 in it, are moved to float64 as
    # Python's true division of ints rounds them: S is reweighted and the
    # snake closed in float64, and the report is that of the family of
    # those floats and of the family read from the exact matrix document
    values = noisy_path(cmp.tol)
    family = DistanceFamily(10, values, cmp)
    floats = {p: float(v) for p, v in values.items()}
    assert family.scaled.scale is None and family.values == floats
    path = family.support.realization
    assert path not in (None, family.support.graph) and path.scale is None
    report = classify(family)
    assert report.verdicts["polygon"].accepted
    read = parse_family_csv(serialize.family_to_csv(DistanceFamily(10, values)), cmp)
    texts = {serialize.report_to_json(classify(f)) for f in (DistanceFamily(10, floats, cmp), read)}
    assert texts == {serialize.report_to_json(report)}


@pytest.mark.parametrize("chord", (2**62 - 2, 2**62 - 1, 2**62 + 1, 2**62 + 2, 2**63))
def test_the_bellman_sums_leave_int64_past_its_boundary(chord):
    # D_13 = 2**62 - 1, and twice it fits int64, so the family's array is
    # int64.  The chord (1, 3) adds its weight to D_32 = 2**62 - 2, which
    # passes INT64_MAX from 2**62 + 2 on: the sum must not wrap around.
    top = 2**62 - 1
    family = DistanceFamily(3, {(1, 2): 1, (2, 3): top - 1, (1, 3): top})
    assert family.scaled.array.dtype.name == "int64"
    h = WeightedGraph(3, [(1, 2, 1), (2, 3, top - 1), (1, 3, chord)])
    assert verify_realization(h, family) is (chord >= top) is oracles.verify_realization(h, family)


def test_the_bellman_blocks_stay_small():
    # unit K_200 realizes its family; its 2m * n sums (about 8M entries) are
    # built in blocks of SPLIT_BLOCK entries, never in one piece
    n = 200
    g = WeightedGraph(n, [(u, v, 1) for u, v in itertools.combinations(range(1, n + 1), 2)])
    family = two_weights(g)
    tracemalloc.start()
    try:
        assert verify_realization(g, family) is True
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * max(kernel.SPLIT_BLOCK, n * n)


def test_the_min_plus_loops_work_in_a_narrow_copy():
    # an exact n = 300 tree: 2 * big and twice the +inf stand-in fit 16 bits,
    # so each routine's working copy takes a quarter of an int64 matrix, and
    # the 16-bit blocks of pair rows and the int64 results dominate the peak
    n = 300
    g = generate(GenSpec("tree", n, 1))
    family = two_weights(g)
    u, v = np.triu_indices(n, 1)
    for run, bound in (
        (lambda: kernel.splits(family.scaled, u, v), 2),
        (lambda: kernel.all_pairs(n, g.u, g.v, g.w, g.scale), 1.5),
    ):
        tracemalloc.start()
        try:
            run()
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n * n


def test_the_support_graph_builds_no_table_of_pairs():
    # exact S of an n = 600 tree: the pairs i < j, their values and their
    # splits are one row-major list each, gone before S is verified.  The
    # peak, 2.1 int64 matrices, is set while they are held beside their
    # comparisons: the two index columns of the pairs (one int64 matrix in
    # all), the family's values at them and their int64 splits (half of
    # one each), while the Bellman check's blocks reach 2.  Any other n x n
    # table, such as a split matrix, or the lists held through the check,
    # pass the bound.  At n = 300 the check's block alone is 3.2 int64
    # matrices.
    n = 600
    family = two_weights(generate(GenSpec("tree", n, 1)))
    tracemalloc.start()
    try:
        support.analyse(family)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n * n


@pytest.mark.parametrize("weights, bound", (("int", 6), ("decimal", 9), ("sevenths", 3.5)))
def test_the_matrix_document_is_read_in_blocks(weights, bound):
    # the exact n = 300 tree document: its cells are held as Python strings
    # and numbers one block at a time, so the peak stays a few int64
    # matrices (reading the whole document as one block takes 10 of them
    # on int cells and 31 on decimal ones).  "sevenths" is the decimal
    # document with its (1,2)/(2,1) cells raised by 1/7 and written as p/q:
    # the first block reads at scale 70, and every later block is moved to
    # it in its place in the list (3.24 int64 matrices; a merge that holds
    # the old blocks beside the moved ones takes 3.89)
    n = 300
    family = two_weights(generate(GenSpec("tree", n, 1, "int" if weights == "int" else "decimal")))
    text = serialize.family_to_csv(family)
    if weights == "sevenths":
        q = family.d(1, 2) + Fraction(1, 7)
        rows = [row.split(",") for row in text.splitlines()]
        rows[0][1] = rows[1][0] = f"{q.numerator}/{q.denominator}"
        text = "".join(",".join(row) + "\n" for row in rows)
        assert parse_family_csv(text).scaled.scale == 70
    tracemalloc.start()
    try:
        parse_family_csv(text)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * n * n


@pytest.mark.parametrize("cmp", CMPS)
@pytest.mark.parametrize("offset", NEAR_TIES)
@pytest.mark.parametrize("unit", (1, 1.0))
def test_a_chord_at_the_tolerance_boundary(unit, offset, cmp):
    # the chord (1, 3) against the path 1-2-3 of the same length
    chord = 2 * unit * (1 + (float(offset) if isinstance(unit, float) else offset))
    g = WeightedGraph(3, [(1, 2, unit), (2, 3, unit), (1, 3, chord)])
    assert prune(g, cmp).edge_pairs() == oracles.useful_edges(g, cmp)
    family = two_weights(WeightedGraph(3, [(1, 2, unit), (2, 3, unit)]), cmp)
    assert verify_realization(g, family) == oracles.verify_realization(g, family)


@pytest.mark.parametrize("cmp", CMPS)
def test_a_disconnected_graph_never_realizes_a_family(cmp):
    family = two_weights(WeightedGraph(3, [(1, 2, 1.0), (2, 3, 1.0)]), cmp)
    apart = oracles.any_graph(3, [(1, 2, 1.0)])
    assert verify_realization(apart, family) is False


def test_verification_reads_the_family_matrix_once(monkeypatch):
    g = WeightedGraph(4, [(1, 2, Fraction(1, 2)), (2, 3, 1), (3, 4, Fraction(1, 3))])
    family = two_weights(g)
    # two_weights hands its Floyd-Warshall matrix to the family
    assert "scaled" in family.__dict__
    with monkeypatch.context() as m:
        m.setattr(kernel, "pair_matrix", lambda *args: pytest.fail("the family matrix was rebuilt"))
        assert verify_realization(g, family) is True
        # a weight whose denominator the family lacks, and a float weight:
        # the family array is rescaled, and the graph still realizes it
        chord = WeightedGraph(4, [*g.edges, (1, 4, Fraction(23, 7))])
        assert verify_realization(chord, family) is True
        assert verify_realization(WeightedGraph(4, [*g.edges, (1, 4, 3.5)]), family) is True
        short = WeightedGraph(4, [(1, 2, 0.5), (2, 3, 1), (3, 4, 1 / 3), (1, 4, 1.8)])
        assert verify_realization(short, family) is False
    assert family.scaled.scale == 6 and family.scaled.array.dtype.name == "int64"
    assert "values" not in family.__dict__


FLOAT_AGAINST_HUGE = "an exact value beyond the float range cannot be compared with a float weight or family value"


def test_a_float_weight_against_an_exact_value_beyond_the_float_range():
    # the float weight makes the joint scale None: the family's exact array
    # is divided down to float64, where 10**400 has no value.  No tolerance
    # is in play, and the error names the float.
    family = two_weights(WeightedGraph(3, [(1, 2, HUGE), (2, 3, 1)]))
    with pytest.raises(GraphError, match=FLOAT_AGAINST_HUGE) as raised:
        verify_realization(WeightedGraph(3, [(1, 2, 1.5), (2, 3, 1)]), family)
    assert "tolerance" not in str(raised.value)


@pytest.mark.parametrize("cmp, message", [(EXACT, FLOAT_AGAINST_HUGE), (Cmp(1e-9), kernel.OUT_OF_FLOAT_RANGE)])
def test_an_exact_weight_beyond_the_float_range_against_a_float_family(cmp, message):
    # the float family makes the joint scale None, and the weight 10**400
    # has no float64 value: the package's error, not a raw OverflowError
    family = two_weights(WeightedGraph(3, [(1, 2, 1.5), (2, 3, 1)]), cmp)
    with pytest.raises(GraphError, match=message):
        verify_realization(WeightedGraph(3, [(1, 2, HUGE), (2, 3, 1)]), family)


@pytest.mark.parametrize("cmp", CMPS)
def test_the_graph_round_trip_builds_no_python_number_per_pair(cmp):
    # two_weights, prune and verification read the Floyd-Warshall array; the
    # family's values view is never built
    g = WeightedGraph(4, [(1, 2, Fraction(1, 2)), (2, 3, 1), (1, 3, Fraction(3, 2)), (3, 4, Fraction(1, 3))])
    family = two_weights(g, cmp)
    assert verify_realization(prune(g, cmp), family) is True
    assert "values" not in family.__dict__


def test_two_weights_and_prune_of_one_graph_run_one_floyd_warshall(monkeypatch):
    # the round trip graph -> 2-weights -> pruned graph -> verification
    g = WeightedGraph(4, [(1, 2, Fraction(1, 2)), (2, 3, 1), (1, 3, Fraction(3, 2)), (3, 4, Fraction(1, 3))])
    runs = []
    all_pairs = kernel.all_pairs

    def counting(n, u, v, w, scale):
        runs.append(edges_of(u, v, w, scale))
        return all_pairs(n, u, v, w, scale)

    monkeypatch.setattr(kernel, "all_pairs", counting)
    family = two_weights(g)
    pruned = prune(g)
    assert runs == [g.edges]
    # the kept 2-weights give what a fresh graph computes
    fresh = WeightedGraph(g.n, g.edges)
    assert pruned == prune(fresh) and pruned.edge_pairs() == {(1, 2), (2, 3), (3, 4)}
    assert two_weights(g).values == family.values
    assert two_weights(fresh, Cmp(1e-9)).values == {p: float(v) for p, v in family.values.items()}
    # exact verification compares known 2-weights with the family's array
    # (the pruned graph keeps g's, and g its own), and runs the Bellman
    # check for a graph without them: no Floyd-Warshall and no connectivity
    # walk either way
    document = WeightedGraph(pruned.n, pruned.edges)
    runs.clear()
    walks, checks = [], []
    walk, bellman = graph_module._walk, kernel.bellman

    def walking(*args):
        walks.append(args)
        return walk(*args)

    def checking(*args):
        checks.append(args)
        return bellman(*args)

    monkeypatch.setattr(graph_module, "_walk", walking)
    monkeypatch.setattr(kernel, "bellman", checking)
    assert verify_realization(pruned, family) is True
    assert verify_realization(g, family) is True
    assert runs == [] and walks == [] and checks == []
    assert verify_realization(document, family) is True
    assert runs == [] and walks == [] and len(checks) == 1
    # under a tolerance each verification computes the 2-weights of the graph
    # it checks afresh, on its weights in float64
    tolerant = two_weights(g, Cmp(1e-9))
    assert verify_realization(pruned, tolerant) is True
    assert verify_realization(g, tolerant) is True
    assert runs == [tuple((u, v, float(w)) for u, v, w in h.edges) for h in (pruned, g)]


@pytest.mark.parametrize("tolerant", (False, True))
def test_float_and_tolerance_prunes_keep_no_2_weights(monkeypatch, tolerant):
    # Float sums round and near-ties do not chain: a prune under a tolerance,
    # or of float weights, gives the pruned graph none of the graph's
    # 2-weights, so its 2-weights and its verification run Floyd-Warshall
    # of their own, and no Bellman check
    edges = [(1, 2, Fraction(1, 2)), (2, 3, 1), (1, 3, Fraction(3, 2)), (3, 4, Fraction(1, 3))]
    if tolerant:
        g, cmp = WeightedGraph(4, edges), Cmp(1e-9)
    else:
        g, cmp = WeightedGraph(4, [(u, v, float(w)) for u, v, w in edges]), EXACT
    family = two_weights(g, cmp)
    runs = []
    all_pairs = kernel.all_pairs

    def counting(*args):
        runs.append(args)
        return all_pairs(*args)

    monkeypatch.setattr(kernel, "all_pairs", counting)
    monkeypatch.setattr(kernel, "bellman", lambda *args: pytest.fail("a float graph ran the Bellman check"))
    pruned = prune(g, cmp)
    assert runs == [] and pruned.edge_pairs() == {(1, 2), (2, 3), (3, 4)}
    assert two_weights(pruned, cmp) == family and len(runs) == 1
    assert verify_realization(pruned, family) is True and len(runs) == 2


@pytest.mark.parametrize(
    "weights, dtype",
    [
        ((1, 2, 3), "int64"),
        ((Fraction(1, 2), 2, Fraction(1, 3)), "int64"),
        ((1.5, 2, 3), "float64"),
        ((HUGE, 1, 1), "object"),
        ((2**61, 1, 1), "int64"),
        ((2**62, 1, 1), "object"),  # twice the weight sum plus one exceeds int64
        # twice the +inf stand-in, 2 * (sum + 1), just below and just above
        # the limits of the narrow working types: 254 and 256 around 255,
        # 65534 and 65536 around 65535, 2**32 - 2 and 2**32 around 2**32 - 1
        ((124, 1, 1), "int64"),
        ((125, 1, 1), "int64"),
        ((32764, 1, 1), "int64"),
        ((32765, 1, 1), "int64"),
        ((2**31 - 4, 1, 1), "int64"),
        ((2**31 - 3, 1, 1), "int64"),
    ],
)
def test_the_dtype_follows_the_data(weights, dtype):
    # vertices 5 and 6 are apart from the path and from each other: the
    # steps add two stand-ins, the largest sum, and a wrapped one would fall
    # below the weight sum
    g = oracles.any_graph(6, [(1, 2, weights[0]), (2, 3, weights[1]), (3, 4, weights[2])])
    assert kernel.all_pairs(6, g.u, g.v, g.w, g.scale).array.dtype.name == dtype
    assert_all_pairs_equal_the_scalar_loop(g)


@pytest.mark.parametrize(
    "top, dtype",
    [
        # 2 * big = 4 * top + 2 just below and just above 255, 65535 and
        # 2**32 - 1, then the int64/object switch
        (63, "int64"),
        (64, "int64"),
        (16383, "int64"),
        (16384, "int64"),
        (2**30 - 1, "int64"),
        (2**30, "int64"),
        (2**61 - 1, "int64"),
        (2**61, "object"),
    ],
)
def test_the_split_dtype_follows_the_data(top, dtype):
    path = two_weights(WeightedGraph(4, [(1, 2, top - 2), (2, 3, 1), (3, 4, 1)]))
    violated = DistanceFamily(3, {(1, 2): 1, (2, 3): 1, (1, 3): top})
    for family in (path, violated):
        # every ordered pair of distinct indices
        n, big = family.n, 2 * top + 1
        u, v = np.nonzero(~np.eye(n, dtype=bool))
        m = kernel.splits(family.scaled, u, v)
        assert m.dtype.name == dtype
        # the scalar split of every pair, the diagonal raised to big
        rows = [[family.d(i, j) if i != j else big for j in range(1, n + 1)] for i in range(1, n + 1)]
        assert m.tolist() == [min(map(int.__add__, rows[i], rows[j])) for i, j in zip(u.tolist(), v.tolist())]
        graph, violation, realization = oracles.support_scan(family)
        s = support.analyse(family)
        assert (s.graph, s.violation, s.realization) == (graph, violation, realization)


# Family values by the dtype of the family's array: the scale-7 values keep
# a denominator of 7, so the array holds them times 7
SPLIT_VALUES = {
    "int64": st.integers(1, 40),
    "object": st.integers(1, 20).map(lambda k: k * HUGE),
    "float64": st.floats(0.01, 50, allow_nan=False, allow_infinity=False),
    "scale 7": st.integers(0, 40).map(lambda k: Fraction(7 * k + 1, 7)),
}


@KERNEL_SETTINGS
@given(st.sampled_from(sorted(SPLIT_VALUES)), st.integers(2, 7), st.data())
def test_splits_equal_the_scalar_split_of_each_pair(kind, n, data):
    # any values, metric or not; any list of pairs of distinct indices, in
    # any order, either orientation and with repeats; blocks of the default
    # size, of one pair and of three
    values = {p: data.draw(SPLIT_VALUES[kind]) for p in itertools.combinations(range(1, n + 1), 2)}
    family = DistanceFamily(n, values)
    a, scale = family.scaled
    assert (a.dtype.name, scale) == {"int64": ("int64", 1), "object": ("object", 1), "float64": ("float64", None)}.get(
        kind, ("int64", 7)
    )
    index = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index).filter(lambda p: p[0] != p[1]), max_size=3 * n))
    u, v = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    rows = oracles.split_rows(family)
    want = [min(map(operator.add, rows[i], rows[j])) for i, j in pairs]
    for block in (kernel.SPLIT_BLOCK, 1, 3 * n):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(kernel, "SPLIT_BLOCK", block)
            got = kernel.splits(family.scaled, u, v)
        assert got.shape == (len(pairs),)
        assert family.scaled.numbers(got) == want


@pytest.mark.parametrize("cmp", CMPS)
def test_analyse_and_prune_make_one_working_copy(monkeypatch, cmp):
    # each call of kernel.splits copies the n x n family array once, so S
    # and pruning call it once each, on all their pairs; a non-metric family
    # too, whose violation is read off the same splits
    calls = []
    splits = kernel.splits

    def counting(dist, u, v):
        calls.append(len(u))
        return splits(dist, u, v)

    monkeypatch.setattr(kernel, "splits", counting)
    g = generate(GenSpec("arbitrary_connected", 30, 1))
    support.analyse(two_weights(g, cmp))
    assert calls == [30 * 29 // 2]
    pruned = prune(g, cmp)
    assert calls == [30 * 29 // 2, len(g.u)]
    assert pruned.edge_pairs() == oracles.useful_edges(g, cmp)
    calls.clear()
    assert support.analyse(DistanceFamily(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3}, cmp)).violation == (1, 3, 2)
    assert calls == [3]


# Graphs whose leaves are no midpoints: every vertex but the centre of a
# star, the two ends of a path, and pendant and isolated vertices beside a
# triangle (vertices 5 and 6 hang off it, 4, 7 and 8 are apart).
LEAFY = {
    "star": (6, [(1, j) for j in range(2, 7)]),
    "path": (6, [(j, j + 1) for j in range(1, 6)]),
    "pendants": (8, [(1, 2), (2, 3), (1, 3), (3, 5), (1, 6)]),
}


@pytest.mark.parametrize("unit", (3, Fraction(5, 2), 2.5))
@pytest.mark.parametrize("name", sorted(LEAFY))
def test_leaves_as_midpoints_change_nothing(name, unit):
    n, pairs = LEAFY[name]
    g = oracles.any_graph(n, [(u, v, unit * (1 + i % 3)) for i, (u, v) in enumerate(pairs)])
    # the stand-in for +inf still exceeds the weight sum
    assert_all_pairs_equal_the_scalar_loop(g)
    if oracles.is_connected(g):
        want = oracles.shortest_path_matrix(g)
        for cmp in CMPS:
            family = two_weights(g, cmp)
            assert all(family.d(i + 1, j + 1) == want[i][j] for i in range(n) for j in range(n))


# (2**63 - 1) // 2 is the largest entry whose double fits int64; one more,
# 2**62, is the smallest that does not
@pytest.mark.parametrize("value, dtype", [(2**61, "int64"), ((2**63 - 1) // 2, "int64"), (2**62, "object")])
def test_a_family_array_holds_the_sum_of_two_entries(value, dtype):
    # the equilateral triangle: D_13 + D_32 = 2 D_12 must not wrap around
    text = f"0,{value},{value}\n{value},0,{value}\n{value},{value},0\n"
    built = DistanceFamily(3, {(1, 2): value, (1, 3): value, (2, 3): value})
    for family in (parse_family_csv(text), built):
        assert family.scaled.array.dtype.name == dtype
        assert check_triangle(family).holds
        assert is_indecomposable(family, 1, 2)


@pytest.mark.parametrize("weight, dtype", [(2**63 - 1, "int64"), (2**63, "object")])
def test_a_graph_weight_array_holds_its_largest_weight(weight, dtype):
    # graph weights take factor 1: the largest int64 is stored as int64,
    # through the constructor and the graph document alike
    text = json.dumps({"n": 2, "edges": [{"u": 1, "v": 2, "w": str(weight)}]})
    for g in (WeightedGraph(2, [(1, 2, weight)]), graph_from_json(text)):
        assert g.w.dtype.name == dtype
        assert g.edges == ((1, 2, weight),)
        assert two_weights(g).d(1, 2) == weight


@pytest.mark.parametrize(
    "entries, factor, dtype",
    [
        ([3], 1, "int64"),
        ([-3, 2], 1, "int64"),
        # 10 x, or twice that, just within and just beyond int64
        ([(2**63 - 1) // 10], 1, "int64"),
        ([(2**63 - 1) // 10 + 1], 1, "object"),
        ([-((2**63 - 1) // 10 + 1)], 1, "object"),
        ([(2**62 - 1) // 10], 2, "int64"),
        ([(2**62 - 1) // 10 + 1], 2, "object"),
    ],
)
def test_entries_moved_to_another_scale_are_stored_by_the_same_rule(entries, factor, dtype):
    # at_scale(a, 1, 10): each entry times 10, int64 when factor times the
    # largest magnitude fits, as scaled_array stores a list
    moved = kernel.at_scale(np.array(entries), 1, 10, factor)
    assert moved.dtype.name == dtype == kernel.scaled_array([10 * x for x in entries], 10, factor).dtype.name
    assert moved.tolist() == [10 * x for x in entries]


# 7 * ((2**63 - 1) // 7) is INT64_MAX itself; 2 * 2**62 is one more
@pytest.mark.parametrize(
    "entries, own, scale, factor, dtype",
    [
        ([(2**63 - 1) // 7, 1], 1, 7, 1, "int64"),
        ([-((2**63 - 1) // 7), 1], 3, 21, 1, "int64"),
        ([2**62, 1], 1, 2, 1, "object"),
        ([-(2**62), 1], 5, 10, 1, "object"),
        ([(2**62 - 1) // 7], 1, 7, 2, "int64"),
        ([(2**62 - 1) // 7 + 1], 1, 7, 2, "object"),
        ([0, 0], 1, 10**30, 2, "int64"),
    ],
)
def test_an_int64_move_multiplies_in_int64_while_the_product_fits(entries, own, scale, factor, dtype):
    # the int64 path and the Python-int path (an object array) give the same
    # values and the same dtype
    a = np.array(entries, dtype=np.int64)
    moved, slow = kernel.at_scale(a, own, scale, factor), kernel.at_scale(a.astype(object), own, scale, factor)
    assert moved.dtype.name == slow.dtype.name == dtype
    assert moved.tolist() == slow.tolist() == [x * (scale // own) for x in entries]


def test_an_int64_move_builds_no_python_ints():
    # the n = 300 tree's family moved from scale 1 to 7: one int64 result,
    # where Python ints take about seven int64 matrices
    n = 300
    a = two_weights(generate(GenSpec("tree", n, 1))).scaled.array
    tracemalloc.start()
    try:
        moved = kernel.at_scale(a, 1, 7, 2)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moved.dtype.name == "int64" and (moved == 7 * a).all()
    assert peak < 1.5 * 8 * n * n


# scales up to 2^53, and entries up to 2^53 in magnitude: exact doubles
FLOAT_MOVE_SCALES = (1, 3, 7, 10, 30, 1000, 2**20 + 7, 10**15 + 37, 2**53)


@pytest.mark.parametrize("own", FLOAT_MOVE_SCALES)
def test_a_float_move_of_int64_entries_rounds_as_python_ints_do(own):
    rng = np.random.default_rng(own % 2**32)
    near = [2**53 - k for k in range(40)] + [2**52 + k for k in range(40)] + [own, own - 1, own // 2 + 1]
    entries = [0, 1, *near, *(-x for x in near), *rng.integers(-(2**53), 2**53, 2000, endpoint=True).tolist()]
    moved = kernel.at_scale(np.array(entries, dtype=np.int64), own, None, 2)
    assert moved.dtype == np.float64
    assert list(map(float.hex, moved.tolist())) == [float.hex(x / own) for x in entries]


@pytest.mark.parametrize("entry, own", [(2**53 + 1, 3), (-(2**53) - 1, 7), (1, 2**53 + 1), (2**52 + 1, 2**53 + 3)])
def test_a_float_move_past_2_53_divides_in_python_ints(entry, own):
    # the float64 division of these operands rounds twice, and differs
    a = np.array([0, entry], dtype=np.int64)
    assert float(entry) / float(own) != entry / own
    assert kernel.at_scale(a, own, None).tolist() == [0.0, entry / own]


@pytest.mark.parametrize("weight, dtype", [(2**60, "int64"), (2**61, "object")])
def test_a_connected_graph_s_2_weights_are_stored_as_its_family(weight, dtype):
    # the star K_{1,8}: twice the +inf stand-in, 2 (8 w + 1), is beyond
    # int64, so the loop runs in Python ints; the largest 2-weight is 2 w,
    # and twice it fits int64 for w = 2**60 and not for w = 2**61
    g = WeightedGraph(9, [(1, j, weight) for j in range(2, 10)])
    family = two_weights(g)
    built = DistanceFamily(9, family.values)
    assert family.scaled.array.dtype.name == built.scaled.array.dtype.name == dtype
    assert family == built and family.d(2, 3) == 2 * weight
    assert prune(g) == g and verify_realization(g, family) is True


def test_a_useless_edge_beyond_int64_beside_int64_2_weights():
    # the 2-weights of a triangle with one edge of weight 2**70 fit int64,
    # its weights do not; pruning compares the two and drops that edge
    g = WeightedGraph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 2**70)])
    assert g.w.dtype == object and two_weights(g).scaled.array.dtype.name == "int64"
    for cmp in CMPS:
        assert prune(g, cmp).edges == ((1, 2, 1), (2, 3, 1))


@pytest.mark.parametrize(
    "blocks, scale, dtype",
    [
        # one block moved to the LCM: 2 * 2**61 fits int64, 2 * 2**62 does not
        ([([2**60, 1], 1), ([1, 1], 2)], 2, "int64"),
        ([([2**61, 1], 1), ([1, 1], 2)], 2, "object"),
        # a block beyond int64 on its own makes the whole matrix object
        ([([1, 1], 1), ([2**62, 1], 1)], 1, "object"),
        # zeros move to a scale beyond int64 and stay int64 zeros
        ([([0, 0], 1), ([1, 1], 10**30)], 10**30, "int64"),
    ],
)
def test_blocks_at_several_scales_are_stored_by_one_rule(blocks, scale, dtype):
    a, got = kernel.row_matrix(blocks, 2)
    assert got == scale and a.dtype.name == dtype
    assert a.tolist() == [[x * (scale // s) for x in values] for values, s in blocks]


# Weights of the graphs the package makes from arrays: exact int, exact
# decimal, beyond int64 and the float range (object dtype), and float.
MAKER_WEIGHTS = {
    "int": st.integers(1, 20),
    "decimal": st.integers(1, 400).map(lambda k: Fraction(k, 20)).map(
        lambda q: q.numerator if q.denominator == 1 else q
    ),
    "huge": st.integers(1, 20).map(lambda k: k * HUGE),
    "float": st.floats(0.01, 50, allow_nan=False, allow_infinity=False),
}


@st.composite
def paths(draw, weight):
    """A path on its vertices in a random order: a snake family, whose
    bipartite and polygon classes build K_{X,Y} and the closed snake."""
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(1, n + 1)))
    return WeightedGraph(n, [(a, b, draw(weight)) for a, b in zip(order, order[1:])])


def assert_made_as_the_public_constructor_makes_it(h):
    """The graph equals the public constructor's graph of its edges, and its
    view holds what that graph's columns hold: labels and weights as Python
    ints, Fractions and floats, of the same types, in the same order."""
    public = WeightedGraph(h.n, h.edges)
    assert h == public and hash(h) == hash(public) and repr(h) == repr(public)
    columns = edges_of(public.u, public.v, public.w, public.scale)
    assert [tuple(map(type, e)) for e in h.edges] == [tuple(map(type, e)) for e in columns]
    assert h.edges == columns
    for u, v, w in h.edges:
        assert type(u) is int and type(v) is int
        assert_python_number(w)


@KERNEL_SETTINGS
@given(st.sampled_from(sorted(MAKER_WEIGHTS)), st.sampled_from(CMPS), st.booleans(), st.data())
def test_graphs_made_from_arrays_equal_the_public_constructors(kind, cmp, path, data):
    # S, K_{X,Y}, the pruned graph, the closed snake and a parsed document.
    # Float sums round, so float weights make a metric within a tolerance
    # only; a tolerance does not take values beyond the float range.
    assume(kind != ("huge" if not cmp.exact else "float"))
    weight = MAKER_WEIGHTS[kind]
    g = data.draw(paths(weight) if path else weighted_graphs(weights={kind: weight}))
    # the weights as the columns give them back (a near-tie chord of a huge
    # path is Fraction(k, 1), which a graph's given edges keep)
    g = WeightedGraph(g.n, edges_of(g.u, g.v, g.w, g.scale))
    family = two_weights(g, cmp)
    made = [support_graph(family), prune(g, cmp), graph_from_json(graph_to_json(g), cmp)]
    made += [r.graph for r in (bigraph_check(family), polygon_check(family)) if r.accepted]
    if path and g.n >= 4 and cmp.exact:
        # a path on 4 or more vertices is no K_{X,Y}, and it closes into a polygon
        assert len(made) == 5 and made[3] != made[0] and len(made[4].edges) == g.n
    if cmp.exact:
        # the document reads back as g, and every other edge weighs D_uv
        assert made[2] == g
        for h in made[:2] + made[3:]:
            assert all(w == family.d(u, v) for u, v, w in h.edges)
    for h in made:
        assert_made_as_the_public_constructor_makes_it(h)


def test_one_graph_round_trip_does_each_piece_of_work_once(monkeypatch):
    # graph_from_json -> two_weights -> prune -> verify_realization: one
    # Floyd-Warshall, one connectivity walk (the document's graph; the
    # exact pruned graph is S of its 2-weights, which the split scan
    # certifies connected), no Bellman check (the pruned graph keeps the
    # 2-weights, which are compared), and no scale derived from Python
    # numbers: the reader scales plain weights itself.  two_weights of the
    # pruned graph runs no Floyd-Warshall.  Writing an exact int or decimal
    # graph formats no number through format_number; a weight whose scale
    # is not a divisor of a power of 10 does
    text = graph_to_json(WeightedGraph(5, [(1, 2, 3), (2, 3, 4), (1, 3, 7), (3, 4, 1), (4, 5, 2), (2, 5, 9)]))
    counts = {"all_pairs": 0, "bellman": 0, "common_scale": 0, "_walk": 0, "format_number": 0}
    spied = (
        (kernel, "all_pairs"),
        (kernel, "bellman"),
        (kernel, "common_scale"),
        (graph_module, "_walk"),
        (serialize, "format_number"),
    )
    for module, name in spied:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    g = graph_from_json(text)
    family = two_weights(g)
    pruned = prune(g)
    assert verify_realization(pruned, family) is True
    assert two_weights(pruned) == family
    assert counts == {"all_pairs": 1, "bellman": 0, "common_scale": 0, "_walk": 1, "format_number": 0}
    assert pruned.edge_pairs() == {(1, 2), (2, 3), (3, 4), (4, 5)}
    # the pruned graph written and read back has no 2-weights: Bellman
    assert verify_realization(graph_from_json(graph_to_json(pruned)), family) is True
    assert counts["all_pairs"] == 1 and counts["bellman"] == 1
    text, dot = graph_to_json(pruned), graph_to_dot(pruned)
    assert counts["format_number"] == 0
    decimal = graph_from_json('{"n": 3, "edges": [{"u": 1, "v": 2, "w": "0.5"}, {"u": 2, "v": 3, "w": "2.25"}]}')
    assert decimal.scale == 4 and decimal.w.tolist() == [2, 9]
    assert '"w": "2.25"' in graph_to_json(decimal) and '[label="0.5"]' in graph_to_dot(decimal)
    assert counts["common_scale"] == 0 and counts["format_number"] == 0
    thirds = graph_to_json(WeightedGraph(3, [(1, 2, Fraction(1, 3)), (2, 3, Fraction(7, 3))]))
    assert counts["format_number"] == 2 and '"w": "7/3"' in thirds
    # the text is still the reference's
    assert text == json.dumps(oracles.graph_to_dict(pruned), indent=2) + "\n"
    assert '  3 -- 4 [label="1"];' in dot
