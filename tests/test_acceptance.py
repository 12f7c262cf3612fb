"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; each test also asserts, so a failing criterion fails the suite.
"""

import itertools
import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from metric_realize import (
    GenSpec,
    WeightedGraph,
    bigraph_check,
    bipartition,
    caterpillar_check,
    classify,
    complete_check,
    generate,
    is_indecomposable,
    planar_check,
    polygon_check,
    prune,
    snake_check,
    support_graph,
    tree_check,
    two_weights,
    verify_realization,
)

from conftest import with_value
from oracles import brute_force_class_check, eq, subdivision_witness_search
from paper_criteria import pendant_offsets

CLASSES = (
    ("snake", snake_check),
    ("caterpillar", caterpillar_check),
    ("tree", tree_check),
    ("polygon", polygon_check),
    ("complete", complete_check),
    ("complete_bipartite", bigraph_check),
    ("planar", planar_check),
)


def report(num, name, failures, elapsed=None, budget=None):
    status = "PASS" if not failures else f"FAIL ({len(failures)} failures)"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s" + (f" / budget {budget:.0f}s]" if budget else "]")
    print(f"criterion {num} ({name}): {status}{timing}")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_figure_round_trip(fig2_graph, fig2_family):
    start = time.perf_counter()
    failures = []
    f = fig2_family
    if f.d(1, 12) != 13:
        failures.append(("D_{1,12}", f.d(1, 12)))
    if f.d(4, 6) != Fraction(9, 2):
        failures.append(("D_{4,6}", f.d(4, 6)))
    stats = pendant_offsets(f)
    if stats.t(1) != 2:
        failures.append(("t_1", stats.t(1)))
    if stats.t(8) != Fraction(21, 10):
        failures.append(("t_8", stats.t(8)))
    r = caterpillar_check(f)
    if not r.accepted:
        failures.append(("caterpillar_check", r.reason))
    elif two_weights(r.graph).values != f.values:
        failures.append(("round trip", "2-weights differ"))
    elapsed = time.perf_counter() - start
    report(1, "worked-example round trip", failures, elapsed, 1.0)


@pytest.fixture(scope="module")
def per_class_round_trips():
    """Criterion 2 runs once; criterion 8 reuses the accepted families."""
    start = time.perf_counter()
    failures = []
    accepted = []
    for class_id, check in CLASSES:
        for seed in range(200):
            n = 3 + seed % 10  # n in [3, 12]
            g = generate(GenSpec(class_id, n, seed, weight_kind="int", lo=1, hi=20))
            f = two_weights(g)
            r = check(f)
            if not r.accepted:
                failures.append((class_id, n, seed, r.reason))
            elif not verify_realization(r.graph, f):
                failures.append((class_id, n, seed, "verification failed"))
            else:
                accepted.append((class_id, check, f, seed))
    return failures, accepted, time.perf_counter() - start


def test_criterion_2_per_class_round_trips(per_class_round_trips):
    failures, accepted, elapsed = per_class_round_trips
    assert len(accepted) + len(failures) == 1400
    report(2, "per-class round trips", failures, elapsed, 30.0)


def test_criterion_3_recognizer_equals_oracle():
    start = time.perf_counter()
    failures = []
    for class_id, check in CLASSES:
        for seed in range(100):
            n = 3 + seed % 4  # n in [3, 6]
            g = generate(GenSpec(class_id, n, seed, weight_kind="int", lo=1, hi=20))
            f = two_weights(g)
            mine = check(f).accepted
            oracle = brute_force_class_check(f, class_id)
            if mine != oracle:
                failures.append(("in-class", class_id, n, seed, mine, oracle))
        for seed in range(100):
            n = 3 + seed % 4
            g = generate(GenSpec("arbitrary_connected", n, seed + 1000 * hash(class_id) % 997))
            f = two_weights(g)
            mine = check(f).accepted
            oracle = brute_force_class_check(f, class_id)
            if mine != oracle:
                failures.append(("arbitrary", class_id, n, seed, mine, oracle))
    elapsed = time.perf_counter() - start
    report(3, "recognizer vs brute-force oracle", failures, elapsed, 120.0)


def test_criterion_4_pruning_soundness():
    start = time.perf_counter()
    failures = []
    rng = random.Random(0xACCE4)
    for case in range(500):
        n = rng.randint(2, 10)
        g = generate(GenSpec("arbitrary_connected", n, rng.randint(0, 10**9)))
        f = two_weights(g)
        p = prune(g)
        # a fresh graph of the kept edges, which has no 2-weights of g's
        if two_weights(WeightedGraph(p.n, p.edges)).values != f.values:
            failures.append((case, "2-weights changed by pruning"))
            continue
        if prune(p) != p:
            failures.append((case, "prune is not idempotent"))
        expected = frozenset(
            (i, j) for i, j in f.pairs() if is_indecomposable(f, i, j)
        )
        if p.edge_pairs() != expected:
            failures.append((case, "pruned edges differ from indecomposable support"))
    elapsed = time.perf_counter() - start
    report(4, "pruning soundness", failures, elapsed)


def test_criterion_5_planarity_cross_check():
    start = time.perf_counter()
    failures = []

    k4 = two_weights(
        WeightedGraph(4, [(i, j, 1) for i, j in itertools.combinations(range(1, 5), 2)])
    )
    if not planar_check(k4).accepted:
        failures.append(("unit K4", "rejected"))

    k5 = two_weights(
        WeightedGraph(5, [(i, j, 1) for i, j in itertools.combinations(range(1, 6), 2)])
    )
    r5 = planar_check(k5)
    if r5.accepted or r5.witness is None:
        failures.append(("unit K5", "no witness"))
    else:
        try:
            r5.witness.validate(k5)
        except Exception as exc:
            failures.append(("unit K5 witness", str(exc)))

    k33 = two_weights(
        WeightedGraph(6, [(a, b, 1) for a in (1, 2, 3) for b in (4, 5, 6)])
    )
    r33 = planar_check(k33)
    if r33.accepted or r33.witness is None:
        failures.append(("unit K33", "no witness"))
    else:
        try:
            r33.witness.validate(k33)
        except Exception as exc:
            failures.append(("unit K33 witness", str(exc)))

    rng = random.Random(0xACCE5)
    for case in range(300):
        n = rng.randint(3, 9)
        g = generate(GenSpec("arbitrary_connected", n, rng.randint(0, 10**9)))
        f = two_weights(g)
        s = support_graph(f)
        own = subdivision_witness_search(s)
        nxg = nx.Graph((u, v) for u, v, _w in s.edges)
        nxg.add_nodes_from(range(1, n + 1))
        library = nx.check_planarity(nxg)[0]
        if (own is None) != library:
            failures.append((case, "witness search disagrees with planarity test"))
        elif own is not None:
            try:
                own.validate(f)
            except Exception as exc:
                failures.append((case, f"invalid witness: {exc}"))
    elapsed = time.perf_counter() - start
    report(5, "planarity cross-check", failures, elapsed)


def _brute_parity_sides(family):
    """Tight-chain enumeration: DFS over simple chains of indecomposable links
    from x whose 2-weights sum to D_{x, endpoint}; parity of the link count
    assigns the side, mirroring the DP's convention."""
    from metric_realize.bipartite import _min_pair

    x, y = _min_pair(family)
    d = family.d
    cmp = family.cmp
    even, odd = {x}, set()

    def extend(v, links, total):
        for w in range(1, family.n + 1):
            if w == v or w in links or w == x:
                continue
            if not is_indecomposable(family, v, w):
                continue
            t = total + d(v, w)
            if not eq(cmp, t, d(x, w)):
                continue
            (odd if (len(links) + 1) % 2 else even).add(w)
            links.append(w)
            extend(w, links, t)
            links.pop()

    extend(x, [], 0)
    x_side = frozenset({x} | {v for v in even if v != y})
    y_side = frozenset(odd)
    return (x, y), x_side, y_side


def test_criterion_6_bipartition_recovery():
    start = time.perf_counter()
    failures = []
    for seed in range(200):
        n = 3 + seed % 10
        g = generate(GenSpec("complete_bipartite", n, seed, weight_kind="int", lo=1, hi=20))
        f = two_weights(g)
        # planted sides are the graph's own 2-coloring (unique when connected)
        color = {}
        stack = [(g.edges[0][0], 0)]
        adj = g.adjacency()
        while stack:
            v, c = stack.pop()
            if v in color:
                continue
            color[v] = c
            stack.extend((u, c ^ 1) for u in adj[v])
        planted = {
            frozenset(v for v, c in color.items() if c == 0),
            frozenset(v for v, c in color.items() if c == 1),
        }
        bp = bipartition(f)
        if {bp.x_side, bp.y_side} != planted:
            failures.append((seed, n, "sides differ from the planted bipartition"))
        if n <= 7:
            base, bx, by = _brute_parity_sides(f)
            if base != bp.base_pair or bx != bp.x_side or by != bp.y_side:
                failures.append((seed, n, "DP differs from tight-chain enumeration"))
    elapsed = time.perf_counter() - start
    report(6, "bipartition recovery", failures, elapsed)


def test_criterion_7_containment_lattice():
    start = time.perf_counter()
    failures = []
    rng = random.Random(0xACCE7)
    class_ids = [c for c, _ in CLASSES] + ["arbitrary_connected"]
    for case in range(1000):
        class_id = rng.choice(class_ids)
        n = rng.randint(3, 9)
        g = generate(GenSpec(class_id, n, rng.randint(0, 10**9)))
        f = two_weights(g)
        if rng.random() < 0.5:
            i, j = rng.choice(list(f.pairs()))
            factor = rng.choice([Fraction(1, 2), Fraction(11, 10), 2, 3])
            f = with_value(f, i, j, f.d(i, j) * factor)
        violations = classify(f).lattice_violations()
        if violations:
            failures.append((case, class_id, n, violations))
    elapsed = time.perf_counter() - start
    report(7, "containment lattice", failures, elapsed)


def test_criterion_8_negative_robustness(per_class_round_trips):
    _failures2, accepted, _elapsed2 = per_class_round_trips
    start = time.perf_counter()
    failures = []
    rng = random.Random(0xACCE8)
    for class_id, check, f, seed in accepted:
        i, j = rng.choice(list(f.pairs()))
        bumped = with_value(f, i, j, f.d(i, j) * Fraction(11, 10))
        r = check(bumped)
        if r.accepted and not verify_realization(r.graph, bumped):
            failures.append((class_id, seed, (i, j), "unverified acceptance"))
    elapsed = time.perf_counter() - start
    report(8, "negative robustness", failures, elapsed)
