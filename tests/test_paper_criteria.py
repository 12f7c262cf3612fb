import itertools
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metric_realize import (
    Cmp,
    DistanceFamily,
    FamilyError,
    GenSpec,
    bigraph_check,
    bipartition,
    caterpillar_check,
    cobigraph_check,
    complete_check,
    generate,
    polygon_check,
    pruned_polygon_check,
    snake_check,
    tree_check,
    two_weights,
)
from metric_realize.generators import CLASS_MIN_N
from metric_realize.serialize import parse_family_csv

import oracles
from conftest import with_value
from paper_criteria import CRITERIA
from test_bipartite import COVER_GAP, SHORT_CROSS_PATH, UNREWEIGHTED_PATH

RECOGNIZERS = {
    "snake": snake_check,
    "caterpillar": caterpillar_check,
    "tree": tree_check,
    "pruned_polygon": pruned_polygon_check,
    "polygon": polygon_check,
    "complete": complete_check,
    "bipartite": bigraph_check,
    "pruned_bipartite": cobigraph_check,
}


def families(rng):
    """Two-weights of two instances of every generator class at n = 2..12,
    each followed by a copy with one entry moved by 1 (often no longer a
    metric)."""
    for class_id, low in sorted(CLASS_MIN_N.items()):
        for n in range(max(2, low), 13):
            for _ in range(2):
                f = two_weights(generate(GenSpec(class_id, n, rng.randint(0, 10**9))))
                yield f
                i, j = rng.choice(list(f.pairs()))
                yield with_value(f, i, j, max(1, f.d(i, j) + rng.choice((-1, 1))))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_criteria_agree_with_recognizers(mode):
    rng = random.Random(2024)
    accepted = {c: 0 for c in CRITERIA}
    for f in families(rng):
        if mode == "float":
            f = DistanceFamily(f.n, {p: float(v) for p, v in f.values.items()}, Cmp(1e-9))
        for class_id, criterion in CRITERIA.items():
            verdict = RECOGNIZERS[class_id](f).accepted
            assert verdict == criterion(f), (class_id, f.n, f.values)
            accepted[class_id] += verdict
    assert all(accepted.values()), accepted


def hops(family):
    """Edges on a shortest path of S between each pair (fewest on ties), S
    the scan's pairs below their split, a violation or not."""
    n, inf = family.n, (float("inf"), 0)
    best = [[(0, 0) if i == j else inf for j in range(n + 1)] for i in range(n + 1)]
    for u, v, w in oracles.split_scan(family)[0]:
        best[u][v] = best[v][u] = (w, 1)
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                via = (best[i][k][0] + best[k][j][0], best[i][k][1] + best[k][j][1])
                best[i][j] = min(best[i][j], via)
    return {(i, j): best[i][j][1] for i, j in family.pairs()}


def noisy_families(rng, tol):
    """Float copies of two-weights of every generator class at n = 3..10
    with errors inside the tolerance: entries that shrink by c tolerances
    per extra edge on their S path, so near-ties add up along S (c = 0.5,
    0.9), and independent relative noise of at most 0.45 tolerances."""
    for class_id, low in sorted(CLASS_MIN_N.items()):
        for n in range(max(3, low), 11):
            f = two_weights(generate(GenSpec(class_id, n, rng.randint(0, 10**9), weight_kind="decimal")))
            h = hops(f)
            base = {p: float(v) for p, v in f.values.items()}
            for c in (0.5, 0.9):
                yield DistanceFamily(
                    n, {p: v - c * tol * max(1.0, v) * (h[p] - 1) for p, v in base.items()}, Cmp(tol)
                )
            yield DistanceFamily(
                n, {p: v * (1 + rng.uniform(-0.45, 0.45) * tol) for p, v in base.items()}, Cmp(tol)
            )


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_noisy_float_verdicts_are_verified_and_follow_the_criteria(tol):
    from metric_realize import classify, verify_realization

    rng = random.Random(77)
    accepted = {c: 0 for c in CRITERIA}
    for f in noisy_families(rng, tol):
        report = classify(f)
        assert report.lattice_violations() == [], f.values
        for class_id, criterion in CRITERIA.items():
            r = RECOGNIZERS[class_id](f)
            if r.accepted:
                assert verify_realization(r.graph, f), (class_id, f.values)
            elif criterion(f):
                # the shape of S never contradicts the criterion; only an S
                # that misses D within the tolerance (errors adding up along
                # it) rejects a family the criterion accepts, and never as
                # bipartite, which K_{X,Y}'s own check decides
                assert class_id != "bipartite", (r.reason, f.values)
                assert f.support.realization is None, (class_id, r.reason, f.values)
            assert report.verdicts[class_id].accepted == r.accepted
            accepted[class_id] += r.accepted
    assert all(accepted.values()), accepted


@st.composite
def walked_families(draw, tol=1e-9):
    """Two-weights of a generated instance of any class at n <= 10, half of
    them with one entry moved by 1: exact, as floats under ``tol``, or as
    floats with errors inside it (shrunk by c tolerances per extra edge on
    their S path, or relative noise of at most 0.45 tolerances)."""
    class_id = draw(st.sampled_from(sorted(CLASS_MIN_N)))
    n = draw(st.integers(max(2, CLASS_MIN_N[class_id]), 10))
    kind = draw(st.sampled_from(("int", "decimal")))
    f = two_weights(generate(GenSpec(class_id, n, draw(st.integers(0, 10**6)), weight_kind=kind)))
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(list(f.pairs())))
        f = with_value(f, i, j, max(1, f.d(i, j) + draw(st.sampled_from((-1, 1)))))
    mode = draw(st.sampled_from(("exact", "tol", "hops", "noise")))
    if mode == "exact":
        return f
    base = {p: float(v) for p, v in f.values.items()}
    if mode == "hops":
        h, c = hops(f), draw(st.sampled_from((0.5, 0.9)))
        base = {p: v - c * tol * max(1.0, v) * (h[p] - 1) for p, v in base.items()}
    elif mode == "noise":
        rng = random.Random(draw(st.integers(0, 10**6)))
        base = {p: v * (1 + rng.uniform(-0.45, 0.45) * tol) for p, v in base.items()}
    return DistanceFamily(n, base, Cmp(tol))


@settings(max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(walked_families())
@example(parse_family_csv(COVER_GAP, Cmp(1e-6)))
def test_the_bipartition_walk_matches_its_scalar_reference(f):
    # sides and chains alike, where the scan keeps S; else S's rejection
    if oracles.support_scan(f)[0] is None:
        with pytest.raises(FamilyError) as raised:
            bipartition(f)
        assert str(raised.value) == f.support.rejection().reason
        return
    assert bipartition(f) == oracles.bipartition_walk(f)


@st.composite
def reweighted_snakes(draw, tol=1e-9):
    """Points on a line from vertex 1, an end, at steps of k/64, as floats
    under ``tol``: vertex 1's row is exact and every other entry is raised
    by 0.9 tolerances.  S is the path, whose own weights then miss D_1j by
    more than the tolerance once three or more edges lead from 1 to j, so
    S's realization is S reweighted from vertex 1 (n >= 4)."""
    n = draw(st.integers(4, 10))
    steps = draw(st.lists(st.integers(1, 40), min_size=n - 1, max_size=n - 1))
    labels = [1] + draw(st.permutations(range(2, n + 1)))
    at = dict(zip(labels, itertools.accumulate([0.0] + [k / 64 for k in steps])))
    values = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        v = abs(at[i] - at[j])
        values[(i, j)] = v if i == 1 else v + 0.9 * tol * max(1.0, v)
    return DistanceFamily(n, values, Cmp(tol))


@settings(max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(walked_families(), reweighted_snakes()))
@example(DistanceFamily(4, SHORT_CROSS_PATH, Cmp(1e-15)))
@example(parse_family_csv(UNREWEIGHTED_PATH, Cmp(1e-9)))
def test_graphs_rebuilt_from_s_keep_its_realization_and_weigh_the_other_pairs_by_d(f):
    # the closed snake and K_{X,Y} hold S's realization bit for bit, also
    # where a tolerance reweighted S, and every pair they add weighs D; when
    # S has no realization, K_{X,Y} weighs every pair by D
    for check in (polygon_check, bigraph_check):
        r = check(f)
        if r.accepted:
            realization = f.support.realization
            s = {(a, b): w for a, b, w in realization.edges} if realization is not None else {}
            for a, b, w in r.graph.edges:
                expected = s.pop((a, b), f.d(a, b))
                assert w == expected and type(w) is type(expected), (check.__name__, a, b, f.values)
            assert not s, (check.__name__, s)
