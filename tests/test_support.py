"""The support graph S and the triangle check from the kernel's min-plus
product (``support.analyse``) against the scalar split scan in ``oracles``,
and the layers around it on the classify path: the number reader against
``parse_number``, the matrix reader's blocks of rows against the
cell-by-cell parser, the cyclomatic planarity shortcut against the exhaustive
Kuratowski search, the errors of a tolerance on values beyond the float
range, and the parser built once per process."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from metric_realize import (
    EXACT,
    Cmp,
    DistanceFamily,
    FamilyError,
    GraphError,
    WeightedGraph,
    bigraph_check,
    bipartition,
    check_four_point,
    check_median,
    check_triangle,
    classify,
    is_indecomposable,
    planar_check,
    prune,
    support_graph,
    two_weights,
    verify_realization,
)
from metric_realize import kernel, serialize, support
from metric_realize.bipartite import _min_pair
from metric_realize.cli import build_parser, run
from metric_realize.serialize import PLAIN_TOKEN_MAX, ParseError, _read_numbers, parse_family_csv, parse_number

import oracles
from conftest import random_connected_graph, with_cmp, with_value
from test_paper_criteria import noisy_families

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HUGE = 10**400

# Exact values of one kind each: ints, decimals (tenths), values whose
# doubled sums leave int64 (2^62 multiples) and values beyond the float range.
VALUES = {
    "int": st.integers(1, 9),
    "decimal": st.integers(1, 90).map(lambda k: Fraction(k, 10)),
    "wide": st.integers(1, 9).map(lambda k: k * 2**62),
    "huge": st.integers(1, 9).map(lambda k: k * HUGE),
}


@st.composite
def families(draw):
    """2-weights of a random graph (a metric), at times with one entry moved
    (often no longer a metric), or an arbitrary matrix (mostly not a metric)."""
    kind = draw(st.sampled_from(sorted(VALUES)))
    value = VALUES[kind]
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if draw(st.booleans()):
        if draw(st.integers(0, 3)) == 0:  # every pair ties with every other
            x = draw(value)
            return kind, DistanceFamily(n, {p: x for p in pairs})
        return kind, DistanceFamily(n, {p: draw(value) for p in pairs})
    edges = {(draw(st.integers(1, v - 1)), v): draw(value) for v in range(2, n + 1)}
    for _ in range(draw(st.integers(0, n))):
        edges[draw(st.sampled_from(pairs))] = draw(value)
    family = two_weights(WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()]))
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(pairs))
        moved = family.d(i, j) + draw(st.sampled_from((-1, 1))) * Fraction(draw(value), 2)
        family = with_value(family, i, j, moved if moved > 0 else draw(value))
    return kind, family


def assert_matches_the_scan(family):
    support = family.support
    graph, violation, realization = oracles.support_scan(family)
    assert support.graph == graph
    assert support.violation == violation
    assert support.realization == realization
    assert violation is None or all(type(x) is int for x in support.violation)
    if graph is None:
        return
    # S's edges in the scan's order, the pairs i < j in lexicographic order
    assert [(u, v) for u, v, _w in support.graph.edges] == sorted(graph.edge_pairs())
    if family.scaled.scale is not None:
        # the scan alone proves that an exact S realizes D; Bellman agrees
        assert verify_realization(support.graph, family)
    for u, v, w in support.graph.edges:
        assert type(u) is int and type(v) is int
        assert type(w) in (int, Fraction, float)


# Several violations, where the first pair in lexicographic order, (1, 4),
# comes after (2, 3) in column-major order and after its mirror (3, 2) in
# the row-major order of the lower triangle.
SEVERAL_VIOLATIONS = {(1, 2): 1, (1, 3): 1, (1, 4): 5, (2, 3): 5, (2, 4): 1, (3, 4): 1}


def scaled_by(values, unit):
    return {p: v * unit for p, v in values.items()}


@SETTINGS
@given(families(), st.sampled_from((EXACT, Cmp(1e-9))))
@example(("int", DistanceFamily(5, {p: 3 for p in itertools.combinations(range(1, 6), 2)})), EXACT)
@example(("decimal", DistanceFamily(4, {p: Fraction(7, 10) for p in itertools.combinations(range(1, 5), 2)})), Cmp(1e-9))
@example(("int", DistanceFamily(4, SEVERAL_VIOLATIONS)), EXACT)
@example(("int", DistanceFamily(4, SEVERAL_VIOLATIONS)), Cmp(1e-9))
@example(("decimal", DistanceFamily(4, scaled_by(SEVERAL_VIOLATIONS, Fraction(1, 10)))), EXACT)
@example(("huge", DistanceFamily(4, scaled_by(SEVERAL_VIOLATIONS, HUGE))), EXACT)
def test_analyse_equals_the_scalar_split_scan(drawn, cmp):
    kind, family = drawn
    if kind == "huge" and not cmp.exact:
        return  # a tolerance cannot compare them: see the range tests below
    assert_matches_the_scan(with_cmp(family, cmp))


@SETTINGS
@given(families(), st.sampled_from((EXACT, Cmp(1e-9))))
@example(("int", DistanceFamily(2, {(1, 2): 4})), EXACT)
@example(("int", DistanceFamily(6, {p: 2 for p in itertools.combinations(range(1, 7), 2)})), EXACT)
@example(("huge", DistanceFamily(4, {p: HUGE for p in itertools.combinations(range(1, 5), 2)})), EXACT)
def test_the_minimal_pair_is_the_first_in_lexicographic_order(drawn, cmp):
    # off the diagonal only, also when every pair ties, and on object arrays;
    # a tolerance refuses values beyond the float range when the family is made
    kind, family = drawn
    if kind == "huge" and not cmp.exact:
        with pytest.raises(FamilyError, match=RANGE):
            with_cmp(family, cmp)
        return
    family = with_cmp(family, cmp)
    assert _min_pair(family) == min(family.pairs(), key=lambda p: family.d(*p))


@SETTINGS
@given(families(), st.sampled_from((EXACT, Cmp(1e-9))))
def test_the_bipartite_realization_joins_the_sorted_cross_pairs(drawn, cmp):
    kind, family = drawn
    if kind == "huge" and not cmp.exact:
        return
    result = bigraph_check(with_cmp(family, cmp))
    if result.accepted:
        bp = result.witness
        cross = sorted((min(a, b), max(a, b)) for a in bp.x_side for b in bp.y_side)
        assert [(u, v) for u, v, _w in result.graph.edges] == cross


NEAR = (1.0, 1 + 1e-12, 1 - 1e-12)


@SETTINGS
@given(st.integers(2, 7), st.data())
def test_every_array_that_reaches_analyse_is_symmetric(n, data):
    # analyse reads the pairs i < j only, which speaks for the pairs j > i
    # too only when the family's array is exactly symmetric, and then so is
    # each pair's split: a document whose mirror cells differ within the
    # tolerance, float 2-weights and the family of a pair map.
    pairs = list(itertools.combinations(range(n), 2))
    values = {p: data.draw(st.integers(10, 40)) / 10 for p in pairs}
    cells = [["0"] * n for _ in range(n)]
    for (i, j), x in values.items():
        cells[i][j] = repr(x * data.draw(st.sampled_from(NEAR)))
        cells[j][i] = repr(x * data.draw(st.sampled_from(NEAR)))
    text = "".join(",".join(row) + "\n" for row in cells)
    edges = [(i + 1, j + 1, x) for (i, j), x in values.items() if data.draw(st.booleans()) or j == i + 1]
    for family in (
        parse_family_csv(text, Cmp(1e-9)),
        two_weights(WeightedGraph(n, edges), Cmp(1e-9)),
        DistanceFamily(n, {(i + 1, j + 1): x for (i, j), x in values.items()}),
        DistanceFamily(n, {(i + 1, j + 1): Fraction(x).limit_denominator(10) for (i, j), x in values.items()}),
    ):
        a = family.scaled.array
        assert np.array_equal(a, a.T)
        u, v = np.triu_indices(n, 1)
        assert np.array_equal(kernel.splits(family.scaled, u, v), kernel.splits(family.scaled, v, u))


def noisy_paths(rng, tol):
    """Collinear points in random order with every tight split off by half
    the tolerance: S is the path, it misses D once errors add up along it,
    and the path reweighted from one end realizes D."""
    for n in range(3, 11):
        label = rng.sample(range(1, n + 1), n)
        at = [k / 10 for k in itertools.accumulate(rng.randint(1, 5) for _ in range(n))]
        values = {}
        for a in range(n):
            for b in range(a + 1, n):
                values[tuple(sorted((label[a], label[b])))] = at[b] - at[a] - tol / 2 * (b - a - 1)
        yield DistanceFamily(n, values, Cmp(tol))


def test_analyse_equals_the_scalar_split_scan_on_noisy_families():
    rng = random.Random(77)
    decided = reweighted = 0
    for family in [*noisy_families(rng, 1e-9), *noisy_paths(rng, 1e-9)]:
        assert_matches_the_scan(family)
        decided += family.support.realization is None
        reweighted += family.support.realization not in (None, family.support.graph)
    assert decided  # some S miss D within the tolerance
    assert reweighted  # and some are reweighted


@st.composite
def reweighting_cases(draw):
    """A float family under ``Cmp(1e-9)`` and a graph S of n - 1 edges, n
    2-9: a random tree, or (n >= 4) a tree on all but one vertex plus a
    chord, which leaves a cycle and an isolated vertex.  The family is the
    2-weights of a random tree on [n] with each entry moved by at most a
    quarter tolerance (S's tree, at times), or values from {1, 2, 3}, whose
    rows tie."""
    n = draw(st.integers(2, 9))
    label = draw(st.permutations(range(1, n + 1)))
    tree = [(label[draw(st.integers(0, k - 1))], label[k], draw(st.integers(1, 5)) / 10) for k in range(1, n)]
    edges = tree
    if n >= 4 and draw(st.booleans()):
        taken = {tuple(sorted(e[:2])) for e in tree[:-1]}
        chords = [p for p in itertools.combinations(sorted(label[:-1]), 2) if p not in taken]
        edges = tree[:-1] + [(*draw(st.sampled_from(chords)), 1.0)]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if draw(st.booleans()):
        values = {p: float(draw(st.sampled_from((1, 2, 3)))) for p in pairs}
    else:
        metric = tree if draw(st.booleans()) else random_connected_graph(n, random.Random(draw(st.integers(0, 99))), 0).edges
        d = two_weights(WeightedGraph(n, metric)).d
        values = {p: d(*p) * (1 + draw(st.integers(-1, 1)) * 2.5e-10) for p in pairs}
    # S need not be connected, so it is built from sorted columns u < v
    u, v = np.array(sorted((min(a, b) - 1, max(a, b) - 1) for a, b, _w in edges)).T
    return DistanceFamily(n, values, Cmp(1e-9)), WeightedGraph._of_arrays(n, u, v, np.ones(n - 1), None)


# 2 and 3 within tolerance of coinciding: the scan keeps the one pair (2, 3)
APART = DistanceFamily(3, {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1e-10}, Cmp(1e-9))


def assert_s_is_a_graph_or_none(family):
    """S is None exactly where the scalar scan finds a violation or leaves
    S disconnected, and connected otherwise; ``support_graph`` and
    ``bipartition`` raise S's rejection exactly where S is None; and every
    realization that ``classify`` returns, and its pruned graph, is
    connected.  Returns whether S is None with no violation."""
    edges, violation = oracles.split_scan(family)
    apart = violation is None and not oracles.is_connected(oracles.any_graph(family.n, edges))
    s = family.support.graph
    assert (s is None) == (violation is not None or apart)
    for public in (support_graph, bipartition):
        if s is None:
            with pytest.raises(FamilyError) as raised:
                public(family)
            assert str(raised.value) == family.support.rejection().reason
        else:
            public(family)
    assert s is None or (oracles.is_connected(s) and support_graph(family) is s)
    for r in classify(family).verdicts.values():
        if r.accepted:
            assert oracles.is_connected(r.graph) and oracles.is_connected(prune(r.graph, family.cmp))
    return apart


@SETTINGS
@given(families(), st.sampled_from((EXACT, Cmp(1e-9), Cmp(2))))
@example(("int", DistanceFamily(4, SEVERAL_VIOLATIONS)), EXACT)
@example(("decimal", APART), Cmp(1e-9))
def test_s_is_a_connected_graph_or_none(drawn, cmp):
    kind, family = drawn
    if kind == "huge" and not cmp.exact:
        return  # a tolerance cannot compare them
    assert_s_is_a_graph_or_none(with_cmp(family, cmp))


@pytest.mark.parametrize("n", (2, 4))
def test_above_a_tolerance_of_1_an_edgeless_s_is_no_graph(n):
    # No pair is below its split, so S has no edges; and the slack of
    # kernel.eq overflows to inf, within which S's infinite 2-weights meet
    # every D.  Only the walk rejects S, and no class accepts.
    family = DistanceFamily(n, {(i, j): j - i for i, j in itertools.combinations(range(1, n + 1), 2)}, Cmp(2))
    assert assert_s_is_a_graph_or_none(family)
    assert not any(r.accepted for r in classify(family).verdicts.values())


def with_a_twin(family):
    """The float family with vertex n + 1 a tenth of a tolerance from vertex
    1 and as far as it from the rest: each pair of either with a third
    vertex splits through the other within the tolerance, so the scan keeps
    (1, n + 1) apart from the other vertices."""
    n, d = family.n, family.d
    values = {**family.values, **{(i, n + 1): d(1, i) for i in range(2, n + 1)}, (1, n + 1): family.cmp.tol / 10}
    return DistanceFamily(n + 1, values, family.cmp)


def test_s_is_a_connected_graph_or_none_on_noisy_families():
    rng = random.Random(77)
    noisy = [*noisy_families(rng, 1e-9), *noisy_paths(rng, 1e-9)]
    assert not any(assert_s_is_a_graph_or_none(f) for f in noisy)
    assert all(assert_s_is_a_graph_or_none(f) for f in [APART, *map(with_a_twin, noisy[::10])])


def test_the_array_reweighting_equals_the_walk_from_x():
    rebuilt = []

    @SETTINGS
    @given(reweighting_cases())
    def check(case):
        family, s = case
        got = support._reweighted_tree(family, s)
        assert got == oracles.reweighted_tree(family, s.adjacency())
        rebuilt.append(got is not None)

    check()
    assert any(rebuilt)


@pytest.mark.parametrize(
    "values",
    [
        {(1, 2): 2**61, (1, 3): 2**61, (2, 3): 2**61},  # 2 * big leaves int64
        {(1, 2): HUGE, (1, 3): 3 * HUGE, (2, 3): HUGE},  # a violation beyond the float range
        {(1, 2): Fraction(1, 3), (1, 3): Fraction(2, 3), (2, 3): Fraction(1, 3)},
    ],
)
def test_analyse_on_wide_values(values):
    assert_matches_the_scan(DistanceFamily(3, values))


@pytest.mark.parametrize("unit", (1e308, 10**308), ids=("float", "exact"))
def test_a_diagonal_split_beyond_the_float_range_is_never_compared(unit):
    # Twice D_1z passes the float range for every z, and so would a split
    # of vertex 1 with itself, which analyse never forms; each pair's split
    # stays in range, so the scan compares them and raises nothing.
    values = {p: unit if p[0] == 1 else 1 for p in itertools.combinations(range(1, 5), 2)}
    assert_matches_the_scan(DistanceFamily(4, values, Cmp(1e-9)))


def test_n2_under_a_large_tolerance_keeps_the_diagonal_of_the_scan():
    # The split above the one pair, 3 D + 1 in the scan's numbers, decides
    # under so large a tolerance: at D = 1/3 the gap 5/3 just exceeds
    # 0.8 * 2, and on a diagonal of 2 D + 1/3 it would not.
    for value in (1, Fraction(1, 3), 0.25):
        assert_matches_the_scan(DistanceFamily(2, {(1, 2): value}, Cmp(0.8)))
    assert DistanceFamily(2, {(1, 2): Fraction(1, 3)}, Cmp(0.8)).support.graph.edges


# ---------------------------------------------------------------------------
# The number reader
# ---------------------------------------------------------------------------

TOKENS = ("7", " 07 ", "+7", "-0", "4.50", "1_000", "٣", "1e3", "7/3", "nan", "inf", "1e400",
          ".5", "5.", "-0.0", "+.5", "", "-", ".", "1.2.3", "9" * 700, "0." + "0" * 700 + "1")


def read_by_parse_number(tokens, cmp):
    """The reader's reference: ``parse_number`` per token, then the kernel's
    scale of those Python numbers."""
    return kernel.scale_numbers([parse_number(t, cmp) for t in tokens])


def outcome(read, tokens, cmp):
    try:
        values, scale = read(tokens, cmp)
    except ParseError as exc:
        return "error", str(exc)
    return [(type(v), repr(v)) for v in values], scale


@pytest.mark.parametrize("cmp", (EXACT, Cmp(1e-9)), ids=("exact", "tol"))
@pytest.mark.parametrize("token", TOKENS)
def test_the_fast_path_reads_every_token_as_parse_number(token, cmp):
    # each token alone, and after a plain decimal that sets the scale
    for tokens in ([token], ["2.5", token]):
        assert outcome(_read_numbers, tokens, cmp) == outcome(read_by_parse_number, tokens, cmp)


# Plain unsigned decimals: ints, decimals with trailing zeros, ".5" and "5."
# spellings, and lengths at PLAIN_TOKEN_MAX; and every other spelling.
PLAIN_TOKENS = st.one_of(
    st.integers(0, 10**20).map(str),
    st.builds("{}.{}{}".format, st.integers(0, 10**6), st.integers(0, 10**4), st.sampled_from(("", "0", "000"))),
    st.integers(0, 999).map(".{}".format),
    st.integers(0, 999).map("{}.".format),
    st.sampled_from(("0", "0.0", "9" * PLAIN_TOKEN_MAX, "0." + "0" * (PLAIN_TOKEN_MAX - 3) + "1",
                     "1" * (PLAIN_TOKEN_MAX - 1) + ".5", "9" * (PLAIN_TOKEN_MAX + 1))),
)
OTHER_TOKENS = st.sampled_from(TOKENS + ("-1.5", "+2", "2E-2", "1_0.5", " 2.5", "2.5 ", "١.٥", "0/1", "3/6"))


@settings(SETTINGS, max_examples=400)
@given(
    st.lists(PLAIN_TOKENS, min_size=1, max_size=8) | st.lists(PLAIN_TOKENS | OTHER_TOKENS, max_size=8),
    st.sampled_from((EXACT, Cmp(1e-9))),
)
@example(["1.50", "2", ".5", "5."], EXACT)
@example(["0.25", "1.2.3", "x"], EXACT)
@example(["7", ""], Cmp(1e-9))
@example(["2.5", "", "."], EXACT)
def test_token_lists_read_as_parse_number_then_the_kernel_scale(tokens, cmp):
    # the same values and scale (so the same LCM) or the same error
    assert outcome(_read_numbers, tokens, cmp) == outcome(read_by_parse_number, tokens, cmp)


def test_a_document_beyond_int64_at_10_to_the_k_reads_as_int64_at_its_lcm():
    # at 10^2 the values pass 2^62 (and 2^63), at the LCM scale 2 twice the
    # largest fits int64: the dtype DistanceFamily(n, values) gives
    text = ("0,2000000000000000000.50,1500000000000000000.0\n"
            "2000000000000000000.50,0,1000000000000000000\n"
            "1500000000000000000.0,1000000000000000000,0\n")
    values, scale = _read_numbers(["0", "2000000000000000000.50", "1500000000000000000.0"], EXACT)
    assert scale == 2 and values == [0, 4 * 10**18 + 1, 3 * 10**18]
    assert 200000000000000000050 > 2**63
    family = parse_family_csv(text)
    built = DistanceFamily(3, family.values).scaled
    assert family.values[1, 2] == Fraction(4 * 10**18 + 1, 2)
    assert family.scaled.scale == built.scale == 2
    assert family.scaled.array.dtype == built.array.dtype == np.int64
    assert np.array_equal(family.scaled.array, built.array)


# Cells put into a matrix of 1s and 2s: other spellings and values, values
# near 0, 1 and 2 within Cmp(1e-9), zero or negative ones, malformed ones,
# and one beyond the float range.
CELLS = st.sampled_from(("1", "2", " 2 ", "1.5", "2.50", "7/3", "1e0", "-1", "0", "-0.0",
                         "0.0000000001", "1.0000000001", "2.000000001", "x", "", ".", "1.2.3",
                         "3e400", "9" * 700))


@st.composite
def matrix_documents(draw):
    n = draw(st.integers(2, 5))
    cells = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cells[i][j] = cells[j][i] = draw(st.sampled_from(("1", "2")))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        where = draw(st.sampled_from(((i, i), (i, j), (i, j, j, i))))
        token = draw(CELLS)
        for a, b in zip(where[::2], where[1::2]):
            cells[a][b] = token
    if draw(st.integers(0, 2)) == 0:
        # a row of the wrong length, ahead of a malformed cell or behind it
        row = cells[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            del row[draw(st.integers(0, n - 1))]
        else:
            row.insert(draw(st.integers(0, n)), draw(CELLS))
    return "\n".join(",".join(row) for row in cells) + "\n"


def parsed(parse, text, cmp):
    try:
        family = parse(text, cmp)
    except ParseError as exc:
        return "error", str(exc)
    return {p: (type(v), v) for p, v in family.values.items()}


@settings(SETTINGS, max_examples=400)
@given(matrix_documents(), st.sampled_from((EXACT, Cmp(1e-9))))
@example("0,1.5,7/3\n1.5,0,2.50\n7/3,2.50,0\n", EXACT)
@example("0,x,1\n1,0,1\n1,1\n", EXACT)
@example("0,1,1\n1,0\nx,1,0\n", EXACT)
@example("0,1,1\n1,0,1,1\n1,1,-1\n", Cmp(1e-9))
def test_matrix_documents_read_as_the_cell_by_cell_parser(text, cmp):
    assert parsed(parse_family_csv, text, cmp) == parsed(oracles.parse_family_csv, text, cmp)
    if not isinstance(parsed(parse_family_csv, text, cmp), tuple):
        # the family of its own values is the family, with the same array
        family = parse_family_csv(text, cmp)
        rebuilt = DistanceFamily(family.n, family.values, family.cmp)
        assert rebuilt == family
        built = rebuilt.scaled
        assert family.scaled.scale == built.scale
        assert family.scaled.array.dtype == built.array.dtype
        assert np.array_equal(family.scaled.array, built.array)


def block_document(n, special=None):
    """A valid n x n matrix document, d_ij = 1 + |i - j|, with ``special``,
    a map from 1-based pairs to cell text, written at both of each pair's
    cells."""
    cells = [[str(abs(i - j) + (i != j)) for j in range(n)] for i in range(n)]
    for (i, j), token in (special or {}).items():
        cells[i - 1][j - 1] = cells[j - 1][i - 1] = token
    return "".join(",".join(row) + "\n" for row in cells)


# n = 100 is 40 rows a block: rows 1-40, 41-80 and 81-100.  Each special
# value sits alone in the first or the last block, with its mirror cell: a
# ratio, a decimal whose scale the other blocks lack, and a value whose
# double leaves int64.
@pytest.mark.parametrize("cmp", (EXACT, Cmp(1e-9)), ids=("exact", "tol"))
@pytest.mark.parametrize("pair", ((1, 2), (99, 100)), ids=("first", "last"))
@pytest.mark.parametrize("token", ("7/3", "0.125", str(kernel.INT64_MAX // 2 + 1)))
def test_blocks_merge_at_the_lcm_in_the_dtype_of_the_family(monkeypatch, token, pair, cmp):
    n = 100
    calls = []

    def read(tokens, cmp):
        calls.append(len(tokens))
        return _read_numbers(tokens, cmp)

    monkeypatch.setattr(serialize, "_read_numbers", read)
    family = parse_family_csv(block_document(n, {pair: token}), cmp)
    assert calls == [4000, 4000, 2000] and serialize.BLOCK_CELLS == 4096
    assert family.values[pair] == parse_number(token, cmp)
    built = DistanceFamily(n, family.values, cmp).scaled
    assert family.scaled.scale == built.scale
    assert family.scaled.array.dtype == built.array.dtype
    assert np.array_equal(family.scaled.array, built.array)
    if cmp.exact:
        assert family.scaled.scale == {"7/3": 3, "0.125": 8}.get(token, 1)
        assert family.scaled.array.dtype == (object if token.isdigit() else np.int64)


# (malformed row, short row) across the blocks of n = 100: the first error
# in row order is named, a malformed cell ahead of the short row's count
@pytest.mark.parametrize("bad, short", ((45, 90), (90, 45), (85, 90), (90, 90), (3, 2)))
def test_errors_across_blocks_come_in_the_order_of_the_cell_by_cell_parser(bad, short):
    rows = [line.split(",") for line in block_document(100).splitlines()]
    rows[bad - 1][bad % 100] = "x"
    del rows[short - 1][-1]
    text = "".join(",".join(row) + "\n" for row in rows)
    assert parsed(parse_family_csv, text, EXACT) == parsed(oracles.parse_family_csv, text, EXACT)
    first = min(bad, short)
    assert parsed(parse_family_csv, text, EXACT)[1] == (
        f"row {short} has 99 cells, expected 100" if short == first else "malformed number 'x'"
    )


def test_a_block_of_zeros_is_not_rescaled():
    # rows 1-80 are zeros and rows 81-100 hold 1e-30 off the diagonal: the
    # array is int64 at the scale 10^30, which int64 cannot hold as a factor
    n = 100
    tiny = "0." + "0" * 29 + "1"
    text = "".join(",".join("0" if i < 80 or i == j else tiny for j in range(n)) + "\n" for i in range(n))
    fault = ("error", "nonpositive 2-weight at (1,2)")
    assert parsed(parse_family_csv, text, EXACT) == parsed(oracles.parse_family_csv, text, EXACT) == fault


# ---------------------------------------------------------------------------
# Planarity without networkx when S has cyclomatic number at most 3
# ---------------------------------------------------------------------------


def k33_subdivision(rng, n):
    """K33 on hubs 1..6 with edges subdivided by the vertices 7.., the rest
    of [n] hung off as a tree, relabelled at random, unit weights."""
    edges = []
    spare = list(range(7, n + 1))
    for a in (1, 2, 3):
        for b in (4, 5, 6):
            chain = [a]
            while spare and rng.random() < 0.3:
                chain.append(spare.pop())
            edges += zip(chain, chain[1:] + [b])
    for v in spare:
        edges.append((v, rng.randint(1, v - 1)))
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return WeightedGraph(n, [(label[u - 1], label[v - 1], 1) for u, v in edges])


def test_planar_verdict_equals_the_exhaustive_search_when_m_is_at_most_n_plus_4():
    rng = random.Random(5)
    seen = set()
    for trial in range(150):
        n = rng.randint(6, 10)
        if trial % 3 == 0:
            g = k33_subdivision(rng, n)
        else:
            g = random_connected_graph(n, rng, extra_edges=rng.randint(0, 5))
        family = two_weights(g)
        s = family.support.graph
        assert len(s.edges) <= n + 4
        planar = oracles.subdivision_witness_search(s) is None
        assert planar_check(family).accepted == planar
        seen.add((len(s.edges) - n + 1 <= 3, planar))
    assert seen == {(True, True), (False, True), (False, False)}


def test_an_infinite_sum_is_never_within_tolerance_of_a_finite_value(tmp_path, capsys):
    # K_{3,3} of weight 5e307 on the sides {1,2,3} and {4,5,6}: the
    # four-point pairings of two same-side pairs, 1e308 + 1e308, are inf,
    # and those of two cross pairs are 1e308; --tol prints the exact verdict
    k33 = tmp_path / "k33.csv"
    k33.write_text("".join(
        ",".join("0" if i == j else "1e308" if (i < 3) == (j < 3) else "5e307" for j in range(6)) + "\n"
        for i in range(6)
    ))
    for mode in ([], ["--tol"]):
        assert run(["classify", str(k33), *mode]) == 0
        assert '"four_point": false' in capsys.readouterr().out
    # the path 1-2-3 of weights 1e308, whose D_13 is 2e308 (inf in float64),
    # does not realize D_13 = 1.5e308 in either mode
    g = tmp_path / "g.json"
    g.write_text('{"n": 3, "edges": [{"u": 1, "v": 2, "w": "1e308"}, {"u": 2, "v": 3, "w": "1e308"}]}')
    m = tmp_path / "m.csv"
    m.write_text("0,1e308,1.5e308\n1e308,0,1e308\n1.5e308,1e308,0\n")
    for mode in ([], ["--tol"]):
        assert run(["verify", str(g), str(m), *mode]) == 1
        assert capsys.readouterr() == ("mismatch: the graph does not realize the matrix\n", "")
    # and its 2-weights have no float64 value
    assert run(["weights", str(g), "--tol"]) == 2


# ---------------------------------------------------------------------------
# A tolerance meets exact values beyond the float range
# ---------------------------------------------------------------------------

RANGE = "an exact value beyond the float range cannot be compared under a tolerance"
SUM_BEYOND_FLOATS = "a sum of two values beyond the float range cannot be compared under a tolerance"
PATH = WeightedGraph(3, [(1, 2, HUGE), (2, 3, HUGE), (1, 3, 3 * HUGE)])
TOL = Cmp(1e-9)


def test_support_under_a_tolerance_rejects_values_beyond_the_float_range():
    # the family is refused when it is made, before S is looked for
    with pytest.raises(FamilyError, match=RANGE):
        two_weights(PATH, TOL)
    with pytest.raises(FamilyError, match=RANGE):
        DistanceFamily(3, two_weights(PATH).values, TOL)


def test_the_bipartition_walk_under_a_tolerance_decides_sums_beyond_the_float_range():
    # K_{3,3}: every split is at most 3 * 5e307, but the walk's same-side
    # sums D_xu + D_uv reach 2e308, inf in float64, which is within no
    # tolerance of a finite D_xv; the walk, and the checks that read its
    # sides, decide as in exact mode
    g = WeightedGraph(6, [(a, b, 5 * 10**307) for a in (1, 2, 3) for b in (4, 5, 6)])
    family, exact = two_weights(g, TOL), two_weights(g)
    assert family.support.realization is not None
    assert bipartition(family) == bipartition(exact)
    for check in (bigraph_check, planar_check):
        got, want = check(family), check(exact)
        assert (got.accepted, got.reason, got.witness) == (want.accepted, want.reason, want.witness)
        assert got.graph is None or got.graph.edge_pairs() == want.graph.edge_pairs()


def test_a_tolerance_rejects_a_positive_value_that_rounds_to_0():
    # as the matrix reader refuses the 0.0 that 1/10^400 reads as
    tiny = Fraction(1, 10**400)
    with pytest.raises(FamilyError, match="rounds to 0"):
        DistanceFamily(3, {(1, 2): tiny, (1, 3): 1, (2, 3): 1}, TOL)
    with pytest.raises(FamilyError, match="rounds to 0"):
        two_weights(WeightedGraph(2, [(1, 2, tiny)]), TOL)
    with pytest.raises(ParseError, match="nonpositive"):
        parse_family_csv(f"0,1/{10**400}\n1/{10**400},0\n", TOL)


def test_pruning_under_a_tolerance_rejects_values_beyond_the_float_range():
    with pytest.raises(GraphError, match=RANGE):
        prune(PATH, TOL)


def test_verification_under_a_tolerance_rejects_values_beyond_the_float_range():
    # the family of PATH is refused when it is made; PATH's weights when
    # they are compared with a family
    with pytest.raises(FamilyError, match=RANGE):
        two_weights(PATH, TOL)
    small = two_weights(WeightedGraph(3, [(1, 2, 1), (2, 3, 1)]), TOL)
    with pytest.raises(GraphError, match=RANGE):
        verify_realization(WeightedGraph(3, [(1, 2, HUGE), (2, 3, 1)]), small)


# ---------------------------------------------------------------------------
# The parser is built once per process
# ---------------------------------------------------------------------------


def test_repeated_runs_share_one_parser_and_keep_their_outputs(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0,1,3\n1,0,2\n3,2,0\n")
    calls = [
        (["classify", str(path), "--tol"], 0),
        (["classify", "--tol", str(path)], 0),
        (["check", "--class", "snake", str(path), "--tol", "1e-6"], 0),
        (["check", "--class", "tree", str(path), "--tol", "-1"], 2),
        (["check", "--class", "tree", str(path), "--tol", "nan"], 2),
        (["classify", str(path)], 0),
    ]
    rounds = []
    for _ in range(2):
        outputs = []
        for argv, code in calls:
            assert run(argv) == code, argv
            outputs.append(capsys.readouterr())
        rounds.append(outputs)
    assert rounds[0] == rounds[1]
    assert rounds[0][3].err.startswith("error: --tol: tolerance")
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# Float overflow in the kernel is silent, as in Python's float arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error")
def test_float_overflow_in_the_kernel_prints_no_warning(tmp_path, capsys):
    # the splits 1e308 + 1e308 are inf, above every D: S is K_3
    metric = tmp_path / "m.csv"
    metric.write_text("0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n")
    assert run(["classify", str(metric), "--tol"]) == 0
    assert capsys.readouterr().err == ""
    # the four family checks form them too, as in the scalar scans; the
    # bipartition walk forms them on S's links, where an infinite sum is
    # never tight with a finite D, so every vertex but 1 hangs off 1
    rows = (",".join("0" if i == j else "1e308" for j in range(4)) for i in range(4))
    k4 = parse_family_csv("\n".join(rows), TOL)
    assert check_triangle(k4) == oracles.triangle_scan(k4, 32)
    for four_point in (check_four_point, oracles.four_point_scan):
        with pytest.raises(FamilyError, match=SUM_BEYOND_FLOATS):
            four_point(k4, 32)
    assert check_median(k4) == oracles.median_scan(k4, 32)
    assert is_indecomposable(k4, 1, 2) is oracles.indecomposable_scan(k4, 1, 2)
    sides = bipartition(k4)
    assert (sides.x_side, sides.y_side) == ({1}, {2, 3, 4})
    # a path whose 2-weights verify S, though Floyd-Warshall forms D_13 + D_31
    path = tmp_path / "path.csv"
    w = ["0", "5.9e307", "1.18e308", "1.77e308"]
    path.write_text("".join(",".join(w[abs(i - j)] for j in range(4)) + "\n" for i in range(4)))
    assert run(["check", "--class", "snake", str(path), "--tol"]) == 0
    assert capsys.readouterr() == ("snake: accepted\n", "")
    # a triangle violation at (1,2) whose midpoint scan meets 1e308 + 1e308
    shortcut = tmp_path / "shortcut.csv"
    shortcut.write_text("0,1e308,1,1e308\n1e308,0,1,1e308\n1,1,0,1e308\n1e308,1e308,1e308,0\n")
    assert run(["classify", str(shortcut), "--tol"]) == 0
    assert capsys.readouterr().err == ""
    # the symmetry check's difference 1e308 - (-1e308) is inf
    mirror = tmp_path / "mirror.csv"
    mirror.write_text("0,1e308\n-1e308,0\n")
    assert run(["classify", str(mirror), "--tol"]) == 2
    assert capsys.readouterr().err == "error: asymmetric at (1,2)\n"


def test_a_tolerance_refuses_a_four_point_middle_pairing_beyond_the_float_range(tmp_path, capsys):
    # a star of centre 1 with the leaf 2 at distance 1 and the leaves 3..6
    # at 8.5e307: every split is finite, but the three pairings of four
    # leaves are 1.7e308 + 1.7e308, inf in float64, and two infinite sums
    # cannot be ordered; exact mode finds the four-point condition
    leaf = 85 * 10**306
    g = WeightedGraph(6, [(1, 2, 1)] + [(1, j, leaf) for j in range(3, 7)])
    assert check_four_point(two_weights(g)).holds
    star = two_weights(g, TOL)
    assert star.support.violation is None
    for four_point in (check_four_point, oracles.four_point_scan):
        with pytest.raises(FamilyError, match=SUM_BEYOND_FLOATS):
            four_point(star, 32)
    with pytest.raises(FamilyError, match=SUM_BEYOND_FLOATS):
        classify(star)
    csv = tmp_path / "star.csv"
    csv.write_text(serialize.family_to_csv(two_weights(g)))
    assert run(["classify", str(csv)]) == 0
    assert '"four_point": true' in capsys.readouterr().out
    assert run(["classify", str(csv), "--tol"]) == 2
    assert capsys.readouterr() == ("", f"error: {SUM_BEYOND_FLOATS}\n")


def test_a_tolerance_decides_infinite_splits_by_the_comparison_rule(tmp_path, capsys):
    # the split of the one pair of n = 2 is D_12 + 2 D_12 + 1, inf in
    # float64, which lies above D_12 as the exact split does
    pair = tmp_path / "pair.csv"
    pair.write_text("0,1e308\n1e308,0\n")
    # exact mode reads the integer 10**308, whose sums stay exact: a snake and K_2
    assert run(["classify", str(pair)]) == 0
    accepted = capsys.readouterr().out
    assert '"snake": {\n      "accepted": true' in accepted
    assert '"complete": {\n      "accepted": true' in accepted
    assert run(["classify", str(pair), "--tol"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if '"accepted"' in line] == [
        line for line in accepted.splitlines() if '"accepted"' in line
    ]
    # the split of (2,3) is inf and those of (1,2) and (1,3) are 1e308 + 1,
    # 1e308 in float64: the scan keeps the one pair (2,3), so S is
    # disconnected and no graph, as in the scalar scan
    family = DistanceFamily(3, {(1, 2): 1e308, (1, 3): 1e308, (2, 3): 1}, TOL)
    assert [e[:2] for e in oracles.split_scan(family)[0]] == [(2, 3)]
    assert family.support.graph is None
    assert_matches_the_scan(family)


@st.composite
def graphs_near_the_float_range(draw):
    """A connected graph with n <= 7 and weights k * 10^307 whose 2-weights
    stay at or below 17 * 10^307, 1.7e308 in float64: every 2-weight has a
    float value, but a sum of two may not.  A complete graph with every k
    at least 9 has only infinite float splits; lower and fewer weights mix
    finite and infinite ones."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        pairs = set(itertools.combinations(range(1, n + 1), 2))
    else:
        pairs = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
        chords = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in pairs]
        pairs.update(draw(st.lists(st.sampled_from(chords), unique=True)) if chords else ())
    k = st.integers(draw(st.sampled_from((1, 5, 9))), 17)
    g = WeightedGraph(n, [(u, v, draw(k) * 10**307) for u, v in sorted(pairs)])
    assume(max(two_weights(g).values.values()) <= 17 * 10**307)
    return g


@SETTINGS
@given(graphs_near_the_float_range())
def test_a_tolerance_near_the_float_range_decides_as_exact_mode(g):
    # the exact 2-weights read under a tolerance: S and the useful edges are
    # those of the scalar scans, and the report is exact mode's, unless the
    # four-point check meets a middle pairing of inf, which it refuses
    exact = two_weights(g)
    family = parse_family_csv(serialize.family_to_csv(exact), TOL)
    assert_matches_the_scan(family)
    assert prune(g, TOL).edge_pairs() == oracles.useful_edges(g, TOL)
    try:
        got = oracles.report_dict(classify(family))
    except FamilyError as exc:
        assert str(exc) == SUM_BEYOND_FLOATS
        with pytest.raises(FamilyError, match=SUM_BEYOND_FLOATS):
            check_four_point(family, max_violations=g.n**4)
        return
    want = oracles.report_dict(classify(exact))
    for report in (got, want):
        for entry in report["classes"].values():
            entry.pop("realization", None)
    assert got == want
