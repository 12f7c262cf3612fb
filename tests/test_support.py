"""The support graph S and the triangle check from the kernel's min-plus
product (``support.analyse``) against the scalar split scan in ``oracles``,
and the layers around it on the classify path: the CSV fast path against
``parse_number``, the cyclomatic planarity shortcut against the exhaustive
Kuratowski search, the errors of a tolerance on values beyond the float
range, and the parser built once per process."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metric_realize import (
    EXACT,
    Cmp,
    DistanceFamily,
    FamilyError,
    GraphError,
    WeightedGraph,
    planar_check,
    prune,
    two_weights,
    useful_edges,
    verify_realization,
)
from metric_realize import kernel
from metric_realize.cli import build_parser, run
from metric_realize.serialize import ParseError, parse_cell, parse_family_csv, parse_number

import oracles
from conftest import random_connected_graph
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
        return kind, DistanceFamily(n, {p: draw(value) for p in pairs})
    edges = {(draw(st.integers(1, v - 1)), v): draw(value) for v in range(2, n + 1)}
    for _ in range(draw(st.integers(0, n))):
        edges[draw(st.sampled_from(pairs))] = draw(value)
    family = two_weights(WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()]))
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(pairs))
        moved = family.d(i, j) + draw(st.sampled_from((-1, 1))) * Fraction(draw(value), 2)
        family = family.with_value(i, j, moved if moved > 0 else draw(value))
    return kind, family


def assert_matches_the_scan(family):
    support = family.support
    graph, violation, realization = oracles.support_scan(family)
    assert support.graph == graph
    assert support.violation == violation
    assert support.realization == realization
    for u, v, w in support.graph.edges:
        assert type(u) is int and type(v) is int
        assert type(w) in (int, Fraction, float)
    assert violation is None or all(type(x) is int for x in support.violation)


@SETTINGS
@given(families(), st.sampled_from((EXACT, Cmp(1e-9))))
def test_analyse_equals_the_scalar_split_scan(drawn, cmp):
    kind, family = drawn
    if kind == "huge" and not cmp.exact:
        return  # a tolerance cannot compare them: see the range tests below
    assert_matches_the_scan(family.with_cmp(cmp))


def test_analyse_equals_the_scalar_split_scan_on_noisy_families():
    decided = 0
    for family in noisy_families(random.Random(77), 1e-9):
        assert_matches_the_scan(family)
        decided += family.support.realization is None
    assert decided  # some S miss D within the tolerance


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


def test_n2_under_a_large_tolerance_keeps_the_diagonal_of_the_scan():
    # The split above the one pair, 3 D + 1 in the scan's numbers, decides
    # under so large a tolerance: at D = 1/3 the gap 5/3 just exceeds
    # 0.8 * 2, and on a diagonal of 2 D + 1/3 it would not.
    for value in (1, Fraction(1, 3), 0.25):
        assert_matches_the_scan(DistanceFamily(2, {(1, 2): value}, Cmp(0.8)))
    assert DistanceFamily(2, {(1, 2): Fraction(1, 3)}, Cmp(0.8)).support.graph.edges


# ---------------------------------------------------------------------------
# The CSV fast path
# ---------------------------------------------------------------------------

TOKENS = ("7", " 07 ", "+7", "-0", "4.50", "1_000", "٣", "1e3", "7/3", "nan", "inf", "1e400",
          ".5", "5.", "-0.0", "+.5", "", "-", ".", "1.2.3", "9" * 700, "0." + "0" * 700 + "1")


def outcome(parse, token, cmp):
    try:
        value = parse(token, cmp)
    except ParseError as exc:
        return "error", str(exc)
    return type(value), repr(value)


@pytest.mark.parametrize("cmp", (EXACT, Cmp(1e-9)), ids=("exact", "tol"))
@pytest.mark.parametrize("token", TOKENS)
def test_the_fast_path_reads_every_token_as_parse_number(token, cmp):
    assert outcome(parse_cell, token, cmp) == outcome(parse_number, token, cmp)


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
    return "\n".join(",".join(row) for row in cells) + "\n"


def parsed(parse, text, cmp):
    try:
        family = parse(text, cmp)
    except ParseError as exc:
        return "error", str(exc)
    return {p: (type(v), v) for p, v in family.values.items()}


@settings(SETTINGS, max_examples=400)
@given(matrix_documents(), st.sampled_from((EXACT, Cmp(1e-9))))
def test_matrix_documents_read_as_the_cell_by_cell_parser(text, cmp):
    assert parsed(parse_family_csv, text, cmp) == parsed(oracles.parse_family_csv, text, cmp)
    if not isinstance(parsed(parse_family_csv, text, cmp), tuple):
        family = parse_family_csv(text, cmp)
        built = kernel.pair_matrix(family.n, family.values, kernel.common_scale(family.values.values()))
        assert family.scaled.scale == built.scale
        assert family.scaled.array.dtype == built.array.dtype
        assert np.array_equal(family.scaled.array, built.array)


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


# ---------------------------------------------------------------------------
# A tolerance meets exact values beyond the float range
# ---------------------------------------------------------------------------

RANGE = "an exact value beyond the float range cannot be compared under a tolerance"
PATH = WeightedGraph(3, [(1, 2, HUGE), (2, 3, HUGE), (1, 3, 3 * HUGE)])
TOL = Cmp(1e-9)


def test_support_under_a_tolerance_rejects_values_beyond_the_float_range():
    family = two_weights(PATH, TOL)
    with pytest.raises(FamilyError, match=RANGE):
        family.support


@pytest.mark.parametrize("entry", (prune, useful_edges))
def test_pruning_under_a_tolerance_rejects_values_beyond_the_float_range(entry):
    with pytest.raises(GraphError, match=RANGE):
        entry(PATH, TOL)


def test_verification_under_a_tolerance_rejects_values_beyond_the_float_range():
    with pytest.raises(GraphError, match=RANGE):
        verify_realization(PATH, two_weights(PATH, TOL))
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
    # the splits 1e308 + 1e308 are inf
    metric = tmp_path / "m.csv"
    metric.write_text("0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n")
    assert run(["classify", str(metric), "--tol"]) == 0
    assert capsys.readouterr().err == ""
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
