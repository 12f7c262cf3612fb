import itertools
import json
import random
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metric_realize import (
    EXACT,
    Cmp,
    GenSpec,
    GenerationError,
    WeightedGraph,
    classify,
    generate,
    two_weights,
)
from metric_realize import kernel, serialize
from metric_realize.cli import run
from metric_realize.generators import CLASS_MIN_N
from metric_realize.serialize import (
    ParseError,
    _read_numbers,
    _write_numbers,
    family_to_csv,
    format_number,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    parse_family_csv,
    parse_number,
    report_parts,
    report_to_json,
)

import oracles
from conftest import random_connected_graph, with_value

PATH_CSV = "0,1,3\n1,0,2\n3,2,0\n"
TRIANGLE_CSV = "0,1,1\n1,0,1\n1,1,0\n"


class TestNumbers:
    def test_parse_int(self):
        assert parse_number("7") == 7
        assert isinstance(parse_number("7"), int)

    def test_parse_decimal(self):
        assert parse_number("4.5") == Fraction(9, 2)

    def test_parse_ratio(self):
        assert parse_number("7/3") == Fraction(7, 3)

    def test_parse_rejects_junk(self):
        for bad in ("", "x", "1/0", "1..2", "2,5"):
            with pytest.raises(ParseError):
                parse_number(bad)

    def test_format_round_trip(self):
        for text in ("7", "4.5", "7/3", "0.1", "2.25", "13/7"):
            assert parse_number(format_number(parse_number(text))) == parse_number(text)

    def test_format_prefers_decimal_when_finite(self):
        assert format_number(Fraction(9, 2)) == "4.5"
        assert format_number(Fraction(21, 10)) == "2.1"
        assert format_number(Fraction(7, 3)) == "7/3"
        assert format_number(5) == "5"

    def test_tolerance_mode_yields_floats(self):
        from metric_realize import Cmp

        v = parse_number("7/2", Cmp(1e-9))
        assert isinstance(v, float) and v == 3.5


# Scales that divide a power of 10 (the point is placed) and scales that do
# not (format_number writes "p/q" or, for integral values, the integer).
WRITER_SCALES = (1, 2, 4, 5, 8, 16, 20, 25, 40, 100, 1000, 3, 6, 30, 7, 2**70, 10**30)
INT64 = st.integers(-(2**63), 2**63 - 1)


@pytest.mark.parametrize("scale", WRITER_SCALES, ids=str)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(INT64 | st.integers(-20, 20), max_size=12), st.lists(st.integers(-(10**40), 10**40), max_size=6))
def test_the_writer_writes_as_format_number(scale, small, wide):
    # int64 entries and Python ints (object), with 0, multiples of the scale
    # (integral values) and the int64 extremes among them
    fixed = [0, 1, -1, scale if scale < 2**62 else 7, 2**63 - 1, -(2**63)]
    entries = (np.array(fixed + small, dtype=np.int64), np.array([0, scale * 10**20 + 1, -scale] + wide, dtype=object))
    for a in entries:
        assert _write_numbers(a, scale) == [format_number(Fraction(v, scale)) for v in a.tolist()]


def test_the_writer_writes_floats_as_repr():
    a = np.array([3.0, 1e-05, 1e300, 0.1, 2.5, 5e-324, 1.7976931348623157e308, 1e16])
    texts = _write_numbers(a, None)
    assert texts == ["3.0", "1e-05", "1e+300", "0.1", "2.5", "5e-324", "1.7976931348623157e+308", "1e+16"]
    assert texts == [format_number(x) for x in a.tolist()]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 10**12), min_size=1, max_size=10), st.sampled_from((1, 2, 8, 10, 40, 1000, 10**25)))
def test_the_reader_reads_back_what_the_writer_wrote(values, scale):
    # the written texts are plain decimals; read back they give the values
    # reduced to the LCM of their denominators
    texts = _write_numbers(np.array(values, dtype=object), scale)
    read, lcm = _read_numbers(texts, EXACT)
    assert [Fraction(v, lcm) for v in read] == [Fraction(v, scale) for v in values]
    assert lcm == kernel.common_scale([Fraction(v, scale) for v in values])


class TestFamilyCsv:
    def test_parse_path_matrix(self):
        f = parse_family_csv(PATH_CSV)
        assert f.n == 3
        assert f.d(1, 3) == 3

    def test_round_trip(self, fig2_family):
        assert parse_family_csv(family_to_csv(fig2_family)).values == fig2_family.values

    def test_row_length_error(self):
        with pytest.raises(ParseError, match="row 2 has 2 cells, expected 3"):
            parse_family_csv("0,1,1\n1,0\n1,1,0\n")

    def test_nonzero_diagonal_error(self):
        with pytest.raises(ParseError, match=r"nonzero diagonal at \(2,2\)"):
            parse_family_csv("0,1,1\n1,5,1\n1,1,0\n")

    def test_asymmetric_error(self):
        with pytest.raises(ParseError, match=r"asymmetric at \(1,3\)"):
            parse_family_csv("0,1,2\n1,0,1\n3,1,0\n")

    def test_nonpositive_error(self):
        with pytest.raises(ParseError, match=r"nonpositive 2-weight at \(1,2\)"):
            parse_family_csv("0,-1,1\n-1,0,1\n1,1,0\n")

    def test_too_small(self):
        with pytest.raises(ParseError, match="at least 2 rows"):
            parse_family_csv("0\n")

    def test_blank_lines_ignored(self):
        f = parse_family_csv("\n0,1\n\n1,0\n\n")
        assert f.n == 2

    @pytest.mark.parametrize("cmp", (EXACT, Cmp(1e-9)))
    def test_classify_builds_no_python_number_per_pair(self, cmp):
        # every class runs on the parsed array; S's edges, the snake's
        # closing edge (polygon), the cross edges (bipartite of a tree) and,
        # on the noisy path, the reweighted tree convert only what they return
        texts = [
            family_to_csv(two_weights(generate(GenSpec(class_id, 9, 3, "decimal"))))
            for class_id in ("snake", "tree", "polygon", "complete_bipartite", "planar")
        ]
        tol = 1e-9
        noisy = [[0.1 * abs(j - i) - tol / 2 * max(abs(j - i) - 1, 0) for j in range(10)] for i in range(10)]
        texts.append("".join(",".join(map(repr, row)) + "\n" for row in noisy))
        for text in texts:
            family = parse_family_csv(text, cmp)
            assert classify(family).accepted_classes()
            assert "values" not in family.__dict__


# (u, v, w) rows with one fault each: a loop, a twin of (1, 2), a zero
# weight and an end out of range, alone and in every order of two and of
# three; then a vertex that is not an integer and a weight that is not a
# number, in both orders
STRUCTURAL_FAULTS = ((3, 3, "1"), (2, 1, "4"), (3, 4, "0"), (4, 9, "1"))
FAULT_ORDERS = [
    *(order for r in (1, 2, 3) for order in itertools.permutations(STRUCTURAL_FAULTS, r)),
    *itertools.permutations(((1.5, 4, "1"), (2, 4, "x"))),
]


class TestGraphJson:
    def test_round_trip_preserves_exact_weights(self, fig2_graph):
        assert graph_from_json(graph_to_json(fig2_graph)) == fig2_graph

    def test_random_round_trips(self):
        rng = random.Random(161)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 9), rng)
            assert graph_from_json(graph_to_json(g)) == g

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            graph_from_json("{nope")

    def test_missing_field(self):
        with pytest.raises(ParseError, match="malformed graph document"):
            graph_from_json('{"edges": []}')

    def test_structural_error_becomes_parse_error(self):
        doc = '{"n": 2, "edges": [{"u": 1, "v": 1, "w": "1"}]}'
        with pytest.raises(ParseError, match="self-loop"):
            graph_from_json(doc)

    @pytest.mark.parametrize("faults", FAULT_ORDERS)
    def test_the_first_fault_in_document_order_is_reported(self, faults):
        # as the edge-by-edge loops report it: first the fields of each edge
        # (the vertex types, then the weight's number), then per edge a
        # loop, the range, a twin and the weight's sign (``oracles.edge_fault``)
        rows = [(1, 2, "3"), *faults, (2, 3, "5")]
        doc = json.dumps({"n": 5, "edges": [{"u": u, "v": v, "w": w} for u, v, w in rows]})
        with pytest.raises(ParseError) as raised:
            graph_from_json(doc)
        edges = []
        try:
            for u, v, w in rows:
                for key, x in (("u", u), ("v", v)):
                    if type(x) is not int:
                        raise ValueError(f"{key} must be an integer, got {json.dumps(x)}")
                edges.append((u, v, parse_number(w)))
        except ValueError as exc:
            want = f"malformed graph document: {exc}"
        else:
            want = oracles.edge_fault(5, edges)
        assert str(raised.value) == want

    def test_dot_output_shape(self):
        g = WeightedGraph(2, [(1, 2, Fraction(1, 2))])
        dot = graph_to_dot(g)
        assert dot.startswith("graph realization {")
        assert '1 -- 2 [label="0.5"];' in dot
        assert dot.endswith("}\n")


def indented_dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


WRITER_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Edge weights by kind: exact ints, decimals, thirds and sevenths (written
# "p/q"), floats (compared under a tolerance), and unit weights, whose ties
# make complete and complete bipartite support graphs.
WEIGHTS = {
    "int": st.integers(1, 30),
    "decimal": st.builds(Fraction, st.integers(1, 400), st.sampled_from([2, 4, 5, 10, 100])),
    "ratio": st.builds(Fraction, st.integers(1, 60), st.sampled_from([3, 7, 21])),
    "float": st.floats(0.01, 50, allow_nan=False, allow_infinity=False),
    "unit": st.just(1),
}


@st.composite
def graphs(draw):
    """A generator graph (every class, n up to 9) with weights of one kind."""
    class_id = draw(st.sampled_from(sorted(CLASS_MIN_N)))
    n = draw(st.integers(max(2, CLASS_MIN_N[class_id]), 9))
    shape = generate(GenSpec(class_id, n, draw(st.integers(0, 10**6))))
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    return WeightedGraph(n, [(u, v, draw(weight)) for u, v, _w in shape.edges])


# The writers' block size, and blocks of 1 and 2 edges, so that the small
# graphs here have edge lists of many blocks too.
BLOCKS = (serialize.BLOCK_CELLS, 1, 2)


def at_each_block(write, *args) -> list:
    """What ``write(*args)`` returns at each block size of ``BLOCKS``."""
    texts = []
    for block in BLOCKS:
        with mock.patch.object(serialize, "BLOCK_CELLS", block):
            texts.append(write(*args))
    return texts


class TestReportJson:
    """``report_to_json`` prints what the indenting encoder printed for the
    report's dict form (``oracles.report_dict``), byte for byte, at every
    block size of ``BLOCKS``."""

    def test_equals_the_indented_dump_on_the_acceptance_families(self, fig2_family):
        reports = [classify(fig2_family)]
        for class_id in sorted(CLASS_MIN_N):
            for n in (3, 5, 6, 8, 12):
                if n < CLASS_MIN_N[class_id]:
                    continue
                for seed in range(3):
                    for kind, lo, hi in (("int", 1, 20), ("decimal", 1, 20), ("int", 1, 1)):
                        graph = generate(GenSpec(class_id, n, seed, kind, lo, hi))
                        reports.append(classify(two_weights(graph)))
                        reports.append(classify(two_weights(graph, Cmp(1e-9))))
        for report in reports:
            assert at_each_block(report_to_json, report) == [indented_dump(oracles.report_dict(report))] * len(BLOCKS)
        # the optional members appear and are absent
        assert {r.planar_witness.kind for r in reports if r.planar_witness} == {"K5", "K33"}
        assert {r.bipartition is None for r in reports} == {True, False}

    @WRITER_SETTINGS
    @given(graphs(), st.booleans(), st.booleans(), st.data())
    def test_equals_the_indented_dump(self, graph, tolerance, metric, data):
        cmp = Cmp(1e-9) if tolerance or any(isinstance(w, float) for *_e, w in graph.edges) else EXACT
        family = two_weights(graph, cmp)
        if not metric:
            # one entry above the sum of all the others breaks a triangle
            i, j = sorted(data.draw(st.lists(st.integers(1, graph.n), min_size=2, max_size=2, unique=True)))
            family = with_value(family, i, j, sum(family.values.values()) + 1)
        report = classify(family)
        assert at_each_block(report_to_json, report) == [indented_dump(oracles.report_dict(report))] * len(BLOCKS)
        assert report.to_dict() == oracles.report_dict(report)

    def test_non_ascii_reasons_are_escaped(self):
        # reasons are ASCII today; the writer escapes as json.dumps would
        report = classify(two_weights(WeightedGraph(3, [(1, 2, 1), (2, 3, 1)])))
        report.verdicts["snake"].reason = 'quote " back\\slash \u2264 tab\t'
        assert report_to_json(report) == indented_dump(oracles.report_dict(report))

    @WRITER_SETTINGS
    @given(graphs())
    @example(WeightedGraph(1, []))  # an empty edge list
    def test_graph_to_json_equals_the_indented_dump(self, graph):
        assert at_each_block(graph_to_json, graph) == [indented_dump(oracles.graph_to_dict(graph))] * len(BLOCKS)
        assert at_each_block(graph_to_dot, graph) == [graph_to_dot(graph)] * len(BLOCKS)

    def test_the_cli_prints_report_to_json(self, tmp_path, capsys):
        # a tree's report holds K_{X,Y}: 35 edges here, so many blocks
        family = two_weights(generate(GenSpec("tree", 12, 1)))
        path = tmp_path / "t12.csv"
        path.write_text(family_to_csv(family))

        def printed():
            assert run(["classify", str(path)]) == 0
            return capsys.readouterr().out

        assert at_each_block(printed) == [report_to_json(classify(family))] * len(BLOCKS)

    def test_the_report_parts_stay_within_four_matrices(self):
        # the parts the CLI writes for the n = 600 tree, whose report holds
        # K_{X,Y}: the text itself is about 2.9 int64 matrices, and each edge
        # block's cells are held only while the block is written.  Building
        # every level of nesting as a copy of the text below it took 14.5.
        n = 600
        report = classify(two_weights(generate(GenSpec("tree", n, 1))))
        tracemalloc.start()
        try:
            report_parts(report)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n * n


def by_blocks(text: str, cmp: Cmp = EXACT):
    """``parse_family_csv`` with the plain-int route off: the block reader."""
    with mock.patch.object(serialize, "_read_ints", lambda rows, n: None):
        return parse_family_csv(text, cmp)


def read_as(parse, text: str, cmp: Cmp = EXACT):
    """The dtype, scale and entries of the array ``parse`` reads, or its error."""
    try:
        family = parse(text, cmp)
    except ParseError as exc:
        return "error", str(exc)
    a, scale = family.scaled
    return a.dtype.name, scale, a.tolist()


def parsed_values(parse, text: str, cmp: Cmp = EXACT):
    """The family's values that ``parse`` reads, or its error."""
    try:
        return parse(text, cmp).values
    except ParseError as exc:
        return "error", str(exc)


def with_cell(token) -> str:
    """The unit triangle with ``token`` at both cells of the pair (1, 2)."""
    return f"0,{token},1\n{token},0,1\n1,1,0\n"


# Documents the int route reads, and documents it leaves to the block
# reader: spellings np.fromstring would read or refuse otherwise, values
# from 10^18 on (np.fromstring clamps beyond int64), empty cells, and cells
# past PLAIN_TOKEN_MAX characters, which go to parse_number.
INT_ROUTE = {
    "leading zeros": with_cell("007"),
    "below 10^18": with_cell(10**18 - 1),
    "282 zeros": with_cell("0" * 282 + "1"),
}
BLOCK_ROUTE = {
    "plus": with_cell("+1"),
    "space": with_cell(" 1"),
    "10^18": with_cell(10**18),
    "int64 max": with_cell(2**63 - 1),
    "2^63": with_cell(2**63),
    "10^19": with_cell(10**19),
    "point": with_cell("1.5"),
    "empty cell": "0,,1\n1,0,1\n1,1,0\n",
    "leading comma": ",1,1\n1,0,1\n1,1,0\n",
    "trailing comma": "0,1,1\n1,0,1\n1,1,\n",
    "283 zeros": with_cell("0" * 283 + "1"),
    "400 digits": with_cell("0" * 399 + "1"),
    "4301 digits": with_cell("0" * 4300 + "1"),
}
ROUTES = {**INT_ROUTE, **BLOCK_ROUTE}


class TestPlainIntRoute:
    """A matrix document of plain unsigned ASCII integers below 10^18 is
    read by one ``np.fromstring``; it and every other document read as the
    block reader reads them, with the same errors."""

    @pytest.mark.parametrize("case", ROUTES)
    def test_each_guard_case_reads_as_the_block_reader(self, case):
        text = ROUTES[case]
        assert read_as(parse_family_csv, text) == read_as(by_blocks, text)
        assert parsed_values(parse_family_csv, text) == parsed_values(oracles.parse_family_csv, text)

    def test_the_guard_cases_read_as_their_values(self):
        assert parse_family_csv(ROUTES["400 digits"]).d(1, 2) == 1
        assert parse_family_csv(ROUTES["283 zeros"]).d(1, 2) == 1
        assert parse_family_csv(ROUTES["282 zeros"]).d(1, 2) == 1
        assert parse_family_csv(ROUTES["below 10^18"]).scaled.array.dtype == np.int64
        assert parse_family_csv(ROUTES["10^18"]).scaled.array.dtype == np.int64
        assert parse_family_csv(ROUTES["int64 max"]).scaled.array.dtype == object
        with pytest.raises(ParseError, match="malformed number '0000"):
            parse_family_csv(ROUTES["4301 digits"])
        for case in ("empty cell", "leading comma", "trailing comma"):
            with pytest.raises(ParseError, match="malformed number ''"):
                parse_family_csv(ROUTES[case])

    def test_only_the_block_route_reads_cells_one_by_one(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(tokens, cmp):
            raise Reached

        monkeypatch.setattr(serialize, "_read_numbers", reached)
        for case, text in INT_ROUTE.items():
            assert parse_family_csv(text).d(1, 2) == int(text.split(",")[1]), case
        assert parse_family_csv(family_to_csv(two_weights(generate(GenSpec("tree", 70, 1))))).n == 70
        for case, text in BLOCK_ROUTE.items():
            with pytest.raises(Reached):
                parse_family_csv(text)
            with pytest.raises(Reached):
                parse_family_csv(text, Cmp(1e-9))
        with pytest.raises(Reached):
            parse_family_csv(INT_ROUTE["leading zeros"], Cmp(1e-9))

    def test_the_int_route_raises_no_warning(self):
        texts = [*INT_ROUTE.values(), family_to_csv(two_weights(generate(GenSpec("tree", 100, 1))))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in texts:
                parse_family_csv(text)

    @settings(WRITER_SETTINGS, max_examples=300)
    @given(st.data())
    def test_int_matrices_read_as_the_block_reader(self, data):
        # values past 10^18 and 2^62 (Python ints in the family), symmetric
        # or not, a zero diagonal or not, cells with leading zeros
        n = data.draw(st.integers(2, 6))
        value = st.integers(0, 20) | st.integers(0, 2**62) | st.sampled_from((10**18 - 1, 10**18))
        a = [[data.draw(value) for _ in range(n)] for _ in range(n)]
        if data.draw(st.booleans()):
            a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if data.draw(st.booleans()):
            for i in range(n):
                a[i][i] = 0
        pad = st.sampled_from(("", "", "", "0", "000"))
        text = "".join(",".join(data.draw(pad) + str(v) for v in row) + "\n" for row in a)
        assert read_as(parse_family_csv, text) == read_as(by_blocks, text)


class TestMatrixWriter:
    """``family_to_csv`` writes whole rows a block at a time, each cell as
    the cell-by-cell writer in ``oracles`` does."""

    @WRITER_SETTINGS
    @given(graphs(), st.booleans())
    def test_each_cell_is_written_as_format_number(self, graph, tolerance):
        cmp = Cmp(1e-9) if tolerance or any(isinstance(w, float) for *_e, w in graph.edges) else EXACT
        family = two_weights(graph, cmp)
        # one block; blocks of one row; and 13 // n rows a block, the last
        # one shorter at n = 4 and 5
        texts = []
        for block in (serialize.BLOCK_CELLS, 1, 13):
            with mock.patch.object(serialize, "BLOCK_CELLS", block):
                texts.append(family_to_csv(family))
        assert texts == [oracles.family_to_csv(family)] * 3

    @pytest.mark.parametrize("kind", ("int", "decimal"))
    @pytest.mark.parametrize("cmp", (EXACT, Cmp(1e-9)), ids=("exact", "tol"))
    def test_the_writer_holds_one_block_beyond_its_text(self, kind, cmp):
        # the n = 512 tree: 8 rows a block.  Filling an n x n array of cell
        # strings took 7.6 to 12 int64 matrices beyond the text.
        n = 512
        family = two_weights(generate(GenSpec("tree", n, 1, kind)), cmp)
        tracemalloc.start()
        try:
            text = family_to_csv(family)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - len(text) < 2 * 8 * n * n
        assert text == oracles.family_to_csv(family)


@pytest.fixture
def tmp_files(tmp_path, fig2_graph, fig2_family):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(graph_to_json(fig2_graph))
    matrix_path = tmp_path / "matrix.csv"
    matrix_path.write_text(family_to_csv(fig2_family))
    return str(graph_path), str(matrix_path)


class TestCli:
    def test_weights_round_trip(self, tmp_files, capsys, fig2_family):
        graph_path, _ = tmp_files
        assert run(["weights", graph_path]) == 0
        out = capsys.readouterr().out
        assert parse_family_csv(out).values == fig2_family.values

    def test_check_accepts(self, tmp_files, capsys):
        _, matrix_path = tmp_files
        assert run(["check", "--class", "caterpillar", matrix_path]) == 0
        assert "caterpillar: accepted" in capsys.readouterr().out

    def test_check_rejects_with_exit_1(self, tmp_files, capsys):
        _, matrix_path = tmp_files
        assert run(["check", "--class", "snake", matrix_path]) == 1
        assert "rejected" in capsys.readouterr().out

    def test_every_class_name_runs_the_recognizer_of_its_report_entry(self, tmp_path, capsys):
        # the unit 4-cycle: a polygon and a complete bipartite graph, no tree
        family = two_weights(WeightedGraph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)]))
        path = tmp_path / "c4.csv"
        path.write_text(family_to_csv(family))
        verdicts = classify(family).verdicts
        assert {r.accepted for r in verdicts.values()} == {True, False}
        for name, verdict in verdicts.items():
            assert run(["check", "--class", name.replace("_", "-"), str(path)]) == (0 if verdict else 1)
            assert capsys.readouterr().out.startswith(f"{name.replace('_', '-')}: ")

    def test_realize_json_matches_input_graph(self, tmp_files, capsys, fig2_graph):
        _, matrix_path = tmp_files
        assert run(["realize", "--class", "tree", matrix_path]) == 0
        out = capsys.readouterr().out
        assert graph_from_json(out) == fig2_graph

    def test_realize_dot(self, tmp_files, capsys):
        _, matrix_path = tmp_files
        assert run(["realize", "--class", "tree", "--format", "dot", matrix_path]) == 0
        assert capsys.readouterr().out.startswith("graph realization {")

    def test_classify_report(self, tmp_files, capsys):
        _, matrix_path = tmp_files
        assert run(["classify", matrix_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classes"]["tree"]["accepted"] is True
        assert doc["classes"]["snake"]["accepted"] is False
        assert doc["conditions"]["four_point"] is True

    def test_prune_removes_useless_edge(self, tmp_path, capsys):
        g = WeightedGraph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 2)])
        path = tmp_path / "g.json"
        path.write_text(graph_to_json(g))
        assert run(["prune", str(path)]) == 0
        pruned = graph_from_json(capsys.readouterr().out)
        assert pruned.edge_pairs() == {(1, 2), (2, 3)}

    def test_prune_prints_a_one_vertex_document_back(self, capsys, monkeypatch):
        import io

        doc = '{"n": 1, "edges": []}'
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert run(["prune", "-"]) == 0
        out, err = capsys.readouterr()
        assert out == json.dumps(json.loads(doc), indent=2) + "\n" and err == ""
        # a family still needs two vertices
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert run(["weights", "-"]) == 2
        assert capsys.readouterr().err == "error: 2-weights need n >= 2\n"

    def test_gen_is_deterministic(self, capsys):
        assert run(["gen", "--class", "tree", "--n", "6", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert run(["gen", "--class", "tree", "--n", "6", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        g = graph_from_json(first)
        assert g.n == 6 and len(g.edges) == 5

    def test_gen_accepts_hyphenated_class(self, capsys):
        assert run(["gen", "--class", "complete-bipartite", "--n", "5", "--seed", "1"]) == 0
        graph_from_json(capsys.readouterr().out)

    def test_verify_ok_and_mismatch(self, tmp_files, tmp_path, capsys):
        graph_path, matrix_path = tmp_files
        assert run(["verify", graph_path, matrix_path]) == 0
        assert "verified" in capsys.readouterr().out
        other = tmp_path / "other.json"
        other.write_text(graph_to_json(WeightedGraph(18, [(k, k + 1, 1) for k in range(1, 18)])))
        assert run(["verify", str(other), matrix_path]) == 1

    def test_input_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n2,0\n")
        assert run(["check", "--class", "tree", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gen_bad_class_exit_2(self, capsys):
        assert run(["gen", "--class", "pyramid", "--n", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE_CSV))
        assert run(["check", "--class", "complete", "-"]) == 0

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_files, tmp_path, capsys, monkeypatch):
        import io

        # Excel's "CSV UTF-8" and some editors start a file with U+FEFF
        graph_path, matrix_path = tmp_files
        for command, path in (("classify", matrix_path), ("prune", graph_path)):
            assert run([command, path]) == 0
            plain = capsys.readouterr().out
            marked = tmp_path / f"bom-{command}"
            marked.write_bytes(b"\xef\xbb\xbf" + open(path, "rb").read())
            assert run([command, str(marked)]) == 0
            assert capsys.readouterr().out == plain
            monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + open(path).read()))
            assert run([command, "-"]) == 0
            assert capsys.readouterr().out == plain

    def test_tol_flag_enables_float_mode(self, tmp_path, capsys):
        # entries off by 1e-12: exact mode rejects the snake, float mode accepts
        near = "0,1,2.000000000001\n1,0,1\n2.000000000001,1,0\n"
        path = tmp_path / "near.csv"
        path.write_text(near)
        assert run(["check", "--class", "snake", str(path)]) == 1
        capsys.readouterr()
        assert run(["check", "--class", "snake", str(path), "--tol"]) == 0

    def test_tol_value_sets_the_tolerance(self, tmp_path, capsys):
        near = "0,1,2.000000000001\n1,0,1\n2.000000000001,1,0\n"
        path = tmp_path / "near.csv"
        path.write_text(near)
        assert run(["check", "--class", "snake", str(path), "--tol", "1e-15"]) == 1
        capsys.readouterr()
        assert run(["check", "--class", "snake", str(path), "--tol", "1e-6"]) == 0

    def test_tol_before_the_path_keeps_the_path(self, tmp_path, capsys):
        # a non-number after --tol is the matrix path, and --tol its default
        near = "0,1,2.000000000001\n1,0,1\n2.000000000001,1,0\n"
        path = tmp_path / "near.csv"
        path.write_text(near)
        assert run(["check", "--class", "snake", "--tol", str(path)]) == 0
        assert run(["check", "--tol", "--class", "snake", str(path)]) == 0
        assert run(["check", "--class", "snake", "--tol", "1e-15", str(path)]) == 1
        capsys.readouterr()
        assert run(["classify", "--tol", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["classes"]["snake"]["accepted"] is True

    def test_bad_tolerance_is_input_error(self, tmp_files, capsys):
        _, matrix_path = tmp_files
        for args in (["check", "--class", "snake", matrix_path], ["classify", matrix_path]):
            for bad in ("0", "-1", "nan", "inf"):
                assert run([*args, "--tol", bad]) == 2, (args[0], bad)
                captured = capsys.readouterr()
                assert captured.out == ""
                lines = captured.err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: --tol: tolerance"), lines


class TestHostileInput:
    def test_float_overflow_is_input_error(self, tmp_path, capsys):
        from metric_realize import Cmp

        with pytest.raises(ParseError, match="out of float range"):
            parse_number("1e400", Cmp(1e-9))
        big = tmp_path / "big.csv"
        big.write_text("0,1e400\n1e400,0\n")
        assert run(["check", "--class", "tree", str(big), "--tol"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exact_values_beyond_float_range(self, tmp_path, capsys):
        matrix = tmp_path / "huge.csv"
        matrix.write_text("0,1e400,2e400\n1e400,0,1e400\n2e400,1e400,0\n")
        assert run(["classify", str(matrix)]) == 0
        assert json.loads(capsys.readouterr().out)["classes"]["snake"]["accepted"] is True
        graph = tmp_path / "huge.json"
        graph.write_text(json.dumps({"n": 3, "edges": [
            {"u": 1, "v": 2, "w": "1e400"}, {"u": 2, "v": 3, "w": "1e400"},
        ]}))
        assert run(["weights", str(graph)]) == 0
        assert parse_family_csv(capsys.readouterr().out).d(1, 3) == 2 * 10**400

    @pytest.mark.parametrize("command", ["weights", "prune"])
    def test_float_two_weights_beyond_the_float_range_are_input_errors(self, tmp_path, capsys, command):
        # each weight is a float, but D_13 = 2e308 is not
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 3, "edges": [
            {"u": 1, "v": 2, "w": "1e308"}, {"u": 2, "v": 3, "w": "1e308"},
        ]}))
        assert run([command, str(graph), "--tol"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a 2-weight exceeds the float range: a path's total weight overflows float64\n"
        assert run([command, str(graph)]) == 0  # exact mode has no range

    @pytest.mark.parametrize("command", ["classify", "prune", "verify"])
    @pytest.mark.parametrize("case", ["missing", "directory", "not UTF-8"])
    def test_an_unreadable_input_exits_2_with_one_line(self, tmp_files, tmp_path, capsys, command, case):
        graph_path, matrix_path = tmp_files
        if case == "missing":
            bad, reason = tmp_path / "nonexistent", "cannot read"
        elif case == "directory":
            bad, reason = tmp_path, "cannot read"
        else:
            bad, reason = tmp_path / "latin1", "is not UTF-8 text"
            bad.write_bytes(open(matrix_path if command == "classify" else graph_path, "rb").read() + b"\xe9\xff")
        # the graph is read first, so verify names it even beside a good matrix
        argv = {"classify": [str(bad)], "prune": [str(bad)], "verify": [str(bad), matrix_path]}[command]
        assert run([command, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {reason} {bad}" if reason == "cannot read" else f"error: {bad} {reason}")

    @pytest.mark.parametrize("command", ["classify", "prune"])
    def test_non_utf8_stdin_exits_2_with_one_line(self, capsys, monkeypatch, command):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0,1\n\xff,0\n"), encoding="utf-8"))
        assert run([command, "-"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: standard input is not UTF-8 text: invalid start byte at byte 4\n"

    def test_oversized_graph_document_is_input_error(self, tmp_path, capsys):
        graph = tmp_path / "big.json"
        graph.write_text(json.dumps({"n": 10_000, "edges": [{"u": 1, "v": 2, "w": "1"}]}))
        assert run(["weights", str(graph)]) == 2
        err = capsys.readouterr().err
        assert err == "error: 1 edges cannot connect 10000 vertices; a connected graph needs at least 9999\n"
        graph.write_text('{"n": 1e400, "edges": []}')  # JSON reads it as float inf
        assert run(["weights", str(graph)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed graph document")

    @pytest.mark.parametrize("command", ["prune", "weights"])
    @pytest.mark.parametrize(
        "edges, weight",
        [
            ([{"u": 1, "v": 2, "w": "-100000000000000000000000"}], "-100000000000000000000000"),
            ([{"u": 1, "v": 2, "w": -10**23}], "-100000000000000000000000"),
            ([{"u": 1, "v": 2, "w": "1"}, {"u": 2, "v": 3, "w": str(-(2**63) - 1)}], str(-(2**63) - 1)),
        ],
        ids=["string", "json-integer", "beside-a-valid-edge"],
    )
    def test_a_weight_below_int64_is_a_nonpositive_weight(self, capsys, monkeypatch, command, edges, weight):
        import io

        doc = json.dumps({"n": len(edges) + 1, "edges": edges})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert run([command, "-"]) == 2
        u, v = edges[-1]["u"], edges[-1]["v"]
        assert capsys.readouterr() == ("", f"error: nonpositive weight on edge ({u},{v}): {weight}\n")

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "edges": [{"u": 1.6, "v": 2, "w": "1"}]},
            {"n": 2, "edges": [{"u": 2, "v": True, "w": "1"}]},
            {"n": 3.9, "edges": [{"u": 1, "v": 2, "w": "1"}, {"u": 2, "v": 3, "w": "1"}]},
        ],
        ids=["float-u", "bool-v", "float-n"],
    )
    def test_non_integral_vertex_ids_are_input_errors(self, tmp_path, capsys, doc):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(doc))
        assert run(["prune", str(graph)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed graph document: ") and err.count("\n") == 1
        assert "must be an integer" in err

    def test_vertex_limit_is_checked_before_any_matrix(self, tmp_path, capsys, monkeypatch):
        from metric_realize import kernel, serialize
        from metric_realize.serialize import MAX_N

        def no_matrix(*args):
            raise AssertionError("an n x n matrix was built")

        monkeypatch.setattr(kernel, "all_pairs", no_matrix)
        monkeypatch.setattr(kernel, "pair_matrix", no_matrix)
        monkeypatch.setattr(kernel, "row_matrix", no_matrix)
        limit = f"error: {MAX_N + 1} vertices exceed the limit of {MAX_N}\n"

        def path(n):
            return json.dumps({"n": n, "edges": [{"u": v, "v": v + 1, "w": "1"} for v in range(1, n)]})

        graph = tmp_path / "big.json"
        graph.write_text(path(MAX_N + 1))
        for command in ("weights", "prune"):
            assert run([command, str(graph)]) == 2
            assert capsys.readouterr().err == limit
        assert graph_from_json(path(MAX_N)).n == MAX_N
        # the rows are counted before any cell is read
        def no_cell(*args):
            raise AssertionError("a cell was read")

        monkeypatch.setattr(serialize, "_read_numbers", no_cell)
        matrix = tmp_path / "big.csv"
        matrix.write_text("0\n" * (MAX_N + 1))
        assert run(["classify", str(matrix)]) == 2
        assert capsys.readouterr().err == limit
        with pytest.raises(ParseError, match=f"row 1 has 1 cells, expected {MAX_N}"):
            parse_family_csv("0\n" * MAX_N)
        # and before a generator lists a vertex
        assert run(["gen", "--class", "snake", "--n", str(MAX_N + 1)]) == 2
        assert capsys.readouterr() == ("", limit)
        with pytest.raises(GenerationError, match="1000000000 vertices exceed the limit"):
            GenSpec("complete", 10**9, 1)

    def test_closed_output_pipe_exits_2_without_traceback(self, tmp_files):
        import os
        import subprocess
        import sys

        import metric_realize

        _, matrix_path = tmp_files
        src = os.path.dirname(os.path.dirname(metric_realize.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        main = "from metric_realize.cli import main; main()"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            proc = subprocess.run(
                [sys.executable, "-c", main, "classify", matrix_path],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=path),
                timeout=60,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_classify_to_a_reader_that_closes_early_exits_2(self, tmp_path, unbuffered):
        import os
        import subprocess
        import sys

        import metric_realize

        # unit K60: a report of about 160 kB, which one write cannot put
        # into a pipe whose reader stops after the first line; the same
        # under ``python -u`` (PYTHONUNBUFFERED), where stdout's text layer
        # sits on the file itself
        n = 60
        matrix = tmp_path / "k60.csv"
        matrix.write_text("".join(",".join("0" if i == j else "1" for j in range(n)) + "\n" for i in range(n)))
        src = os.path.dirname(os.path.dirname(metric_realize.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        main = "from metric_realize.cli import main; main()"
        proc = subprocess.Popen(
            [sys.executable, "-c", main, "classify", str(matrix)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2, err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_tol_disconnected_support_gives_verdicts(self, tmp_path, capsys):
        # within the tolerance, 2 and 3 nearly coincide and S is disconnected
        path = tmp_path / "near.csv"
        path.write_text("0,1,1\n1,0,1e-10\n1,1e-10,0\n")
        for class_id in ("snake", "caterpillar", "tree", "planar"):
            assert run(["check", "--class", class_id, str(path), "--tol"]) == 1
            assert "rejected" in capsys.readouterr().out
        assert run(["classify", str(path), "--tol"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not any(c["accepted"] for c in report["classes"].values())


def test_cli_import_leaves_networkx_unloaded():
    # networkx is imported only where a planarity test needs its left-right
    # run (and by the planar generator), not on every CLI start
    import os
    import subprocess
    import sys

    import metric_realize

    src = os.path.dirname(os.path.dirname(metric_realize.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    guard = "import metric_realize.cli, sys; assert 'networkx' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", guard],
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
