import json
import random
from fractions import Fraction

import pytest

from metric_realize import WeightedGraph, two_weights
from metric_realize.cli import run
from metric_realize.serialize import (
    ParseError,
    family_to_csv,
    format_number,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    parse_family_csv,
    parse_number,
)

from conftest import random_connected_graph

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

    def test_dot_output_shape(self):
        g = WeightedGraph(2, [(1, 2, Fraction(1, 2))])
        dot = graph_to_dot(g)
        assert dot.startswith("graph realization {")
        assert '1 -- 2 [label="0.5"];' in dot
        assert dot.endswith("}\n")


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

    def test_oversized_graph_document_is_input_error(self, tmp_path, capsys):
        graph = tmp_path / "big.json"
        graph.write_text(json.dumps({"n": 10_000, "edges": [{"u": 1, "v": 2, "w": "1"}]}))
        assert run(["weights", str(graph)]) == 2
        err = capsys.readouterr().err
        assert err == "error: 1 edges cannot connect 10000 vertices; a connected graph needs at least 9999\n"
        graph.write_text('{"n": 1e400, "edges": []}')  # JSON reads it as float inf
        assert run(["weights", str(graph)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed graph document")

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
        from metric_realize import kernel
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
        matrix = tmp_path / "big.csv"
        matrix.write_text("0\n" * (MAX_N + 1))
        assert run(["classify", str(matrix)]) == 2
        assert capsys.readouterr().err == limit
        with pytest.raises(ParseError, match=f"row 1 has 1 cells, expected {MAX_N}"):
            parse_family_csv("0\n" * MAX_N)

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
