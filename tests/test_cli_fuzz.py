"""A grammar fuzz of every CLI input.  Matrix and graph documents are built
from hostile numbers (around +-2^63, beyond the float range, nan, inf, a
ratio, signed and pointed zeros, a lone point, the empty cell and a
non-ASCII digit) and hostile structure (short and extra rows, missing keys,
wrong JSON types, and n negative, beyond int64 or above ``MAX_N``), and run
through ``cli.run`` for every command that reads a document, exactly and
with ``--tol``.  No exception may leave ``run``, the exit code is 0, 1 or 2,
an exit of 2 prints one line on stderr, and no n x n matrix is built for an
n above ``MAX_N``.  The fuzz pins no verdict: the non-ASCII digit, for one,
reads as its value, as ``Fraction`` reads it."""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metric_realize import kernel
from metric_realize.cli import CLASS_NAMES, run
from metric_realize.serialize import MAX_N

FUZZ_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 2**63
HOSTILE = (
    *(str(sign * BIG + d) for sign in (1, -1) for d in (-1, 0, 1)),
    "1" + "0" * 400,
    "-1" + "0" * 400,
    "1e400",
    "1e-400",
    "nan",
    "inf",
    "7/3",
    "-0",
    "0.",
    ".",
    "",
    "١",  # ARABIC-INDIC DIGIT ONE
)
PLAIN = st.sampled_from(("1", "2", "3", "1.5", "0.25"))
NUMBERS = PLAIN | st.sampled_from(HOSTILE)

COMMANDS = ("classify", "check", "realize", "weights", "prune", "verify")


@st.composite
def matrix_documents(draw):
    """A symmetric n x n matrix, n 1-5, of plain cells, which reaches the
    recognizers; or one of plain or hostile cells, some cells or diagonal
    entries changed on one side, then at times a short row, an extra row,
    or the rows of a matrix above ``MAX_N``."""
    n = draw(st.integers(1, 5))
    hostile = draw(st.booleans())
    numbers = NUMBERS if hostile else PLAIN
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(numbers)
    lines = [",".join(row) for row in rows]
    if not hostile:
        return "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(NUMBERS)
    lines = [",".join(row) for row in rows]
    shape = draw(st.sampled_from(("square", "short row", "extra row", "above MAX_N")))
    if shape == "short row":
        k = draw(st.integers(0, n - 1))
        lines[k] = ",".join(rows[k][:-1])
    elif shape == "extra row":
        lines.insert(draw(st.integers(0, n)), ",".join(draw(st.lists(NUMBERS, min_size=1, max_size=n + 1))))
    elif shape == "above MAX_N":
        lines += ["0"] * (MAX_N + 1 - n)
    return "\n".join(lines) + "\n"


# JSON values that are no vertex, weight or count, or that leave int64
WRONG_TYPES = st.sampled_from((None, True, 1.5, "1", [], {}))
VERTICES = st.integers(1, 5) | st.sampled_from((0, -1, BIG, 2**64)) | WRONG_TYPES
JSON_WEIGHTS = st.sampled_from((BIG - 1, BIG, -BIG - 1, 10**400, 1, 1.5, float("nan"), float("inf"))) | WRONG_TYPES
COUNTS = st.sampled_from((-1, 0, BIG, 2**64, MAX_N + 1)) | WRONG_TYPES


@st.composite
def graph_documents(draw):
    """A path on n vertices, n 1-5, with chords and plain weights, which
    reaches the kernel; or one with hostile ends and weights (number text
    or JSON values), then at times a hostile n, a missing key, or the wrong
    JSON type in place of the edge list or of the document."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(1, n)
    hostile = draw(st.booleans())
    if hostile:
        vertex = vertex | VERTICES
    pairs = [(v, v + 1) for v in range(1, n)] + draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    edges = [{"u": u, "v": v, "w": draw(NUMBERS | JSON_WEIGHTS if hostile else PLAIN)} for u, v in pairs]
    doc = {"n": n, "edges": edges}
    if not hostile:
        return json.dumps(doc)
    doc["n"] = draw(st.just(n) | COUNTS)
    if edges and draw(st.booleans()):
        del draw(st.sampled_from(edges))[draw(st.sampled_from("uvw"))]
    shape = draw(st.sampled_from(("object", "no n", "no edges", "edges", "document")))
    if shape in ("no n", "no edges"):
        del doc[shape[3:]]
    elif shape == "edges":
        doc["edges"] = draw(WRONG_TYPES | st.just({"u": 1, "v": 2, "w": "1"}))
    elif shape == "document":
        doc = draw(WRONG_TYPES | st.just(edges))
    return json.dumps(doc)


def guarded(fn, size):
    """``fn`` behind a check that no n x n matrix above ``MAX_N`` is built."""

    def call(*args):
        assert size(*args) <= MAX_N, "an n x n matrix above MAX_N was built"
        return fn(*args)

    return call


def run_cli(argv, stdin):
    """Exit code, stdout and stderr of ``run(argv)`` with ``stdin`` as input."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        m.setattr(sys, "stdin", io.StringIO(stdin))
        m.setattr(kernel, "all_pairs", guarded(kernel.all_pairs, lambda n, *_rest: n))
        m.setattr(kernel, "row_matrix", guarded(kernel.row_matrix, lambda _blocks, width: width))
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ_SETTINGS
@given(
    st.sampled_from(COMMANDS),
    st.booleans(),
    st.sampled_from(CLASS_NAMES),
    st.sampled_from(("json", "dot")),
    matrix_documents(),
    graph_documents(),
)
def test_every_document_ends_in_an_exit_code(command, tolerant, class_name, fmt, matrix, graph):
    tol = ["--tol"] if tolerant else []
    with tempfile.TemporaryDirectory() as tmp:
        matrix_path = Path(tmp, "m.csv")
        matrix_path.write_text(matrix, encoding="utf-8")
        argv, stdin = {
            "classify": (["classify", "-"], matrix),
            "check": (["check", "--class", class_name, "-"], matrix),
            "realize": (["realize", "--class", class_name, "--format", fmt, "-"], matrix),
            "weights": (["weights", "-"], graph),
            "prune": (["prune", "--format", fmt, "-"], graph),
            "verify": (["verify", "-", str(matrix_path)], graph),
        }[command]
        code, out, err = run_cli(argv + tol, stdin)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err
