"""Output corpus: a digest of what the command line prints for a fixed grid
of generated instances, so that a change to any printed byte is seen.

A case is a pipeline of ``metric-realize`` command lines run in-process by
``cli.run``, each stage reading the stdout of the stage before it as its
stdin (the first reads nothing).  Its digest is the first 16 hex digits of
the SHA-256 of the last stage's exit code, stdout and stderr.  The cases:

- ``gen`` in JSON and DOT for every class, n in SIZES, weight model, (lo,
  hi) in RANGES and seed in SEEDS, refusals (a polygon with n = 2) included;
- ``weights -`` and ``prune -``, exact and with ``--tol``, on every ``gen``
  JSON output;
- ``classify -``, exact and with ``--tol``, on the exact ``weights`` CSV of
  every generated document with n <= CLASSIFY_MAX_N;
- on the documents of seed 0 with n in DETAIL_SIZES, each exact and with
  ``--tol``: ``check`` and ``realize`` in JSON and DOT for every class name
  on the exact ``weights`` CSV, ``prune - --format dot``, and ``verify
  p.json -`` of the ``weights`` CSV, where p.json holds what ``prune -``
  prints for the document in the same mode;
- on each named document of DOCUMENTS (the documents that the CI smoke step
  writes with ``printf``, the K_3 and the triangle of weight 1e308, and the
  tree with n = 300), each exact and with ``--tol``: ``classify`` and
  ``check --class snake`` on a matrix, ``weights`` and ``prune`` on a graph;
- the same on each hostile document of FUZZ_DOCUMENTS, built from the fuzz
  of ``tests/test_cli_fuzz.py`` with no draw: per token of its ``HOSTILE``,
  a 3 x 3 matrix with the token in cells (1,2) and (2,1) and a 2-vertex
  graph with the token as its weight, and one document per hostile shape
  (a short row, an extra row, MAX_N + 1 rows, a missing key, a non-integer
  vertex, n = -1 and n = 2^64).

``tests/output_corpus.json`` maps each ``gen`` command line, or
``doc:<name>`` for a named document and ``fuzz:<name>`` for a hostile one,
with ``cell-<k>`` and ``weight-<k>`` for the k-th ``HOSTILE`` token, to the
digests of its pipelines, keyed
by the rest of the pipeline ("" for the ``gen`` line itself); a case is
named by the two joined.  To rewrite it after a
deliberate change of output:

    PYTHONPATH=src python tests/output_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import sys
import tempfile
from typing import Dict, Tuple, Union

from metric_realize.cli import CLASS_NAMES, run
from metric_realize.generators import CLASS_MIN_N
from metric_realize.serialize import MAX_N
from test_cli_fuzz import HOSTILE

PATH = pathlib.Path(__file__).with_name("output_corpus.json")

CLASSES = sorted(name.replace("_", "-") for name in CLASS_MIN_N)
SIZES = (2, 3, 8, 30, 70)
WEIGHTS = ("int", "decimal")
RANGES = ((1, 20), (1, 1), (3, 5))
SEEDS = (0, 1, 2)
CLASSIFY_MAX_N = 30
DETAIL_SIZES = (8, 30)
MODES = ("", " --tol")

# The named documents, by file name; a ``gen`` line stands for what it prints.
DOCUMENTS = {
    "mix.csv": b"0,1.5,7/3\n1.5,0,2.50\n7/3,2.50,0\n",
    "violation.csv": b"0,1,5\n1,0,1\n5,1,0\n",
    "k33.csv": (
        b"0,1e308,1e308,5e307,5e307,5e307\n1e308,0,1e308,5e307,5e307,5e307\n1e308,1e308,0,5e307,5e307,5e307\n"
        b"5e307,5e307,5e307,0,1e308,1e308\n5e307,5e307,5e307,1e308,0,1e308\n5e307,5e307,5e307,1e308,1e308,0\n"
    ),
    "far.csv": b"0,1e308,1.5e308\n1e308,0,1e308\n1.5e308,1e308,0\n",
    "huge.csv": b"0,1e308\n1e308,0\n",
    "k3-1e308.csv": b"0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n",
    "empty.csv": b"0,1.5\n,0\n",
    "dots.csv": b"0,1.2.3\n1.2.3,0\n",
    "latin1.csv": b"0,1\n\xff,0\n",
    "short-row.csv": b"0,x,1\n1,0,1\n1,1\n",
    "narrow.csv": b"0,16383,32766\n16383,0,16383\n32766,16383,0\n",
    "wide.csv": b"0,32767,65535\n32767,0,32768\n65535,32768,0\n",
    "one.json": b'{"n": 1, "edges": []}',
    "far.json": b'{"n": 3, "edges": [{"u": 1, "v": 2, "w": "1e308"}, {"u": 2, "v": 3, "w": "1e308"}]}',
    "triangle-1e308.json": (
        b'{"n": 3, "edges": [{"u": 1, "v": 2, "w": "1e308"}, {"u": 2, "v": 3, "w": "1e308"}, '
        b'{"u": 1, "v": 3, "w": "1e308"}]}'
    ),
    "huge_n.json": b'{"n": 18446744073709551616, "edges": [{"u": 1, "v": 18446744073709551616, "w": "1"}]}',
    "loop.json": b'{"n": 2, "edges": [{"u": 1, "v": 1, "w": "1"}, {"u": 1, "v": 2, "w": "1"}]}',
    "twin.json": b'{"n": 2, "edges": [{"u": 1, "v": 2, "w": "1"}, {"u": 2, "v": 1, "w": "1"}]}',
    "below.json": b'{"n": 2, "edges": [{"u": 1, "v": 2, "w": "-100000000000000000000000"}]}',
    "narrow.json": b'{"n": 3, "edges": [{"u": 1, "v": 2, "w": "16383"}, {"u": 2, "v": 3, "w": "16383"}]}',
    "wide.json": b'{"n": 3, "edges": [{"u": 1, "v": 2, "w": "32767"}, {"u": 2, "v": 3, "w": "32768"}]}',
    "tree-300.json": "gen --class tree --n 300 --seed 1",
}


def _matrix(cells: str) -> bytes:
    """A 3 x 3 matrix of unit distances with ``cells`` in (1,2) and (2,1)."""
    return f"0,{cells},1\n{cells},0,1\n1,1,0\n".encode()


def _graph(n, edge) -> bytes:
    return json.dumps({"n": n, "edges": [edge]}).encode()


FUZZ_DOCUMENTS = {
    **{f"cell-{k}.csv": _matrix(token) for k, token in enumerate(HOSTILE)},
    **{f"weight-{k}.json": _graph(2, {"u": 1, "v": 2, "w": token}) for k, token in enumerate(HOSTILE)},
    "short-row.csv": b"0,1,1\n1,0\n1,1,0\n",
    "extra-row.csv": _matrix("1") + b"1,1,1\n",
    "above-max-n.csv": _matrix("1") + b"0\n" * (MAX_N + 1 - 3),
    "missing-key.json": _graph(2, {"u": 1, "v": 2}),
    "non-integer-vertex.json": _graph(2, {"u": 1.5, "v": 2, "w": "1"}),
    "n-negative.json": _graph(-1, {"u": 1, "v": 2, "w": "1"}),
    "n-2^64.json": _graph(2**64, {"u": 1, "v": 2, "w": "1"}),
}
DOCUMENT_LINES = {".csv": ("classify -", "check --class snake -"), ".json": ("weights -", "prune -")}


def run_line(line: str, stdin: Union[str, bytes]) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr of ``metric-realize <line>`` on ``stdin``,
    which bytes that are not UTF-8 reach as they are."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    data = stdin if isinstance(stdin, bytes) else stdin.encode()
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(line.split())
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(result: Tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16]


def compute() -> Dict[str, Dict[str, str]]:
    """Every case's digest, keyed as in ``output_corpus.json``."""
    corpus = {}
    with tempfile.TemporaryDirectory() as tmp:
        pruned = pathlib.Path(tmp, "p.json")
        for cls, n, weights, (lo, hi), seed in itertools.product(CLASSES, SIZES, WEIGHTS, RANGES, SEEDS):
            gen = f"gen --class {cls} --n {n} --seed {seed} --weights {weights} --lo {lo} --hi {hi}"
            printed = {"": run_line(gen, ""), " --format dot": run_line(gen + " --format dot", "")}
            doc = printed[""][1]
            for line in ("weights -", "weights - --tol", "prune -", "prune - --tol"):
                printed[" | " + line] = run_line(line, doc)
            code, csv, _err = printed[" | weights -"]
            if code == 0 and n <= CLASSIFY_MAX_N:
                for line in ("classify -", "classify - --tol"):
                    printed[" | weights - | " + line] = run_line(line, csv)
            if code == 0 and seed == 0 and n in DETAIL_SIZES:
                for mode in MODES:
                    for name in CLASS_NAMES:
                        for line in (f"check --class {name} -", f"realize --class {name} -", f"realize --class {name} --format dot -"):
                            printed[f" | weights - | {line}{mode}"] = run_line(line + mode, csv)
                    printed[f" | prune - --format dot{mode}"] = run_line(f"prune - --format dot{mode}", doc)
                    pruned.write_text(printed[" | prune -" + mode][1])
                    line = f"verify p.json -{mode}"
                    printed[f" | weights -{mode} | {line}"] = run_line(
                        line.replace("p.json", str(pruned)), printed[" | weights -" + mode][1]
                    )
            corpus[gen] = {tail: digest(result) for tail, result in printed.items()}
    named = [("doc:" + name, doc) for name, doc in DOCUMENTS.items()]
    for key, doc in named + [("fuzz:" + name, doc) for name, doc in FUZZ_DOCUMENTS.items()]:
        if isinstance(doc, str):
            doc = run_line(doc, "")[1]
        lines = DOCUMENT_LINES[pathlib.Path(key).suffix]
        corpus[key] = {f" | {line}{mode}": digest(run_line(line + mode, doc)) for line in lines for mode in MODES}
    return corpus


def flatten(corpus: Dict[str, Dict[str, str]]) -> Dict[str, str]:
    """Digest by case name: the ``gen`` line and the rest of its pipeline."""
    return {gen + tail: d for gen, tails in corpus.items() for tail, d in tails.items()}


def load() -> Dict[str, Dict[str, str]]:
    return json.loads(PATH.read_text())


def write(corpus: Dict[str, Dict[str, str]]) -> None:
    """One ``gen`` line and its digests per line of the file."""
    lines = (f"{json.dumps(gen)}: {json.dumps(tails)}" for gen, tails in corpus.items())
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write(compute())
