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
  prints for the document in the same mode.

``tests/output_corpus.json`` maps each ``gen`` command line to the digests
of its pipelines, keyed by the rest of the pipeline ("" for the ``gen``
line itself); a case is named by the two joined.  To rewrite it after a
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
from typing import Dict, Tuple

from metric_realize.cli import CLASS_NAMES, run
from metric_realize.generators import CLASS_MIN_N

PATH = pathlib.Path(__file__).with_name("output_corpus.json")

CLASSES = sorted(name.replace("_", "-") for name in CLASS_MIN_N)
SIZES = (2, 3, 8, 30, 70)
WEIGHTS = ("int", "decimal")
RANGES = ((1, 20), (1, 1), (3, 5))
SEEDS = (0, 1, 2)
CLASSIFY_MAX_N = 30
DETAIL_SIZES = (8, 30)
MODES = ("", " --tol")


def run_line(line: str, stdin: str) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr of ``metric-realize <line>`` on ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
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
