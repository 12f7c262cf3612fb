import collections

import output_corpus


def test_every_case_prints_what_the_corpus_records():
    expected = output_corpus.flatten(output_corpus.load())
    actual = output_corpus.flatten(output_corpus.compute())
    changed = sorted(name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name))
    assert not changed, (
        f"{len(changed)} of {len(expected)} cases print other bytes than the corpus records "
        "(rewrite it with `PYTHONPATH=src python tests/output_corpus.py` if the change is meant):\n"
        + "\n".join(changed)
    )


def test_the_corpus_covers_the_grid():
    # 8 classes x 5 sizes x 2 weight models x 3 ranges x 3 seeds = 720 gen
    # lines, each in JSON and DOT; weights and prune, exact and with --tol, on
    # each; classify, exact and with --tol, on the weights CSV of each with
    # n <= 30, less the 18 refused polygons with n = 2.  On the 96 documents
    # of seed 0 with n in {8, 30}, exact and with --tol: check, realize and
    # realize in DOT for each of the 9 class names, prune in DOT and verify.
    # On the 12 named matrices and 10 named graphs, and on the 21 hostile
    # matrices (18 tokens, 3 shapes) and 22 hostile graphs (18 tokens, 4
    # shapes), exact and with --tol: classify and check on each matrix,
    # weights and prune on each graph.
    last_commands = collections.Counter(
        name.split(" | ")[-1].split()[0] for name in output_corpus.flatten(output_corpus.load())
    )
    assert last_commands == {
        "gen": 1440,
        "weights": 1440 + (10 + 22) * 2,
        "prune": 1440 + 96 * 2 + (10 + 22) * 2,
        "classify": 1116 + (12 + 21) * 2,
        "check": 96 * 2 * 9 + (12 + 21) * 2,
        "realize": 96 * 2 * 9 * 2,
        "verify": 96 * 2,
    }
