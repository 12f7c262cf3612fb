import random
from fractions import Fraction

import pytest

from metric_realize import DistanceFamily, WeightedGraph, two_weights


def fam(n, entries, cmp=None):
    """Family from {(i, j): value} with i < j."""
    from metric_realize import EXACT

    return DistanceFamily(n, dict(entries), cmp or EXACT)


def with_value(family, i, j, value):
    """Copy of the family with the entry (i, j) replaced (for perturbation tests)."""
    values = dict(family.values)
    values[min(i, j), max(i, j)] = value
    return DistanceFamily(family.n, values, family.cmp)


def with_cmp(family, cmp):
    """The family's values under another comparison mode."""
    return DistanceFamily(family.n, family.values, cmp)


def fam_of(n, edges):
    """Family of 2-weights of the graph with the given weighted edges."""
    return two_weights(WeightedGraph(n, edges))


def random_connected_graph(n, rng, extra_edges=None):
    """Random connected graph: random labeled tree plus extra chords."""
    from metric_realize.generators import random_prufer_tree

    edges = {tuple(sorted(e)) for e in random_prufer_tree(n, rng)}
    candidates = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in edges
    ]
    rng.shuffle(candidates)
    k = rng.randint(0, n) if extra_edges is None else extra_edges
    edges.update(candidates[:k])
    return WeightedGraph(n, [(u, v, rng.randint(1, 20)) for u, v in sorted(edges)])


FIG2_EDGES = [
    (1, 2, 2),
    (2, 5, 3),
    (5, 7, 1),
    (7, 9, Fraction(5, 2)),
    (9, 11, 1),
    (11, 12, Fraction(7, 2)),
    (2, 3, 1),
    (5, 4, Fraction(13, 10)),
    (5, 6, Fraction(16, 5)),
    (9, 8, Fraction(21, 10)),
    (9, 10, Fraction(5, 2)),
    (2, 14, 1),
    (5, 13, 2),
    (7, 18, 1),
    (9, 17, 3),
    (9, 16, 1),
    (9, 15, 2),
]


@pytest.fixture(scope="session")
def fig2_graph():
    """The 18-vertex worked caterpillar: spine 1-2-5-7-9-11-12 with pendant
    leaves 3,4,6,8,10,13,...,18 hanging off the spine."""
    return WeightedGraph(18, FIG2_EDGES)


@pytest.fixture(scope="session")
def fig2_family(fig2_graph):
    return two_weights(fig2_graph)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
