"""Seeded inputs for the benchmark workloads.

Every graph is built here, independently of ``metric_realize.generators``, so
that the inputs stay fixed while the library changes.  Weights are whole
numbers of *units*: a unit is 1 for integer weights and 0.1 for decimal
weights, so every weight, every path sum and every 2-weight is an exact
integer number of units.  The program only ever sees the rendered text (CSV
matrix or graph JSON).

A workload is a fixed list of slots (kind, class, n, weights, mode).  The
seed changes the graphs drawn for the slots, not the slots themselves, so
runs with different seeds do the same amount of work of the same shape.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

Edge = Tuple[int, int, int]  # (u, v, weight in units), 1-based vertices

UNITS = {"int": 1, "decimal": 10}
WEIGHT_RANGE = (1, 20)  # in whole numbers, before scaling to units


@dataclass(frozen=True)
class Slot:
    kind: str  # "classify" or "graph"
    gen_class: str
    n: int
    weights: str  # "int" or "decimal"
    mode: str  # "exact" or "float"


@dataclass
class OpInput:
    """One pre-generated input: the text handed to the program, plus what the
    reference checks need (the generating graph and its 2-weights in units)."""

    slot: Slot
    text: str
    scale: int
    edges: List[Edge]
    dist: np.ndarray  # n x n int64 2-weights in units


# ---------------------------------------------------------------------------
# Graph generators (edges in units)
# ---------------------------------------------------------------------------


def _draw(rng: random.Random, scale: int, lo: int = WEIGHT_RANGE[0] * 10) -> int:
    """Uniform weight on the unit grid of [lo/10, 20]; ``lo`` is in tenths."""
    hi = WEIGHT_RANGE[1] * 10
    if scale == 1:
        return rng.randint(-(-lo // 10), hi // 10)
    return rng.randint(lo, hi)


def _relabel(n: int, pairs, rng: random.Random) -> List[Tuple[int, int]]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [(perm[u - 1], perm[v - 1]) for u, v in pairs]


def _random_tree(n: int, rng: random.Random) -> List[Tuple[int, int]]:
    """Random recursive tree: vertex k attaches to a uniform earlier vertex."""
    return _relabel(n, [(rng.randint(1, k - 1), k) for k in range(2, n + 1)], rng)


def _snake(n, rng):
    return _relabel(n, [(k, k + 1) for k in range(1, n)], rng)


def _caterpillar(n, rng):
    spine = rng.randint(2, n - 1)
    pairs = [(k, k + 1) for k in range(1, spine)]
    pairs += [(rng.randint(1, spine), leaf) for leaf in range(spine + 1, n + 1)]
    return _relabel(n, pairs, rng)


def _polygon(n, rng):
    return _relabel(n, [(k, k % n + 1) for k in range(1, n + 1)], rng)


def _with_chords(n, base, count, rng):
    present = {tuple(sorted(e)) for e in base}
    count = min(count, n * (n - 1) // 2 - len(present))
    chords = set()
    while len(chords) < count:
        u, v = rng.sample(range(1, n + 1), 2)
        e = (min(u, v), max(u, v))
        if e not in present:
            chords.add(e)
    return sorted(present | chords)


def _arbitrary_connected(n, rng):
    """Random tree plus n/3 random chords."""
    return _with_chords(n, _random_tree(n, rng), n // 3, rng)


def stacked_triangulation(n: int, rng: random.Random) -> List[Tuple[int, int]]:
    """Planar by construction: start from a triangle and insert each new
    vertex into a uniformly chosen face, joining it to the face's corners.
    Linear in n, unlike a planarity test per candidate edge."""
    pairs = [(1, 2), (2, 3), (1, 3)]
    faces = [(1, 2, 3)]
    for v in range(4, n + 1):
        k = rng.randrange(len(faces))
        a, b, c = faces[k]
        faces[k] = (a, b, v)
        faces += [(b, c, v), (a, c, v)]
        pairs += [(a, v), (b, v), (c, v)]
    return _relabel(n, pairs, rng)


def _sparse_planar(n, rng):
    """Stacked triangulation thinned to a random spanning tree plus about half
    of the remaining edges; every subgraph of a planar graph is planar."""
    pairs = stacked_triangulation(n, rng)
    rng.shuffle(pairs)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append((u, v))
        elif rng.random() < 0.5:
            kept.append((u, v))
    return kept


def gnp_connected(n: int, p: float, rng: random.Random) -> List[Tuple[int, int]]:
    """A random tree plus p * n(n-1)/2 random chords: G(n, p) with its edge
    count fixed at the expected value, so that every seed does the same work,
    and connected."""
    tree = _random_tree(n, rng)
    return _with_chords(n, tree, round(p * n * (n - 1) / 2), rng)


def _complete(n, rng):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def _complete_bipartite(n, rng):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    a = rng.randint(2, n - 2)
    return [(min(x, y), max(x, y)) for x in labels[:a] for y in labels[a:]]


# Minimum weight, in tenths, that makes every edge strictly shorter than any
# other path between its ends: 2 * 10.1 > 20 for complete graphs and
# 3 * 6.7 > 20 for complete bipartite ones (whose other paths have >= 3 edges).
_NARROW_LO = {"complete": 101, "complete_bipartite": 67}

_TOPOLOGY = {
    "snake": _snake,
    "caterpillar": _caterpillar,
    "tree": _random_tree,
    "polygon": _polygon,
    "arbitrary_connected": _arbitrary_connected,
    "planar": _sparse_planar,
    "complete": _complete,
    "complete_bipartite": _complete_bipartite,
}


def make_graph(gen_class: str, n: int, scale: int, rng: random.Random) -> List[Edge]:
    if gen_class.startswith("gnp"):
        pairs = gnp_connected(n, float(gen_class.split(":")[1]), rng)
    else:
        pairs = _TOPOLOGY[gen_class](n, rng)
    lo = _NARROW_LO.get(gen_class, WEIGHT_RANGE[0] * 10)
    return [(min(u, v), max(u, v), _draw(rng, scale, lo)) for u, v in pairs]


def distances(n: int, edges: List[Edge]) -> np.ndarray:
    """All-pairs 2-weights in units (scipy's Dijkstra on the unit weights)."""
    if not edges:
        return np.zeros((n, n), dtype=np.int64)
    u, v, w = (np.array(col) for col in zip(*edges))
    adj = csr_matrix((w.astype(np.float64), (u - 1, v - 1)), shape=(n, n))
    dist = shortest_path(adj, method="D", directed=False)
    if not np.isfinite(dist).all():
        raise ValueError("graph is not connected")
    return np.rint(dist).astype(np.int64)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def fmt_units(value: int, scale: int) -> str:
    if scale == 1 or value % scale == 0:
        return str(value // scale)
    return f"{value // scale}.{value % scale}"


def matrix_csv(dist: np.ndarray, scale: int) -> str:
    return "".join(
        ",".join(fmt_units(int(x), scale) for x in row) + "\n" for row in dist.tolist()
    )


def graph_json(n: int, edges: List[Edge], scale: int) -> str:
    doc = {"n": n, "edges": [{"u": u, "v": v, "w": fmt_units(w, scale)} for u, v, w in edges]}
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Per four classify slots: two exact-int, one exact-decimal, one float mode
# (decimal data read with --tol), each with a factor on n.  Exact decimals are
# Fractions, several times slower than ints, so they run at smaller n; this
# also mixes modes among the largest inputs, so that their costs have no wide
# gap for the 90th percentile to straddle.
_MODES = (
    ("int", "exact", 1.0),
    ("int", "exact", 1.0),
    ("decimal", "exact", 0.75),
    ("decimal", "float", 0.9),
)


def _classify_slots(classes, sizes) -> List[Slot]:
    """Every class at every size; the mode rotates along both axes so each
    class meets every mode."""
    slots = []
    for si, n in enumerate(sizes):
        for ci, c in enumerate(classes):
            weights, mode, factor = _MODES[(si + ci) % len(_MODES)]
            slots.append(Slot("classify", c, round(n * factor), weights, mode))
    return slots


def _span(lo: int, hi: int, count: int) -> List[int]:
    return [round(lo + (hi - lo) * k / (count - 1)) for k in range(count)]


def workload_slots(name: str, tiny: bool = False) -> List[Slot]:
    """The fixed slot list of a workload; ``tiny`` shrinks every n for tests.

    ``tree_like`` and ``dense_metric`` have 100 slots.  ``sparse_metric`` and
    ``graph_ops`` have 200 smaller ones: their per-input cost varies more from
    seed to seed, and more inputs near each percentile keep it steadier."""
    if name == "tree_like":
        sizes = [6, 7] if tiny else _span(8, 20, 25)
        return _classify_slots(("snake", "caterpillar", "tree", "tree"), sizes)
    if name == "sparse_metric":
        sizes = [6, 7] if tiny else _span(8, 20, 50)
        return _classify_slots(("polygon", "arbitrary_connected", "planar", "arbitrary_connected"), sizes)
    if name == "dense_metric":
        sizes = [6, 7] if tiny else _span(8, 21, 50)
        return _classify_slots(("complete", "complete_bipartite"), sizes)
    if name == "graph_ops":
        # Exact decimal weights are Fractions, about 20x slower per step than
        # ints, so their graphs are smaller.
        sizes = {"int": [8, 9], "decimal": [6, 7]} if tiny else {
            "int": _span(32, 80, 60),
            "decimal": _span(12, 24, 40),
        }
        return [
            Slot("graph", gen_class, n, weights, "exact")
            for weights in ("int", "decimal")
            for n in sizes[weights]
            for gen_class in ("arbitrary_connected", "gnp:0.08")
        ]
    raise KeyError(name)


WORKLOADS = ("tree_like", "sparse_metric", "dense_metric", "graph_ops")


def make_inputs(workload: str, seed: int, tiny: bool = False) -> List[OpInput]:
    inputs = []
    for idx, slot in enumerate(workload_slots(workload, tiny)):
        rng = random.Random(f"{workload}|{seed}|{idx}")
        scale = UNITS[slot.weights]
        edges = make_graph(slot.gen_class, slot.n, scale, rng)
        dist = distances(slot.n, edges)
        if slot.kind == "classify":
            text = matrix_csv(dist, scale)
        else:
            text = graph_json(slot.n, edges, scale)
        inputs.append(OpInput(slot, text, scale, edges, dist))
    return inputs
