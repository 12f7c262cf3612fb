"""Seeded random instance generators for every graph class.

Generators are deterministic in the full GenSpec.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .comparison import Number
from .graph import WeightedGraph
from .serialize import MAX_N

CLASS_MIN_N = {
    "snake": 2,
    "caterpillar": 2,
    "tree": 2,
    "polygon": 3,
    "complete": 2,
    "complete_bipartite": 2,
    "planar": 2,
    "arbitrary_connected": 2,
}


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class GenSpec:
    """Deterministic instance description: class, size, seed, weight model.

    ``weight_kind`` is "int" (uniform integers in [lo, hi]) or "decimal"
    (multiples of 0.1 in [lo, hi], kept exact as Fractions).
    """

    class_id: str
    n: int
    seed: int
    weight_kind: str = "int"
    lo: int = 1
    hi: int = 20

    def __post_init__(self):
        if self.class_id not in CLASS_MIN_N:
            raise GenerationError(f"unknown class {self.class_id!r}")
        if self.n < CLASS_MIN_N[self.class_id]:
            raise GenerationError(
                f"class {self.class_id} needs n >= {CLASS_MIN_N[self.class_id]}, got {self.n}"
            )
        if self.n > MAX_N:
            raise GenerationError(f"{self.n} vertices exceed the limit of {MAX_N}")
        if self.weight_kind not in ("int", "decimal"):
            raise GenerationError(f"unknown weight model {self.weight_kind!r}")
        if self.lo < 1 or self.lo > self.hi:
            raise GenerationError(f"bad weight range [{self.lo},{self.hi}]")

    def rng(self) -> random.Random:
        return random.Random(
            f"{self.class_id}|{self.n}|{self.seed}|{self.weight_kind}|{self.lo}|{self.hi}"
        )


def _weight_sampler(spec: GenSpec, factor: int = 0):
    """Weight draw on the model's grid: k / u for an integer k in [lo*u,
    hi*u], u = 1 for "int" and 10 for "decimal".  A path length ``factor``
    >= 2 raises the least k to hi*u // factor + 1, so that every edge is
    strictly shorter than any path of ``factor`` edges; the range stays
    nonempty, as hi*u // factor < hi*u."""
    u = 1 if spec.weight_kind == "int" else 10
    hi = spec.hi * u
    lo = max(spec.lo * u, hi // factor + 1) if factor else spec.lo * u

    def draw(rng: random.Random) -> Number:
        k = rng.randint(lo, hi)
        return k // u if k % u == 0 else Fraction(k, u)

    return draw


def random_prufer_tree(n: int, rng: random.Random) -> List[Tuple[int, int]]:
    if n == 1:
        return []
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    return tree_from_prufer(seq, n)


def tree_from_prufer(seq: Sequence[int], n: int) -> List[Tuple[int, int]]:
    """Labeled tree on [n] from a Prufer sequence of length n - 2."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def generate(spec: GenSpec) -> WeightedGraph:
    """Deterministic random instance of the requested class.

    Each class's shape holds by construction; for the complete and
    complete-bipartite classes the weights are drawn from a narrowed range
    making every edge strictly shortest, so the instance is pruned and its
    family round-trips through the class recognizer.
    """
    rng = spec.rng()
    n = spec.n
    draw = _weight_sampler(spec)

    if spec.class_id == "snake":
        perm = rng.sample(range(1, n + 1), n)
        edges = [(perm[k], perm[k + 1], draw(rng)) for k in range(n - 1)]
        return WeightedGraph(n, edges)

    if spec.class_id == "caterpillar":
        if n == 2:
            return WeightedGraph(2, [(1, 2, draw(rng))])
        labels = rng.sample(range(1, n + 1), n)
        spine_len = rng.randint(1, n - 1)
        spine, leaves = labels[:spine_len], labels[spine_len:]
        edges = [(spine[k], spine[k + 1], draw(rng)) for k in range(spine_len - 1)]
        edges += [(leaf, rng.choice(spine), draw(rng)) for leaf in leaves]
        return WeightedGraph(n, edges)

    if spec.class_id == "tree":
        edges = random_prufer_tree(n, rng)
        return WeightedGraph(n, [(u, v, draw(rng)) for u, v in edges])

    if spec.class_id == "polygon":
        perm = rng.sample(range(1, n + 1), n)
        edges = [(perm[k], perm[(k + 1) % n], draw(rng)) for k in range(n)]
        return WeightedGraph(n, edges)

    if spec.class_id == "complete":
        narrow = _weight_sampler(spec, factor=2)
        edges = [(i, j, narrow(rng)) for i, j in itertools.combinations(range(1, n + 1), 2)]
        return WeightedGraph(n, edges)

    if spec.class_id == "complete_bipartite":
        narrow = _weight_sampler(spec, factor=3)
        labels = rng.sample(range(1, n + 1), n)
        a = rng.randint(1, n - 1)
        x_side, y_side = labels[:a], labels[a:]
        edges = [(u, v, narrow(rng)) for u in x_side for v in y_side]
        return WeightedGraph(n, edges)

    if spec.class_id == "planar":
        # A stacked triangulation: each new vertex joins the corners of a
        # face, which splits into three.  Its edges to a face's first corner
        # and the path 1-2-3 span it; a random share of the others is kept.
        # A subgraph of a planar graph is planar, so nothing is tested.
        tree, others, faces = [(1, 2), (2, 3)][: n - 1], [(1, 3)][: n - 2], [(1, 2, 3)]
        for x in range(4, n + 1):
            k = rng.randrange(len(faces))
            a, b, c = faces[k]
            faces[k] = (a, b, x)
            faces += [(b, c, x), (a, c, x)]
            tree.append((a, x))
            others += [(b, x), (c, x)]
        rng.shuffle(others)
        pairs = tree + others[: rng.randint(0, 2 * n)]
        labels = rng.sample(range(1, n + 1), n)
        return WeightedGraph(n, [(labels[a - 1], labels[b - 1], draw(rng)) for a, b in pairs])

    if spec.class_id == "arbitrary_connected":
        # chords drawn one pair at a time until enough new ones are in:
        # uniform over chord sets, as a prefix of all shuffled pairs would be
        edges = set(tuple(sorted(e)) for e in random_prufer_tree(n, rng))
        total = len(edges) + min(rng.randint(0, n), n * (n - 1) // 2 - len(edges))
        while len(edges) < total:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        return WeightedGraph(n, [(u, v, draw(rng)) for u, v in sorted(edges)])

    raise GenerationError(f"unknown class {spec.class_id!r}")

