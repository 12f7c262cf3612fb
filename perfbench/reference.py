"""Independent reference checks for the program's outputs.

Nothing here calls ``metric_realize``.  The reference works on the integer
2-weight matrix in units (see ``inputs``):

* one min-plus product with the diagonal set to +inf gives, for every pair,
  M_ij = min over z outside {i, j} of D_iz + D_zj; the triangle inequality
  holds iff D <= M, and ij is indecomposable iff D_ij < M_ij;
* the indecomposable pairs form the support graph S, the unique pruned
  realization of a metric (Hakimi & Yau 1965), so every class verdict is a
  shape test on S (``shape_verdicts``);
* every realization the program returns is re-measured with
  ``scipy.sparse.csgraph`` on its integer-scaled weights.

Planarity of S is decided with the networkx planarity test, captured at import
time so that the traced run's wrapper never sees the reference's calls.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from inputs import OpInput, distances

_check_planarity = nx.check_planarity

CLASSES = (
    "snake",
    "caterpillar",
    "tree",
    "pruned_polygon",
    "polygon",
    "complete",
    "bipartite",
    "pruned_bipartite",
    "planar",
)

# Acceptance of the first class implies acceptance of the second.  Kept here
# on purpose rather than imported from the program.
CONTAINMENTS = (
    ("snake", "caterpillar"),
    ("caterpillar", "tree"),
    ("tree", "planar"),
    ("pruned_polygon", "polygon"),
    ("polygon", "planar"),
    ("pruned_bipartite", "bipartite"),
    ("snake", "polygon"),
    ("tree", "bipartite"),
)

# Classes the generated input is known to belong to, by construction.
GENERATING = {
    "snake": ("snake",),
    "caterpillar": ("caterpillar",),
    "tree": ("tree",),
    "polygon": ("polygon",),
    "planar": ("planar",),
    "complete": ("complete",),
    "complete_bipartite": ("bipartite", "pruned_bipartite"),
    "arbitrary_connected": (),
}

# Classes whose realization is pruned, hence equal to the support graph.
PRUNED = ("snake", "caterpillar", "tree", "pruned_polygon", "complete", "pruned_bipartite", "planar")

_BLOCK = 32


def min_plus_splits(dist: np.ndarray) -> np.ndarray:
    """M_ij = min over z not in {i, j} of D_iz + D_zj (row blocks bound memory)."""
    n = dist.shape[0]
    big = np.int64(4 * int(dist.max()) + 4)
    dinf = dist.copy()
    np.fill_diagonal(dinf, big)
    out = np.empty_like(dist)
    for lo in range(0, n, _BLOCK):
        hi = min(n, lo + _BLOCK)
        out[lo:hi] = (dinf[lo:hi, :, None] + dinf[None, :, :]).min(axis=1)
    return out


def support_adjacency(dist: np.ndarray) -> Tuple[np.ndarray, bool]:
    """(boolean adjacency of the support graph, whether D is a metric)."""
    m = min_plus_splits(dist)
    adj = dist < m
    np.fill_diagonal(adj, False)
    return adj, bool((dist <= m).all())


def two_colouring(adj: np.ndarray) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Colour classes (1-based) of a connected graph, or None if it has an odd cycle."""
    n = adj.shape[0]
    colour = [-1] * n
    colour[0] = 0
    stack = [0]
    nbrs = [np.flatnonzero(adj[v]).tolist() for v in range(n)]
    while stack:
        v = stack.pop()
        for u in nbrs[v]:
            if colour[u] < 0:
                colour[u] = 1 - colour[v]
                stack.append(u)
            elif colour[u] == colour[v]:
                return None
    sides = [frozenset(v + 1 for v in range(n) if colour[v] == c) for c in (0, 1)]
    return sides[0], sides[1]


def _edge_set(adj: np.ndarray) -> Set[Tuple[int, int]]:
    us, vs = np.nonzero(np.triu(adj, 1))
    return {(int(u) + 1, int(v) + 1) for u, v in zip(us, vs)}


def _is_planar(n: int, edges) -> bool:
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return bool(_check_planarity(g)[0])


def shape_verdicts(adj: np.ndarray) -> Dict[str, bool]:
    """Class verdicts from the shape of a connected support graph."""
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    m = int(deg.sum()) // 2
    tree = m == n - 1
    inner = deg >= 2
    inner_deg = (adj & inner[None, :]).sum(axis=1)
    caterpillar = tree and bool((inner_deg[inner] <= 2).all())
    snake = tree and int(deg.max()) <= 2
    pruned_polygon = n >= 3 and m == n and bool((deg == 2).all())
    sides = two_colouring(adj)
    bipartite = sides is not None
    return {
        "snake": snake,
        "caterpillar": caterpillar,
        "tree": tree,
        "pruned_polygon": pruned_polygon,
        "polygon": pruned_polygon or snake,
        "complete": m == n * (n - 1) // 2,
        "bipartite": bipartite,
        "pruned_bipartite": bipartite and m == len(sides[0]) * len(sides[1]),
        "planar": _is_planar(n, _edge_set(adj)),
    }


class Expected:
    """Reference answer for one input, computed once at set-up."""

    def __init__(self, inp: OpInput):
        self.adj, metric = support_adjacency(inp.dist)
        if not metric:
            raise ValueError("generated 2-weights violate the triangle inequality")
        self.support_edges = _edge_set(self.adj)
        if inp.slot.kind == "classify":
            self.verdicts = shape_verdicts(self.adj)
            self.sides = two_colouring(self.adj)
        else:
            d = inp.dist
            self.useful = {
                (u, v, w) for u, v, w in inp.edges if w == d[u - 1, v - 1] and self.adj[u - 1, v - 1]
            }


def self_check(inp: OpInput, expected: Expected) -> List[str]:
    """Disagreements between the reference and the input's construction: the
    generating classes must be accepted by the shape table."""
    if inp.slot.kind != "classify":
        return []
    return [
        f"reference rejects generating class {c}"
        for c in GENERATING[inp.slot.gen_class]
        if not expected.verdicts[c]
    ]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


# Float mode may round a weight off the unit grid by this relative amount
# (the program's default tolerance).
FLOAT_TOL = 1e-9


def to_units(value, scale: int, float_mode: bool = False) -> int:
    """Integer number of units of a program value (int, Fraction, float or
    their string forms): exact, or within FLOAT_TOL in float mode.  Raises
    ValueError when the value is off the unit grid."""
    if float_mode:
        x = float(value) * scale
        r = round(x)
        if abs(x - r) > FLOAT_TOL * max(1.0, abs(x)):
            raise ValueError(f"{value!r} is not a multiple of 1/{scale}")
        return int(r)
    frac = Fraction(value) * scale
    if frac.denominator != 1:
        raise ValueError(f"{value!r} is not a multiple of 1/{scale}")
    return frac.numerator


def _realization_errors(cls: str, doc: dict, inp: OpInput, exp: Expected) -> List[str]:
    n = inp.slot.n
    try:
        float_mode = inp.slot.mode == "float"
        edges = [(int(e["u"]), int(e["v"]), to_units(e["w"], inp.scale, float_mode)) for e in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{cls}: unreadable realization ({exc})"]
    if int(doc.get("n", -1)) != n:
        return [f"{cls}: realization has n={doc.get('n')}, expected {n}"]
    errors = []
    try:
        if not np.array_equal(distances(n, edges), inp.dist):
            errors.append(f"{cls}: realization 2-weights differ from the input")
    except ValueError as exc:
        return [f"{cls}: {exc}"]
    pairs = {(min(u, v), max(u, v)) for u, v, _ in edges}
    if cls in PRUNED and pairs != exp.support_edges:
        errors.append(f"{cls}: realization is not the support graph")
    if cls == "polygon":
        deg = np.zeros(n + 1, dtype=int)
        for u, v in pairs:
            deg[u] += 1
            deg[v] += 1
        if len(pairs) != n or not (deg[1:] == 2).all():
            errors.append("polygon: realization is not an n-cycle")
    if cls == "bipartite" and exp.sides is not None:
        x, y = exp.sides
        cross = {(min(a, b), max(a, b)) for a in x for b in y}
        if pairs != cross:
            errors.append("bipartite: realization is not the complete bipartite graph on the sides")
    return errors


def _witness_errors(doc: dict, exp: Expected) -> List[str]:
    kind = doc.get("kind")
    hubs = doc.get("hubs", [])
    hub_set = set(hubs) if kind == "K5" else set(hubs[0]) | set(hubs[1])
    if kind not in ("K5", "K33") or len(hub_set) != (5 if kind == "K5" else 6):
        return [f"planar witness malformed: {kind} {hubs}"]
    used: Set[int] = set()
    for key, chain in doc.get("chains", {}).items():
        a, b = (int(t) for t in key.split(","))
        # The report does not fix a chain's direction: accept either end first.
        walks = ([a, *chain, b], [b, *chain, a])
        if not any(all(exp.adj[u - 1, v - 1] for u, v in zip(w, w[1:])) for w in walks):
            return [f"planar witness chain {key} {chain} is not a path of indecomposable links"]
        if used & set(chain) or hub_set & set(chain):
            return ["planar witness chains are not disjoint"]
        used |= set(chain)
    want = 10 if kind == "K5" else 9
    if len(doc.get("chains", {})) != want:
        return [f"planar witness has {len(doc.get('chains', {}))} chains, expected {want}"]
    return []


def check_classify(out_text: str, inp: OpInput, exp: Expected) -> List[str]:
    """Every way the ``classify`` JSON report disagrees with the reference."""
    try:
        report = json.loads(out_text)
        classes = report["classes"]
        accepted = {c: bool(classes[c]["accepted"]) for c in CLASSES}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    errors = []
    if report.get("conditions", {}).get("triangle") is not True:
        errors.append("triangle condition not reported as holding")
    for c in CLASSES:
        if accepted[c] != exp.verdicts[c]:
            errors.append(f"{c}: program says {accepted[c]}, reference says {exp.verdicts[c]}")
    for c in GENERATING[inp.slot.gen_class]:
        if not accepted[c]:
            errors.append(f"generating class {c} rejected")
    for sub, sup in CONTAINMENTS:
        if accepted[sub] and not accepted[sup]:
            errors.append(f"containment {sub} -> {sup} violated")
    for c in CLASSES:
        if accepted[c]:
            if "realization" not in classes[c]:
                errors.append(f"{c}: accepted without a realization")
            else:
                errors += _realization_errors(c, classes[c]["realization"], inp, exp)
    if accepted["bipartite"]:
        bp = report.get("bipartition", {})
        got = {frozenset(bp.get("x_side", [])), frozenset(bp.get("y_side", []))}
        if exp.sides is None or got != set(exp.sides):
            errors.append("bipartition differs from the support graph's 2-colouring")
    if not accepted["planar"]:
        if "planar_witness" not in report:
            errors.append("planar rejected without a witness")
        else:
            errors += _witness_errors(report["planar_witness"], exp)
    return errors


def check_graph_ops(family, pruned, verified, inp: OpInput, exp: Expected) -> List[str]:
    """The graph-side round trip: 2-weights of the input, prune keeps exactly
    the useful edges (so it keeps the 2-weights), and verify says yes."""
    errors = []
    if verified is not True:
        errors.append(f"verify_realization returned {verified!r}")
    n, s = inp.slot.n, inp.scale
    try:
        got = np.zeros((n, n), dtype=np.int64)
        for (i, j), v in family.values.items():
            got[i - 1, j - 1] = got[j - 1, i - 1] = to_units(v, s)
        kept = {(u, v, to_units(w, s)) for u, v, w in pruned.edges}
    except (AttributeError, ValueError) as exc:
        return errors + [f"unreadable result: {exc}"]
    if family.n != n or not np.array_equal(got, inp.dist):
        errors.append("two_weights differ from the reference 2-weights")
    if kept != exp.useful:
        errors.append(
            f"prune kept {len(kept)} edges, reference keeps {len(exp.useful)} useful ones"
        )
    elif not np.array_equal(distances(n, list(kept)), inp.dist):
        errors.append("pruned graph changes the 2-weights")
    return errors
