import itertools
import random

import pytest

import networkx as nx

from metric_realize import (
    EXACT,
    Cmp,
    FamilyError,
    GenSpec,
    PlanarWitness,
    WeightedGraph,
    generate,
    planar_check,
    support_graph,
    two_weights,
    verify_realization,
)
from metric_realize import planar
from metric_realize.generators import CLASS_MIN_N
from metric_realize.planar import _kuratowski_subgraph, _planar

from conftest import fam, random_connected_graph
from oracles import SizeGuardError, any_graph, kuratowski_deletion_pass, subdivision_witness_search


def unit_family(n, pairs):
    """Family of 2-weights of the unit-weight graph with the given edges."""
    return two_weights(WeightedGraph(n, [(u, v, 1) for u, v in pairs]))


PETERSEN_PAIRS = [
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
]


def interleaved_bipartite_pairs(a, b):
    """K_{a,b} whose sides alternate in label order (1, 3, 5, ... on one
    side while both sides last), so no vertex prefix is a single side."""
    labels = list(range(1, a + b + 1))
    k = min(a, b)
    side_a = labels[0 : 2 * k : 2] + labels[2 * k :][: a - k]
    side_b = [v for v in labels if v not in side_a]
    return [(min(u, v), max(u, v)) for u in side_a for v in side_b]


def complete_pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def subdivided(pairs, edge, n):
    """The graph with ``edge`` split by a new vertex n + 1."""
    u, v = edge
    return [p for p in pairs if p != edge] + [(u, n + 1), (v, n + 1)]


def shuffled_bipartite_pairs(a, b, rng):
    """K_{a,b} with its labels 1..a+b dealt to the sides in random order."""
    labels = rng.sample(range(1, a + b + 1), a + b)
    return [(min(u, v), max(u, v)) for u in labels[:a] for v in labels[a:]]


def chained(pairs, k):
    """``pairs`` with every edge replaced by a path through k new labels."""
    top = max(x for edge in pairs for x in edge)
    out = []
    for j, (u, v) in enumerate(pairs):
        walk = [u, *range(top + j * k + 1, top + j * k + k + 1), v]
        out += [(min(edge), max(edge)) for edge in zip(walk, walk[1:])]
    return out


def with_paths(pairs, rng, splits, pendants):
    """``pairs`` with ``splits`` random edges replaced by paths through new
    labels and ``pendants`` paths hung from random vertices."""
    pairs = list(pairs)
    top = max(x for edge in pairs for x in edge)
    for _ in range(min(splits, len(pairs))):
        u, v = pairs.pop(rng.randrange(len(pairs)))
        walk = [u, *range(top + 1, top + 1 + rng.randint(1, 3)), v]
        top = walk[-2]
        pairs += zip(walk, walk[1:])
    for _ in range(pendants):
        walk = [rng.choice(rng.choice(pairs)), *range(top + 1, top + 1 + rng.randint(1, 3))]
        top = walk[-1]
        pairs += zip(walk, walk[1:])
    return [(min(edge), max(edge)) for edge in pairs]


@pytest.fixture
def lr_runs(monkeypatch):
    """The number of networkx left-right planarity runs, as a one-item list."""
    from networkx.algorithms.planarity import LRPlanarity

    runs = [0]
    original = LRPlanarity.lr_planarity

    def counted(self):
        runs[0] += 1
        return original(self)

    monkeypatch.setattr(LRPlanarity, "lr_planarity", counted)
    return runs


BIPARTITE_SIDES = [(3, 3), (3, 4), (4, 3), (3, 7), (5, 5), (6, 9)]
K5_PAIRS = complete_pairs(5)
K33_PAIRS = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]


class TestWitnessSearch:
    def test_unit_k5_yields_k5_witness(self):
        g = WeightedGraph(5, [(i, j, 1) for i, j in itertools.combinations(range(1, 6), 2)])
        w = subdivision_witness_search(g)
        assert w is not None
        assert w.kind == "K5"
        assert set(w.hubs) == {1, 2, 3, 4, 5}
        assert all(chain == () for chain in w.chains.values())

    def test_unit_k33_yields_k33_witness(self):
        g = WeightedGraph(6, [(a, b, 1) for a in (1, 2, 3) for b in (4, 5, 6)])
        w = subdivision_witness_search(g)
        assert w is not None
        assert w.kind == "K33"
        assert {frozenset(w.hubs[0]), frozenset(w.hubs[1])} == {
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6}),
        }

    def test_unit_k4_is_clean(self):
        g = WeightedGraph(4, [(i, j, 1) for i, j in itertools.combinations(range(1, 5), 2)])
        assert subdivision_witness_search(g) is None

    def test_subdivided_k5_found_through_chains(self):
        # split the edge (1, 2) of K5 with an interior vertex 6
        pairs = [p for p in itertools.combinations(range(1, 6), 2) if p != (1, 2)]
        pairs += [(1, 6), (6, 2)]
        g = WeightedGraph(6, [(u, v, 1) for u, v in pairs])
        w = subdivision_witness_search(g)
        assert w is not None
        assert w.kind == "K5"
        assert w.chains[frozenset((1, 2))] == (6,)

    def test_petersen_graph_is_nonplanar(self):
        g = WeightedGraph(10, [(u, v, 1) for u, v in PETERSEN_PAIRS])
        w = subdivision_witness_search(g)
        assert w is not None
        assert w.kind == "K33"  # the Petersen graph has no K5 subdivision

    def test_size_guard(self):
        g = WeightedGraph(11, [(k, k + 1, 1) for k in range(1, 11)])
        with pytest.raises(SizeGuardError):
            subdivision_witness_search(g)

    def test_agrees_with_library_planarity(self):
        rng = random.Random(141)
        for _ in range(150):
            n = rng.randint(3, 9)
            g = random_connected_graph(n, rng, extra_edges=rng.randint(0, 3 * n))
            nxg = nx.Graph((u, v) for u, v, _w in g.edges)
            nxg.add_nodes_from(range(1, n + 1))
            assert (subdivision_witness_search(g) is None) == nx.check_planarity(nxg)[0]


class TestPlanarCheck:
    def test_accepts_unit_k4(self):
        f = fam(4, {p: 1 for p in itertools.combinations(range(1, 5), 2)})
        r = planar_check(f)
        assert r.accepted
        assert verify_realization(r.graph, f)

    def test_rejects_unit_k5_with_valid_witness(self):
        f = fam(5, {p: 1 for p in itertools.combinations(range(1, 6), 2)})
        r = planar_check(f)
        assert not r.accepted
        assert r.witness.kind == "K5"
        r.witness.validate(f)

    def test_rejects_unit_k33_with_valid_witness(self):
        f = unit_family(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
        # all cross distances 1, same-side distances 2: every cross pair is
        # indecomposable, so the support graph is exactly K33
        r = planar_check(f)
        assert not r.accepted
        assert r.witness.kind == "K33"
        r.witness.validate(f)

    def test_rejects_petersen_family_with_valid_witness(self):
        f = unit_family(10, PETERSEN_PAIRS)
        assert support_graph(f).edge_pairs() == {
            (min(p), max(p)) for p in PETERSEN_PAIRS
        }
        r = planar_check(f)
        assert not r.accepted
        r.witness.validate(f)

    def test_rejects_triangle_violation(self):
        f = fam(3, {(1, 2): 1, (2, 3): 1, (1, 3): 5})
        r = planar_check(f)
        assert not r.accepted
        assert "triangle" in r.reason

    def test_accepts_every_tree_family(self, fig2_family):
        assert planar_check(fig2_family).accepted

    def test_rejection_witnesses_always_validate(self):
        rng = random.Random(151)
        seen_reject = 0
        for _ in range(150):
            n = rng.randint(5, 9)
            g = random_connected_graph(n, rng, extra_edges=rng.randint(0, 3 * n))
            f = two_weights(g)
            r = planar_check(f)
            if r.accepted:
                assert verify_realization(r.graph, f)
            else:
                r.witness.validate(f)
                seen_reject += 1
        assert seen_reject > 5
        # larger dense graphs: witness chains with interior vertices
        rng = random.Random(7)
        seen_reject = 0
        for _ in range(25):
            n = rng.randint(14, 26)
            f = two_weights(random_connected_graph(n, rng, extra_edges=3 * n))
            r = planar_check(f)
            if not r.accepted:
                r.witness.validate(f)
                seen_reject += 1
        assert seen_reject > 20

    def test_agrees_with_witness_search_route(self):
        rng = random.Random(152)
        for _ in range(120):
            n = rng.randint(3, 8)
            g = random_connected_graph(n, rng, extra_edges=rng.randint(0, 2 * n))
            f = two_weights(g)
            s = support_graph(f)
            assert planar_check(f).accepted == (subdivision_witness_search(s) is None)


class TestWitnessValidate:
    def test_k33_witness_needs_two_hub_triples(self):
        # every cross pair of unit K_{4,2} is indecomposable, so only the
        # shape of the hubs tells this planar family's false witness apart
        pairs = [(a, b) for a in (1, 2, 3, 4) for b in (5, 6)]
        f = unit_family(6, pairs)
        assert planar_check(f).accepted
        chains = {frozenset(p): () for p in pairs}
        with pytest.raises(FamilyError, match="two disjoint hub triples"):
            PlanarWitness("K33", ((1, 2, 3, 4), (5, 6)), chains).validate(f)

    def test_k33_witness_triples_must_be_disjoint(self):
        f = unit_family(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
        chains = {frozenset((a, b)): () for a in (1, 2, 3) for b in (3, 4, 5) if a != b}
        with pytest.raises(FamilyError, match="two disjoint hub triples"):
            PlanarWitness("K33", ((1, 2, 3), (3, 4, 5)), chains).validate(f)

    def test_k33_witness_needs_two_sides(self):
        f = unit_family(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
        with pytest.raises(FamilyError, match="two disjoint hub triples"):
            PlanarWitness("K33", ((1, 2, 3),), {}).validate(f)

    def test_k5_witness_needs_five_hubs(self):
        f = fam(5, {p: 1 for p in complete_pairs(5)})
        chains = {frozenset(p): () for p in complete_pairs(4)}
        with pytest.raises(FamilyError, match="five distinct hubs"):
            PlanarWitness("K5", (1, 2, 3, 4), chains).validate(f)

    def test_unknown_kind_is_rejected(self):
        f = fam(5, {p: 1 for p in complete_pairs(5)})
        chains = {frozenset(p): () for p in complete_pairs(5)}
        with pytest.raises(FamilyError, match="unknown witness kind"):
            PlanarWitness("K6", (1, 2, 3, 4, 5), chains).validate(f)

    def test_missing_chain_is_a_family_error(self):
        f = fam(5, {p: 1 for p in complete_pairs(5)})
        witness = planar_check(f).witness
        witness.validate(f)
        del witness.chains[frozenset((2, 4))]
        with pytest.raises(FamilyError, match=r"no chain for \(2,4\)"):
            witness.validate(f)


def random_bipartite_pairs(labels, m, rng):
    """m random edges across a random split of ``labels`` (fewer when the
    split has fewer cross pairs)."""
    side = {v: rng.random() < 0.5 for v in labels}
    cross = [(u, v) for u, v in itertools.combinations(labels, 2) if side[u] != side[v]]
    return rng.sample(cross, min(m, len(cross)))


class TestPlanarCounts:
    """``_planar`` decides by counts where it can and agrees with networkx's
    left-right test everywhere."""

    @staticmethod
    def left_right(pairs):
        return nx.check_planarity(nx.Graph(pairs))[0]

    @pytest.mark.parametrize(
        "pairs, planar",
        [
            (K5_PAIRS, False),
            (K5_PAIRS[1:], True),
            (K33_PAIRS, False),
            (K33_PAIRS[1:], True),
            ([(a, b) for a in (1, 2, 3, 4) for b in (5, 6)], True),
            # K5 and K33 among isolated labels and behind a pendant path
            ([(u + 3, v + 3) for u, v in K5_PAIRS], False),
            ([(u * 2, v * 2) for u, v in K33_PAIRS] + [(12, 13), (13, 14)], False),
        ],
    )
    def test_named_graphs(self, pairs, planar):
        for bipartite in {False, nx.is_bipartite(nx.Graph(pairs))}:
            assert _planar(pairs, bipartite) is planar
        assert self.left_right(pairs) is planar

    def test_agrees_with_left_right_test(self):
        rng = random.Random(161)
        bipartite_seen = 0
        for _ in range(1500):
            # up to 9 labels, so some are isolated; m clusters at 8 to 10
            labels = range(1, rng.randint(3, 9) + 1)
            m = rng.choice([rng.randint(0, 14), rng.randint(8, 10)])
            if rng.random() < 0.4:
                pairs = random_bipartite_pairs(labels, m, rng)
            else:
                pairs = list(itertools.combinations(labels, 2))
                pairs = rng.sample(pairs, min(m, len(pairs)))
            if not pairs:
                continue
            want = self.left_right(pairs)
            bipartite = nx.is_bipartite(nx.Graph(pairs))
            bipartite_seen += bipartite
            assert _planar(pairs, False) == want, pairs
            assert _planar(pairs, bipartite) == want, pairs
        assert bipartite_seen > 300

    def test_agrees_with_left_right_test_through_the_reduction(self):
        # pendant paths and subdivided edges, which the reduction deletes and
        # smooths; shuffled K_{a,b} minus a few edges, the deletion pass's
        # own steps; the flag is the true one and False
        rng = random.Random(164)
        planar_seen = 0
        for k in range(1200):
            if k % 3:
                labels = range(1, rng.randint(3, 14) + 1)
                pairs = list(itertools.combinations(labels, 2))
                pairs = rng.sample(pairs, min(rng.randint(1, 3 * len(labels)), len(pairs)))
                pairs = with_paths(pairs, rng, rng.randint(0, 4), rng.randint(0, 2))
            else:
                a = rng.randint(2, 6)
                pairs = shuffled_bipartite_pairs(a, rng.randint(a, 16 - a), rng)
                pairs = rng.sample(pairs, len(pairs) - rng.randint(0, 4))
            want = self.left_right(pairs)
            planar_seen += want
            for bipartite in {False, nx.is_bipartite(nx.Graph(pairs))}:
                assert _planar(pairs, bipartite) == want, pairs
        assert 300 < planar_seen < 900, planar_seen

    @pytest.mark.parametrize(
        "pairs, planar, runs",
        [
            # its own reduction: only the left-right test decides it
            (PETERSEN_PAIRS, False, 1),
            # K33 with every edge behind a chain of two degree-2 vertices,
            # and the same without one edge
            (chained(K33_PAIRS, 2), False, 0),
            (chained(K33_PAIRS[1:], 2), True, 0),
            # K5 with one edge subdivided twice
            (subdivided(subdivided(K5_PAIRS, (1, 2), 5), (2, 6), 6), False, 0),
            # K5 with a claw hung from a hub: the claw's centre turns
            # pendant only once its two leaves are gone
            (K5_PAIRS + [(1, 6), (6, 7), (6, 8)], False, 0),
            # K5 with a leaf on the apex of a triangle over the edge (1, 2):
            # the apex falls to degree 2 once its leaf is gone
            (K5_PAIRS + [(1, 6), (2, 6), (6, 7)], False, 0),
        ],
    )
    def test_named_graphs_through_the_reduction(self, lr_runs, pairs, planar, runs):
        assert self.left_right(pairs) is planar
        for bipartite in {False, nx.is_bipartite(nx.Graph(pairs))}:
            lr_runs[0] = 0
            assert _planar(pairs, bipartite) is planar
            assert lr_runs[0] == runs

    def test_counts_decide_small_and_complete_graphs(self, lr_runs):
        rng = random.Random(162)
        cases = []
        for _ in range(300):
            # at most 5 vertices, or 6 and at most 8 edges
            labels = range(1, rng.randint(3, 6) + 1)
            pairs = list(itertools.combinations(labels, 2))
            pairs = rng.sample(pairs, rng.randint(1, min(len(pairs), 8 if len(labels) == 6 else 10)))
            cases.append((pairs, nx.is_bipartite(nx.Graph(pairs)), self.left_right(pairs)))
        cases += [(complete_pairs(n), False, False) for n in range(5, 22)]
        cases += [(interleaved_bipartite_pairs(a, b), True, False) for a, b in BIPARTITE_SIDES]
        lr_runs[0] = 0
        for pairs, bipartite, planar in cases:
            assert _planar(pairs, bipartite) == planar, pairs
        assert lr_runs[0] == 0

    @pytest.mark.parametrize("cmp", [EXACT, Cmp(1e-9)], ids=["exact", "tol"])
    def test_the_flag_planar_check_passes_is_the_bipartition_walks(self, monkeypatch, cmp):
        # the flag comes from the sides of ``family.sides``: it must never
        # call a non-bipartite S bipartite, and in exact mode, where S
        # realizes D, it must call every bipartite S bipartite
        flags = []

        def recorded(edges, bipartite):
            flags.append(bipartite)
            return _planar(edges, bipartite)

        monkeypatch.setattr(planar, "_planar", recorded)
        seen = {False: 0, True: 0}
        for class_id, n, seed, kind in itertools.product(
            CLASS_MIN_N, range(3, 16), (1, 2, 3), ("int", "decimal")
        ):
            f = two_weights(generate(GenSpec(class_id, n, seed, weight_kind=kind)), cmp)
            flags.clear()
            planar_check(f)
            if not flags:  # settled before the planarity test
                continue
            want = nx.is_bipartite(nx.Graph(list(support_graph(f).edge_pairs())))
            assert set(flags) == {flags[0]}
            if cmp.exact:
                assert flags[0] == want, (class_id, n, seed, kind)
            else:
                assert want or not flags[0], (class_id, n, seed, kind)
            seen[want] += 1
        assert seen[True] > 40 and seen[False] > 100, seen

    def test_extraction_matches_the_left_right_deletion_pass(self):
        rng = random.Random(163)
        seen = 0
        for k in range(120):
            n = rng.randint(6, 14)
            if k % 2:
                pairs = sorted(random_bipartite_pairs(range(1, n + 1), rng.randint(n, 3 * n), rng))
            else:
                g = random_connected_graph(n, rng, extra_edges=rng.randint(n, 2 * n))
                pairs = sorted((u, v) for u, v, _w in g.edges)
            if self.left_right(pairs):
                continue
            seen += 1
            graph = any_graph(n, [(u, v, 1) for u, v in pairs])
            bipartite = nx.is_bipartite(nx.Graph(pairs))
            assert _kuratowski_subgraph(pairs, n, bipartite) == kuratowski_deletion_pass(graph)
        assert seen > 40


class TestWitnessCost:
    """The witness comes from the smallest non-planar vertex prefix of S and
    one edge-deletion pass, whose planarity tests edge and vertex counts
    settle where they can, on the graph or on its reduction: no left-right
    run for a complete or complete bipartite S, a few at most elsewhere,
    instead of two per edge of S."""

    def test_unit_k21_needs_few_planarity_runs(self, lr_runs):
        r = planar_check(unit_family(21, complete_pairs(21)))
        assert not r.accepted and r.witness.kind == "K5"
        assert lr_runs[0] == 0, lr_runs[0]

    @pytest.mark.parametrize(
        "n, pairs, most",
        [(n, complete_pairs(n), 0) for n in range(5, 22)]
        + [(a + b, interleaved_bipartite_pairs(a, b), 0) for a, b in BIPARTITE_SIDES]
        + [
            (10, PETERSEN_PAIRS, 1),
            (6, subdivided(complete_pairs(5), (1, 2), 5), 0),
            (7, subdivided(interleaved_bipartite_pairs(3, 3), (1, 2), 6), 0),
        ],
    )
    def test_left_right_runs(self, lr_runs, n, pairs, most):
        # complete and complete bipartite S are settled by Euler's bound at
        # every step, and the subdivided ones by the counts of their
        # reductions; the Petersen graph's reduction is itself, and only
        # its test on all of S runs the left-right test
        f = unit_family(n, pairs)
        assert not planar_check(f).accepted
        assert lr_runs[0] <= most, lr_runs[0]

    @pytest.mark.parametrize("b", range(3, 19))
    @pytest.mark.parametrize("a", [2, 3])
    def test_shuffled_complete_bipartite_runs_no_left_right_test(self, lr_runs, a, b):
        # labels dealt to the sides at random, so the deletion pass meets
        # K_{3,b} prefixes minus a few edges, which Euler's bound on the
        # graph does not settle but the counts of its reduction do
        f = unit_family(a + b, shuffled_bipartite_pairs(a, b, random.Random(100 * a + b)))
        r = planar_check(f)
        assert r.accepted is (a == 2)
        if not r.accepted:
            assert r.witness.kind == "K33"
            r.witness.validate(f)
        assert lr_runs[0] == 0, lr_runs[0]

    def test_classify_of_complete_and_complete_bipartite_leaves_networkx_unloaded(self, tmp_path):
        import os
        import subprocess
        import sys

        import metric_realize
        from metric_realize.serialize import family_to_csv

        src = os.path.dirname(os.path.dirname(metric_realize.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import sys\n"
            "from metric_realize.cli import run\n"
            "assert run(['classify', sys.argv[1]]) == 0\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )
        cases = {
            "K5": unit_family(21, complete_pairs(21)),
            "K33": unit_family(21, shuffled_bipartite_pairs(3, 18, random.Random(318))),
        }
        for kind, family in cases.items():
            matrix = tmp_path / f"{kind}.csv"
            matrix.write_text(family_to_csv(family))
            proc = subprocess.run(
                [sys.executable, "-c", script, str(matrix)],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=path),
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert f'"kind": "{kind}"' in proc.stdout

    @pytest.mark.parametrize(
        "n, pairs, kind",
        [(n, complete_pairs(n), "K5") for n in range(5, 22)]
        + [
            (a + b, interleaved_bipartite_pairs(a, b), "K33")
            for a, b in BIPARTITE_SIDES
        ]
        + [
            (10, PETERSEN_PAIRS, "K33"),
            # the split vertex has the last label: the prefix is all of S
            (6, subdivided(complete_pairs(5), (1, 2), 5), "K5"),
            (7, subdivided(interleaved_bipartite_pairs(3, 3), (1, 2), 6), "K33"),
        ],
    )
    def test_rejection_witnesses_validate(self, n, pairs, kind):
        f = unit_family(n, pairs)
        r = planar_check(f)
        assert not r.accepted
        assert r.witness.kind == kind
        r.witness.validate(f)
