"""Run every recognizer on a family and assemble a consistent report."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .bipartite import Bipartition, bigraph_check, cobigraph_check, complete_check
from .family import DistanceFamily, check_four_point, check_median
from .planar import PlanarWitness, planar_check
from .polygons import polygon_check, pruned_polygon_check
from .realization import Realization
from .trees import caterpillar_check, snake_check, tree_check


def recognizers() -> Dict[str, Callable[[DistanceFamily], Realization]]:
    """Every recognizer by class name, in report order.  The functions are
    looked up per call, not bound once at import, so that a wrapper put on
    this module's names (a tracer, a test double) is what runs."""
    return {
        "snake": snake_check,
        "caterpillar": caterpillar_check,
        "tree": tree_check,
        "pruned_polygon": pruned_polygon_check,
        "polygon": polygon_check,
        "complete": complete_check,
        "bipartite": bigraph_check,
        "pruned_bipartite": cobigraph_check,
        "planar": planar_check,
    }


# Acceptance of the first class implies acceptance of the second.
CONTAINMENTS = (
    ("snake", "caterpillar"),
    ("caterpillar", "tree"),
    ("tree", "planar"),
    ("tree", "bipartite"),
    ("pruned_polygon", "polygon"),
    ("polygon", "planar"),
    ("pruned_bipartite", "bipartite"),
)


@dataclass
class ClassificationReport:
    """Per-class verdicts with reconstructions, plus the recovered sides
    when bipartite is accepted and any planarity witness."""

    verdicts: Dict[str, Realization]
    condition_summary: Dict[str, bool]
    bipartition: Optional[Bipartition] = None
    planar_witness: Optional[PlanarWitness] = None

    def accepted_classes(self):
        return [c for c, r in self.verdicts.items() if r.accepted]

    def lattice_violations(self):
        """Containment pairs (sub, super) where sub accepted but super rejected."""
        return [
            (sub, sup)
            for sub, sup in CONTAINMENTS
            if self.verdicts[sub].accepted and not self.verdicts[sup].accepted
        ]

    def to_dict(self) -> dict:
        """The report as the JSON document that ``metric-realize classify``
        prints (``serialize.report_to_json``, which holds the schema)."""
        from .serialize import report_to_json

        return json.loads(report_to_json(self))


def classify(family: DistanceFamily) -> ClassificationReport:
    """Run the condition checks and every recognizer on the family's one
    support graph.

    The four-point and median conditions hold when S is a tree (the paper's
    tree theorem); otherwise each is checked once, up to its first violation.
    """
    support = family.support
    triangle = support.violation is None
    tree = support.realization is not None and support.is_tree()
    conditions = {
        "triangle": triangle,
        "four_point": tree or check_four_point(family, max_violations=1).holds,
        "median": tree or check_median(family, max_violations=1).holds,
    }
    verdicts = {name: check(family) for name, check in recognizers().items()}
    bipartition = verdicts["bipartite"].witness
    planar_witness = verdicts["planar"].witness
    return ClassificationReport(verdicts, conditions, bipartition, planar_witness)
