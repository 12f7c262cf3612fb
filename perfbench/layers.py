"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the program's public functions with timing
wrappers in every ``metric_realize`` module namespace that holds them (so
calls through ``from .family import check_triangle`` are caught too), plus
``networkx.check_planarity``, ``ClassificationReport.to_dict`` and
``json.dump``.  ``uninstall`` puts the originals back.  Nothing under ``src/``
changes.

Each wrapped call records a span ``[name, start, end, parent]`` in the
current op's list; an op is opened with ``begin_op`` and closed with
``end_op``, which folds the op's spans into per-layer self time (duration
minus the direct children's durations) and call counts.  The op's own span
(named ``op`` in the span file) is reported under ``classify.classify`` together with the classify call's
self time: it is the part of the op that no other named layer covers, so the
self times of one op add up to its traced duration exactly.

A layer whose function no longer exists in the program is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Dict, List

# (metric prefix, module under metric_realize, function)
FUNCTIONS = (
    ("family.check_median", "family", "check_median"),
    ("family.check_four_point", "family", "check_four_point"),
    ("family.check_triangle", "family", "check_triangle"),
    ("family.is_indecomposable", "family", "is_indecomposable"),
    ("graph.support_graph", "graph", "support_graph"),
    ("graph.shortest_path_matrix", "graph", "shortest_path_matrix"),
    ("graph.two_weights", "graph", "two_weights"),
    ("graph.prune", "graph", "prune"),
    ("graph.verify_realization", "graph", "verify_realization"),
    ("planar.planar_check", "planar", "planar_check"),
    ("trees.snake_check", "trees", "snake_check"),
    ("trees.caterpillar_check", "trees", "caterpillar_check"),
    ("trees.tree_check", "trees", "tree_check"),
    ("trees.pendant_offsets", "trees", "pendant_offsets"),
    ("polygons.pruned_polygon_check", "polygons", "pruned_polygon_check"),
    ("polygons.polygon_check", "polygons", "polygon_check"),
    ("polygons.polygon_order", "polygons", "polygon_order"),
    ("bipartite.complete_check", "bipartite", "complete_check"),
    ("bipartite.cobigraph_check", "bipartite", "cobigraph_check"),
    ("bipartite.bipartition", "bipartite", "bipartition"),
    ("serialize.parse_family_csv", "serialize", "parse_family_csv"),
    ("serialize.graph_from_json", "serialize", "graph_from_json"),
    ("classify.classify", "classify", "classify"),
)

PLANARITY = "planar.check_planarity"
EMIT = "serialize.emit"
ROOT = "classify.classify"

# Layers whose self time is reported; those with a ``.calls`` metric too.
TIMED = tuple(label for label, _, _ in FUNCTIONS) + (PLANARITY, EMIT)
COUNTED = (
    "family.check_median",
    "family.check_four_point",
    "family.check_triangle",
    "family.is_indecomposable",
    "graph.support_graph",
    "graph.shortest_path_matrix",
    "graph.verify_realization",
)

# Spans of at most this many are kept for the span file; aggregates cover all ops.
SPAN_BUDGET = 200_000


class Tracer:
    def __init__(self):
        self.patches: List[tuple] = []  # (owner, attribute, original)
        self.absent: List[str] = []
        self.recording = False
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op_id = -1
        self.kept: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.ops = 0
        self.op_seconds = 0.0
        self.op_support_edges = 0
        self.support_edges = 0
        self.prune_edges = 0
        self.prune_useful = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans = tracer.spans
            rec = [name, 0.0, 0.0, tracer.stack[-1]]
            tracer.stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # The support graph of an op is the last one built; on the graph side it
    # is the pruned graph (the unique pruned realization).
    def _count_support(self, args, graph):
        self.op_support_edges = len(graph.edges)

    def _count_prune(self, args, graph):
        self.prune_edges += len(args[0].edges)
        self.prune_useful += len(graph.edges)
        self.op_support_edges = len(graph.edges)

    def install(self):
        """Wrap every traced function wherever the program binds it."""
        import json as json_module

        import networkx

        self.absent = []
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("metric_realize.")]
        package = sys.modules["metric_realize"]
        hooks = {"graph.support_graph": self._count_support, "graph.prune": self._count_prune}
        for label, module, func in FUNCTIONS:
            fn = getattr(sys.modules.get(f"metric_realize.{module}"), func, None)
            if not callable(fn):
                fn = getattr(package, func, None)
            if not callable(fn):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, fn, hooks.get(label))
            for owner in modules + [package]:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, attr, wrapper)
        self._patch(networkx, "check_planarity", self._wrap(PLANARITY, networkx.check_planarity))
        report_cls = getattr(package, "ClassificationReport", None)
        if report_cls is not None and callable(getattr(report_cls, "to_dict", None)):
            self._patch(report_cls, "to_dict", self._wrap(EMIT, report_cls.to_dict))
        self._patch(json_module, "dump", self._wrap(EMIT, json_module.dump))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.op_support_edges = 0
        self.spans = [["op", 0.0, 0.0, -1]]
        self.stack = [0]
        self.recording = True
        self.spans[0][1] = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        self.recording = False
        spans = self.spans
        spans[0][2] = end
        self_s = [s[2] - s[1] for s in spans]
        for s in spans[1:]:
            self_s[s[3]] -= s[2] - s[1]
        self.self_s[ROOT] += self_s[0]
        for s, t in zip(spans[1:], self_s[1:]):
            self.self_s[s[0]] += t
            self.calls[s[0]] += 1
        self.ops += 1
        self.support_edges += self.op_support_edges
        self.op_seconds += end - spans[0][1]
        if len(self.kept) + len(spans) <= SPAN_BUDGET:
            self.kept.extend((self.op_id, *s) for s in spans)
        self.spans = []

    # -- results -----------------------------------------------------------

    def per_op(self) -> Dict[str, float]:
        ops = max(self.ops, 1)
        out = {f"{label}.s": self.self_s.get(label, 0.0) / ops for label in TIMED}
        out.update({f"{label}.calls": self.calls.get(label, 0) / ops for label in COUNTED})
        return out

    def write_spans(self, path):
        """One JSON array per line: op id, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.kept:
                handle.write(json.dumps(span) + "\n")
