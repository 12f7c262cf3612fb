"""Tests of the benchmark itself:  python3 -m pytest perfbench/test_perfbench.py

Tiny-size smoke runs of every workload, agreement of the independent
reference with the program on small families of every class, the tracer's
self-time accounting, and metric names against BENCHMARK.json.
"""

import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

run.load_program()

from metric_realize import classify  # noqa: E402
from metric_realize.serialize import parse_family_csv  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

GEN_CLASSES = (
    "snake",
    "caterpillar",
    "tree",
    "polygon",
    "arbitrary_connected",
    "planar",
    "complete",
    "complete_bipartite",
    "gnp:0.3",
)


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace):
    out = io.StringIO()
    summary = run.bench(workload, 3, 0.0, trace, [0.1], tiny=True, out=out)
    assert summary["correct"], out.getvalue()
    assert summary["failed"] == 0
    assert summary["attempted"] >= len(inputs.workload_slots(workload, tiny=True))
    assert set(summary["metrics"]) == (PER_LAYER if trace else END_TO_END)
    assert json.loads(out.getvalue().splitlines()[-1]) == summary


def test_inputs_depend_only_on_seed():
    a = inputs.make_inputs("sparse_metric", 5, tiny=True)
    b = inputs.make_inputs("sparse_metric", 5, tiny=True)
    c = inputs.make_inputs("sparse_metric", 6, tiny=True)
    assert [x.text for x in a] == [x.text for x in b]
    assert [x.text for x in a] != [x.text for x in c]


def test_stacked_triangulation_is_maximal_planar():
    import networkx as nx

    pairs = inputs.stacked_triangulation(40, random.Random(1))
    g = nx.Graph(pairs)
    assert g.number_of_nodes() == 40 and g.number_of_edges() == 3 * 40 - 6
    assert nx.check_planarity(g)[0]


@pytest.mark.parametrize("gen_class", GEN_CLASSES)
@pytest.mark.parametrize("weights", ["int", "decimal"])
def test_reference_agrees_with_program(gen_class, weights):
    scale = inputs.UNITS[weights]
    for n in range(4, 9):
        for seed in range(3):
            edges = inputs.make_graph(gen_class, n, scale, random.Random(f"{gen_class}{n}{seed}"))
            dist = inputs.distances(n, edges)
            # G(n, m) graphs belong to no class by construction.
            gen = "arbitrary_connected" if gen_class.startswith("gnp") else gen_class
            slot = inputs.Slot("classify", gen, n, weights, "exact")
            inp = inputs.OpInput(slot, inputs.matrix_csv(dist, scale), scale, edges, dist)
            exp = reference.Expected(inp)
            assert reference.self_check(inp, exp) == []
            report = classify(parse_family_csv(inp.text))
            got = {c: report.verdicts[c].accepted for c in reference.CLASSES}
            assert got == exp.verdicts, (gen_class, n, seed)
            text = json.dumps(report.to_dict())
            assert reference.check_classify(text, inp, exp) == []


def test_reference_catches_a_wrong_report():
    inp = inputs.make_inputs("tree_like", 1, tiny=True)[2]
    exp = reference.Expected(inp)
    doc = classify(parse_family_csv(inp.text)).to_dict()
    doc["classes"]["tree"]["realization"]["edges"][0]["w"] = "999"
    assert reference.check_classify(json.dumps(doc), inp, exp)
    doc["classes"]["complete"]["accepted"] = True
    assert any("complete" in e for e in reference.check_classify(json.dumps(doc), inp, exp))


def test_self_times_add_up_to_op_time():
    items = inputs.make_inputs("dense_metric", 2, tiny=True)
    runner = run.Runner(items, [reference.Expected(i) for i in items])
    tracer = layers.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        for idx in range(len(items)):
            assert runner.run(idx)[2] == []
    finally:
        tracer.uninstall()
    per_op = tracer.per_op()
    total = sum(v for k, v in per_op.items() if k.endswith(".s"))
    assert total == pytest.approx(tracer.op_seconds / tracer.ops, rel=1e-9)
    assert per_op["planar.check_planarity.s"] > 0
    assert per_op["family.check_triangle.calls"] >= 1
    assert tracer.absent == []
    from metric_realize import family

    assert not hasattr(family.check_triangle, "__wrapped__")


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree_like", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_malformed_report_is_a_failed_op():
    items = inputs.make_inputs("dense_metric", 1, tiny=True)
    runner = run.Runner(items, [reference.Expected(i) for i in items])
    doc = classify(parse_family_csv(items[0].text)).to_dict()
    doc["planar_witness"] = {"kind": "K33", "hubs": [1, 2, 3, 4, 5, 6], "chains": {}}
    doc["classes"]["planar"] = {"accepted": False}
    errors, _ = runner._check_classify(0, (0, json.dumps(doc)))
    assert any("malformed" in e for e in errors)
