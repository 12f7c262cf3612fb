"""Benchmark of metric-realize's production entry points.

    python3 perfbench/run.py --workload tree_like --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  One op is one call, on one pre-generated input, of either

* ``metric_realize.cli.run(["classify", "-"])`` (``--tol`` appended in float
  mode) with the CSV text on stdin, or
* the graph-side round trip ``graph_from_json -> two_weights -> prune ->
  verify_realization`` on graph JSON text.

The load is a closed loop: one client, one process, no threads.  The op list
is run in whole passes, each in a fresh seeded order, until ``--seconds`` have
passed and at least MIN_PASSES passes ran.  Each op sits between two runs of
the calibration kernel in ``hostspeed.py``, and its time is reported in
reference seconds (wall time scaled by the kernel's speed around it); an
input's latency is its median over the passes.  Every output is checked
against the independent reference in ``reference.py``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and it carries the per-layer metrics.  See README.md for the metric
glossary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
MIN_PASSES = 3

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402  (bench modules live next to this file)
import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import metric_realize from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "metric_realize" / "__init__.py").is_file():
        raise ProgramMissing(f"no metric_realize package under {src}")
    sys.path.insert(0, str(src))
    import metric_realize

    if Path(metric_realize.__file__).resolve().parent.parent != src.resolve():
        raise ProgramMissing(f"metric_realize was imported from {metric_realize.__file__}")
    return metric_realize


def setup_probe(workload: str, seed: int) -> float:
    """Time of importing the program and generating the inputs, in a fresh
    interpreter (bench helpers are already imported), in reference seconds
    (scaled by the median of three kernel runs right after it)."""
    t0 = time.perf_counter()
    load_program()
    inputs.make_inputs(workload, seed)
    wall = time.perf_counter() - t0
    kernel = statistics.median(hostspeed.kernel_seconds() for _ in range(3))
    return hostspeed.reference_seconds(wall, kernel)


def measure_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise ProgramMissing(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


class Runner:
    """Runs ops on the program and checks each output against the reference."""

    def __init__(self, items, expected):
        from metric_realize import cli, serialize
        from metric_realize import graph as graph_module
        from metric_realize.comparison import EXACT

        self.cli = cli
        self.serialize = serialize
        self.graph = graph_module
        self.exact = EXACT
        self.items = items
        self.expected = expected
        self.verified = {}  # (input index, output digest) -> (errors, accepted verdicts)
        self.failures = {}  # input index -> errors of its first failed op
        self.ops = 0
        self.accepted = 0
        self.tracer = None  # a layers.Tracer during traced passes

    def run(self, idx: int):
        """One op: returns (reference seconds, wall seconds, errors).  Only
        the call into the program is timed (and traced); the calibration
        kernel runs right before and right after it, then the output is
        checked."""
        inp = self.items[idx]
        clock = time.perf_counter
        tracer = self.tracer
        # Every op starts with empty young generations, so the collections
        # that run inside it depend on its own allocations only.
        gc.collect()
        kernel = hostspeed.kernel_seconds()
        if tracer is not None:
            tracer.begin_op(self.ops)
        if inp.slot.kind == "classify":
            argv = ["classify", "-"] + (["--tol"] if inp.slot.mode == "float" else [])
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(inp.text)
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out):
                    rc = self.cli.run(argv)
                result = (rc, out.getvalue())
            except (Exception, SystemExit) as exc:  # argparse exits on bad argv
                result = exc
            dt = clock() - t0
            sys.stdin = saved
            if tracer is not None:
                tracer.end_op()
            kernel += hostspeed.kernel_seconds()
            errors, accepted = self._check_classify(idx, result)
        else:
            g = self.graph
            t0 = clock()
            try:
                graph = self.serialize.graph_from_json(inp.text, self.exact)
                family = g.two_weights(graph, self.exact)
                pruned = g.prune(graph, self.exact)
                result = (family, pruned, g.verify_realization(pruned, family))
            except Exception as exc:
                result = exc
            dt = clock() - t0
            if tracer is not None:
                tracer.end_op()
            kernel += hostspeed.kernel_seconds()
            errors, accepted = self._check_graph(idx, result)
        self.ops += 1
        self.accepted += accepted
        if errors and idx not in self.failures:
            self.failures[idx] = errors
        return hostspeed.reference_seconds(dt, kernel / 2), dt, errors

    def _check_classify(self, idx, result):
        if isinstance(result, BaseException):
            return [f"raised {type(result).__name__}: {result}"], 0
        rc, text = result
        if rc != 0:
            return [f"exit code {rc}"], 0
        # Verdicts are deterministic, so a report identical to one already
        # checked for the same input needs no second reference check.
        key = (idx, hashlib.blake2b(text.encode(), digest_size=16).digest())
        if key not in self.verified:
            errors = _checked(reference.check_classify, text, self.items[idx], self.expected[idx])
            accepted = 0
            if not errors:
                accepted = sum(1 for c in json.loads(text)["classes"].values() if c["accepted"])
            self.verified[key] = (errors, accepted)
        return self.verified[key]

    def _check_graph(self, idx, result):
        if isinstance(result, BaseException):
            return [f"raised {type(result).__name__}: {result}"], 0
        errors = _checked(reference.check_graph_ops, *result, self.items[idx], self.expected[idx])
        return errors, 1 if result[2] is True and not errors else 0


def _checked(check, *args):
    """Run a reference check; output too malformed to check is a failure of
    the op, not of the benchmark."""
    try:
        return check(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"]


def run_passes(runner, seconds, seed, tracer=None):
    """Whole passes over the op list, each in a fresh seeded order, until
    ``seconds`` have passed and every kind of pass ran MIN_PASSES times.

    Without a tracer every pass is untraced; with one, passes alternate
    untraced / traced.  Returns {"untraced": [...], "traced": [...]}, one list
    of per-op (reference seconds, wall seconds) pairs, indexed by input, per
    pass, and the number of ops attempted and failed."""
    order_rng = random.Random(f"order|{seed}")
    order = list(range(len(runner.items)))
    passes = {"untraced": [], "traced": []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        order_rng.shuffle(order)
        traced = tracer is not None and len(passes["untraced"]) > len(passes["traced"])
        times = [None] * len(order)
        if traced:
            tracer.install()
            runner.tracer = tracer
        try:
            for idx in order:
                ref_s, wall_s, errors = runner.run(idx)
                times[idx] = (ref_s, wall_s)
                attempted += 1
                failed += 1 if errors else 0
        finally:
            if traced:
                runner.tracer = None
                tracer.uninstall()
        passes["traced" if traced else "untraced"].append(times)
        kinds = [passes["untraced"]] + ([passes["traced"]] if tracer is not None else [])
        if time.perf_counter() - start >= seconds and all(len(k) >= MIN_PASSES for k in kinds):
            return passes, attempted, failed


def input_times(pass_times, which=0):
    """Per-input median over the passes of reference seconds (``which=0``)
    or wall seconds (``which=1``)."""
    return [statistics.median(t[which] for t in ts) for ts in zip(*pass_times)]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment(seed):
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    versions = {}
    for name in ("numpy", "scipy", "networkx"):
        module = sys.modules.get(name)
        versions[name] = getattr(module, "__version__", "absent")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def latency_metrics(latencies):
    """Throughput and latency percentiles of per-input op times (seconds)."""
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
    }


def end_to_end(latencies, setup_samples):
    """``latencies``: each input's median time over the passes, in reference
    seconds; ``setup_samples`` in reference seconds too."""
    return {
        **latency_metrics(latencies),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, runner, passes):
    metrics = {name: (value, "s" if name.endswith(".s") else "count") for name, value in tracer.per_op().items()}
    ops = max(tracer.ops, 1)
    overhead = sum(input_times(passes["traced"])) / sum(input_times(passes["untraced"])) - 1
    metrics.update(
        {
            "support_edges_per_op": (tracer.support_edges / ops, "count"),
            "accepted_verdicts_per_op": (runner.accepted / max(runner.ops, 1), "count"),
            "prune.useful_edge_frac": (tracer.prune_useful / max(tracer.prune_edges, 1), "ratio"),
            "trace_overhead_frac": (overhead, "ratio"),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        load_program()
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    except (ProgramMissing, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench(args.workload, args.seed, args.seconds, bool(args.trace), setup_samples)
    return 0


def bench(workload, seed, seconds, trace, setup_samples, tiny=False, out=None):
    """Set up, measure, check and report one run; returns the summary that
    is printed as the last line of ``out``."""
    out = out or sys.stdout
    items = inputs.make_inputs(workload, seed, tiny)
    expected = [reference.Expected(inp) for inp in items]
    self_errors = {i: reference.self_check(inp, exp) for i, (inp, exp) in enumerate(zip(items, expected))}
    self_errors = {i: e for i, e in self_errors.items() if e}

    runner = Runner(items, expected)
    tracer = layers.Tracer() if trace else None
    # The benchmark's own long-lived objects stay out of the program's
    # garbage collections.
    gc.collect()
    gc.freeze()
    passes, attempted, failed = run_passes(runner, seconds, seed, tracer)
    latencies = input_times(passes["untraced"])

    for idx, errors in sorted(self_errors.items()) + sorted(runner.failures.items()):
        inp = items[idx]
        print(f"FAILED input {idx} {inp.slot}: {'; '.join(errors[:5])}", file=sys.stderr)
        print(inp.text, file=sys.stderr)

    if trace:
        metrics = per_layer(tracer, runner, passes)
    else:
        metrics = end_to_end(latencies, setup_samples)
    record = {
        "workload": workload,
        "trace": int(trace),
        "inputs": len(items),
        "passes": {k: len(v) for k, v in passes.items()},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "absent_layers": tracer.absent if trace else [],
        "setup_samples_s": setup_samples,
        "wall": {k: v for k, (v, _) in latency_metrics(input_times(passes["untraced"], 1)).items()},
        "environment": environment(seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not tiny:
        RESULTS.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if trace:
            tracer.write_spans(RESULTS / f"{stem}.spans.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}", file=out)
    print(
        f"{'failed_frac':40s} {failed / attempted:14.6g} ratio  "
        f"({failed} of {attempted} ops; latency samples: {len(items)} inputs, "
        f"each the median of {len(passes['untraced'])} passes)",
        file=out,
    )
    print("unscaled wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in record["wall"].items()), file=out)
    if trace:
        print(
            f"traced op time {tracer.op_seconds / max(tracer.ops, 1):.6g} s per op; "
            f"sum of self times {sum(v for k, (v, _) in metrics.items() if k.endswith('.s')):.6g} s",
            file=out,
        )
    print("environment: " + json.dumps(record["environment"]), file=out)
    if record["absent_layers"]:
        print(f"absent layers: {', '.join(record['absent_layers'])}", file=out)
    summary = {
        "correct": failed == 0 and not self_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(summary), file=out)
    gc.unfreeze()
    return summary


if __name__ == "__main__":
    sys.exit(main())
