"""twistlab benchmark: seeded known-answer workloads run in a closed loop
with one client.

    python3 perfbench/run.py --workload fibrations --seed 1 --seconds 30 --trace 0

With --trace 0 the last line of stdout holds the end-to-end figures; with
--trace 1 it holds the per-layer figures of a separately traced pass.  The
lines before it are a readable summary.  Generated inputs and the span file
go under .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("fibrations", "presentations", "covers")
# Per-operation limit: every seed operation finishes well under it (at most
# ~2 s on a 2-core sandbox), while the named reach inputs need far more
# (~84 s for the 547-crossing verify), so decided counts repeat run to run.
TIME_LIMIT_S = 5.0
SETUP_SAMPLES = 8  # taken before and again after the timed phase

SETUP_PROGRAM = """
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
import calibration
before = calibration.sample()
start = time.perf_counter()
import twistlab, twistlab.cli
twistlab.cli.build_parser()
seconds = time.perf_counter() - start
print(seconds, calibration.scale(before, calibration.sample()))
"""


def setup_samples(count: int) -> list:
    """(measured, reference) seconds, in fresh interpreters, to import
    twistlab and twistlab.cli and build the argument parser: what every CLI
    call pays first.  The calibration runs in the same interpreter."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROGRAM, SRC, HERE],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, scale = map(float, done.stdout.split())
        samples.append((seconds, seconds * scale))
    return samples


def layer_metrics(tracer, ops: int) -> dict:
    """Per-layer figures per traced operation."""
    calls = lambda name: tracer.calls.get(name, 0) / ops
    self_s = lambda name: tracer.self_s.get(name, 0.0) / ops
    counter = lambda name: tracer.counters.get(name, 0)
    layers = tracer.layer_self_s()
    out = {f"{layer}.self_s": (t / ops, "s/op") for layer, t in layers.items()}
    for name in ("metaplectic.maslov", "metaplectic.evaluate", "metaplectic.multiply",
                 "invariants.signature", "words.evaluate", "exact.snf"):
        out[f"{name}.calls"] = (calls(name), "1/op")
    for name in ("metaplectic.maslov", "metaplectic.search", "invariants.report",
                 "words.evaluate", "exact.snf", "exact.rank_q", "exact.inverse",
                 "systems.build", "systems.verify", "presentations.abelianize",
                 "presentations.rs_cover", "presentations.lift"):
        out[f"{name}.self_s"] = (self_s(name), "s/op")
    out["exact.snf.cells"] = (counter("exact.snf.cells") / ops, "1/op")
    out["exact.snf.max_dim"] = (counter("exact.snf.max_dim"), "count")
    out["exact.snf.max_bits"] = (counter("exact.snf.max_bits"), "bit")
    out["systems.crossings"] = (counter("systems.crossings") / ops, "1/op")
    out["systems.curves"] = (counter("systems.curves") / ops, "1/op")
    out["presentations.relator_letters"] = (counter("presentations.relator_letters") / ops, "1/op")
    out["cli.output_bytes"] = (counter("cli.output_bytes") / ops, "B/op")
    return out


def traced_pass(runner, plan, seconds: float, workload: str):
    """Run the trace set untraced, then traced, and repeat while time is
    left; per-layer figures are averaged per traced operation, so they do not
    depend on how many repetitions fit."""
    from harness import summarize
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    pair_s = 0.0
    while not traced or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        for op in plan.trace_set():
            untraced.append(runner.run(op))
        tracer.install()
        try:
            for op in plan.trace_set():
                tracer.begin_op(len(traced))
                outcome = runner.run(op)
                tracer.end_op()
                tracer.add("cli.output_bytes", outcome.output_bytes)
                traced.append(outcome)
        finally:
            tracer.uninstall()
        pair_s = time.perf_counter() - pair_start
    tracer.write(os.path.join(OUT, f"trace-{workload}.jsonl.gz"))
    base, with_trace = summarize(untraced), summarize(traced)
    metrics = layer_metrics(tracer, len(traced))
    base, with_trace = base["measured"], with_trace["measured"]
    metrics["trace.throughput_ops_s"] = (with_trace["throughput_ops_s"], "ops/s")
    metrics["trace.untraced_throughput_ops_s"] = (base["throughput_ops_s"], "ops/s")
    metrics["trace.overhead"] = (with_trace["busy_s"] / base["busy_s"], "1")
    return untraced + traced, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twistlab", "__init__.py")):
        print(f"no twistlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import twistlab

    if not os.path.abspath(twistlab.__file__).startswith(SRC):
        print(f"imported twistlab from {twistlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import UNDECIDED, WRONG, Runner, closed_loop, summarize

    module = importlib.import_module(args.workload)
    setup_samples(1)  # writes the bytecode cache
    samples = setup_samples(SETUP_SAMPLES)

    workdir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        started = time.perf_counter()
        plan = module.build(random.Random(f"{args.workload}:{args.seed}"), workdir, ROOT)
        generation_s = time.perf_counter() - started

        runner = Runner(TIME_LIMIT_S)
        warm = [runner.run(op) for op in plan.warmup]
        if args.trace:
            outcomes, metrics = traced_pass(runner, plan, args.seconds, args.workload)
        else:
            outcomes = closed_loop(runner, plan, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples += setup_samples(SETUP_SAMPLES)
    setup_s = statistics.median(reference for _, reference in samples)
    stats = summarize(outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = [o for o in warm + outcomes if o.status == WRONG]
    stray = [o for o in outcomes if o.status == UNDECIDED and not o.op.reach]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "time_limit_s": TIME_LIMIT_S, "input_generation_s": generation_s,
        "setup_s": setup_s, "measured_setup_s": statistics.median(s for s, _ in samples),
        "peak_rss_mb": peak_rss_mb, **stats,
        "undecided_kinds": sorted({o.op.kind for o in outcomes if o.status == UNDECIDED}),
        "wrong_examples": [f"{o.op.kind}: {o.detail}" for o in problems[:5]],
        **plan.notes,
    }
    print("summary " + json.dumps(summary))
    if args.trace:
        ranking = sorted(((k, v) for k, (v, u) in metrics.items() if k.endswith(".self_s")),
                         key=lambda kv: -kv[1])
        print(f"self time per traced op ({len(outcomes) // 2} ops), largest first: "
              + ", ".join(f"{k} {v * 1000:.3f} ms" for k, v in ranking))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (stats["throughput_ops_s"], "ops/s"),
            "latency_p50_ms": (stats["latency_p50_ms"], "ms"),
            "latency_tail_ms": (stats["latency_tail_ms"], "ms"),
            "decided_ratio": (stats["decided_ratio"], "1"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": stats["attempted"],
        "failed": stats["wrong"] + len(stray),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
