"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc_matrix --seed 1 --seconds 15

Run from the repository root.  The inputs are drawn from the seed once;
set-up (a warm-up, or the 100k-record store for ``campaign_resume``)
runs the workload's ``setup_reps`` times and ``setup_s`` is their
median.  ``--trace 0`` then times the passes with no instrumentation
and reports the end-to-end metrics; ``--trace 1`` times the same passes
untraced, runs them again traced, and reports the per-layer metrics,
the tracing overhead, and writes the spans to ``.perfbench/``.

Above the JSON line the run prints a human-readable block: the
workload-specific metric names with units, quartiles of the per-op
times, the error rate with every failure, wall and CPU time, peak RSS,
and the digest of the simulated outputs.  ``--workload all`` prints the
block for every workload in turn.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The op-time tail is the highest percentile with this many samples
#: strictly beyond it.
TAIL_BEYOND = 10
#: Tuning used seeds 1-20; later claims must also hold on this one.
HELD_OUT_SEED = 7919

#: The gated metrics.  The op-time tail is printed in the report block
#: but not gated: it is one order statistic among a few heterogeneous
#: verdicts, and across 5 seeds on the reference VM its spread (0.34 on
#: prove_matrix) exceeded the largest bound BENCHMARK.json allows (0.25).
END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

ELEMENTS = ("l1d", "l1i", "l2", "llc", "tlb", "branch", "prefetcher")
PER_LAYER = {
    "hardware.build_s": "s",
    "hardware.sim_cycles": "cycles",
    **{f"hardware.{e}.{c}": "count" for e in ELEMENTS
       for c in ("touches", "fills")},
    "kernel.boot_s": "s",
    "kernel.run_s": "s",
    "kernel.steps": "count",
    "kernel.steps_per_s": "1/s",
    "kernel.switches": "count",
    "kernel.flush_cycles": "cycles",
    "kernel.lines_written_back": "count",
    "kernel.pad_overruns": "count",
    "core.builds": "count",
    "core.observations": "count",
    "core.prove_s": "s",
    "core.model_s": "s",
    "core.obligations_s": "s",
    "core.casesplit_s": "s",
    "core.unwinding_s": "s",
    "core.compare_s": "s",
    "mc.states": "count",
    "mc.transitions": "count",
    "mc.deduped": "count",
    "mc.terminal": "count",
    "mc.por_pruned": "count",
    "mc.peak_frontier": "count",
    "mc.max_depth": "count",
    "mc.dedup_ratio": "ratio",
    "mc.clone_s": "s",
    "mc.step_s": "s",
    "mc.check_s": "s",
    "mc.fingerprint_s": "s",
    "mc.dedup_s": "s",
    "mc.other_s": "s",
    "campaign.expand_s": "s",
    "campaign.completed_keys_s": "s",
    "campaign.store_appends": "count",
    "campaign.store_append_s": "s",
    "campaign.store_scan_s": "s",
    "campaign.executor_s": "s",
    "campaign.worker_busy_ratio": "ratio",
    "campaign.failed": "count",
    "campaign.retries": "count",
    **{f"attacks.{a}.trial_s": "s" for a in
       ("e2", "e4", "e5", "e6", "occupancy", "synth")},
    "analysis.pivot_s": "s",
    "bench.wall_s": "s",
    "bench.cpu_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.record_s": "s",
    "bench.unattributed_s": "s",
}

#: Span name -> per-layer metric for its self time, where the metric is
#: not simply the span name plus ``_s``.
SELF_TIME_METRIC = {
    "mc.run": "mc.other_s",
    "campaign.run": "campaign.executor_s",
    "analysis.status": "analysis.pivot_s",
    "bench.pass": "bench.unattributed_s",
}


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with
    ``TAIL_BEYOND`` samples beyond it, or the maximum when there are too
    few samples for that."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), TAIL_BEYOND


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process plus every reaped child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_measure(workload, state, tracer=None):
    gc.collect()
    wall, cpu = time.perf_counter(), cpu_seconds()
    if tracer is None:
        result = workload.measure(state, None)
    else:
        from perfbench.tracing import patched_layers

        with patched_layers(tracer), tracer.span("bench.pass"):
            result = workload.measure(state, tracer)
    return result, time.perf_counter() - wall, cpu_seconds() - cpu


def layer_metrics(tracer, traced, traced_wall, traced_cpu, untraced_wall):
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for span, seconds in tracer.self_times().items():
        metrics[SELF_TIME_METRIC.get(span, span + "_s")] = seconds
    metrics.update(tracer.counters)
    metrics.update(traced.layers)
    if metrics["kernel.run_s"]:
        metrics["kernel.steps_per_s"] = (
            metrics["kernel.steps"] / metrics["kernel.run_s"])
    metrics["bench.wall_s"] = tracer.spans[0][4]  # the root span
    metrics["bench.cpu_s"] = traced_cpu
    metrics["bench.trace_overhead"] = traced_wall / untraced_wall - 1.0
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in metrics.items()}


def run_workload(workload, seed: int, seconds: int, trace: bool,
                 workdir: str, out=sys.stdout) -> dict:
    """Set up, measure and report one workload; returns the result object."""
    from perfbench.workloads import passes_for

    passes = passes_for(workload, seconds)
    inputs = workload.inputs(seed, passes)
    setup_times = []
    state = None
    for _ in range(workload.setup_reps):
        if state is not None:
            workload.teardown(state)
        started = time.perf_counter()
        state = workload.setup(inputs, workdir)
        setup_times.append(time.perf_counter() - started)
    try:
        result, wall, cpu = timed_measure(workload, state)
        if trace:
            from perfbench.tracing import Tracer

            tracer = Tracer()
            traced, traced_wall, traced_cpu = timed_measure(
                workload, state, tracer)
            tracer.write(os.path.join(
                workdir, f"trace-{workload.name}-seed{seed}.json"))
    finally:
        workload.teardown(state)

    tally = result.tally
    digest = result.digest.hexdigest()
    correct = tally.correct and bool(result.samples)
    if trace:
        # Tracing must not change a single simulated output.
        correct = correct and traced.digest.hexdigest() == digest
        metrics = layer_metrics(tracer, traced, traced_wall, traced_cpu, wall)
    else:
        p50 = statistics.median(result.samples) if result.samples else 0.0
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s.p50": p50,
            "ops_per_s": result.units / result.wall if result.wall else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in values.items()}

    print(f"== {workload.name}  seed {seed}  passes {passes}  "
          f"(held-out seed {HELD_OUT_SEED})", file=out)
    if result.samples:
        q1, q2, q3 = quartiles(result.samples)
        tail_value, percentile, beyond = tail(result.samples)
        op = workload.op
        print(f"  {op}_s.p50 {q2:.6g} s  (q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n {len(result.samples)})", file=out)
        print(f"  {op}_s.tail {tail_value:.6g} s  (p{percentile:.0f}, "
              f"{beyond} of {len(result.samples)} samples beyond)", file=out)
    for name, (value, unit) in result.named.items():
        print(f"  {name} {value:.6g} {unit}", file=out)
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  error_rate {error_rate:.4f}  ({tally.failed} failed of "
          f"{tally.attempted} attempted)", file=out)
    for reason in tally.failures:
        print(f"    FAILED {reason}", file=out)
    for reason in tally.known:
        print(f"    FAILED (known defect) {reason}", file=out)
    print(f"  setup_s {statistics.median(setup_times):.6g} s  "
          f"(runs {', '.join(f'{t:.4g}' for t in setup_times)})", file=out)
    print(f"  wall_s {wall:.6g} s  cpu_s {cpu:.6g} s  "
          f"peak_rss_mb {peak_rss_mb():.1f} MB", file=out)
    if trace:
        print(f"  traced wall_s {traced_wall:.6g} s  trace_overhead "
              f"{metrics['bench.trace_overhead']['value']:.3f}", file=out)
    print(f"  digest sha256:{digest}", file=out)
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or args.seconds < 1:
        parser.error(f"--workload one of {sorted(WORKLOADS)} or 'all'; "
                     f"--seconds at least 1")
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace), workdir)
        for name in names
    }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
