"""End-to-end order benchmark for the Figure 15 hub.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady-small --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` alternates untraced repetitions with traced ones, which
run with span wrappers on every layer's entry points, and reports the
per-layer metrics, the trace's own sanity checks and its overhead.
Either way the outputs are checked; the last line of standard output is
one JSON object, and a wrong output makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Any

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "perfbench", ".work")

# Set-up is timed this many extra times before measuring, so its median
# rests on enough samples even when few repetitions fit in a run.
SETUP_PROBES = 5
# A run repeats the order list at least this often, so that the counts of
# two repetitions of one seed can be compared.
MIN_REPETITIONS = 2

# name -> unit, for --trace 0.
END_TO_END = {
    "orders_per_s": "orders/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "completed_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layers that must record spans on every workload, and where else.
EXPECTED_LAYERS = (
    "workflow.database", "workflow.engine", "documents", "core.binding", "transform",
    "core.rules", "core.integration", "messaging", "backend", "runtime", "sim",
)
JOURNAL_LAYER = "runtime.journal"


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def repeat(workload: Any, inputs: Any, seconds: float) -> list[Any]:
    """Repeat the order list until ``seconds`` have passed (at least
    :data:`MIN_REPETITIONS` times)."""
    from workloads import run_repetition

    repetitions = []
    start = perf_counter()
    while len(repetitions) < MIN_REPETITIONS or perf_counter() - start < seconds:
        repetitions.append(run_repetition(workload, inputs, WORKDIR))
    return repetitions


def check(repetitions: list[Any]) -> list[str]:
    """Output errors, and any count that differs between repetitions."""
    errors = [error for repetition in repetitions for error in repetition.errors]
    first = repetitions[0].counts
    for index, repetition in enumerate(repetitions[1:], start=1):
        for name, value in repetition.counts.items():
            if value != first[name]:
                errors.append(
                    f"repetition {index} counted {name}={value}, repetition 0 {first[name]}")
    return errors


def end_to_end(workload: Any, inputs: Any, seconds: float, seed: int) -> tuple:
    """Metrics of an untraced run: (metrics, repetitions, notes, errors)."""
    from workloads import build_hub

    before = calibration.speed()
    probes = []
    for _ in range(SETUP_PROBES):
        hub, setup_s = build_hub(workload, inputs.network_seed, WORKDIR)
        hub.close()
        probes.append(setup_s)
    probe_speed = (before + calibration.speed()) / 2
    repetitions = repeat(workload, inputs, seconds)
    setups = [setup_s * probe_speed for setup_s in probes]
    setups += [repetition.ref_setup_s for repetition in repetitions]
    latencies = [value for repetition in repetitions for value in repetition.latencies_s]
    ref_latencies = [value for repetition in repetitions for value in repetition.ref_latencies_s]
    attempted = sum(repetition.attempted for repetition in repetitions)
    completed = sum(repetition.completed for repetition in repetitions)
    values = {
        "orders_per_s": completed / sum(r.ref_measured_s for r in repetitions),
        "latency_p50_ms": percentile(ref_latencies, 0.50) * 1000,
        "latency_p95_ms": percentile(ref_latencies, 0.95) * 1000,
        "completed_share": completed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"repetitions {len(repetitions)} of {workload.orders} orders "
        f"(bursts of {workload.burst}, {workload.lines[0]}-{workload.lines[1]} lines)",
        f"latency samples {len(latencies)} (completed orders); setup samples {len(setups)}",
        f"wall clock: {completed / sum(r.measured_s for r in repetitions):.2f} orders/s, "
        f"latency p50 {percentile(latencies, 0.50) * 1000:.3f} ms, "
        f"p95 {percentile(latencies, 0.95) * 1000:.3f} ms, "
        f"setup {statistics.median(probes + [r.setup_s for r in repetitions]):.4f} s; "
        f"machine speed {statistics.median(v for r in repetitions for v in r.speeds):.3f} "
        f"reference s per s",
    ]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, repetitions, notes, []


def per_layer(workload: Any, inputs: Any, seconds: float, seed: int) -> tuple:
    """Metrics of a traced run: (metrics, repetitions, notes, errors)."""
    import layers
    from spans import SpanRecorder
    from workloads import run_repetition

    # Untraced and traced repetitions alternate, so that machine drift
    # falls on both sides of trace.overhead alike.
    untraced: list[Any] = []
    traced: list[Any] = []
    reports: list[dict[str, Any]] = []
    recorder = SpanRecorder()
    start = perf_counter()
    run_repetition(workload, inputs, WORKDIR)  # warm-up: fill the program's caches
    while len(traced) < MIN_REPETITIONS or perf_counter() - start < seconds:
        untraced.append(run_repetition(workload, inputs, WORKDIR))
        first_span = len(recorder.spans)
        recorder.install()
        try:
            repetition = run_repetition(workload, inputs, WORKDIR, recorder)
        finally:
            recorder.uninstall()
        reports.append(layers.repetition_metrics(
            recorder.spans[first_span:], recorder.counters, repetition))
        recorder.counters.clear()
        traced.append(repetition)
    errors = layers.count_mismatches(reports)
    expected = EXPECTED_LAYERS + ((JOURNAL_LAYER,) if workload.lossy_durable else ())
    recorded = {span.layer for span in recorder.spans}
    errors += [f"layer {layer} recorded no span" for layer in sorted(set(expected) - recorded)]
    values = layers.combine(
        reports, [repetition.ref_measured_s for repetition in untraced])
    span_file = os.path.join(WORKDIR, f"spans-{workload.name}-{seed}.jsonl")
    recorder.write_jsonl(span_file)
    notes = [
        f"untraced repetitions {len(untraced)}, traced repetitions {len(traced)}; "
        f"{len(recorder.spans)} spans written to {os.path.relpath(span_file, ROOT)}",
    ] + [f"self-time share {layer:20s} {share:.4f}"
         for layer, share in layers.self_shares(reports).items()]
    metrics = {name: (value, layers.UNITS[name]) for name, value in values.items()}
    return metrics, untraced + traced, notes, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    from workloads import WORKLOADS, make_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = make_inputs(workload, args.seed)
    os.makedirs(WORKDIR, exist_ok=True)

    measure = per_layer if args.trace else end_to_end
    metrics, repetitions, notes, errors = measure(workload, inputs, args.seconds, args.seed)
    errors = check(repetitions) + errors
    escaped = [escape for repetition in repetitions for escape in repetition.escaped]
    statuses = sum((repetition.failed_statuses for repetition in repetitions), Counter())
    notes.append(f"orders not completed, by final buyer status: {dict(statuses) or 'none'}; "
                 f"escaped exceptions: {len(escaped)}")

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    for note in notes:
        print(note)
    for escape in escaped[:5]:
        print(f"escaped exception: {escape}")
    for error in errors[:20]:
        print(f"WRONG OUTPUT: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": sum(repetition.attempted for repetition in repetitions),
        "failed": sum(repetition.failed for repetition in repetitions),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
