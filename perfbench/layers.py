"""Per-layer metrics from the spans and counters of traced repetitions.

Counts are per attempted order and must repeat exactly between
repetitions of one seed; self times are reference milliseconds (see
calibration.py) per attempted order, summed over every traced
repetition.  Shares of the traced time are ratios of wall times.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from spans import CLIENT, Span, self_times

# metric -> unit, in report order.
UNITS: dict[str, str] = {
    "workflow.database.self_ms": "ms/order",
    "workflow.database.instance_stores": "count/order",
    "workflow.database.instance_loads": "count/order",
    "workflow.database.loads_per_step": "ratio",
    "workflow.database.type_loads": "count/order",
    "workflow.engine.steps": "count/order",
    "workflow.engine.self_ms": "ms/order",
    "documents.encode_calls": "count/order",
    "documents.decode_calls": "count/order",
    "documents.encode_self_ms": "ms/order",
    "documents.decode_self_ms": "ms/order",
    "documents.wire_bytes": "B/order",
    "core.binding.calls": "count/order",
    "core.binding.self_ms": "ms/order",
    "transform.applications": "count/order",
    "transform.self_ms": "ms/order",
    "core.rules.calls": "count/order",
    "core.rules.self_ms": "ms/order",
    "core.integration.self_ms": "ms/order",
    "core.integration.faults": "count/order",
    "core.integration.unrecorded_failures": "count/order",
    "messaging.transmissions": "count/order",
    "messaging.self_ms": "ms/order",
    "messaging.retries": "count/order",
    "messaging.duplicates_suppressed": "count/order",
    "messaging.useful_ratio": "ratio",
    "backend.calls": "count/order",
    "backend.self_ms": "ms/order",
    "runtime.events": "count/order",
    "runtime.self_ms": "ms/order",
    "runtime.journal.bytes": "B/order",
    "runtime.journal.self_ms": "ms/order",
    "sim.events_fired": "count/order",
    "sim.pending_peak": "count",
    "sim.self_ms": "ms/order",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
    "client.escaped_exceptions": "count",
}

# metric -> (layer, operation or None for every operation of the layer)
SELF_MS = {
    "workflow.database.self_ms": ("workflow.database", None),
    "workflow.engine.self_ms": ("workflow.engine", None),
    "documents.encode_self_ms": ("documents", "encode"),
    "documents.decode_self_ms": ("documents", "decode"),
    "core.binding.self_ms": ("core.binding", None),
    "transform.self_ms": ("transform", None),
    "core.rules.self_ms": ("core.rules", None),
    "core.integration.self_ms": ("core.integration", None),
    "messaging.self_ms": ("messaging", None),
    "backend.self_ms": ("backend", None),
    "runtime.self_ms": ("runtime", None),
    "runtime.journal.self_ms": ("runtime.journal", None),
    "sim.self_ms": ("sim", None),
}
# metric -> (layer, operation or None) whose span count it is
SPAN_COUNTS = {
    "workflow.database.instance_stores": ("workflow.database", "store_instance"),
    "workflow.database.instance_loads": ("workflow.database", "load_instance"),
    "workflow.database.type_loads": ("workflow.database", "load_type"),
    "documents.encode_calls": ("documents", "encode"),
    "documents.decode_calls": ("documents", "decode"),
    "core.binding.calls": ("core.binding", None),
    "transform.applications": ("transform", None),
    "core.rules.calls": ("core.rules", None),
    "backend.calls": ("backend", None),
    "runtime.events": ("runtime", "publish"),
}
# metrics the recorder counts under their own name
COUNTERS = ("documents.wire_bytes", "messaging.transmissions", "sim.events_fired")
# metric -> the program's own per-repetition count (workloads.program_counts)
PROGRAM = {
    "workflow.engine.steps": "steps",
    "core.integration.faults": "faults",
    "core.integration.unrecorded_failures": "unrecorded_failures",
    "messaging.retries": "retries",
    "messaging.duplicates_suppressed": "duplicates_suppressed",
    "runtime.journal.bytes": "journal_bytes",
}
COUNT_METRICS = (*SPAN_COUNTS, *COUNTERS, *PROGRAM, "sim.pending_peak",
                 "workflow.database.loads_per_step", "messaging.useful_ratio")


def _matches(key: tuple[str, str], layer: str, op: str | None) -> bool:
    return key[0] == layer and (op is None or key[1] == op)


def repetition_metrics(spans: list[Span], counters: dict[str, int],
                       repetition: Any) -> dict[str, Any]:
    """Counts and self seconds of one traced repetition.  Self seconds
    are scaled to reference seconds by the repetition's mean machine
    speed, the ratio of its reference to its wall measured time."""
    own = self_times(spans)
    seconds: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    for span in spans:
        seconds[span.layer, span.op] += own[span.span_id]
        calls[span.layer, span.op] += 1
    orders = repetition.attempted
    report: dict[str, Any] = {}
    for metric, (layer, op) in SPAN_COUNTS.items():
        report[metric] = sum(n for key, n in calls.items() if _matches(key, layer, op)) / orders
    for metric in COUNTERS:
        report[metric] = counters.get(metric, 0) / orders
    for metric, name in PROGRAM.items():
        report[metric] = repetition.counts[name] / orders
    report["sim.pending_peak"] = counters.get("sim.pending_peak", 0)
    steps = repetition.counts["steps"]
    report["workflow.database.loads_per_step"] = (
        calls["workflow.database", "load_instance"] / steps if steps else 0.0)
    transmissions = counters.get("messaging.transmissions", 0)
    report["messaging.useful_ratio"] = (
        counters.get("messaging.accepted", 0) / transmissions if transmissions else 0.0)
    speed = repetition.ref_measured_s / repetition.measured_s
    report["_self_s"] = {
        metric: speed * sum(s for key, s in seconds.items() if _matches(key, layer, op))
        for metric, (layer, op) in SELF_MS.items()
    }
    layer_self: dict[str, float] = defaultdict(float)
    for (layer, _), value in seconds.items():
        layer_self[layer] += value
    report["_layer_self_s"] = dict(layer_self)
    report["_orders"] = orders
    report["_wall_s"] = repetition.measured_s
    report["_wall_ref_s"] = repetition.ref_measured_s
    report["_escaped"] = len(repetition.escaped)
    return report


def count_mismatches(reports: list[dict[str, Any]]) -> list[str]:
    """Count-type metrics that differ between traced repetitions."""
    first = reports[0]
    return [
        f"traced repetition {index} has {metric}={report[metric]}, repetition 0 {first[metric]}"
        for index, report in enumerate(reports[1:], start=1)
        for metric in COUNT_METRICS
        if report[metric] != first[metric]
    ]


def combine(reports: list[dict[str, Any]], untraced_ref_walls: list[float]
            ) -> dict[str, float]:
    """Every metric in :data:`UNITS` over all traced repetitions;
    ``untraced_ref_walls`` are the measured times of the untraced
    repetitions in reference seconds."""
    orders = sum(report["_orders"] for report in reports)
    wall = sum(report["_wall_s"] for report in reports)
    values = {metric: reports[0][metric] for metric in COUNT_METRICS}
    for metric in SELF_MS:
        values[metric] = 1000 * sum(report["_self_s"][metric] for report in reports) / orders
    attributed = sum(
        value
        for report in reports
        for layer, value in report["_layer_self_s"].items()
        if layer != CLIENT
    )
    values["trace.unattributed_share"] = 1 - attributed / wall
    values["trace.overhead"] = (
        statistics.median(report["_wall_ref_s"] for report in reports)
        / statistics.median(untraced_ref_walls))
    values["client.escaped_exceptions"] = sum(report["_escaped"] for report in reports)
    return {metric: values[metric] for metric in UNITS}


def self_shares(reports: list[dict[str, Any]]) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall time, largest
    first; ``client`` is the time no layer span covers."""
    wall = sum(report["_wall_s"] for report in reports)
    totals: dict[str, float] = defaultdict(float)
    for report in reports:
        for layer, value in report["_layer_self_s"].items():
            totals[layer] += value
    return {layer: value / wall
            for layer, value in sorted(totals.items(), key=lambda item: -item[1])}
