"""Workloads, order generation and the order client.

Every workload sends purchase orders through the Figure 15 community
(seller ACME; buyers TP1 EDI/VAN, TP2 RosettaNet/reliable, TP3
OAGIS/plain) using only public calls: ``Enterprise.submit_order``,
``run_community`` and read-back through ``Enterprise.instance`` and the
back ends.  One repetition builds a fresh community and sends the
workload's whole order list; a run repeats that list, so every
repetition of one seed must produce the same counts.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.analysis.scenarios import build_fig15_community
from repro.core.enterprise import run_community
from repro.messaging.network import NetworkConditions
from repro.runtime.journal import attach_journal

import calibration
from spans import CLIENT, SpanRecorder

PARTNERS = ("TP1", "TP2", "TP3")
# The seller back end the Figure 15 routing rule names for each partner.
ROUTES = {"TP1": "SAP", "TP2": "Oracle", "TP3": "SAP"}
SELLER_DELAY = 0.5
MAX_ROUNDS = 1000
# Measured seconds between two calibration slices.
SEGMENT_S = 0.3
# Where each seller back end keeps the lines of a booked order.
LINE_PATHS = {"SAP": "items", "Oracle": "lines"}


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    :param orders: orders per repetition.
    :param burst: orders submitted before each ``run_community`` drain;
        1 is a closed loop with one order in flight.
    :param lines: inclusive range of lines per order.
    :param prices: range of unit prices in cents.
    :param lossy_durable: send over the duplicating, reordering network
        with loss on the reliable links and the write-ahead journal
        attached; on any other workload every order must complete.
    """

    name: str
    why: str
    orders: int
    burst: int
    lines: tuple[int, int]
    prices: tuple[int, int] = (100, 100_000)
    lossy_durable: bool = False


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "steady-small",
            "closed loop, one order of 1-3 lines in flight: per-order fixed costs "
            "(workflow steps, type loads, rules, bus events) dominate",
            # Totals stay under the 10 000 approval threshold, so every order
            # takes one path and the median is not split between two.
            orders=150, burst=1, lines=(1, 3), prices=(100, 15_000),
        ),
        Workload(
            "burst-large",
            "bursts of 50 orders of 20-60 lines in flight at once: codecs, binding and "
            "transform, workflow-DB snapshots and back-end copies dominate",
            orders=150, burst=50, lines=(20, 60),
        ),
        Workload(
            "lossy-durable",
            "bursts of 10 orders over a duplicating, reordering network, 1% loss on the "
            "reliable RosettaNet links, journal on: retries, dedup and journal appends",
            orders=900, burst=10, lines=(1, 12), lossy_durable=True,
        ),
    )
}

# lossy-durable: every link duplicates and reorders; only the links of the
# reliable RosettaNet partner lose messages, which its retries recover, so
# no order fails.  (Loss on the plain OAGIS link, or truncation anywhere,
# strands orders; a benchmark workload must have no failed operation.)
# With 1% loss a message fails only if all four transmissions or their
# acknowledgments are lost, about 2e-7 per message.
REORDERING = NetworkConditions(duplicate_rate=0.05, min_latency=0.01, max_latency=0.3)
LOSSY = NetworkConditions(
    loss_rate=0.01, duplicate_rate=0.05, min_latency=0.01, max_latency=0.3
)
LOSSY_PARTNER = "TP2"


@dataclass(frozen=True)
class Order:
    partner: str
    po_number: str
    lines: tuple[dict[str, Any], ...]

    @property
    def total(self) -> float:
        return round(sum(line["quantity"] * line["unit_price"] for line in self.lines), 2)


@dataclass(frozen=True)
class Inputs:
    """What the program receives: the orders and the network seed."""

    orders: tuple[Order, ...]
    network_seed: int


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The workload's orders for ``seed``; the same seed gives the same inputs.

    Within each group of orders, each partner's line counts are spread
    evenly over the workload's range and then shuffled, so every seed
    carries the same amount of work per partner and per group; the seed
    decides their order, the SKUs, quantities and prices, and the network
    seed.  A group is one burst: orders in flight together share one
    drain, whose time would otherwise depend on which sizes the seed put
    into it.  A closed loop has one order in flight, so its group is the
    whole list.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    network_seed = rng.randrange(2**31)
    low, high = workload.lines
    group = workload.burst if workload.burst > 1 else workload.orders
    line_counts: dict[int, int] = {}
    for first in range(0, workload.orders, group):
        indexes = range(first, min(first + group, workload.orders))
        for offset in range(len(PARTNERS)):
            mine = [index for index in indexes if index % len(PARTNERS) == offset]
            # Midpoints of equal strata, so that a few orders still average
            # the middle of the range.
            spread = [low + (2 * rank + 1) * (high - low + 1) // (2 * len(mine))
                      for rank in range(len(mine))]
            rng.shuffle(spread)
            line_counts.update(zip(mine, spread))
    generated = []
    for index in range(workload.orders):
        partner = PARTNERS[index % len(PARTNERS)]
        lines = tuple(
            {
                "sku": f"SKU-{rng.randrange(10_000):04d}",
                "quantity": rng.randint(1, 20),
                "unit_price": rng.randrange(*workload.prices) / 100,
            }
            for _ in range(line_counts[index])
        )
        generated.append(Order(partner, f"PO-{seed}-{index:05d}", lines))
    return Inputs(tuple(generated), network_seed)


@dataclass
class Repetition:
    """What one pass over the order list measured and found.

    Times are wall seconds; the ``ref_`` ones are in reference seconds
    (see calibration.py).
    """

    setup_s: float
    ref_setup_s: float = 0.0
    measured_s: float = 0.0
    ref_measured_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    ref_latencies_s: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    escaped: list[str] = field(default_factory=list)
    unrecorded_failures: int = 0
    failed_statuses: Counter[str] = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


class ReferenceClock:
    """Converts a repetition's measured time to reference seconds.

    The measured time is cut into segments of about :data:`SEGMENT_S`; a
    calibration slice runs between segments, outside the measured time,
    and each segment is scaled by the mean speed of the slices around it.
    """

    def __init__(self, rep: Repetition):
        self.rep = rep
        self.speed = calibration.speed()
        rep.speeds.append(self.speed)
        self.wall_s = 0.0
        self.latencies_s: list[float] = []

    def add(self, wall_s: float, latencies_s: list[float]) -> None:
        self.wall_s += wall_s
        self.latencies_s += latencies_s
        if self.wall_s >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        now = calibration.speed()
        self.rep.speeds.append(now)
        factor = (self.speed + now) / 2
        self.rep.ref_measured_s += self.wall_s * factor
        self.rep.ref_latencies_s += [value * factor for value in self.latencies_s]
        self.speed = now
        self.wall_s = 0.0
        self.latencies_s = []


class Hub:
    """One freshly built community, with the journal where the workload uses it."""

    def __init__(self, workload: Workload, network_seed: int, workdir: str):
        self.journal_dir = None
        self.journal = None
        self.community = build_fig15_community(
            seed=network_seed,
            conditions=REORDERING if workload.lossy_durable else None,
            seller_delay=SELLER_DELAY,
        )
        if workload.lossy_durable:
            network = self.community.network
            network.set_link_conditions("ACME", LOSSY_PARTNER, LOSSY)
            network.set_link_conditions(LOSSY_PARTNER, "ACME", LOSSY)
            self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=workdir)
            self.journal = attach_journal(self.community.runtime, self.journal_dir)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


def build_hub(workload: Workload, network_seed: int, workdir: str) -> tuple[Hub, float]:
    """Build a hub; returns it with the set-up time in seconds."""
    start = perf_counter()
    hub = Hub(workload, network_seed, workdir)
    return hub, perf_counter() - start


def run_repetition(
    workload: Workload,
    inputs: Inputs,
    workdir: str,
    recorder: SpanRecorder | None = None,
) -> Repetition:
    """Send every order once through a fresh hub and check the outcome.

    Only ``submit_order`` and ``run_community`` are timed.  With a
    ``recorder``, the client opens a root span around each; read-back,
    calibration and checks run outside any span.
    """
    gc.collect()
    hub, setup_s = build_hub(workload, inputs.network_seed, workdir)
    rep = Repetition(setup_s=setup_s)
    clock = ReferenceClock(rep)
    rep.ref_setup_s = setup_s * clock.speed
    community = hub.community
    enterprises = community.enterprises()
    waiting: list[tuple[Order, str, float]] = []
    done: dict[str, str] = {}
    try:
        for first in range(0, len(inputs.orders), workload.burst):
            burst = inputs.orders[first:first + workload.burst]
            started = perf_counter()
            for order in burst:
                submitted = perf_counter()
                rep.attempted += 1
                buyer = community.buyers[order.partner]
                try:
                    if recorder is None:
                        instance_id = buyer.submit_order(
                            "SAP", "ACME", order.po_number, list(order.lines))
                    else:
                        recorder.order = order.po_number
                        instance_id = recorder.call(
                            CLIENT, "submit", buyer.submit_order,
                            "SAP", "ACME", order.po_number, list(order.lines))
                except Exception as error:  # an escape is measured, not fatal
                    rep.escaped.append(f"submit {order.po_number}: {error!r}")
                    continue
                waiting.append((order, instance_id, submitted))
            try:
                if recorder is None:
                    run_community(enterprises, max_rounds=MAX_ROUNDS)
                else:
                    recorder.order = burst[0].po_number if len(burst) == 1 else f"burst@{first}"
                    recorder.call(CLIENT, "drain", run_community, enterprises,
                                  max_rounds=MAX_ROUNDS)
            except Exception as error:  # an escape is measured, not fatal
                rep.escaped.append(f"drain @{first}: {error!r}")
            drained = perf_counter()
            rep.measured_s += drained - started
            still_waiting = []
            latencies = []
            for order, instance_id, submitted in waiting:
                buyer = community.buyers[order.partner]
                if buyer.instance(instance_id).status == "completed":
                    latencies.append(drained - submitted)
                    done[order.po_number] = instance_id
                else:
                    still_waiting.append((order, instance_id, submitted))
            waiting = still_waiting
            rep.latencies_s += latencies
            clock.add(drained - started, latencies)
        clock.flush()
        rep.completed = len(done)
        check_outputs(community, inputs.orders, done, rep, lossless=not workload.lossy_durable)
        classify_failures(community, waiting, rep)
        rep.counts = program_counts(hub, rep)
    finally:
        hub.close()
    return rep


def check_outputs(community: Any, orders: tuple[Order, ...], done: dict[str, str],
                  rep: Repetition, lossless: bool) -> None:
    """Each completed order is booked where the routing rule sends it, with
    the submitted lines and total, and the buyer's SAP holds its ack.  On a
    lossless network every order must complete."""
    booked = 0
    seller_backends = community.seller.backends
    for order in orders:
        target = ROUTES[order.partner]
        other = "Oracle" if target == "SAP" else "SAP"
        if seller_backends[other].has_order(order.po_number):
            rep.errors.append(f"{order.po_number} booked at {other}, routing names {target}")
        if order.po_number not in done:
            if lossless:
                rep.errors.append(f"{order.po_number} did not complete on a lossless network")
            continue
        backend = seller_backends[target]
        if not backend.has_order(order.po_number):
            rep.errors.append(f"{order.po_number} completed but not booked at {target}")
            continue
        booked += 1
        record = backend.order(order.po_number)
        lines = record.document.get(LINE_PATHS[target])
        if len(lines) != len(order.lines):
            rep.errors.append(
                f"{order.po_number}: {len(lines)} lines booked, {len(order.lines)} submitted")
        if abs(record.total_amount - order.total) > 0.005:
            rep.errors.append(
                f"{order.po_number}: total {record.total_amount} booked, {order.total} submitted")
        if order.po_number not in community.buyers[order.partner].backends["SAP"].stored_acks:
            rep.errors.append(f"{order.po_number}: no ack in {order.partner}'s SAP")
    if booked != rep.completed:
        rep.errors.append(f"{booked} of {rep.completed} completed orders booked")


def classify_failures(community: Any, waiting: list[tuple[Order, str, float]],
                      rep: Repetition) -> None:
    """Record the final status of every order that did not complete, and
    count those that left no trace: no fault on either side names their
    conversation.  A ``DeliveryFailed`` on an open conversation makes the
    engine record a fault, so it is covered by the same test."""
    faulted = {
        fault["conversation"]
        for enterprise in community.enterprises()
        for fault in enterprise.b2b.faults
    }
    for order, instance_id, _ in waiting:
        instance = community.buyers[order.partner].instance(instance_id)
        rep.failed_statuses[instance.status] += 1
        if instance.variables.get("conversation_id") not in faulted:
            rep.unrecorded_failures += 1


def program_counts(hub: Hub, rep: Repetition) -> dict[str, int]:
    """The program's own counters for one repetition; a repeat of the
    same inputs must reproduce every one of them."""
    community = hub.community
    enterprises = community.enterprises()
    databases = [enterprise.wfms.database for enterprise in enterprises]
    return {
        "failed": rep.failed,
        "escaped": len(rep.escaped),
        "unrecorded_failures": rep.unrecorded_failures,
        "instance_stores": sum(db.instance_stores for db in databases),
        "instance_loads": sum(db.instance_loads for db in databases),
        "type_loads": sum(db.type_loads for db in databases),
        "steps": sum(enterprise.wfms.steps_executed for enterprise in enterprises),
        "network_sent": community.network.stats.sent,
        "events": community.runtime.bus.published,
        "retries": sum(enterprise.reliable.stats.retries for enterprise in enterprises),
        "duplicates_suppressed": sum(
            enterprise.reliable.stats.duplicates_suppressed for enterprise in enterprises),
        "delivery_failed": sum(enterprise.reliable.stats.failed for enterprise in enterprises),
        "faults": sum(len(enterprise.b2b.faults) for enterprise in enterprises),
        "journal_bytes": hub.journal.writer.bytes_written if hub.journal else 0,
    }
