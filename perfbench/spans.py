"""Spans around the hub's layer entry points, and the self-time arithmetic.

A :class:`SpanRecorder` replaces each entry point named in :data:`LAYERS`
with a wrapper that records one span per call: layer, operation, start,
end, parent span and the order id the client is working on.  Spans stay
in memory until the run ends.

Install the wrappers before the community is built.  ``Enterprise`` keeps
bound methods (``b2b.receive``) and the protocol descriptors keep their
codec functions in frozen ``WireCodec`` records, so anything captured
before installation would bypass the wrappers; the traced run fails when
an expected layer records no span, which is how such a bypass shows.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple

# (layer, module, class, entry points).  The layer names are the
# ``<module>`` prefix of the per-layer metrics.
LAYERS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("workflow.database", "repro.workflow.database", "WorkflowDatabase",
     ("store_instance", "load_instance", "load_type")),
    ("workflow.engine", "repro.workflow.engine", "WorkflowEngine",
     ("create_instance", "start", "complete_waiting_step", "cancel_waiting_step",
      "get_instance")),
    ("core.binding", "repro.core.binding", "Binding", ("apply_inbound", "apply_outbound")),
    ("transform", "repro.transform.transformer", "RouteExecutor", ("apply",)),
    ("core.rules", "repro.core.rules", "RuleEngine", ("evaluate",)),
    ("core.integration", "repro.core.integration", "B2BEngine",
     ("handle_message", "start_conversation", "dispatch_outbound", "backend_ready",
      "refresh_conversations")),
    ("messaging", "repro.messaging.network", "SimulatedNetwork", ("send", "_deliver")),
    ("messaging", "repro.messaging.transport", "Endpoint", ("send",)),
    ("messaging", "repro.messaging.transport", "ValueAddedNetwork", ("post", "pick_up")),
    ("messaging", "repro.messaging.reliable", "ReliableEndpoint", ("send_reliable",)),
    ("backend", "repro.backend.base", "ERPSimulator",
     ("store_document", "extract_document_for")),
    ("backend", "repro.backend.sap_sim", "SapSimulator", ("enter_order",)),
    ("backend", "repro.backend.oracle_sim", "OracleSimulator", ("enter_order",)),
    ("runtime", "repro.runtime.bus", "EventBus", ("publish",)),
    ("runtime", "repro.runtime.kernel", "Kernel", ("emit", "drain")),
    ("runtime.journal", "repro.runtime.journal", "JournalWriter",
     ("append", "append_frame", "flush")),
    ("sim", "repro.sim", "EventScheduler", ("step",)),
)

# The wire codecs are wrapped per protocol descriptor (see install()).
DOCUMENTS = "documents"
# Root spans the benchmark opens around submit_order and run_community.
CLIENT = "client"


class Span(NamedTuple):
    span_id: int
    layer: str
    op: str
    start: float
    end: float
    parent: int | None
    order: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans from one thread and counts layer events.

    ``counters`` holds what a span alone cannot say: wire bytes, business
    transmissions, messages accepted, scheduler events fired and the
    scheduler's peak backlog.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.order: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    def call(self, layer: str, op: str, function: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``function`` inside a span."""
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, layer, op, start, end, parent, self.order))

    def wrap(self, layer: str, op: str, function: Callable[..., Any],
             after: Callable[[tuple, Any], None] | None = None) -> Callable[..., Any]:
        """A wrapper of ``function`` that records a span per call and then
        hands the call's arguments and result to ``after``."""
        call = self.call
        stack = self._stack

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:  # outside the client's root spans: set-up, read-back
                return function(*args, **kwargs)
            result = call(layer, op, function, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` and every codec."""
        from repro.b2b.protocol import extended_protocols
        from repro.messaging.envelope import KIND_BUSINESS

        counters = self.counters

        def count_business(args: tuple, _result: Any) -> None:
            if args[1].kind == KIND_BUSINESS:
                counters["messaging.transmissions"] += 1

        def count_posted(_args: tuple, _result: Any) -> None:
            counters["messaging.transmissions"] += 1

        def count_fired(_args: tuple, fired: bool) -> None:
            if fired:
                counters["sim.events_fired"] += 1

        def count_wire(_args: tuple, text: str) -> None:
            counters["documents.wire_bytes"] += len(text.encode("utf-8"))

        hooks = {
            ("SimulatedNetwork", "send"): count_business,
            ("ValueAddedNetwork", "post"): count_posted,
            ("EventScheduler", "step"): count_fired,
        }
        for layer, module_name, class_name, ops in LAYERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for op in ops:
                original = cls.__dict__.get(op, getattr(cls, op))
                self._restore.append((cls, op, cls.__dict__.get(op)))
                wrapped = self.wrap(layer, op, original, hooks.get((class_name, op)))
                setattr(cls, op, wrapped)

        self._wrap_handle_message()
        self._wrap_scheduler_backlog()
        for protocol in extended_protocols().values():
            codec = protocol.codec
            self._restore.append((codec, "to_wire", codec.to_wire))
            self._restore.append((codec, "from_wire", codec.from_wire))
            object.__setattr__(
                codec, "to_wire", self.wrap(DOCUMENTS, "encode", codec.to_wire, count_wire)
            )
            object.__setattr__(
                codec, "from_wire", self.wrap(DOCUMENTS, "decode", codec.from_wire)
            )

    def _wrap_handle_message(self) -> None:
        # A business message is accepted when handle_message returns
        # without recording a fault.
        from repro.core.integration import B2BEngine
        from repro.messaging.envelope import KIND_BUSINESS

        wrapped = B2BEngine.handle_message
        counters = self.counters

        stack = self._stack

        @functools.wraps(wrapped)
        def handle_message(engine: Any, message: Any) -> None:
            if not stack:
                return wrapped(engine, message)
            faults = len(engine.faults)
            wrapped(engine, message)
            if message.kind == KIND_BUSINESS and len(engine.faults) == faults:
                counters["messaging.accepted"] += 1

        B2BEngine.handle_message = handle_message

    def _wrap_scheduler_backlog(self) -> None:
        # Sampled outside the step span so the O(n) count stays out of
        # sim.self_ms.
        from repro.sim import EventScheduler

        wrapped = EventScheduler.step
        counters = self.counters

        stack = self._stack

        @functools.wraps(wrapped)
        def step(scheduler: Any) -> bool:
            if not stack:
                return wrapped(scheduler)
            pending = scheduler.pending()
            if pending > counters["sim.pending_peak"]:
                counters["sim.pending_peak"] = pending
            return wrapped(scheduler)

        EventScheduler.step = step

    def uninstall(self) -> None:
        """Put back every original the installation replaced.  Originals
        are restored in reverse order, so a wrapper stacked on another
        wrapper (``handle_message``, ``step``) goes with it."""
        for target, name, original in reversed(self._restore):
            if isinstance(target, type):
                if original is None:
                    delattr(target, name)
                else:
                    setattr(target, name, original)
            else:
                object.__setattr__(target, name, original)
        self._restore.clear()

    def write_jsonl(self, path: Any) -> None:
        """Write every recorded span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.span_id: span.duration - covered[span.span_id] for span in spans}
