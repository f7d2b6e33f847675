"""Per-layer attribution of one simulation, recorded from outside.

Nothing under ``src/`` is edited. Before ``run_experiment`` builds
anything, :func:`install` rebinds names from this file only:

* ``repro.experiments.runner.Simulator`` becomes a subclass whose
  ``schedule``/``schedule_at`` queue ``(fn, arg)`` behind a timing
  trampoline. The queue, its order and the sequence numbers are the
  base class's own, so the simulation is untouched; each executed
  event becomes a span named after the callback's owner.
* the layer entry points in :data:`ENTRY_POINTS` get a timing wrapper,
  so calls made *inside* an event become child spans.

A span's self time is its duration minus its child spans'. Spans
aggregate online into ``(n, total, self)`` per name; the first
:data:`RAW_SPAN_LIMIT` raw spans are kept for ``spans.jsonl``.

Every target is a dotted name resolved at run time, because later
changes may not edit this directory: a target that no longer exists is
skipped and reported under ``unresolved``; a callback whose owner is in
no table lands in ``other.<module>``.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

RAW_SPAN_LIMIT = 10_000
#: Queue depth is sampled once per this many executed events.
PENDING_SAMPLE_EVERY = 64

#: The name ``run_experiment`` looks the simulator class up under.
SIMULATOR = "repro.experiments.runner:Simulator"

#: Scheduled callbacks, by ``module:qualname`` -> span name.
EVENT_OWNERS: Dict[str, str] = {
    "repro.network.ports:OutputPort._tx_done": "network.ports.tx_done",
    "repro.network.ports:SwitchInputPort.deliver": "network.ports.deliver",
    "repro.network.hca:HcaInputPort.deliver": "network.ports.deliver",
    "repro.network.ports:OutputPort.on_credit": "network.ports.credit",
    "repro.network.hca:HcaInputPort._service_done": "network.hca.sink",
    "repro.network.hca:Hca.pull": "network.hca.pull",
    "repro.network.hca:Hca._wake": "network.hca.pull",
    "repro.core.hca_cc:HcaCC._timer_fire": "core.hca_cc.timer",
    "repro.traffic.hotspots:HotspotSchedule._move": "traffic.hotspot_move",
    "repro.transport.reliability:HcaTransport._on_timeout": "transport.timer",
    "repro.transport.reliability:HcaTransport._flush_ack": "transport.ack",
}

_TRACE_HOOKS = (
    "inject", "tx", "rx", "fecn_mark", "cnp", "becn", "ccti_change",
    "rate_change", "timer_fire", "retx", "ack", "flow_failed", "flow_summary",
)

#: Layer entry points called from inside events: target -> span name.
ENTRY_POINTS: Dict[str, str] = {
    "repro.network.arbiter:VLArbiter.on_packet_queued": "network.arbiter",
    "repro.network.arbiter:VLArbiter.kick": "network.arbiter",
    "repro.core.switch_cc:SwitchCC.on_transmit": "core.switch_cc",
    "repro.core.hca_cc:HcaCC.on_inject": "core.hca_cc.inject",
    "repro.core.hca_cc:HcaCC.on_becn": "core.hca_cc.becn",
    "repro.traffic.generators:BNodeSource.next_packet": "traffic.next_packet",
    "repro.metrics.collector:Collector.record_rx": "metrics.record",
    "repro.metrics.collector:Collector.record_tx": "metrics.record",
    "repro.transport.reliability:HcaTransport.register": "transport.data",
    "repro.transport.reliability:HcaTransport.on_data": "transport.data",
    "repro.transport.reliability:HcaTransport.next_retx": "transport.data",
    "repro.transport.reliability:HcaTransport.on_ack": "transport.ack",
    **{f"repro.trace.tracer:Tracer.{h}": "trace.hook" for h in _TRACE_HOOKS},
}

#: Build calls ``run_experiment`` makes, in order, as the runner names them.
BUILD_CALLS: Dict[str, str] = {
    "repro.experiments.runner:three_stage_fat_tree": "setup.topology",
    "repro.experiments.runner:Network": "setup.network",
    "repro.core.manager:CCManager.__init__": "setup.cc_install",
    "repro.core.manager:CCManager.install": "setup.cc_install",
    "repro.experiments.runner:build_generators": "setup.generators",
}

#: Span whose calls returning ``(None, ...)`` count as idle polls.
IDLE_SPAN = "traffic.next_packet"


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:A.b"`` -> ``(owner, "b", value)``; raises if it is gone."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Recorder:
    """Span aggregation shared by the simulator trampoline and wrappers."""

    def __init__(self) -> None:
        #: name -> [n, total_ns, self_ns, name]
        self.spans: Dict[str, list] = {}
        #: One child-time accumulator per open span; [0] is the loop.
        self.stack: List[int] = [0]
        #: (name, start_ns, end_ns, depth) in completion order.
        self.raw: List[Tuple[str, int, int, int]] = []
        self.unresolved: List[str] = []
        self.observed: set = set()
        self.schedule_calls = 0
        self.cancels = 0
        self.idle = 0
        self.events = 0
        #: Time inside executed events; the rest of the run is the loop's.
        self.event_ns = 0
        self.pending_sum = 0
        self.pending_samples = 0
        self.pending_peak = 0
        self.run_ns = 0
        #: Span self time accumulated while ``Simulator.run`` was running.
        self.self_in_run_ns = 0
        self.run_start_ns = 0
        self.run_end_ns = 0
        #: scheduled callback (plain function) -> its span cell
        self._cells: Dict[Any, list] = {}
        self._restore: List[Tuple[Any, str, Any]] = []

    def cell(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0, 0, name])

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn: Callable, name: str, target: str) -> Callable:
        cell = self.cell(name)
        stack, raw = self.stack, self.raw
        count_idle = name == IDLE_SPAN
        unseen = [True]

        def timed(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            out = fn(*args, **kwargs)
            t1 = perf_counter_ns()
            dt = t1 - t0
            cell[0] += 1
            cell[1] += dt
            cell[2] += dt - stack.pop()
            stack[-1] += dt
            if len(raw) < RAW_SPAN_LIMIT:
                raw.append((name, t0, t1, len(stack)))
            if unseen:
                unseen.clear()
                self.observed.add(target)
            if count_idle and out[0] is None:
                self.idle += 1
            return out

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def patch(self, table: Dict[str, str]) -> None:
        for target, name in table.items():
            try:
                owner, attr, fn = resolve(target)
            except (ImportError, AttributeError):
                self.unresolved.append(target)
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, target))

    def event_cell(self, fn: Callable) -> list:
        """The span cell for a scheduled callback, by its owner's name."""
        func = getattr(fn, "__func__", fn)
        named = getattr(func, "__wrapped__", func)  # a wrapped entry point
        module = getattr(named, "__module__", None) or "unknown"
        target = f"{module}:{getattr(named, '__qualname__', repr(named))}"
        name = EVENT_OWNERS.get(target)
        if name is None:
            name = "other." + module
        cell = self.cell(name)
        self._cells[func] = cell
        self.observed.add(target)
        return cell

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- output ----------------------------------------------------------
    def report(self) -> dict:
        """Aggregates in seconds; the loop's self time closes the books."""
        return {
            "spans": {
                name: {"n": n, "total_s": total / 1e9, "self_s": self_ns / 1e9}
                for name, (n, total, self_ns, _) in sorted(self.spans.items())
            },
            "run_s": self.run_ns / 1e9,
            "loop_self_s": (self.run_ns - self.event_ns) / 1e9,
            "span_self_in_run_s": self.self_in_run_ns / 1e9,
            "events": self.events,
            "other_events": sum(
                cell[0] for name, cell in self.spans.items()
                if name.startswith("other.")
            ),
            "schedule_calls": self.schedule_calls,
            "cancels": self.cancels,
            "idle_polls": self.idle,
            "pending_peak": self.pending_peak,
            "pending_mean": self.pending_sum / max(1, self.pending_samples),
            "unresolved": sorted(self.unresolved),
            "observed": sorted(self.observed),
        }

    def write_spans(self, path: str, span_id: str) -> None:
        """Raw spans as JSON lines: name, start, end, parent, id.

        Spans were appended as they *ended*, so a span's parent is the
        next one recorded at a shallower depth; depth 1 hangs off the
        event loop. A parent cut off by the raw-span limit is null.
        """
        parents: List[Optional[int]] = [None] * len(self.raw)
        waiting: Dict[int, List[int]] = {}
        for i, (_, _, _, depth) in enumerate(self.raw):
            for child in waiting.pop(depth + 1, ()):
                parents[child] = i
            waiting.setdefault(depth, []).append(i)
        with open(path, "a") as fh:
            for i, (name, t0, t1, depth) in enumerate(self.raw):
                parent: Any = parents[i]
                if depth == 1:
                    parent = "build" if name.startswith("setup.") else "loop"
                fh.write(json.dumps({
                    "id": span_id, "span": i, "name": name,
                    "start_ns": t0, "end_ns": t1, "parent": parent,
                }) + "\n")


def _attributed_simulator(base: type, rec: Recorder) -> type:
    cells = rec._cells
    stack, raw = rec.stack, rec.raw

    class AttributedSimulator(base):  # type: ignore[misc, valid-type]
        """The kernel, with every executed event bracketed as a span."""

        def __init__(self, *args, **kwargs):
            base.__init__(self, *args, **kwargs)
            self._fire_event = self._fire  # bound once, not per schedule

        def schedule(self, delay, fn, arg=None):
            rec.schedule_calls += 1
            return base.schedule(self, delay, self._fire_event, (fn, arg))

        def schedule_at(self, time, fn, arg=None):
            rec.schedule_calls += 1
            return base.schedule_at(self, time, self._fire_event, (fn, arg))

        def cancel(self, event_id):
            rec.cancels += 1
            base.cancel(self, event_id)

        def _fire(self, pair):
            fn, arg = pair
            cell = cells.get(getattr(fn, "__func__", fn))
            if cell is None:
                cell = rec.event_cell(fn)
            stack.append(0)
            t0 = perf_counter_ns()
            if arg is None:
                fn()
            else:
                fn(arg)
            t1 = perf_counter_ns()
            dt = t1 - t0
            cell[0] += 1
            cell[1] += dt
            cell[2] += dt - stack.pop()
            rec.event_ns += dt
            n = rec.events = rec.events + 1
            if len(raw) < RAW_SPAN_LIMIT:
                raw.append((cell[3], t0, t1, 1))
            if not n % PENDING_SAMPLE_EVERY:
                depth = self.pending
                rec.pending_sum += depth
                rec.pending_samples += 1
                if depth > rec.pending_peak:
                    rec.pending_peak = depth

        def run(self, until=None):
            # Build spans have charged the root accumulator; the loop's
            # books start from zero.
            stack[:] = [0]
            self_before = sum(cell[2] for cell in rec.spans.values())
            rec.run_start_ns = t0 = perf_counter_ns()
            try:
                base.run(self, until)
            finally:
                rec.run_end_ns = perf_counter_ns()
                rec.run_ns += rec.run_end_ns - t0
                rec.self_in_run_ns += (
                    sum(cell[2] for cell in rec.spans.values()) - self_before
                )

    return AttributedSimulator


def install() -> Recorder:
    """Rebind the simulator and wrap every resolvable target."""
    rec = Recorder()
    try:
        owner, attr, base = resolve(SIMULATOR)
    except (ImportError, AttributeError):
        rec.unresolved.append(SIMULATOR)
    else:
        rec._restore.append((owner, attr, base))
        setattr(owner, attr, _attributed_simulator(base, rec))
    for target in EVENT_OWNERS:
        try:
            resolve(target)
        except (ImportError, AttributeError):
            rec.unresolved.append(target)
    rec.patch(BUILD_CALLS)
    rec.patch(ENTRY_POINTS)
    return rec
