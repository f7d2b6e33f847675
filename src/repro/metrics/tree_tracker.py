"""Online congestion-tree tracking and classification.

Section III of the paper classifies congestion trees as *silent*
(stable root, stable branches), *windy* (stable root, branches moving
as the contributor set changes) and *moving* (the root itself
relocates). This module observes a live network at a fixed cadence and
computes, per sample, the congested roots (:func:`congested_ports`: a
switch output port whose queued bytes exceed a fraction of one input
buffer) and their first-level branches; afterwards it scores the
observed dynamics on two axes:

* **root churn** — one minus the containment between the persistent
  dominant-root populations (ports carrying >= half the deepest
  backlog in at least a quarter of a half-trace's samples) of the
  first and second halves of the trace: if the main trees of the late
  samples live somewhere else than the early ones, the forest has
  moved;
* **branch churn** — how often the feeder sets of *persistent* roots
  changed (windy trees score high, silent trees low).

The classifier is deliberately simple (it is an analysis aid, not a
contribution of the paper), but the thresholds reproduce the paper's
taxonomy on the scenarios of section V: C-node workloads classify as
silent, B-node workloads as windy, and moving-hotspot workloads as
moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple


PortKey = Tuple[int, int]


def congested_ports(
    network, *, vl: int = 0, fraction: float = 0.25
) -> List[PortKey]:
    """(switch_id, out_port) pairs whose VoQ backlog exceeds ``fraction``
    of one input buffer's capacity: the instantaneous roots."""
    result = []
    threshold = network.config.switch_ibuf_capacity * fraction
    for sw in network.switches:
        for out in range(sw.n_ports):
            if sw.arbiters[out].queued_bytes[vl] > threshold:
                result.append((sw.node_id, out))
    return result


@dataclass
class TreeSample:
    """One observation instant."""

    time_ns: float
    roots: FrozenSet[PortKey]
    branches: Dict[PortKey, FrozenSet[int]]
    # Roots carrying at least half of the sample's deepest backlog —
    # the "main trees" of the paper's section III, as opposed to the
    # small transient trees background traffic creates.
    dominant: FrozenSet[PortKey] = frozenset()


@dataclass
class TreeDynamics:
    """Churn scores over a tracked interval."""

    samples: int
    root_churn: float
    branch_churn: float
    congested_fraction: float

    def classify(self) -> str:
        """Map churn scores onto the paper's taxonomy."""
        if self.congested_fraction < 0.05:
            return "none"
        if self.root_churn > 0.4:
            return "moving"
        if self.branch_churn > 0.25:
            return "windy"
        return "silent"


class CongestionTreeTracker:
    """Sample a network's congestion trees on a fixed cadence."""

    __slots__ = ("network", "interval_ns", "fraction", "vl", "samples", "_running")

    def __init__(
        self,
        network,
        interval_ns: float,
        *,
        fraction: float = 0.25,
        vl: int = 0,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.network = network
        self.interval_ns = interval_ns
        self.fraction = fraction
        self.vl = vl
        self.samples: List[TreeSample] = []
        self._running = False

    def start(self) -> "CongestionTreeTracker":
        """Arm the tracker (idempotent); returns self."""
        if not self._running:
            self._running = True
            self.network.sim.schedule(self.interval_ns, self._tick)
        return self

    def stop(self) -> None:
        """Stop sampling; the pending tick becomes a no-op."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        net = self.network
        roots = congested_ports(net, vl=self.vl, fraction=self.fraction)
        branches: Dict[PortKey, FrozenSet[int]] = {}
        backlog: Dict[PortKey, int] = {}
        for sw_id, out in roots:
            arbiter = net.switches[sw_id].arbiters[out]
            branches[(sw_id, out)] = frozenset(arbiter.feeders(self.vl))
            backlog[(sw_id, out)] = arbiter.queued_bytes[self.vl]
        deepest = max(backlog.values(), default=0)
        dominant = frozenset(
            key for key, depth in backlog.items() if depth >= 0.5 * deepest
        )
        self.samples.append(
            TreeSample(net.sim.now, frozenset(roots), branches, dominant)
        )
        net.sim.schedule(self.interval_ns, self._tick)

    # -- analysis ------------------------------------------------------
    def dynamics(self) -> TreeDynamics:
        """Score root/branch churn over all collected samples."""
        samples = self.samples
        if len(samples) < 2:
            raise ValueError("need at least two samples to assess dynamics")
        branch_changes = 0
        branch_comparisons = 0
        congested = sum(1 for s in samples if s.roots)
        for prev, cur in zip(samples, samples[1:]):
            for root in prev.roots & cur.roots:
                branch_comparisons += 1
                if prev.branches[root] != cur.branches[root]:
                    branch_changes += 1
        half = len(samples) // 2

        def persistent_roots(window):
            # A port belongs to a window's main forest if it was a
            # dominant root in at least a quarter of the window's
            # samples; one-off transient trees are filtered out.
            counts: Dict[PortKey, int] = {}
            for s in window:
                for key in s.dominant:
                    counts[key] = counts.get(key, 0) + 1
            cutoff = max(1, len(window) // 4)
            return frozenset(k for k, c in counts.items() if c >= cutoff)

        early = persistent_roots(samples[:half])
        late = persistent_roots(samples[half:])
        # Containment rather than Jaccard: extra secondary roots in one
        # half must not register as movement; what matters is whether
        # the established main roots are still where they were.
        smaller = min(len(early), len(late))
        if smaller:
            root_churn = 1.0 - len(early & late) / smaller
        else:
            root_churn = 0.0
        return TreeDynamics(
            samples=len(samples),
            root_churn=root_churn,
            branch_churn=(
                branch_changes / branch_comparisons if branch_comparisons else 0.0
            ),
            congested_fraction=congested / len(samples),
        )
