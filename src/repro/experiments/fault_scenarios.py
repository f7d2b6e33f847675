"""Fault scenarios: Table-II-style cells under injected fabric faults.

The paper's Table II isolates what congestion control does to a healthy
fabric. This driver asks the complementary robustness question — what
each *fault class* (:mod:`repro.faults`) does to the same hotspot
workload, with and without CC:

* ``link-flap`` — a leaf uplink dies mid-run and retrains later: does
  the fabric recover its throughput, and does CC mis-throttle flows
  that were victims of the outage?
* ``degrade`` — a slow fabric-internal link (the paper's
  frequency/voltage-scaling congestion cause), transient this time;
* ``cnp-drop`` — lossy control signaling: most CNPs are dropped, so
  CCT indices grow more slowly than the congestion they answer;
* ``timer-freeze`` — recovery stops: whatever throttle CC built stays
  for the window (the failure mode of a stuck CCTI timer);
* ``switch-pause`` — a whole spine crossbar blinks without loss,
  backpressuring every flow routed through it;
* ``chaos`` — a seeded random mix of all of the above.

Every scenario runs the Table II "hotspots" phases (CC off / CC on) at
the requested scale; the clean pair is included as the reference row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.config import ExperimentConfig, ScaleProfile
from repro.experiments.runner import ExperimentResult
from repro.faults.spec import ChaosSpec, FaultPlan, FaultSchedule, FaultSpec


@dataclass(frozen=True)
class FaultScenario:
    """One named fault plan applied to the Table II hotspot workload."""

    name: str
    description: str
    plan: Optional[FaultPlan]  # None = the clean reference


def builtin_scenarios(scale: ScaleProfile, *, seed: int = 7) -> List[FaultScenario]:
    """The standard scenario set, sized to ``scale``.

    Fault windows are fractions of the run so every profile (quick /
    default / paper) exercises the same phases: onset after warmup,
    recovery well before the end so the post-fault behaviour is
    measured too.
    """
    sim = scale.sim_time_ns
    hosts_per_leaf = scale.radix // 2
    uplink_port = hosts_per_leaf  # leaf 0's uplink to spine 0
    spine0 = scale.radix  # switch ids: leaves 0..radix-1, then spines
    return [
        FaultScenario("clean", "no faults (reference)", None),
        FaultScenario(
            "link-flap",
            "leaf-0 uplink down for 10% of the run",
            FaultSchedule([
                FaultSpec.link_flap(
                    0.45 * sim, 0.10 * sim, switch=0, port=uplink_port
                ),
            ]),
        ),
        FaultScenario(
            "degrade",
            "leaf-0 uplink at quarter rate for 40% of the run",
            FaultSchedule([
                FaultSpec(
                    "degrade", 0.40 * sim, 0.40 * sim,
                    switch=0, port=uplink_port, value=0.25,
                ),
            ]),
        ),
        FaultScenario(
            "cnp-drop",
            "70% of CNPs dropped at every HCA for half the run",
            FaultSchedule([
                FaultSpec("cnp_drop", 0.30 * sim, 0.50 * sim, value=0.7),
            ]),
        ),
        FaultScenario(
            "timer-freeze",
            "all CC recovery timers frozen for 40% of the run",
            FaultSchedule([
                FaultSpec("timer_freeze", 0.40 * sim, 0.40 * sim),
            ]),
        ),
        FaultScenario(
            "switch-pause",
            "spine-0 paused (lossless) for 5% of the run",
            FaultSchedule([
                FaultSpec("switch_pause", 0.50 * sim, 0.05 * sim, switch=spine0),
            ]),
        ),
        FaultScenario(
            "chaos",
            "seeded random mix of every fault class",
            ChaosSpec(
                seed=seed,
                link_flap=0.05,
                degrade=0.05,
                cnp_drop=0.05,
                timer_freeze=0.05,
                switch_pause=0.02,
            ),
        ),
    ]


@dataclass
class ScenarioRow:
    """Both CC settings of one scenario, plus its fault telemetry."""

    name: str
    off: ExperimentResult
    on: ExperimentResult

    @property
    def improvement(self) -> float:
        return self.on.total / self.off.total if self.off.total else float("nan")


@dataclass
class FaultScenarioTable:
    """One row per scenario of :func:`fault_cells`."""

    rows: List[ScenarioRow]

    @classmethod
    def from_results(cls, results: Sequence[ExperimentResult]) -> "FaultScenarioTable":
        """The (off, on) pairs of :func:`fault_cells`, in order."""
        return cls(rows=[
            ScenarioRow(name=off.config.name[len("fault-"):], off=off, on=on)
            for off, on in zip(results[::2], results[1::2])
        ])

    def format(self) -> str:
        """Plain-text table: throughput and fault telemetry per scenario.

        When any cell ran with the reliable transport enabled, two
        recovery columns are appended: retransmitted packets and
        permanently FAILED flows (CC-on cell of each row).
        """
        with_transport = any(
            r.on.config.transport is not None
            or r.off.config.transport is not None
            for r in self.rows
        )
        head = (
            f"Fault scenarios -- hotspot workload (Gbit/s)\n"
            f"{'scenario':<14} {'tot off':>8} {'tot on':>8} {'improv':>7} "
            f"{'nonhs off':>10} {'nonhs on':>9} {'faults':>7} {'drops':>7}"
        )
        if with_transport:
            head += f" {'retx':>7} {'failed':>7}"
        rows = []
        for r in self.rows:
            faults = r.on.fault_onsets
            drops = r.on.dropped_packets + r.on.cnps_dropped
            line = (
                f"{r.name:<14} {r.off.total:8.3f} {r.on.total:8.3f} "
                f"{r.improvement:6.2f}x {r.off.non_hotspot:10.3f} "
                f"{r.on.non_hotspot:9.3f} {faults:7d} {drops:7d}"
            )
            if with_transport:
                line += f" {r.on.retx_packets:7d} {r.on.failed_flows:7d}"
            rows.append(line)
        return "\n".join([head, *rows])

    def render(self, opts) -> str:
        """What ``ibcc-repro faults`` prints: the table."""
        return self.format()


def fault_cells(scale: ScaleProfile, seed: int, opts) -> List[ExperimentConfig]:
    """CC off then on under each of :func:`builtin_scenarios`."""
    base = ExperimentConfig(
        scale=scale, b_fraction=0.0, c_fraction_of_rest=0.8, seed=seed,
    )
    cells = []
    for sc in builtin_scenarios(scale, seed=seed):
        cfg = base.with_(name=f"fault-{sc.name}", faults=sc.plan)
        cells += [cfg.with_(cc=False), cfg.with_(cc=True)]
    return cells
