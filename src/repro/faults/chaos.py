"""Deterministic chaos: expand a :class:`ChaosSpec` into a schedule.

The expansion is a pure function of ``(spec, topology shape, run
duration)``: every draw comes from a PRNG seeded only by the spec's
seed, so the same chaos spec expands to byte-identical schedules in
every worker process at any ``jobs`` value — chaos runs stay
reproducible, digest-stable, and cacheable.

Event counts per fault class follow a Poisson law with mean
``rate x simulated milliseconds`` (a rate of 0 disables the class);
start times land in the middle 80 % of the run so warmup and the final
measurement edge stay clean, and every chaos fault recovers before the
run ends (durations are windows, not permanent outages).
"""

from __future__ import annotations

from typing import List

from repro.engine.rng import RngStream
from repro.faults.spec import ChaosSpec, FaultSchedule, FaultSpec

# Chaos faults start inside this fraction of the run [lo, hi).
_START_LO = 0.1
_START_HI = 0.8
# Window length bounds as fractions of the run.
_DUR_LO = 0.02
_DUR_HI = 0.15


def _window(rng: RngStream, sim_time_ns: float) -> tuple:
    at = float(rng.uniform(_START_LO, _START_HI)) * sim_time_ns
    duration = float(rng.uniform(_DUR_LO, _DUR_HI)) * sim_time_ns
    return at, duration


def chaos_schedule(
    spec: ChaosSpec,
    *,
    topology,
    sim_time_ns: float,
) -> FaultSchedule:
    """Draw the concrete :class:`FaultSchedule` for one chaos run.

    ``topology`` supplies the target pools: switch/port addressing uses
    the folded-Clos metadata when present (uplink ports of leaf
    switches — the fabric-internal links the paper's degrade scenarios
    target) and falls back to any switch output port otherwise.
    """
    if spec.empty or sim_time_ns <= 0:
        return FaultSchedule()
    # Chaos expansion runs at config time, before any RngRegistry
    # exists (the schedule itself becomes part of the config/store
    # key). A private stream seeded only by (0xFA417, spec.seed) keeps
    # the expansion a pure function of the spec.
    rng = RngStream([0xFA417, int(spec.seed)])
    sim_ms = sim_time_ns / 1e6
    n_switches = len(topology.switches)
    n_hosts = topology.n_hosts
    meta = topology.meta or {}
    hosts_per_leaf = meta.get("hosts_per_leaf")
    n_leaves = meta.get("n_leaves")
    n_spines = meta.get("n_spines")

    def fabric_port(rng: RngStream) -> tuple:
        """A (switch, port) pick biased to fabric-internal links."""
        if hosts_per_leaf is not None and n_leaves and n_spines:
            leaf = int(rng.integers(n_leaves))
            spine = int(rng.integers(n_spines))
            return leaf, hosts_per_leaf + spine
        sw = int(rng.integers(n_switches))
        port = int(rng.integers(topology.switches[sw].n_ports))
        return sw, port

    specs: List[FaultSpec] = []

    for _ in range(int(rng.poisson(spec.link_flap * sim_ms))):
        at, duration = _window(rng, sim_time_ns)
        sw, port = fabric_port(rng)
        specs.append(FaultSpec.link_flap(at, duration, switch=sw, port=port))

    for _ in range(int(rng.poisson(spec.degrade * sim_ms))):
        at, duration = _window(rng, sim_time_ns)
        sw, port = fabric_port(rng)
        factor = float(rng.uniform(0.1, 0.6))
        specs.append(FaultSpec(
            "degrade", at, duration, switch=sw, port=port, value=factor
        ))

    for _ in range(int(rng.poisson(spec.cnp_drop * sim_ms))):
        at, duration = _window(rng, sim_time_ns)
        node = int(rng.integers(n_hosts))
        prob = float(rng.uniform(0.3, 0.9))
        specs.append(FaultSpec("cnp_drop", at, duration, node=node, value=prob))

    for _ in range(int(rng.poisson(spec.timer_freeze * sim_ms))):
        at, duration = _window(rng, sim_time_ns)
        node = int(rng.integers(n_hosts))
        specs.append(FaultSpec("timer_freeze", at, duration, node=node))

    for _ in range(int(rng.poisson(spec.switch_pause * sim_ms))):
        at, duration = _window(rng, sim_time_ns)
        specs.append(FaultSpec(
            "switch_pause", at, duration, switch=int(rng.integers(n_switches))
        ))

    # Stable ordering regardless of draw order above: by onset time,
    # then by construction order for ties.
    order = sorted(range(len(specs)), key=lambda i: (specs[i].at_ns, i))
    return FaultSchedule(tuple(specs[i] for i in order))
