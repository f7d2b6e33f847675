"""Build, run and measure one experiment."""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.manager import CCManager
from repro.core.stats import snapshot_transport
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.experiments.config import ExperimentConfig
from repro.faults.chaos import chaos_schedule
from repro.faults.injector import FaultInjector
from repro.faults.spec import ChaosSpec
from repro.metrics.analysis import group_rates, jain_fairness, tmax_gbps
from repro.metrics.collector import Collector
from repro.network.hca import HcaConfig
from repro.network.network import Network, NetworkConfig
from repro.topology.fattree import three_stage_fat_tree
from repro.trace.session import TraceSession, TraceSpec
from repro.traffic.generators import BNodeSource
from repro.transport import TransportLayer
from repro.traffic.hotspots import HotspotSchedule
from repro.traffic.mixes import assign_roles


@dataclass
class ExperimentResult:
    """Everything a table/figure driver needs from one run."""

    config: ExperimentConfig
    rates_gbps: List[float]
    hotspots: List[int]
    groups: Dict[str, float]
    tmax: float
    n_b: int
    n_c: int
    n_v: int
    fecn_marks: int
    becns: int
    events: int
    wall_seconds: float
    # Filled only for traced runs (run_experiment(..., trace=...)).
    trace_digest: Optional[str] = None
    trace_violations: int = 0
    trace_records: int = 0
    # Filled only for faulted runs (cfg.faults, repro.faults).
    fault_onsets: int = 0
    fault_recoveries: int = 0
    dropped_packets: int = 0
    cnps_dropped: int = 0
    # Filled only for reliable-transport runs (cfg.transport,
    # repro.transport). ``flow_health`` lists only degraded flows (one
    # dict per flow, see repro.core.stats.FlowHealth) — a run with
    # failed flows is degraded-but-valid, not an error.
    retx_packets: int = 0
    retx_bytes: int = 0
    transport_timeouts: int = 0
    failed_flows: int = 0
    recovery_ns_total: float = 0.0
    flow_health: Optional[List[dict]] = None

    @property
    def non_hotspot(self) -> float:
        return self.groups.get("non_hotspot", float("nan"))

    @property
    def hotspot(self) -> float:
        return self.groups.get("hotspot", float("nan"))

    @property
    def all_nodes(self) -> float:
        return self.groups["all"]

    @property
    def total(self) -> float:
        return self.groups["total"]

    def fairness(self) -> float:
        """Jain fairness index over the non-hotspot receive rates."""
        others = [r for i, r in enumerate(self.rates_gbps) if i not in set(self.hotspots)]
        return jain_fairness(others)


def build_generators(cfg: ExperimentConfig, n_hosts: int, rng: RngRegistry, schedule: HotspotSchedule):
    """Create one generator per node following the config's node mix.

    Returns ``(generators, mix)`` where ``generators[node]`` may be None
    (silenced contributor in the Table II "no hotspots" phases).
    """
    mix = assign_roles(
        n_hosts,
        b_fraction=cfg.b_fraction,
        n_subsets=schedule.n_subsets,
        hotspots=schedule.current_targets,
        rng=rng.stream("mix"),
        c_fraction_of_rest=cfg.c_fraction_of_rest,
    )
    generators: List[Optional[BNodeSource]] = []
    for node in range(n_hosts):
        role = mix.roles[node]
        if role == "B":
            p = cfg.p
        elif role == "C":
            p = 1.0
        else:
            p = 0.0
        if role != "V" and not cfg.contributors_active:
            if p >= 1.0:
                generators.append(None)  # silenced pure contributor
                continue
            p = 0.0  # a silenced B node still sends its uniform share
        hotspot_fn = None
        if p > 0.0:
            subset = mix.subset_of[node]
            hotspot_fn = lambda s=schedule, k=subset: s.target(k)
        generators.append(
            BNodeSource(
                node,
                n_hosts,
                p,
                rng.stream("gen", node),
                inj_rate_gbps=cfg.inj_rate_gbps,
                hotspot=hotspot_fn,
            )
        )
    return generators, mix


def config_slug(cfg: ExperimentConfig) -> str:
    """A short human-readable per-cell identifier (trace file names).

    Unique within every shipped campaign: the drivers bake the sweep
    coordinates (p, lifetime, x) into ``cfg.name`` and the remaining
    axes (seed, CC on/off, silenced contributors) are appended here.
    """
    parts = [
        cfg.name or "cell",
        f"seed{cfg.seed}",
        "cc" if cfg.cc else "nocc",
    ]
    mechanism = cfg.resolved_cc_config().mechanism
    if cfg.cc and mechanism != "ib":
        # The paper's mechanism stays unsuffixed so every pre-arena
        # slug (and the golden-digest keys) is unchanged.
        parts.append(mechanism)
    if not cfg.contributors_active:
        parts.append("silent")
    if cfg.transport is not None:
        parts.append("rc")  # Reliable Connection transport enabled
    plan = cfg.faults
    if plan is not None and not plan.empty:
        if isinstance(plan, ChaosSpec):
            parts.append(f"chaos{plan.seed}")
        else:
            parts.append(f"faults{len(plan)}")
    return "-".join(parts)


def run_experiment(
    cfg: ExperimentConfig,
    *,
    trace: Union[TraceSpec, bool, None] = None,
) -> ExperimentResult:
    """Simulate one configuration and aggregate the paper's metrics.

    ``trace`` enables the :mod:`repro.trace` layer for this run:
    ``True`` computes the trace digest and runs the online auditor; a
    :class:`~repro.trace.TraceSpec` additionally selects a JSONL
    output directory, ring buffer, or strict (raise-on-violation)
    auditing. The result then carries ``trace_digest``,
    ``trace_violations`` and ``trace_records``. Tracing only observes:
    traced and untraced runs of the same config produce identical
    metrics.
    """
    cfg.validate()
    topo = three_stage_fat_tree(cfg.scale.radix)
    n_hosts = topo.n_hosts
    sim_time = cfg.resolved_sim_time()
    warmup = cfg.resolved_warmup()

    sim = Simulator()
    rng = RngRegistry(cfg.seed)
    collector = Collector(n_hosts, warmup_ns=warmup)
    net_cfg = NetworkConfig(hca=HcaConfig(
        inj_rate_gbps=cfg.inj_rate_gbps,
        sink_rate_gbps=cfg.sink_rate_gbps,
    ))
    network = Network(sim, topo, net_cfg, collector=collector)

    manager = None
    if cfg.cc:
        manager = CCManager(
            cfg.resolved_cc_params(), cc_config=cfg.resolved_cc_config()
        ).install(network)

    session = None
    if trace:
        spec = trace if isinstance(trace, TraceSpec) else TraceSpec()
        jsonl_path = None
        if spec.jsonl_dir:
            os.makedirs(spec.jsonl_dir, exist_ok=True)
            jsonl_path = os.path.join(spec.jsonl_dir, config_slug(cfg) + ".jsonl")
        session = TraceSession(
            jsonl_path=jsonl_path,
            ring=spec.ring,
            audit=spec.audit,
            strict=spec.strict,
            ccti_limit=cfg.resolved_cc_params().ccti_limit,
            min_retx_gap_ns=(
                cfg.transport.min_retx_gap_ns if cfg.transport else None
            ),
        ).install(sim, network, manager)

    transport_layer = None
    if cfg.transport is not None:
        transport_layer = TransportLayer(network, cfg.transport, rng).install()

    injector = None
    plan = cfg.faults
    if plan is not None:
        if isinstance(plan, ChaosSpec):
            fault_schedule = chaos_schedule(
                plan, topology=topo, sim_time_ns=sim_time
            )
        else:
            fault_schedule = plan
        if not fault_schedule.empty:
            # An empty schedule installs nothing, keeping the event
            # stream byte-identical to a fault-free run.
            injector = FaultInjector(network, fault_schedule, rng=rng).install()

    schedule = HotspotSchedule.choose_initial(
        cfg.scale.n_hotspots,
        n_hosts,
        rng.stream("hotspots"),
        lifetime_ns=cfg.hotspot_lifetime_ns,
    )
    generators, mix = build_generators(cfg, n_hosts, rng, schedule)
    for node, gen in enumerate(generators):
        if gen is None:
            continue
        gen.bind(network.hcas[node])
        network.hcas[node].attach_generator(gen)
    schedule.install(sim, network.hcas)

    started = time.perf_counter()
    # The event loop churns short-lived tuples and packets whose
    # reference graphs are acyclic — refcounting alone reclaims them.
    # Suppressing the cyclic collector for the run avoids its periodic
    # full-heap scans on the hot path; one collection afterwards cleans
    # up whatever cycles construction left behind.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        network.run(until=sim_time)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
        # Seal transport flow summaries into the trace (the strict
        # conservation check closes over them) before the session does.
        if transport_layer is not None:
            transport_layer.finalize()
        if session is not None:
            session.close()
    wall = time.perf_counter() - started
    tsnap = snapshot_transport(network) if transport_layer is not None else None

    rates = collector.all_rx_rates_gbps(sim_time)
    hotspots = list(schedule.current_targets)
    groups = group_rates(rates, hotspots)
    n_b, n_c, n_v = len(mix.b_nodes), len(mix.c_nodes), len(mix.v_nodes)
    effective_b, effective_v = n_b, n_v
    if not cfg.contributors_active:
        # Silenced contributors: uniform load comes from V and B(p=0).
        effective_b, effective_v = 0, n_v + n_b
    tmax = tmax_gbps(
        n_nodes=n_hosts,
        n_b=effective_b,
        n_v=effective_v,
        p=cfg.p,
        inj_rate_gbps=cfg.inj_rate_gbps,
        sink_rate_gbps=cfg.sink_rate_gbps,
    )
    return ExperimentResult(
        config=cfg,
        rates_gbps=rates,
        hotspots=hotspots,
        groups=groups,
        tmax=tmax,
        n_b=n_b,
        n_c=n_c,
        n_v=n_v,
        fecn_marks=manager.total_marks() if manager else 0,
        becns=manager.total_becns() if manager else 0,
        events=sim.events_executed,
        wall_seconds=wall,
        trace_digest=session.digest if session else None,
        trace_violations=session.violation_count if session else 0,
        trace_records=session.records_emitted if session else 0,
        fault_onsets=injector.onsets_applied if injector else 0,
        fault_recoveries=injector.recoveries_applied if injector else 0,
        dropped_packets=injector.dropped_packets() if injector else 0,
        cnps_dropped=injector.cnps_dropped() if injector else 0,
        retx_packets=tsnap.retx_packets if tsnap else 0,
        retx_bytes=tsnap.retx_bytes if tsnap else 0,
        transport_timeouts=tsnap.timeouts if tsnap else 0,
        failed_flows=tsnap.failed_flows if tsnap else 0,
        recovery_ns_total=tsnap.recovery_ns_total if tsnap else 0.0,
        flow_health=(
            [fh.to_dict() for fh in tsnap.degraded] if tsnap else None
        ),
    )


class TracedRun:
    """A picklable ``run_experiment`` wrapper with tracing enabled.

    Campaign executors need a module-level callable to ship to pool
    workers; ``TracedRun(spec)`` carries the :class:`TraceSpec` along::

        run_campaign(configs, jobs=4, run_fn=TracedRun())

    Every cell's result then has a ``trace_digest``, which
    :class:`~repro.parallel.manifest.RunManifest` records per cell —
    the proof that ``jobs=1`` and ``jobs=N`` runs are event-equivalent.
    """

    def __init__(self, spec: Optional[TraceSpec] = None) -> None:
        self.spec = spec if spec is not None else TraceSpec()

    def __call__(self, cfg: ExperimentConfig) -> ExperimentResult:
        return run_experiment(cfg, trace=self.spec)
