"""Experiment configuration: scenario knobs + scale profiles.

A :class:`ScaleProfile` fixes everything that trades fidelity against
run time (topology size, simulated time, CCT slope); an
:class:`ExperimentConfig` adds the scenario (node mix, p, hotspot
lifetime, CC on/off). The paper's quantities are fractions of the
hardware rate caps and CC-on/off ratios, which the scale profiles
preserve (DESIGN.md §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cc.config import CCConfig
from repro.core.parameters import CCParams
from repro.faults.spec import ChaosSpec, FaultPlan, FaultSchedule
from repro.transport.config import TransportConfig


class ConfigError(ValueError):
    """An :class:`ExperimentConfig` failed pre-flight validation.

    Raised by :meth:`ExperimentConfig.validate` with every problem
    collected into one actionable message, so a bad campaign is
    rejected before any worker process spawns.
    """


@dataclass(frozen=True)
class ScaleProfile:
    """Everything that scales an experiment up or down.

    ``cct_slope`` grows with the fat-tree because the deepest CCT
    throttle must cover the per-hotspot contributor count (the paper:
    "the CCT values have been increased to reflect the larger number of
    possible contributors in our fat-tree topology").
    """

    name: str
    radix: int
    n_hotspots: int
    sim_time_ns: float
    warmup_ns: float
    cct_slope: float
    moving_sim_time_ns: float
    moving_lifetimes_ns: tuple
    # Scaled-down profiles damp the marking rate: at small contributor
    # counts the per-flow BECN rate is ~18x the CCTI_Timer decay rate
    # (vs ~2x at 648 nodes), and undamped feedback over-throttles in a
    # sawtooth. The paper profile keeps Table I's Marking_Rate = 0.
    marking_rate: int = 0

    @property
    def n_hosts(self) -> int:
        return self.radix * (self.radix // 2)


_PAPER_LIFETIMES = tuple(float(ms) * 1e6 for ms in (10, 8, 6, 4, 2, 1))

SCALES = {
    # Fast enough for CI-style benchmark runs; every shape check holds.
    "quick": ScaleProfile(
        name="quick",
        radix=8,
        n_hotspots=4,
        sim_time_ns=8e6,
        warmup_ns=3e6,
        cct_slope=0.5,
        moving_sim_time_ns=16e6,
        moving_lifetimes_ns=tuple(float(ms) * 1e6 for ms in (4, 2, 1)),
        marking_rate=3,
    ),
    # The default for EXPERIMENTS.md numbers at reduced topology scale.
    "default": ScaleProfile(
        name="default",
        radix=8,
        n_hotspots=4,
        sim_time_ns=20e6,
        warmup_ns=8e6,
        cct_slope=0.5,
        moving_sim_time_ns=40e6,
        moving_lifetimes_ns=_PAPER_LIFETIMES,
        marking_rate=3,
    ),
    # The paper's Sun DCS 648 (648 hosts, 54 switches, 8 hotspots).
    # Expensive: minutes per CC-enabled point.
    "paper": ScaleProfile(
        name="paper",
        radix=36,
        n_hotspots=8,
        sim_time_ns=25e6,
        warmup_ns=10e6,
        cct_slope=2.0,
        moving_sim_time_ns=50e6,
        moving_lifetimes_ns=_PAPER_LIFETIMES,
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation run.

    The node mix follows section V of the paper: ``b_fraction`` of the
    nodes are B nodes with hotspot share ``p``; of the remaining nodes,
    ``c_fraction_of_rest`` are C nodes (p = 1) and the rest V nodes
    (p = 0). ``contributors_active=False`` silences B and C nodes (the
    "no hotspots" phases of Table II).
    """

    scale: ScaleProfile = SCALES["default"]
    cc: bool = True
    b_fraction: float = 0.0
    p: float = 0.5
    c_fraction_of_rest: float = 0.8
    contributors_active: bool = True
    hotspot_lifetime_ns: Optional[float] = None
    seed: int = 7
    inj_rate_gbps: float = 13.5
    sink_rate_gbps: float = 13.6
    cc_params: Optional[CCParams] = None
    sim_time_ns: Optional[float] = None
    warmup_ns: Optional[float] = None
    name: str = ""
    # Fault plan (repro.faults): a FaultSchedule or ChaosSpec, or None
    # for a clean run. Part of the config, so it participates in the
    # result-store content key — a faulted run never aliases a clean
    # cache entry.
    faults: Optional[FaultPlan] = None
    # Reliable transport (repro.transport): a TransportConfig enables
    # PSN sequencing, acks and retransmission; None (the default) keeps
    # the raw lossless fabric and its golden digests byte-identical.
    # Like faults, part of the result-store content key.
    transport: Optional[TransportConfig] = None
    # Congestion-control mechanism selection: which entry of
    # repro.cc.MECHANISMS throttles when ``cc=True``, plus its option
    # overrides. None (the default) means the paper's "ib" mechanism —
    # byte-identical to the pre-arena code, and hashed identically in
    # the result store. Ignored when ``cc=False``.
    cc_config: Optional[CCConfig] = None

    def resolved_cc_config(self) -> CCConfig:
        """The effective mechanism selection (default: the paper's IB)."""
        return self.cc_config if self.cc_config is not None else CCConfig()

    @property
    def cc_mechanism(self) -> str:
        """The active mechanism name; ``"off"`` when CC is disabled.

        This is the value the sweep CSV and run-manifest
        ``cc_mechanism`` columns carry.
        """
        return self.resolved_cc_config().mechanism if self.cc else "off"

    def resolved_cc_params(self) -> CCParams:
        """The effective CC parameters (explicit override or scale defaults)."""
        if self.cc_params is not None:
            return self.cc_params
        return CCParams.paper_table1().with_(
            cct_slope=self.scale.cct_slope,
            marking_rate=self.scale.marking_rate,
        )

    def resolved_sim_time(self) -> float:
        """The effective simulated duration in ns."""
        if self.sim_time_ns is not None:
            return self.sim_time_ns
        if self.hotspot_lifetime_ns is not None:
            return self.scale.moving_sim_time_ns
        return self.scale.sim_time_ns

    def resolved_warmup(self) -> float:
        """The effective warmup in ns, capped to 40% of the run."""
        if self.warmup_ns is not None:
            return self.warmup_ns
        sim = self.resolved_sim_time()
        default = self.scale.warmup_ns
        # Keep at least half of a moving-hotspot run as measurement.
        return min(default, sim * 0.4)

    def with_(self, **kwargs) -> "ExperimentConfig":
        """A modified copy of this config."""
        return replace(self, **kwargs)

    def validate(self) -> "ExperimentConfig":
        """Pre-flight sanity check; raises :class:`ConfigError`.

        Collects *every* problem into one exception so a bad campaign
        is fixed in a single iteration. Called by ``run_experiment``
        and by the campaign executor before any pool worker spawns.
        Returns ``self`` so it chains: ``cfg.validate()``.
        """
        problems = []
        if self.inj_rate_gbps <= 0:
            problems.append(
                f"inj_rate_gbps must be positive (got {self.inj_rate_gbps}; "
                "the paper's PCIe injection ceiling is 13.5)"
            )
        if self.sink_rate_gbps <= 0:
            problems.append(
                f"sink_rate_gbps must be positive (got {self.sink_rate_gbps})"
            )
        for attr in ("b_fraction", "p", "c_fraction_of_rest"):
            val = getattr(self, attr)
            if not 0.0 <= val <= 1.0:
                problems.append(f"{attr} must be in [0, 1] (got {val})")
        if self.scale.radix < 2 or self.scale.radix % 2:
            problems.append(
                f"scale.radix must be a positive even number (got "
                f"{self.scale.radix})"
            )
        sim = self.resolved_sim_time()
        if sim <= 0:
            problems.append(
                f"resolved sim time must be positive (got {sim} ns) — "
                "a zero-length run measures nothing"
            )
        warmup = self.resolved_warmup()
        if warmup < 0:
            problems.append(f"warmup must be non-negative (got {warmup} ns)")
        elif sim > 0 and warmup >= sim:
            problems.append(
                f"warmup ({warmup} ns) consumes the whole run ({sim} ns), "
                "leaving an empty measurement window"
            )
        if self.hotspot_lifetime_ns is not None and self.hotspot_lifetime_ns <= 0:
            problems.append(
                f"hotspot_lifetime_ns must be positive (got "
                f"{self.hotspot_lifetime_ns})"
            )
        try:
            self.resolved_cc_params()
        except ValueError as exc:
            problems.append(f"cc_params: {exc}")
        if self.cc_config is not None:
            if not isinstance(self.cc_config, CCConfig):
                problems.append(
                    f"cc_config must be a CCConfig (got "
                    f"{type(self.cc_config).__name__})"
                )
            else:
                try:
                    self.cc_config.validate()
                except ValueError as exc:
                    problems.append(f"cc_config: {exc}")
        if self.faults is not None and not isinstance(
            self.faults, (FaultSchedule, ChaosSpec)
        ):
            problems.append(
                f"faults must be a FaultSchedule or ChaosSpec (got "
                f"{type(self.faults).__name__})"
            )
        if self.transport is not None:
            if not isinstance(self.transport, TransportConfig):
                problems.append(
                    f"transport must be a TransportConfig (got "
                    f"{type(self.transport).__name__})"
                )
            elif self.transport.max_retries < 1:
                problems.append(
                    "transport retry budget (max_retries) must be >= 1 — "
                    "a flow needs at least one retransmission attempt "
                    "before it may be declared FAILED"
                )
        if problems:
            label = f" {self.name!r}" if self.name else ""
            raise ConfigError(
                f"invalid experiment config{label}:\n  - "
                + "\n  - ".join(problems)
            )
        return self
