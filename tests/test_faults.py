"""Tests for repro.faults: specs, chaos expansion, and live injection."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine import RngRegistry, Simulator
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults import (
    ChaosSpec,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    chaos_schedule,
    faults_from_dict,
    faults_to_dict,
)
from repro.network.deadlock import DeadlockWatchdog
from repro.topology import sun_dcs_648, three_stage_fat_tree
from repro.trace import TraceSpec
from repro.trace.auditor import TraceAuditor

from tests.conftest import (
    MICRO_SCALE,
    attach_fixed_flow,
    attach_hotspot_contributors,
    build_network,
)

MS = 1e6


def micro_cfg(**kw):
    return ExperimentConfig(
        scale=MICRO_SCALE, seed=3, sim_time_ns=1e6, warmup_ns=3e5, **kw
    )


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike", 1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("switch_pause", -1.0, switch=0)
        with pytest.raises(ValueError):
            FaultSpec("switch_pause", 1.0, duration_ns=-1.0, switch=0)

    def test_link_kind_needs_exactly_one_target(self):
        with pytest.raises(ValueError):  # neither
            FaultSpec("link_down", 1.0)
        with pytest.raises(ValueError):  # both
            FaultSpec("link_down", 1.0, switch=0, port=2, node=1)
        FaultSpec("link_down", 1.0, switch=0, port=2)
        FaultSpec("link_down", 1.0, node=3)

    def test_switch_pause_needs_switch(self):
        with pytest.raises(ValueError):
            FaultSpec("switch_pause", 1.0)

    def test_value_ranges(self):
        with pytest.raises(ValueError):  # rate factor 0 would stall forever
            FaultSpec("degrade", 1.0, switch=0, port=2, value=0.0)
        with pytest.raises(ValueError):
            FaultSpec("cnp_drop", 1.0, node=0, value=1.5)
        with pytest.raises(ValueError):
            FaultSpec("cnp_delay", 1.0, node=0, value=-5.0)

    def test_flap_needs_duration(self):
        with pytest.raises(ValueError):
            FaultSpec.link_flap(1.0, 0.0, node=0)

    def test_ends_at(self):
        assert FaultSpec("switch_pause", 5.0, switch=0).ends_at_ns is None
        assert FaultSpec("switch_pause", 5.0, 3.0, switch=0).ends_at_ns == 8.0


class TestSerialization:
    def test_schedule_round_trip(self, tmp_path):
        sched = FaultSchedule([
            FaultSpec.link_flap(1e5, 2e5, switch=0, port=2),
            FaultSpec("cnp_drop", 3e5, 1e5, value=0.5),
        ])
        assert FaultSchedule.from_json(sched.to_json()) == sched
        path = tmp_path / "faults.json"
        path.write_text(sched.to_json())
        assert FaultSchedule.load(str(path)) == sched

    def test_plan_dispatch(self):
        chaos = ChaosSpec(seed=9, link_flap=0.1)
        assert faults_from_dict(faults_to_dict(chaos)) == chaos
        assert faults_from_dict(None) is None
        assert faults_to_dict(None) is None
        with pytest.raises(ValueError, match="unknown fault plan type"):
            faults_from_dict({"type": "werewolf"})

    def test_schedule_is_hashable_and_extendable(self):
        base = FaultSchedule()
        assert base.empty and len(base) == 0
        grown = base.extended(FaultSpec("timer_freeze", 1.0))
        assert len(grown) == 1 and hash(grown) == hash(grown)


class TestChaosSchedule:
    def test_same_seed_same_schedule(self):
        spec = ChaosSpec(seed=5, link_flap=0.5, degrade=0.5, cnp_drop=0.5,
                         timer_freeze=0.5, switch_pause=0.5)
        topo = three_stage_fat_tree(4)
        a = chaos_schedule(spec, topology=topo, sim_time_ns=8 * MS)
        b = chaos_schedule(spec, topology=topo, sim_time_ns=8 * MS)
        assert a == b and not a.empty

    def test_different_seed_differs(self):
        topo = three_stage_fat_tree(4)
        kw = dict(topology=topo, sim_time_ns=8 * MS)
        a = chaos_schedule(ChaosSpec(seed=1, link_flap=1.0), **kw)
        b = chaos_schedule(ChaosSpec(seed=2, link_flap=1.0), **kw)
        assert a != b

    def test_empty_spec_expands_empty(self):
        assert ChaosSpec(seed=1).empty
        sched = chaos_schedule(
            ChaosSpec(seed=1), topology=three_stage_fat_tree(4), sim_time_ns=MS
        )
        assert sched.empty

    def test_events_inside_run_and_valid(self):
        spec = ChaosSpec(seed=3, link_flap=1.0, degrade=1.0, cnp_drop=1.0,
                         timer_freeze=1.0, switch_pause=1.0)
        sched = chaos_schedule(
            spec, topology=three_stage_fat_tree(4), sim_time_ns=8 * MS
        )
        times = [s.at_ns for s in sched]
        assert times == sorted(times)
        for s in sched:
            assert 0 <= s.at_ns <= 8 * MS
            ends = s.ends_at_ns
            assert ends is None or ends <= 8 * MS

    def test_schedules_are_pinned(self):
        # Computed when Poisson counts were still drawn by numpy's
        # Generator: the pure-Python port must expand every spec alike.
        digest, n_specs = hashlib.sha256(), 0
        for topo in (three_stage_fat_tree(4), three_stage_fat_tree(8),
                     sun_dcs_648()):
            for seed in range(50):
                spec = ChaosSpec(seed, link_flap=0.5, degrade=0.3,
                                 cnp_drop=0.8, timer_freeze=0.2,
                                 switch_pause=0.1)
                for sim_time_ns in (1 * MS, 4 * MS, 25 * MS):
                    sched = chaos_schedule(spec, topology=topo,
                                           sim_time_ns=sim_time_ns)
                    digest.update(repr(sched.specs).encode())
                    n_specs += len(sched.specs)
        assert n_specs == 8799
        assert digest.hexdigest() == (
            "b1d0f97eb07662ebe0a78a9a48a3c762054b3844d7543390322fa6c50336e00a"
        )


class TestLinkFlap:
    def test_flap_halts_then_recovers(self):
        sim = Simulator()
        net, col, _ = build_network(sim, radix=4)
        attach_fixed_flow(net, RngRegistry(1), src=0, dst=5, rate_gbps=13.5)
        sched = FaultSchedule([FaultSpec.link_flap(1e5, 1e5, node=0)])
        inj = FaultInjector(net, sched).install()
        seen = {}
        sim.schedule_at(1.5e5, lambda: seen.update(down=net.hcas[0].obuf.halted))
        sim.schedule_at(2.5e5, lambda: seen.update(up=not net.hcas[0].obuf.halted))
        net.run(until=5e5)
        assert seen == {"down": True, "up": True}
        assert inj.onsets_applied == 1 and inj.recoveries_applied == 1
        # The in-flight packet (if any) was lost; traffic resumed after
        # the retrain, so ~80% of the offered load still lands.
        rate = col.rx_rate_gbps(5, 5e5)
        assert 8.0 < rate < 13.5

    def test_empty_schedule_installs_nothing(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        before = sim.pending
        inj = FaultInjector(net, FaultSchedule()).install()
        assert inj.filters == {}
        assert sim.pending == before


class TestCnpFaults:
    def _run_hotspot(self, drop: bool):
        """Max simultaneously-throttled flows over a congested run."""
        sim = Simulator()
        net, _, mgr = build_network(sim, radix=4, cc=True)
        rng = RngRegistry(1)
        attach_hotspot_contributors(net, rng, hotspot=0, contributors=[2, 4, 6])
        inj = None
        if drop:
            sched = FaultSchedule([FaultSpec("cnp_drop", 0.0, value=1.0)])
            inj = FaultInjector(net, sched, rng=rng).install()
        peak = [0]

        def sample():
            throttled = sum(h.cc.throttled_flows() for h in net.hcas if h.cc)
            peak[0] = max(peak[0], throttled)
            sim.schedule(0.5e5, sample)

        sim.schedule(0.5e5, sample)
        net.run(until=2 * MS)
        return peak[0], inj

    def test_dropped_cnps_prevent_throttling(self):
        clean_peak, _ = self._run_hotspot(drop=False)
        faulty_peak, inj = self._run_hotspot(drop=True)
        assert clean_peak > 0, "congested clean run must throttle someone"
        assert faulty_peak == 0, "with every CNP dropped no source can throttle"
        assert inj.cnps_dropped() > 0

    def test_filter_window_closes(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4, cc=True)
        rng = RngRegistry(1)
        sched = FaultSchedule([FaultSpec("cnp_drop", 1e5, 1e5, node=2, value=1.0)])
        inj = FaultInjector(net, sched, rng=rng).install()
        net.run(until=5e5)
        filt = net.hcas[2].cnp_fault
        assert filt is not None
        assert filt.drop_prob == 0.0  # window closed at 2e5
        assert inj.recoveries_applied == 1


class TestTimerFreeze:
    def test_freeze_holds_ccti_and_thaw_decays_it(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4, cc=True)
        cc = net.hcas[2].cc
        flow = (2, 0)
        for _ in range(5):
            cc.on_becn(flow)
        assert cc.ccti_of(flow) > 0
        frozen_at = cc.ccti_of(flow)
        cc.freeze()
        period = cc.params.timer_period_ns
        net.run(until=sim.now + 50 * period)
        assert cc.ccti_of(flow) == frozen_at
        cc.thaw()
        net.run(until=sim.now + 50 * period)
        assert cc.ccti_of(flow) == cc.params.ccti_min


class TestSwitchPauseDeadlockWatchdog:
    def test_permanent_pause_is_a_fault_stall_not_a_deadlock(self):
        # A permanently paused leaf switch wedges the flow through it:
        # buffered bytes stop moving. The stall is explained by the
        # fault-halted ports, so the watchdog must NOT misreport a
        # topology deadlock — it counts fault stalls and reports the
        # distinct stall_reason instead.
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        attach_fixed_flow(net, RngRegistry(1), src=0, dst=5, rate_gbps=13.5)
        sched = FaultSchedule([FaultSpec("switch_pause", 2e5, switch=0)])
        FaultInjector(net, sched).install()
        fired, stalls = [], []
        watchdog = DeadlockWatchdog(
            net, MS, on_deadlock=fired.append, on_stall=stalls.append
        ).start()
        net.run(until=10 * MS)
        watchdog.stop()
        assert not watchdog.fired and not fired
        assert watchdog.fault_stalls > 0
        assert stalls and stalls[0].stall_reason == "fault_stall"
        assert not stalls[0].deadlocked and stalls[0].buffered_bytes > 0
        assert "fault stall" in stalls[0].format()
        assert "not a topology deadlock" in stalls[0].format()

    def test_pause_resume_round_trip_is_lossless(self):
        sim = Simulator()
        net, col, _ = build_network(sim, radix=4)
        attach_fixed_flow(net, RngRegistry(1), src=0, dst=5, rate_gbps=13.5)
        sched = FaultSchedule([FaultSpec("switch_pause", 1e5, 1e5, switch=0)])
        inj = FaultInjector(net, sched).install()
        net.run(until=6e5)
        assert inj.onsets_applied == 1 and inj.recoveries_applied == 1
        assert inj.dropped_packets() == 0  # pause is lossless


class TestDegradeFault:
    def test_degrade_restores_original_rate(self):
        sim = Simulator()
        net, _, _ = build_network(sim, radix=4)
        base = net.switches[0].output_ports[2].link.rate_gbps
        sched = FaultSchedule([
            FaultSpec("degrade", 1e5, 2e5, switch=0, port=2, value=0.25),
        ])
        FaultInjector(net, sched).install()
        seen = {}
        sim.schedule_at(
            2e5,
            lambda: seen.update(slow=net.switches[0].output_ports[2].link.rate_gbps),
        )
        net.run(until=5e5)
        assert seen["slow"] == pytest.approx(base * 0.25)
        assert net.switches[0].output_ports[2].link.rate_gbps == pytest.approx(base)


class TestAuditorInvariants:
    def test_tx_on_downed_link_flags(self):
        aud = TraceAuditor()
        aud.observe(("fault", 10.0, "link_down", "s", 0, 2, 0.0))
        aud.observe(("tx", 11.0, "s", 0, 2, 0, 0, 5, 256, 0, 5))
        assert not aud.ok
        assert any("downed link" in v for v in aud.violations)

    def test_tx_after_link_up_is_clean(self):
        aud = TraceAuditor()
        aud.observe(("fault", 10.0, "link_down", "s", 0, 2, 0.0))
        aud.observe(("fault", 20.0, "link_up", "s", 0, 2, 0.0))
        aud.observe(("tx", 21.0, "s", 0, 2, 0, 0, 5, 256, 0, 5))
        assert aud.ok

    def test_tx_from_paused_switch_flags(self):
        aud = TraceAuditor()
        aud.observe(("fault", 10.0, "switch_pause", "s", 3, -1, 0.0))
        aud.observe(("tx", 11.0, "s", 3, 0, 0, 0, 5, 256, 0, 5))
        assert not aud.ok
        assert any("paused switch" in v for v in aud.violations)

    def test_conservation_modulo_drops(self):
        aud = TraceAuditor()
        aud.observe(("inj", 0.0, 0, 5, 0, 256))
        aud.observe(("drop", 1.0, "h", 0, 0, 0, 0, 5, 128, 0, "link"))
        aud.observe(("rx", 2.0, 5, 0, 5, 0, 128, 0, 0, 0))
        assert aud.ok
        # One more delivered byte than injected-minus-dropped allows.
        aud.observe(("rx", 3.0, 5, 0, 5, 0, 1, 0, 0, 0))
        assert not aud.ok


class TestExperimentIntegration:
    def test_empty_schedule_preserves_digest(self):
        spec = TraceSpec()
        clean = run_experiment(micro_cfg(cc=True), trace=spec)
        empty = run_experiment(
            micro_cfg(cc=True).with_(faults=FaultSchedule()), trace=spec
        )
        assert clean.trace_digest == empty.trace_digest
        assert clean.fault_onsets == 0 and empty.fault_onsets == 0

    def test_faulted_run_audits_clean_and_counts(self):
        sched = FaultSchedule([
            FaultSpec.link_flap(3e5, 1e5, switch=0, port=2),
            FaultSpec("cnp_drop", 2e5, 4e5, value=0.9),
        ])
        res = run_experiment(
            micro_cfg(cc=True).with_(faults=sched), trace=TraceSpec()
        )
        assert res.trace_violations == 0
        assert res.fault_onsets == 2 and res.fault_recoveries == 2
        assert res.cnps_dropped > 0

    def test_chaos_deterministic_and_jobs_invariant(self):
        from repro.experiments.runner import TracedRun
        from repro.parallel import run_campaign

        chaos = ChaosSpec(seed=11, link_flap=0.3, cnp_drop=0.3)
        cfgs = [
            micro_cfg(cc=False).with_(faults=chaos),
            micro_cfg(cc=True).with_(faults=chaos),
        ]
        run_fn = TracedRun(TraceSpec())
        serial = run_campaign(cfgs, jobs=1, run_fn=run_fn).results
        pooled = run_campaign(cfgs, jobs=2, run_fn=run_fn).results
        assert [r.trace_digest for r in serial] == [r.trace_digest for r in pooled]
        repeat = run_campaign(cfgs, jobs=1, run_fn=run_fn).results
        assert [r.trace_digest for r in serial] == [r.trace_digest for r in repeat]

    def test_fault_plan_changes_cache_key(self):
        from repro.experiments.store import config_key

        base = micro_cfg(cc=True)
        flap = base.with_(faults=FaultSchedule([
            FaultSpec.link_flap(1e5, 1e5, node=0),
        ]))
        chaos = base.with_(faults=ChaosSpec(seed=1, link_flap=0.1))
        keys = {config_key(base), config_key(flap), config_key(chaos)}
        assert len(keys) == 3

    def test_result_round_trips_fault_counters(self, tmp_path):
        from repro.experiments.store import ResultStore

        sched = FaultSchedule([FaultSpec.link_flap(3e5, 1e5, switch=0, port=2)])
        res = run_experiment(micro_cfg(cc=False).with_(faults=sched))
        store = ResultStore(str(tmp_path))
        store.save(res)
        loaded = store.load(res.config)
        assert loaded.fault_onsets == res.fault_onsets == 1
        assert loaded.fault_recoveries == res.fault_recoveries == 1
        assert loaded.config.faults == sched
