"""Property tests for every congestion-control mechanism.

The arena only compares mechanisms fairly if they all honour the
reaction-point contract (:mod:`repro.cc.base`):

* the injection-rate fraction stays in ``(0, 1]`` — a fraction of link
  rate, never zero (a flow can always eventually inject) and never
  above full rate;
* with no feedback, successive timer fires never decrease the rate and
  eventually restore full rate, after which the recovery timer stops
  rearming (the event queue drains);
* rates move **only** on feedback (``on_becn``) or a timer fire —
  injections and queries are observationally pure;
* feedback never *raises* a rate.

Each property runs against every :data:`repro.cc.MECHANISMS` entry —
including the paper's ``"ib"`` table mechanism through its ``rate_of``
view — so a new entry is covered automatically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cc
from repro.cc import CCConfig, Mechanism, find_mechanism
from repro.core import CCParams
from repro.experiments.arena import SCENARIOS, arena_cells
from repro.experiments.artifacts import ArtifactOptions
from repro.experiments.cli import parse_cc
from repro.experiments.config import SCALES

#: Generous bound on recovery length: ib needs up to CCTI_Limit fires,
#: dcqcn's alpha decay needs ~200 quiet periods before its timer stops.
MAX_TIMER_FIRES = 2000

FLOWS = ((0, 1), (0, 2), (3, 1))


class _FakeSim:
    """Minimal scheduler: callbacks fire in timestamp order on demand."""

    def __init__(self) -> None:
        self.now = 0.0
        self.queue = []

    def schedule(self, delay, fn) -> None:
        self.queue.append((self.now + delay, fn))

    def fire_one(self) -> bool:
        if not self.queue:
            return False
        self.queue.sort(key=lambda item: item[0])
        t, fn = self.queue.pop(0)
        self.now = max(self.now, t)
        fn()
        return True


class _FakeLink:
    byte_time_ns = 0.8


class _FakeObuf:
    def __init__(self) -> None:
        self.link = _FakeLink()
        self.capacity = 128 * 1024
        self.queues = [[] for _ in range(4)]  # empty VLs: never paused


class _FakeHca:
    node_id = 0

    def __init__(self) -> None:
        self.sim = _FakeSim()
        self.obuf = _FakeObuf()

    def kick(self) -> None:
        pass


class _Pkt:
    __slots__ = ("flow", "sl", "wire_size")

    def __init__(self, flow, sl=0, wire_size=2080):
        self.flow = flow
        self.sl = sl
        self.wire_size = wire_size


def build(name: str):
    """One reaction point of mechanism ``name`` on a fake HCA."""
    options = CCConfig.make(name).validate().resolved_options()
    build_hca_cc = find_mechanism(name).build(CCParams.paper_table1(), options)
    hca = _FakeHca()
    return build_hca_cc(hca), hca


NAMES = [m.name for m in repro.cc.MECHANISMS]

events_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("becn"), st.integers(0, len(FLOWS) - 1)),
        st.tuples(st.just("inject"), st.integers(0, len(FLOWS) - 1)),
        st.tuples(st.just("timer"), st.just(0)),
    ),
    max_size=60,
)


def _apply(cc, hca, kind, idx) -> None:
    if kind == "becn":
        cc.on_becn(FLOWS[idx], 0)
    elif kind == "inject":
        cc.on_inject(_Pkt(FLOWS[idx]))
    else:
        hca.sim.fire_one()


@pytest.mark.parametrize("name", NAMES)
@given(events=events_strategy)
@settings(max_examples=50)
def test_rate_stays_in_unit_interval(name, events):
    cc, hca = build(name)
    for kind, idx in events:
        _apply(cc, hca, kind, idx)
        for flow in FLOWS:
            rate = cc.rate_of(flow, 0)
            assert 0.0 < rate <= 1.0
            assert cc.next_allowed(flow, 0) >= 0.0


@pytest.mark.parametrize("name", NAMES)
@given(becns=st.integers(min_value=1, max_value=40))
@settings(max_examples=25)
def test_monotone_recovery_without_feedback(name, becns):
    """No feedback -> rate never drops, reaches 1.0, timer stops."""
    cc, hca = build(name)
    flow = FLOWS[0]
    for _ in range(becns):
        cc.on_becn(flow, 0)
    # One fire closes any observation window still holding the feedback
    # (DCTCP cuts at window close); from here on no feedback is pending
    # since the last fire, so the contract demands monotone recovery.
    hca.sim.fire_one()
    last = cc.rate_of(flow, 0)
    fires = 0
    while hca.sim.fire_one():
        fires += 1
        assert fires <= MAX_TIMER_FIRES, "recovery timer never terminated"
        rate = cc.rate_of(flow, 0)
        assert rate >= last, "rate decreased with no feedback"
        last = rate
    assert last == 1.0
    assert cc.throttled_flows() == 0
    assert not hca.sim.queue  # fully recovered: timer stopped rearming


@pytest.mark.parametrize("name", NAMES)
@given(
    becns=st.integers(min_value=0, max_value=10),
    injects=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=25)
def test_no_rate_change_without_feedback_or_timer(name, becns, injects):
    """Injections and queries are pure w.r.t. every flow's rate."""
    cc, hca = build(name)
    flow = FLOWS[0]
    for _ in range(becns):
        cc.on_becn(flow, 0)
    before = [cc.rate_of(f, 0) for f in FLOWS]
    for _ in range(injects):
        cc.on_inject(_Pkt(flow))
    cc.next_allowed(flow, 0)
    cc.throttled_flows()
    cc.deepest_level()
    assert [cc.rate_of(f, 0) for f in FLOWS] == before


@pytest.mark.parametrize("name", NAMES)
@given(becns=st.integers(min_value=1, max_value=30))
@settings(max_examples=25)
def test_feedback_never_raises_rate(name, becns):
    cc, hca = build(name)
    flow = FLOWS[0]
    last = cc.rate_of(flow, 0)
    for _ in range(becns):
        cc.on_becn(flow, 0)
        rate = cc.rate_of(flow, 0)
        assert rate <= last
        last = rate


@pytest.mark.parametrize("name", NAMES)
def test_satisfies_congestion_control_protocol(name):
    from repro.cc import CongestionControl

    cc, _ = build(name)
    assert isinstance(cc, CongestionControl)


def test_mechanisms_sorted_unique_identifiers():
    # The arena's column order and the CLI's MECH[:k=v] syntax rely on it.
    assert NAMES == sorted(set(NAMES))
    assert all(name.isidentifier() for name in NAMES)
    with pytest.raises(ValueError, match="registered: dcqcn, dctcp, ib, reno"):
        find_mechanism("nope")


def test_a_new_entry_reaches_config_cli_and_arena(monkeypatch):
    """A mechanism is one more tuple entry; nothing else registers it."""
    mine = Mechanism(
        "mine", repro.cc.RENO.build, {"md": 0.5, "ai": 0.05, "gain": 0.5},
        "a throwaway entry",
    )
    monkeypatch.setattr(
        repro.cc, "MECHANISMS", repro.cc.MECHANISMS + (mine,)
    )
    cc = parse_cc("mine:gain=1")
    assert cc == CCConfig.make("mine", gain=1)
    assert cc.resolved_options() == {"md": 0.5, "ai": 0.05, "gain": 1}
    with pytest.raises(ValueError, match="unknown 'mine' parameter"):
        CCConfig.make("mine", nope=1).validate()
    cells = arena_cells(SCALES["quick"], 1, ArtifactOptions(quick=True))
    per_scenario = [c.cc_config and c.cc_config.mechanism for c in cells]
    assert per_scenario == [None, *NAMES, "mine"] * len(SCENARIOS)
