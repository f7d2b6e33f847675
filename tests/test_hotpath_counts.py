"""Noise-free gate on the per-hop path (ROADMAP 5(d)).

Wall time on this host moves by 25-70 % for minutes at a time; call
counts do not move at all. Four small cells (radix-4 and 32 hosts, CC
off and on, 1 ms simulated) are run and every count is pinned as an
exact integer: what the simulation *is* (events executed, ``schedule``
/ ``cancel`` calls, packets sent, grants) and how much asking it took
(entries into ``OutputPort.try_send``, ``VLArbiter.kick`` and
``BNodeSource.next_packet``, counted by wrappers this file installs for
the duration of one test).

The first group may only change with a deliberate golden/benchmark
re-pin: ISSUE 21 left it as it was. The second is the gate — a change
that makes a port ask again when it cannot answer fails here, without a
stopwatch. Seed 7, parent (12586c9) -> this tree where they differ::

    cell         events  schedule  cancel   sent  grants   kick  next_packet
    micro_nocc    21638     21653       6   6122    4472   8944         3304
    micro_cc      49849     51469    1598  14587   10553  21166         7379
    quick_nocc    66272     66313      18  18813   13866  27729         9912
    quick_cc     119246    121053    1724  35892   26125  52531        13037

                    try_send     of which empty   credit-starved
    micro_nocc   17859 ->  6122    11737 -> 0           0
    micro_cc     32416 -> 21188    11228 -> 0        6601
    quick_nocc   51271 -> 18813    32458 -> 0           0
    quick_cc     78837 -> 56470    22367 -> 0       20578

An *empty* entry found the port busy, halted or holding nothing: the
caller could have known. A *credit-starved* entry found an idle port
whose head packets are not covered by credits; finding that out is the
check itself, and how often it happens is a property of the simulated
congestion, equal on both trees. ``kick`` entries are unchanged by
design (one per queued packet, one per ``on_space``); what changed is
that the idle ones return on their first test.
"""

from __future__ import annotations

import pytest

from repro.engine.simulator import Simulator
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.network.arbiter import VLArbiter
from repro.network.ports import OutputPort
from repro.traffic.generators import BNodeSource

from tests.conftest import MICRO_SCALE

_SHORT = dict(sim_time_ns=1e6, warmup_ns=3e5, seed=7)
_WINDY = dict(cc=True, b_fraction=1.0, p=0.5, hotspot_lifetime_ns=2e5)

CELLS = {
    "micro_nocc": dict(scale=MICRO_SCALE, cc=False, contributors_active=False),
    "micro_cc": dict(scale=MICRO_SCALE, **_WINDY),
    "quick_nocc": dict(scale=SCALES["quick"], cc=False, contributors_active=False),
    "quick_cc": dict(scale=SCALES["quick"], **_WINDY),
}

#: cell -> exact counts (the module docstring has the parent's).
PINNED = {
    "micro_nocc": dict(
        events=21638, schedule=21653, cancel=6, sent=6122, grants=4472,
        try_send=6122, starved=0, empty=0, kick=8944, next_packet=3304,
    ),
    "micro_cc": dict(
        events=49849, schedule=51469, cancel=1598, sent=14587, grants=10553,
        try_send=21188, starved=6601, empty=0, kick=21166, next_packet=7379,
    ),
    "quick_nocc": dict(
        events=66272, schedule=66313, cancel=18, sent=18813, grants=13866,
        try_send=18813, starved=0, empty=0, kick=27729, next_packet=9912,
    ),
    "quick_cc": dict(
        events=119246, schedule=121053, cancel=1724, sent=35892, grants=26125,
        try_send=56470, starved=20578, empty=0, kick=52531, next_packet=13037,
    ),
}


def measure(name: str, monkeypatch) -> dict:
    """Run one cell with counting wrappers on the class attributes.

    Ports bind ``sim.schedule`` and their own callbacks at construction,
    so the wrappers go in before ``run_experiment`` builds anything;
    ``monkeypatch`` takes them out again when the test ends.
    """
    counts = dict.fromkeys(PINNED[name], 0)

    def counted(cls, attr, key, effect=None):
        """Count entries under ``key``; ``effect`` names an attribute of
        the object whose growth per call is summed under its own name."""
        inner = getattr(cls, attr)

        def wrapper(self, *args):
            counts[key] += 1
            if effect is None:
                return inner(self, *args)
            before = getattr(self, effect)
            out = inner(self, *args)
            counts[effect] += getattr(self, effect) - before
            return out

        monkeypatch.setattr(cls, attr, wrapper)

    inner_try_send = OutputPort.try_send

    def try_send(self):
        counts["try_send"] += 1
        could_answer = self.queue_bytes and not (self.busy or self.halted)
        before = self.packets_sent
        inner_try_send(self)
        if self.packets_sent != before:
            counts["sent"] += 1
        else:
            # Idle, up and holding bytes, but no head packet is covered
            # by credits: the check was the work. Anything else was a
            # question the caller could have answered itself.
            counts["starved" if could_answer else "empty"] += 1

    monkeypatch.setattr(OutputPort, "try_send", try_send)
    counted(Simulator, "schedule", "schedule")
    counted(Simulator, "schedule_at", "schedule")
    counted(Simulator, "cancel", "cancel")
    # A re-entrant kick returns at once, so only the outermost call sees
    # ``grants`` move: no grant is counted twice.
    counted(VLArbiter, "kick", "kick", effect="grants")
    counted(BNodeSource, "next_packet", "next_packet")

    result = run_experiment(ExperimentConfig(**CELLS[name], **_SHORT))
    counts["events"] = result.events
    return counts


@pytest.mark.parametrize("name", sorted(CELLS))
def test_counts_are_pinned(name, monkeypatch):
    assert measure(name, monkeypatch) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_a_port_is_asked_only_when_it_can_answer(name):
    pinned = PINNED[name]
    assert pinned["sent"] > 1000  # not vacuous
    assert pinned["empty"] == 0
    assert pinned["try_send"] - pinned["starved"] <= 1.01 * pinned["sent"]
    if not CELLS[name]["cc"]:
        # No hot spot, no credit starvation: every entry transmits.
        assert pinned["try_send"] <= 1.01 * pinned["sent"]
    # One kick per queued packet and at most one per transmission.
    assert pinned["grants"] <= pinned["kick"] <= pinned["grants"] + pinned["sent"]
