"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
import time

import pytest

from repro.core import CCManager, CCParams
from repro.engine import RngRegistry, Simulator
from repro.experiments.config import ScaleProfile
from repro.metrics import Collector
from repro.network import HcaConfig, Network, NetworkConfig
from repro.topology import folded_clos, three_stage_fat_tree
from repro.traffic import BNodeSource, FixedRateSource, HotspotSchedule

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis ships with the image
    settings = None

if settings is not None:
    # "ci" is the default: no wall-clock deadline (the simulator's first
    # call warms caches and would trip flaky DeadlineExceeded), and
    # derandomized so a red run reproduces byte-for-byte. print_blob
    # makes hypothesis print the @reproduce_failure seed on failure.
    settings.register_profile(
        "ci", deadline=None, derandomize=True, print_blob=True
    )
    settings.register_profile("dev", deadline=None, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden trace-digest fixtures under tests/golden/",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


# A micro scale profile so experiment-layer tests run in milliseconds.
MICRO_SCALE = ScaleProfile(
    name="micro",
    radix=4,
    n_hotspots=2,
    sim_time_ns=6e6,
    warmup_ns=3e6,
    cct_slope=0.5,
    moving_sim_time_ns=4e6,
    moving_lifetimes_ns=(0.5e6,),
    marking_rate=3,
)


def descendants(pid: int) -> list:
    """Live descendants of ``pid``, from ``/proc`` (Linux)."""
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            for task in os.listdir(f"/proc/{parent}/task"):
                with open(f"/proc/{parent}/task/{task}/children") as fh:
                    children = [int(c) for c in fh.read().split()]
                found.extend(children)
                todo.extend(children)
        except OSError:
            continue
    return found


def wait_processes_gone(pids, timeout_s: float = 5.0) -> list:
    """Wait for every pid to exit; returns the ones still running.

    A zombie counts as gone: an orphan is reparented to whatever runs
    as init here, which may never reap it.
    """
    def running(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    deadline = time.monotonic() + timeout_s
    left = [p for p in pids if running(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if running(p)]
    return left


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rng():
    return RngRegistry(12345)


def build_network(
    sim,
    *,
    radix: int = 4,
    collector: Collector | None = None,
    cc: bool = False,
    cc_params: CCParams | None = None,
    net_cfg: NetworkConfig | None = None,
):
    """A small live fat-tree network, optionally with CC installed.

    Returns ``(network, collector, manager_or_None)``.
    """
    topo = three_stage_fat_tree(radix)
    if collector is None:
        collector = Collector(topo.n_hosts, warmup_ns=0.0)
    net = Network(sim, topo, net_cfg or NetworkConfig(), collector=collector)
    manager = None
    if cc:
        manager = CCManager(
            cc_params or CCParams.paper_table1().with_(cct_slope=0.5)
        ).install(net)
    return net, collector, manager


def attach_fixed_flow(net, rng, src: int, dst: int, rate_gbps: float = 13.5):
    """Attach a single-destination constant-rate source to HCA ``src``."""
    gen = FixedRateSource(
        src, net.topology.n_hosts, dst, rate_gbps, rng.stream("gen", src)
    )
    gen.bind(net.hcas[src])
    net.hcas[src].attach_generator(gen)
    return gen


def attach_hotspot_contributors(net, rng, hotspot: int, contributors):
    """All ``contributors`` saturate ``hotspot`` (C-node behaviour)."""
    schedule = HotspotSchedule([hotspot])
    gens = []
    for node in contributors:
        gen = BNodeSource(
            node,
            net.topology.n_hosts,
            1.0,
            rng.stream("gen", node),
            hotspot=lambda s=schedule: s.target(0),
        )
        gen.bind(net.hcas[node])
        net.hcas[node].attach_generator(gen)
        gens.append(gen)
    return schedule, gens
