"""The seven workloads: what runs, why, and the inputs a seed generates.

A workload turns ``--seed`` into a *spec* — plain JSON data — and the
program under test receives only that spec: simulation and campaign
specs go to a fresh child process (:mod:`benchmarks.perf.child`), the
serve spec to :mod:`benchmarks.perf.serve_load`.

Sizes are host seconds measured on the 2-core reference sandbox with
the tree this benchmark was added to; every simulation round is kept
at or above 2 s of event loop so that a round is long against timer
and scheduler jitter, and short enough that three rounds of every
workload fit the driver's time cap.

The CC workloads use the *windy* node mix (100 % B nodes, p = 0.5 —
the paper's Fig. 10 pattern) rather than the silent C/V mix: with
random V-node and hotspot placement the silent mix executes 6-10 %
more or fewer events from one seed to the next (inter-quartile, 32 and
648 hosts alike), the windy mix about 2 %. The benchmark is run over
many seeds and must repeat within its bounds, so the steadier mix is
the input; the silent pattern is still exercised by ``campaign_cold``,
where six cells average the placement out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Seeds with pinned simulated statistics in ``expected.json``: the
#: default seed and one held back from development.
PINNED_SEEDS = (7, 11)


def derive_seed(seed: int, index: int) -> int:
    """A well-mixed 31-bit sub-seed for item ``index`` of run ``seed``."""
    digest = hashlib.sha256(f"perf:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" | "campaign" | "serve"
    why: str
    make: Callable[[int], dict]
    #: For "layer on" workloads: the workload with the identical config
    #: and the layer off, against which on/off ratios are taken.
    ratio_base: Optional[str] = None
    #: Whether the gated times are scaled by host speed. True for work
    #: bound by the interpreter, like the reference loop; False for the
    #: daemon, whose requests mostly wait (poll sleeps, socket round
    #: trips, queueing): its raw ``run_s`` repeats within 5 % even in a
    #: busy hour, and scaling it by a CPU-speed factor only adds noise.
    host_scaled: bool = True


def _sim(scale: str, *, trace: bool = False, transport: bool = False,
         scale_override: Optional[dict] = None, **fields) -> Callable[[int], dict]:
    def make(seed: int) -> dict:
        return {
            "kind": "sim",
            "scale": scale,
            "scale_override": scale_override,
            "trace": trace,
            "transport": transport,
            "fields": dict(fields, seed=seed),
        }
    return make


_MOVING = dict(
    cc=True, b_fraction=1.0, p=0.5, hotspot_lifetime_ns=1e6,
    sim_time_ns=6e6, warmup_ns=2e6,
)

#: Radix-4 fat-tree (8 hosts): a cell costs ~0.1 s, so it measures the
#: harness and the daemon, not the simulator.
MICRO_SCALE = {"name": "perf-micro", "radix": 4, "n_hotspots": 2}

N_CAMPAIGN_CELLS = 6
#: Per round; latency percentiles pool the hits of all rounds.
N_SERVE_CELLS = 8
N_SERVE_HITS = 400


def _campaign(seed: int) -> dict:
    cells = [
        {
            "kind": "sim", "scale": "quick", "scale_override": None,
            "trace": False, "transport": False,
            "fields": dict(
                cc=True, b_fraction=0.0, c_fraction_of_rest=0.8,
                sim_time_ns=1.5e6, warmup_ns=0.6e6,
                seed=derive_seed(seed, i), name=f"perf-cell-{i}",
            ),
        }
        for i in range(N_CAMPAIGN_CELLS)
    ]
    return {"kind": "campaign", "jobs": 2, "cells": cells}


def _serve(seed: int) -> dict:
    """Unique micro cells in the daemon's wire format, and the order in
    which the hit phase revisits them."""
    scale = dict(
        MICRO_SCALE, sim_time_ns=6e5, warmup_ns=2e5, cct_slope=0.5,
        moving_sim_time_ns=4e5, moving_lifetimes_ns=[2e5], marking_rate=3,
    )
    cells = [
        {"scale": scale, "seed": derive_seed(seed, i),
         "sim_time_ns": 6e5, "warmup_ns": 2e5}
        for i in range(N_SERVE_CELLS)
    ]
    hit_order = [
        derive_seed(seed, 1000 + i) % N_SERVE_CELLS for i in range(N_SERVE_HITS)
    ]
    return {
        "kind": "serve", "jobs": 1, "clients": 2,
        "cells": cells, "hit_order": hit_order,
    }


def micro_sim(seed: int = 7, **kw) -> dict:
    """The radix-4 micro cell: warm-up child and harness self-tests."""
    fields = dict(
        cc=True, b_fraction=1.0, p=0.5, hotspot_lifetime_ns=2e5,
        sim_time_ns=1e6, warmup_ns=3e5,
    )
    return _sim("quick", scale_override=MICRO_SCALE, **dict(fields, **kw))(seed)


WORKLOADS: List[Workload] = [
    Workload(
        "quick_uniform_nocc", "sim",
        "32 hosts, uniform traffic, CC off: only engine, ports/arbiter, "
        "traffic and metrics run; a CC, trace or transport change must not "
        "move it",
        _sim("quick", cc=False, contributors_active=False,
             sim_time_ns=15e6, warmup_ns=3e6),
    ),
    Workload(
        "quick_moving_cc", "sim",
        "32 hosts, CC on, hotspots moving every 1 ms: switch marking, CNP "
        "return, BECN handling and the CCTI timer all run hot; base for the "
        "next two",
        _sim("quick", **_MOVING),
    ),
    Workload(
        "quick_moving_cc_traced", "sim",
        "same config with the trace layer on (digest sink and online "
        "auditor): the added cost is the trace layer's",
        _sim("quick", trace=True, **_MOVING),
        ratio_base="quick_moving_cc",
    ),
    Workload(
        "quick_moving_cc_rc", "sim",
        "same config with the reliable transport on: acks travel as "
        "return-path events, the added cost is the transport layer's",
        _sim("quick", transport=True, **_MOVING),
        ratio_base="quick_moving_cc",
    ),
    Workload(
        "paper_windy_cc", "sim",
        "the paper's 648-host fabric, CC on, static trees: the only deep "
        "event backlog, working set past cache, real build time and memory",
        _sim("paper", cc=True, b_fraction=1.0, p=0.5,
             sim_time_ns=1.5e6, warmup_ns=0.6e6),
    ),
    Workload(
        "campaign_cold", "campaign",
        "six equal-cost cells through run_campaign at jobs=2 into an empty "
        "store, then again from the warm store: supervisor and store "
        "overhead",
        _campaign,
    ),
    Workload(
        "serve_mixed", "serve",
        "the daemon over HTTP, 2 closed-loop clients: 8 cache-miss cells, "
        "then 400 hits on them, per round; the simulator is made negligible",
        _serve,
        host_scaled=False,
    ),
]

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
