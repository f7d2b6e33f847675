"""Transport overhead benchmark: what the reliable transport adds.

Runs the quick-scale Table II campaign twice —

* **transport off** — the default, exercising the disabled fast path
  (one ``is not None`` branch per packet event in the HCA hot loop);
* **transport on** — full Reliable Connection machinery: PSN
  sequencing, receive-side ordering checks, coalesced acks, and a
  retransmission timer per active flow.

The transport-on run is recorded for the record; on a clean fabric it
must not retransmit at all. The datapoint lands in
``BENCH_transport.json`` at the repository root. The layer's cost is
measured by the benchmark's ``quick_moving_cc_rc`` workload, read as
``transport.on_off_ratio`` against ``quick_moving_cc``.
"""

import json
import os
import time

from repro.experiments import run_table2
from repro.transport import TransportConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATAPOINT_PATH = os.path.join(REPO_ROOT, "BENCH_transport.json")


def test_bench_transport_overhead(benchmark, scale, seed):
    t0 = time.perf_counter()
    plain = run_table2(scale, seed=seed, jobs=1)
    plain_seconds = time.perf_counter() - t0

    def transport_run():
        t = time.perf_counter()
        result = run_table2(
            scale, seed=seed, jobs=1, transport=TransportConfig()
        )
        return result, time.perf_counter() - t

    with_rc, rc_seconds = benchmark.pedantic(
        transport_run, rounds=1, iterations=1
    )

    cells = [
        with_rc.baseline_no_cc, with_rc.baseline_cc,
        with_rc.hotspots_no_cc, with_rc.hotspots_cc,
    ]
    # A clean lossless fabric never loses a byte: the reliable layer
    # must be pure bookkeeping here — no retransmissions, no failures.
    assert all(c.retx_packets == 0 for c in cells)
    assert all(c.failed_flows == 0 for c in cells)

    datapoint = {
        "benchmark": "table2_transport_overhead",
        "scale": scale.name,
        "seed": seed,
        "transport_off_seconds": round(plain_seconds, 3),
        "transport_on_seconds": round(rc_seconds, 3),
        "transport_overhead": round(rc_seconds / plain_seconds, 3),
    }
    with open(DATAPOINT_PATH, "w") as fh:
        json.dump(datapoint, fh, indent=2)
        fh.write("\n")

    print()
    print(f"Table II ({scale.name}) transport off {plain_seconds:.2f}s, "
          f"on {rc_seconds:.2f}s ({datapoint['transport_overhead']:.2f}x)")

    # The full RC machinery is real work — every coalesced ack is a
    # genuine packet traversing the fabric, roughly doubling the event
    # count — so ~2.5x is expected; past 3x the per-packet bookkeeping
    # itself got expensive.
    assert rc_seconds < 3.0 * plain_seconds
