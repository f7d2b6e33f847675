"""Table II — performance numbers for the silent forest (Gbit/s).

Paper values (648 nodes, 8 hotspots, 80 % C / 20 % V):

    no hotspots, no CC      avg rcv          2.699
    no hotspots, CC on      avg rcv          2.701
    hotspots, no CC         hotspot avg     13.602
                            non-hotspot      0.168
    hotspots, CC on         hotspot avg     13.279
                            non-hotspot      2.246
    total throughput        without CC     216.073
                            with CC       1543.793   (7.1x)

Shape criteria checked at any scale: the uniform baseline is unharmed
by CC; hotspots saturate near the 13.6 Gbit/s sink cap with and without
CC (small CC penalty allowed); the non-hotspot rate collapses without
CC and recovers most of the baseline with CC; total throughput improves.
"""

from repro.experiments import run_artifact

from benchmarks.conftest import run_once


def test_bench_table2(benchmark, scale, seed):
    result, _ = run_once(benchmark, run_artifact, "table2", scale, seed=seed)
    print()
    print(result.format())
    rows = result.rows()

    baseline = rows["no_hotspots_no_cc_avg"]
    # CC is harmless on a lightly loaded network (paper: 2.699 vs 2.701).
    assert rows["no_hotspots_cc_avg"] > 0.97 * baseline

    # Hotspots saturate near the sink cap; CC costs only a small share.
    assert rows["hotspots_no_cc_hotspot_avg"] > 12.0
    assert rows["hotspots_cc_hotspot_avg"] > 0.85 * rows["hotspots_no_cc_hotspot_avg"]

    # The collapse and the recovery.
    assert rows["hotspots_no_cc_non_hotspot_avg"] < 0.5 * baseline
    assert (
        rows["hotspots_cc_non_hotspot_avg"]
        > 2.0 * rows["hotspots_no_cc_non_hotspot_avg"]
    )
    assert rows["hotspots_cc_non_hotspot_avg"] > 0.8 * baseline

    # Total network throughput improves by enabling CC.
    assert result.improvement > 1.3
