"""Figure 5 — windy forest with 25 % B nodes, p swept 0..100 %.

Paper (648 nodes): CC lifts the non-hotspot receive rate toward tmax at
every p (e.g. 0.55 -> 4.75 Gbit/s at p=0), hotspots stay at ~13.3-13.6,
and total throughput improves by 6.0x (p=100) to 8.7x (p=60).
"""

from benchmarks.windy_common import run_and_check


def test_bench_fig5_windy_25pct(benchmark, scale, seed):
    run_and_check(benchmark, scale, seed, "fig5", paper_peak=8.7)
