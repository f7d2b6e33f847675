"""Figure 7 — windy forest with 75 % B nodes, p swept 0..100 %.

Paper (648 nodes): same trends again; peak improvement grows while the
endpoint improvements shrink (the ∩ sharpens).
"""

from benchmarks.windy_common import run_and_check


def test_bench_fig7_windy_75pct(benchmark, scale, seed):
    run_and_check(benchmark, scale, seed, "fig7", paper_peak=12.0)
