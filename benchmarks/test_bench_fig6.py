"""Figure 6 — windy forest with 50 % B nodes, p swept 0..100 %.

Paper (648 nodes): same trends as figure 5 with a steeper tmax slope;
the improvement curve becomes more ∩-shaped as x grows.
"""

from benchmarks.windy_common import run_and_check


def test_bench_fig6_windy_50pct(benchmark, scale, seed):
    run_and_check(benchmark, scale, seed, "fig6", paper_peak=10.0)
