"""Figure 8 — pure windy forest (100 % B nodes), p swept 0..100 %.

Paper (648 nodes): at p=0 CC costs ~3 % (no real congestion to
resolve); at p=100 CC is neutral (no victims to rescue); in between the
improvement peaks at p=60 with a seventeen-fold increase - the paper's
headline number.
"""

from benchmarks.windy_common import run_and_check


def test_bench_fig8_windy_100pct(benchmark, scale, seed):
    fig = run_and_check(benchmark, scale, seed, "fig8", paper_peak=17.0)
    # The paper's "negligible penalty" claim at p=0: bounded CC cost on
    # the (purely uniform) traffic.
    p0 = fig.points[0]
    assert p0.on.non_hotspot > 0.9 * p0.off.non_hotspot
