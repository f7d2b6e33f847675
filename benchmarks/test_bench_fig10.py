"""Figure 10 — moving windy congestion trees (100 % B nodes).

Paper (648 nodes, lifetimes 10 ms -> 1 ms, p = 30/60/90 %): enabling CC
improves the all-node receive rate at every lifetime, with the
improvement shrinking as the hotspot lifetime shrinks and the traffic
pattern itself alleviates congestion.
"""

import pytest

from repro.experiments import ArtifactOptions, run_artifact

from benchmarks.conftest import run_once


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9], ids=["p30", "p60", "p90"])
def test_bench_fig10_moving_windy(benchmark, scale, seed, p):
    fig, _ = run_once(
        benchmark, run_artifact, "fig10", scale,
        seed=seed, opts=ArtifactOptions(p=p),
    )
    print()
    print(fig.format())
    pts = fig.points
    for pt in pts:
        assert pt.improvement > 0.95, f"lifetime {pt.lifetime_ns}"
    # CC's edge at the longest lifetime exceeds the shortest lifetime's.
    assert pts[0].improvement >= pts[-1].improvement - 0.05
    # Somewhere in the sweep CC wins clearly.
    assert max(pt.improvement for pt in pts) > 1.05
