"""Figure 9 — moving silent congestion trees (hotspot lifetime sweep).

Paper (648 nodes, lifetimes 10 ms -> 1 ms):

* (a) 20 % V / 80 % C: CC-on 723 vs CC-off 467 Mbit/s at 10 ms (+55 %),
  shrinking to +4 % at 1 ms;
* (b) 60 % V / 40 % C: +160 % at 10 ms shrinking to +10 % at 1 ms.

Shape criteria: CC-on >= CC-off at every lifetime; the CC advantage
shrinks as lifetimes shrink; the general receive level rises as the
traffic self-spreads.
"""

from repro.experiments import run_artifact

from benchmarks.conftest import run_once


def _check(fig):
    pts = fig.points  # ordered from the longest lifetime down
    for pt in pts:
        assert pt.improvement > 0.97, f"lifetime {pt.lifetime_ns}"
    # The advantage at the longest lifetime clearly beats the shortest.
    assert pts[0].improvement > pts[-1].improvement
    # Traffic self-spreads as hotspots move faster: the no-CC rate at
    # the shortest lifetime is at least that of the longest.
    assert pts[-1].off.all_nodes >= 0.95 * pts[0].off.all_nodes


def test_bench_fig9a_20v_80c(benchmark, scale, seed):
    fig, _ = run_once(benchmark, run_artifact, "fig9a", scale, seed=seed)
    print()
    print(fig.format())
    _check(fig)


def test_bench_fig9b_60v_40c(benchmark, scale, seed):
    fig, _ = run_once(benchmark, run_artifact, "fig9b", scale, seed=seed)
    print()
    print(fig.format())
    _check(fig)
