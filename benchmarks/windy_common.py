"""Shared driver and shape assertions for the windy figures 5-8."""

from repro.experiments import ArtifactOptions, run_artifact

P_VALUES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def run_and_check(benchmark, scale, seed, artifact, *, paper_peak):
    """Run one figure's p-sweep, print its three panels, check shapes.

    Shape criteria (paper section V-B):

    * panel (a): CC-on non-hotspot rate beats CC-off wherever hotspot
      congestion exists, and never exceeds the analytic tmax;
    * panel (b): hotspots stay near the 13.6 Gbit/s sink cap, with a
      bounded CC penalty;
    * panel (c): for x < 100 % there are always permanent contributors,
      so CC wins at every p; for x = 100 % the improvement curve is
      ∩-shaped with ~neutral endpoints (no congestion to resolve at
      p = 0, no victims to rescue at p = 100).
    """
    from benchmarks.conftest import run_once

    fig, _ = run_once(
        benchmark,
        run_artifact,
        artifact,
        scale,
        seed=seed,
        opts=ArtifactOptions(p_values=P_VALUES),
    )
    print()
    print(fig.format())
    peak = fig.peak_improvement()
    print(
        f"peak improvement {peak.improvement:.1f}x at p={peak.p * 100:.0f}% "
        f"(paper, 648 nodes: ~{paper_peak}x at p=60%)"
    )

    pts = {round(pt.p, 2): pt for pt in fig.points}
    pure_windy = fig.b_fraction >= 1.0

    # Panel (a).
    for p, pt in pts.items():
        congestion_exists = (0.0 < p) if pure_windy else True
        if congestion_exists and p < 1.0:
            assert pt.on.non_hotspot > pt.off.non_hotspot, f"p={p}"
        assert pt.on.non_hotspot <= pt.tmax * 1.05 + 0.05, f"p={p}"

    # Panel (b): permanent hotspot load exists except pure-windy p=0.
    for p, pt in pts.items():
        if pure_windy and p == 0.0:
            continue
        assert pt.off.hotspot > 11.5, f"p={p}"
        assert pt.on.hotspot > 0.8 * pt.off.hotspot, f"p={p}"

    # Panel (c).
    interior = max(pt.improvement for p, pt in pts.items() if 0.0 < p < 1.0)
    assert interior > 1.3
    if pure_windy:
        # ∩ shape with ~neutral endpoints.
        assert 0.8 < pts[0.0].improvement < 1.3
        assert 0.8 < pts[1.0].improvement < 1.3
        assert interior > pts[0.0].improvement + 0.2
        assert interior > pts[1.0].improvement + 0.2
    else:
        # Permanent C-node congestion: CC wins wherever the B nodes add
        # hotspot load; at p=0 the C-node population alone may be thin
        # at reduced scale, so only "no harm" is required there.
        for p, pt in pts.items():
            floor = 1.15 if p > 0.0 else 0.9
            assert pt.improvement > floor, f"p={p}"
    return fig
