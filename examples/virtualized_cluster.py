#!/usr/bin/env python3
"""Virtualized-cluster scenario: unpredictable, moving hotspots.

The paper's most dynamic case (section III-C) "could resemble a cluster
running a set of virtual machines or virtual jobs, where the
communication pattern is unknown". This example moves the hotspots
every ``lifetime`` and reports how the value of congestion control
decays as churn increases — including the feedback-loop argument: the
CCTI recovery timer (150 x 1.024 us) becomes slow relative to a 1 ms
hotspot lifetime.

Run:  python examples/virtualized_cluster.py
"""

import dataclasses

from repro.experiments import SCALES, ArtifactOptions, run_artifact


def main() -> None:
    # Figure 10's sweep on the quick fabric, over this example's lifetimes.
    scale = dataclasses.replace(
        SCALES["quick"], moving_lifetimes_ns=(4e6, 2e6, 1e6, 0.5e6)
    )
    print("Moving hotspots on a radix-8 fat-tree (100% B nodes, p=60%)")
    timer_ns = 150 * 1024
    print(f"CCTI recovery timer: {timer_ns / 1000:.1f} us per decrement; "
          f"a deep throttle takes ~{127 * timer_ns / 1e6:.1f} ms to unwind\n")
    print(f"{'lifetime':>9} {'all rcv, no CC':>15} {'all rcv, CC':>12} {'CC gain':>8}")
    fig, _ = run_artifact("fig10", scale, seed=11, opts=ArtifactOptions(p=0.6))
    for pt in fig.points:
        print(
            f"{pt.lifetime_ns / 1e6:7.1f}ms {pt.off.all_nodes:13.2f} G "
            f"{pt.on.all_nodes:10.2f} G {pt.improvement:7.2f}x"
        )
    print("\nAs hotspot churn rises, traffic self-spreads (the no-CC column")
    print("grows) and the closed feedback loop falls behind - the CC")
    print("advantage narrows, exactly the trend of the paper's figure 10.")


if __name__ == "__main__":
    main()
